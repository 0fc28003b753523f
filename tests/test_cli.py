"""End-to-end CLI behaviour via in-process main()."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccmax import canonical_form, cli, from_edges, g_kl, parse_graph6, structure, to_graph6
from ccmax.cli import main
from ccmax.structure import blocks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_single_graph(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("Bw\n")
        code, out, _ = run(capsys, "compute", str(f))
        assert code == 0
        assert out == "Bw 1/1 1\n"

    def test_multiple_graphs(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("Bw\n\nC~\n")  # blank lines skipped
        code, out, _ = run(capsys, "compute", str(f))
        assert code == 0
        assert out.splitlines() == ["Bw 1/1 1", "C~ 1/1 1"]

    def test_per_vertex(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(parse_graph6("Cx")) + "\n")  # paw-like
        code, out, _ = run(capsys, "compute", "--per-vertex", str(f))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("  ") for line in lines[1:])

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = run(capsys, "compute")
        assert code == 0 and out.startswith("Bw 1/1")

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = run(capsys, "compute", "-")
        assert code == 0 and out.startswith("Bw ")

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("~~~\n")
        code, _, err = run(capsys, "compute", str(f))
        assert code == 1 and err.startswith("error:")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "compute", "/nonexistent/g.g6")
        assert code == 1 and "error:" in err


class TestDelta:
    def test_known_value(self, capsys, tmp_path):
        # C4 plus a diagonal becomes the diamond: 5/6 gain
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(parse_graph6("Cr")) + "\n")
        g = parse_graph6("Cr")
        u, v = next(
            (a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if not g.has_edge(a, b)
        )
        code, out, _ = run(capsys, "delta", "-u", str(u), "-v", str(v), str(f))
        assert code == 0
        assert out.split()[1] == "5/6"

    def test_existing_edge_rejected(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("Bw\n")
        code, _, err = run(capsys, "delta", "-u", "0", "-v", "1", str(f))
        assert code == 1 and "error:" in err


class TestGraph6Errors:
    @pytest.mark.parametrize(
        "argv", [["compute"], ["delta", "-u", "0", "-v", "2"], ["classify"]], ids=lambda a: a[0]
    )
    def test_names_the_bad_line(self, capsys, monkeypatch, argv):
        # Line numbers are 1-based and count blank lines.
        path = to_graph6(from_edges(3, [(0, 1), (1, 2)]))
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{path}\n\nBx\n"))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == "error: line 3: nonzero padding bits\n"
        assert len(out.splitlines()) == 1


class TestGen:
    def test_gkl(self, capsys):
        code, out, _ = run(capsys, "gen", "gkl", "-k", "3", "-l", "2")
        assert code == 0
        assert parse_graph6(out.strip()).degree_sequence() == (3,) * 8

    def test_caveman_pair(self, capsys):
        code1, out1, _ = run(capsys, "gen", "caveman", "-k", "3", "-l", "2")
        code2, out2, _ = run(capsys, "gen", "caveman-rewired", "-k", "3", "-l", "2")
        assert code1 == code2 == 0
        a, b = parse_graph6(out1.strip()), parse_graph6(out2.strip())
        assert a.n == b.n == 8 and a.m == b.m

    def test_family_b(self, capsys, tmp_path):
        f = tmp_path / "sk.json"
        f.write_text(
            json.dumps(
                {
                    "edges": [[0, 1]],
                    "leaf_marks": {"0": "triangle", "1": "triangle"},
                }
            )
        )
        code, out, _ = run(capsys, "gen", "family-b", "--skeleton", str(f))
        assert code == 0 and parse_graph6(out.strip()).n == 6

    def test_bad_params(self, capsys):
        code, _, err = run(capsys, "gen", "gkl", "-k", "2", "-l", "2")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"edges": [[0, 1], [1, 2]], "leaf_marks": {}}, "leaf_marks"),
            ({}, "edges"),
            ([], "object"),
            ({"edges": 5}, "edges"),
            ({"edges": [[0, 1], [1, 2]], "leaf_marks": [1, 2]}, "leaf_marks"),
            ({"edges": [[0, 1], [1, 2]], "leaf_marks": {}, "inner_marks": 7}, "inner_marks"),
            ({"edges": [[0, 10**12]]}, "tree"),
            ({"edges": [[0, 1.9]], "leaf_marks": {"0": "triangle", "1": "triangle"}}, "edges"),
            ({"edges": [[0, True]], "leaf_marks": {"0": "triangle", "1": "triangle"}}, "edges"),
            ({"edges": [[0, "1"]], "leaf_marks": {"0": "triangle", "1": "triangle"}}, "edges"),
            ({"edges": [[0, 1]], "leaf_marks": [[0, "triangle"], ["1", "triangle"]]}, "leaf_marks"),
            ({"edges": [[0, 1]], "leaf_marks": {"0": "triangle", "1": 3}}, "leaf_marks"),
        ],
        ids=[
            "unmarked-leaves",
            "no-edges",
            "not-an-object",
            "edges-not-a-list",
            "leaf-marks-not-an-object",
            "inner-marks-not-a-list",
            "far-vertex",
            "float-vertex",
            "bool-vertex",
            "numeric-string-vertex",
            "leaf-marks-pair-list",
            "non-string-mark",
        ],
    )
    def test_bad_skeleton(self, capsys, tmp_path, doc, named):
        f = tmp_path / "sk.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "gen", "family-b", "--skeleton", str(f))
        assert code == 1 and "error:" in err and named in err


class TestClassify:
    def test_fields(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text(to_graph6(g_kl(3, 2)) + "\n")
        code, out, _ = run(capsys, "classify", str(f))
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 8
        assert obj["type"] == [0, 0, 0]
        assert obj["blocks_legal"] is False
        assert obj["in_b0"] is False and obj["in_b"] is False
        assert obj["cut_vertices"] == []
        assert obj["block_kinds"] == ["other"]

    def test_b_member(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("EtPG\n"))
        code, out, _ = run(capsys, "classify")
        obj = json.loads(out)
        assert code == 0
        assert obj["in_b"] is True and obj["in_b_literal"] is True
        assert obj["s_set"] == []
        assert sorted(obj["block_kinds"]) == ["K2", "K3", "K3"]

    def test_small_graph_null_membership(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = run(capsys, "classify")
        obj = json.loads(out)
        assert code == 0
        assert obj["in_b0"] is None and obj["in_b"] is None

    def test_one_decomposition_per_graph(self, capsys, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g.n)
            return blocks(g)

        # wherever the name was imported from ccmax.structure
        for module in (structure, cli):
            monkeypatch.setattr(module, "blocks", counting, raising=False)
        monkeypatch.setattr("sys.stdin", io.StringIO("EtPG\n"))  # order 6, in B
        code, out, _ = run(capsys, "classify")
        assert code == 0 and json.loads(out)["in_b"] is True
        assert calls == [6]

    def test_disconnected_reports_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("B_\n"))  # K2 + isolated
        code, out, _ = run(capsys, "classify")
        assert code == 1
        assert "error" in json.loads(out)


class TestEnumerate:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "4")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 11
        assert lines == sorted(lines)

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-n", "6", "--count-only")
        assert code == 0 and out.strip() == "156"

    def test_regular_connected(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-n", "8", "--regular", "3", "--connected",
            "--count-only",
        )
        assert code == 0 and out.strip() == "5"

    def test_max_deg_workers(self, capsys):
        code1, out1, _ = run(
            capsys, "enumerate", "-n", "7", "--max-deg", "3", "--connected"
        )
        code2, out2, _ = run(
            capsys, "enumerate", "-n", "7", "--max-deg", "3", "--connected",
            "--workers", "3",
        )
        assert code1 == code2 == 0 and out1 == out2
        assert len(out1.splitlines()) == 64

    def test_capability_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "-n", "9")
        assert code == 1 and "error:" in err

    def test_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["enumerate", "-n", "5", "--max-deg", "3", "--regular", "3"])
        capsys.readouterr()


class TestVerify:
    def test_t1_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "t1", "-k", "3", "-n", "6")
        assert code == 0 and "PASS" in out

    def test_t1_json(self, capsys):
        code, out, _ = run(capsys, "verify", "t1", "-k", "3", "-n", "8", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_found"]["num"] == "1"
        assert data["extremal_graphs"] == [canonical_form(g_kl(3, 2)).g6]

    def test_t23(self, capsys):
        code, out, _ = run(capsys, "verify", "t23", "-n", "6")
        assert code == 0 and "PASS" in out

    def test_t4_workers(self, capsys):
        code, out, _ = run(capsys, "verify", "t4", "-n", "4", "--workers", "2")
        assert code == 0 and "PASS" in out

    def test_caveman(self, capsys):
        code, out, _ = run(capsys, "verify", "caveman", "-k", "3", "-l", "2")
        assert code == 0 and "PASS" in out

    @pytest.mark.parametrize(
        "argv, theorem_id, parameters",
        [
            (["t1", "-k", "3", "-n", "6"], "T1", {"k": 3, "n": 6}),
            (["t23", "-n", "6"], "T3", {"n": 6}),
            (["t4", "-n", "4"], "T4", {"n": 4}),
            (["caveman", "-k", "3", "-l", "2"], "caveman_rewire", {"k": 3, "l": 2}),
        ],
        ids=["t1", "t23", "t4", "caveman"],
    )
    def test_dispatch(self, capsys, argv, theorem_id, parameters):
        code, out, _ = run(capsys, "verify", *argv, "--json")
        data = json.loads(out)
        assert code == 0
        assert (data["theorem_id"], data["parameters"]) == (theorem_id, parameters)

    @pytest.mark.parametrize("k, n", [("2", "6"), ("3", "7")], ids=["k-below-3", "odd-order"])
    def test_bad_params_exit_1(self, capsys, k, n):
        code, _, err = run(capsys, "verify", "t1", "-k", k, "-n", n)
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["verify", "caveman", "-k", "3", "-l", "2", "--workers", "2"]],
        ids=["no-theorem", "caveman-workers"],
    )
    def test_missing_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()


def test_a_closed_output_pipe_is_no_error(tmp_path):
    # more output than a pipe holds, so the command writes after the reader
    # has gone
    graphs = tmp_path / "graphs.g6"
    graphs.write_text("Bw\n" * 20000)
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccmax.cli", "compute", str(graphs)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"Bw 1/1 1\n"
    proc.stdout.close()
    assert proc.wait(timeout=20) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()

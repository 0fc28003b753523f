"""The summary statistics and the failure handling of scripts/bench.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [{"name": "wall", "better": "lower"}, {"name": "rate", "better": "higher"}]


def pairs_of(base, head):
    return [
        {"base": {"wall": bw, "rate": br}, "head": {"wall": hw, "rate": hr}}
        for (bw, br), (hw, hr) in zip(base, head)
    ]


def test_head_wins_count_in_the_direction_of_better(bench):
    pairs = pairs_of(
        base=[(2.0, 10.0), (2.0, 10.0), (2.0, 10.0), (2.0, 10.0)],
        head=[(1.0, 12.0), (1.5, 8.0), (3.0, 9.0), (2.0, 11.0)],
    )
    out = bench.summarise(pairs, DECLARED)
    # a tie is no win either way
    assert out["wall"]["head_wins"] == 2
    assert out["rate"]["head_wins"] == 2
    assert out["wall"]["better"] == "lower" and out["rate"]["better"] == "higher"
    assert out["wall"]["pairs"] == out["rate"]["pairs"] == 4


def test_iqr_comes_from_the_base_runs_only(bench):
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    pairs = pairs_of(
        base=[(w, 1.0) for w in base],
        head=[(w, 1.0) for w in (0.0, 10.0, 100.0, 1000.0, 10000.0)],
    )
    out = bench.summarise(pairs, DECLARED)["wall"]
    q1, median, q3 = bench.quartiles(base)
    assert out["base_iqr"] == q3 - q1 == 3.0
    assert out["base_median"] == median == 3.0
    assert out["head_median"] == 100.0


def test_a_single_pair(bench):
    assert bench.quartiles([4.0]) == (4.0, 4.0, 4.0)
    out = bench.summarise(pairs_of(base=[(2.0, 5.0)], head=[(1.0, 4.0)]), DECLARED)
    assert out["wall"] == {
        "better": "lower",
        "base_median": 2.0,
        "head_median": 1.0,
        "base_iqr": 0.0,
        "head_wins": 1,
        "pairs": 1,
    }
    assert out["rate"]["head_wins"] == 0


def fake_runs(bench, monkeypatch, fails):
    """Replace git, the export and perfbench itself; `fails(side, trace)`
    says which runs fail. Returns the list of runs made."""
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []

    def perfbench(tree, workload, seed, seconds, trace):
        side = "head" if tree == bench.ROOT else "base"
        runs.append((workload, side, trace))
        if fails(side, trace):
            proc = subprocess.CompletedProcess(
                [], 3, stdout="line 1\n", stderr="Traceback\nTraceError: x\n"
            )
            raise bench.RunFailed(tree, workload, proc)
        return {m["name"]: 1.0 for m in declared}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench, "git", lambda *args: "abc")
    return runs


def test_a_failed_traced_run_keeps_the_pairs(bench, monkeypatch, tmp_path):
    runs = fake_runs(bench, monkeypatch, lambda side, trace: side == "head" and trace == 1)
    out = tmp_path / "bench.json"
    argv = ["--base", "x", "--workload", "w1", "--workload", "w2", "--pairs", "2"]
    argv += ["--out", str(out)]
    assert bench.main(argv) == 1
    report = json.loads(out.read_text())
    for workload in ("w1", "w2"):
        entry = report["workloads"][workload]
        assert len(entry["pairs"]) == 2
        assert entry["per_layer"]["base"]["norm_wall_s"] == 1.0
        assert entry["per_layer"]["head"] == {
            "failed": {"returncode": 3, "tail": ["line 1", "Traceback", "TraceError: x"]}
        }
    # the failure stopped nothing: every run was made
    assert len(runs) == 2 * (2 * 2 + 2)


def test_a_failed_end_to_end_run_stops_the_comparison(bench, monkeypatch, tmp_path):
    runs = fake_runs(bench, monkeypatch, lambda side, trace: side == "base" and trace == 0)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench.main(["--base", "x", "--workload", "w1", "--out", str(out)])
    assert not out.exists()
    assert runs == [("w1", "base", 0)]

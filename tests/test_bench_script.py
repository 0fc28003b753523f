"""The summary statistics, the failure handling and the working-tree export
of scripts/bench.py."""

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
        side = tree.name
        runs.append((workload, side, trace))
        if fails(side, trace):
            proc = subprocess.CompletedProcess(
                [], 3, stdout="line 1\n", stderr="Traceback\nTraceError: x\n"
            )
            raise bench.RunFailed(tree, workload, proc)
        return {m["name"]: 1.0 for m in declared}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench, "git", lambda *args, **kwargs: "abc")
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
    assert len(runs) == 2 * (2 * 2 + 2 * 3)


def test_a_failed_end_to_end_run_stops_the_comparison(bench, monkeypatch, tmp_path):
    runs = fake_runs(bench, monkeypatch, lambda side, trace: side == "base" and trace == 0)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench.main(["--base", "x", "--workload", "w1", "--out", str(out)])
    assert not out.exists()
    assert runs == [("w1", "base", 0)]


def test_traced_passes_alternate_and_are_all_kept(bench, monkeypatch, tmp_path):
    runs = fake_runs(bench, monkeypatch, lambda side, trace: False)
    out = tmp_path / "bench.json"
    assert bench.main(["--base", "x", "--workload", "w1", "--pairs", "1", "--out", str(out)]) == 0
    traced = [side for _, side, trace in runs if trace == 1]
    assert traced == ["base", "head", "head", "base", "base", "head"]
    entry = json.loads(out.read_text())["workloads"]["w1"]
    assert [len(entry["traced"][side]) for side in ("base", "head")] == [3, 3]
    assert entry["per_layer"]["head"] == entry["traced"]["head"][0]


def test_layer_medians(bench):
    passes = [{"s": 1.0, "calls": 7}, {"s": 3.0, "calls": 7}, {"s": 2.0, "calls": 9}]
    assert bench.layer_medians(passes) == {"s": 2.0, "calls": 7}
    failed = {"failed": {"returncode": None, "tail": []}}
    assert bench.layer_medians([passes[0], failed, passes[1]]) == failed


def time_out(cmd, timeout):
    raise subprocess.TimeoutExpired(cmd, timeout, output=b"partial\n")


def fake_subprocess(bench, monkeypatch, fails, failure=time_out):
    """Replace git, the export and the perfbench process; `fails(side,
    trace)` says which runs fail, and `failure(cmd, timeout)` is what such
    a run returns or raises (by default it times out after writing one
    line)."""
    declared = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"correct": True, "metrics": {m["name"]: {"value": 1.0} for m in declared}}

    def run(cmd, cwd, timeout, **kwargs):
        if fails(Path(cwd).name, int(cmd[cmd.index("--trace") + 1])):
            return failure(cmd, timeout)
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench, "git", lambda *args, **kwargs: "abc")


TIMED_OUT = {"returncode": None, "tail": ["partial", "timed out after 600 s"]}


def test_a_timed_out_run_is_a_failed_run(bench, monkeypatch):
    fake_subprocess(bench, monkeypatch, lambda side, trace: True)
    with pytest.raises(bench.RunFailed) as err:
        bench.perfbench(Path("elsewhere"), "w1", 1, 1, 0)
    assert err.value.record == TIMED_OUT


def test_a_timed_out_traced_run_keeps_the_pairs(bench, monkeypatch, tmp_path):
    fake_subprocess(bench, monkeypatch, lambda side, trace: side == "head" and trace == 1)
    out = tmp_path / "bench.json"
    assert bench.main(["--base", "x", "--workload", "w1", "--pairs", "2", "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["w1"]
    assert len(entry["pairs"]) == 2
    assert entry["per_layer"]["base"]["norm_wall_s"] == 1.0
    assert entry["per_layer"]["head"] == {"failed": TIMED_OUT}


def test_a_timed_out_end_to_end_run_stops_the_comparison(bench, monkeypatch, tmp_path):
    fake_subprocess(bench, monkeypatch, lambda side, trace: side == "base" and trace == 0)
    out = tmp_path / "bench.json"
    with pytest.raises(bench.RunFailed):
        bench.main(["--base", "x", "--workload", "w1", "--out", str(out)])
    assert not out.exists()


def print_a_stray_line(cmd, timeout):
    return subprocess.CompletedProcess(cmd, 0, stdout="progress\n", stderr="")


def test_a_stray_last_line_is_a_failed_run(bench, monkeypatch, tmp_path):
    stray = {"returncode": 0, "tail": ["progress"]}
    fake_subprocess(bench, monkeypatch, lambda side, trace: True, print_a_stray_line)
    with pytest.raises(bench.RunFailed) as err:
        bench.perfbench(Path("elsewhere"), "w1", 1, 1, 0)
    assert err.value.record == stray

    out = tmp_path / "bench.json"
    argv = ["--base", "x", "--workload", "w1", "--pairs", "2", "--out", str(out)]
    fake_subprocess(bench, monkeypatch, lambda side, trace: trace == 1, print_a_stray_line)
    assert bench.main(argv) == 1
    entry = json.loads(out.read_text())["workloads"]["w1"]
    assert len(entry["pairs"]) == 2
    assert entry["per_layer"]["head"] == {"failed": stray}

    out.unlink()
    fake_subprocess(bench, monkeypatch, lambda side, trace: trace == 0, print_a_stray_line)
    with pytest.raises(bench.RunFailed):
        bench.main(argv)
    assert not out.exists()


def test_the_head_export_is_the_working_tree(bench, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True, text=True,
        ).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "kept.txt").write_text("old\n")
    (repo / "gone.txt").write_text("gone\n")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    monkeypatch.setattr(bench, "ROOT", repo)
    # a clean tree is HEAD's, which is how the report tells uncommitted changes
    assert bench.worktree(tmp_path / "clean-index") == git("rev-parse", "HEAD^{tree}").strip()

    (repo / "kept.txt").write_text("new\n")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")
    status = git("status", "--porcelain")
    assert status == " D gone.txt\n M kept.txt\n?? untracked.txt\n"
    head = tmp_path / "head"
    bench.export(bench.worktree(tmp_path / "index"), head)
    assert sorted(p.name for p in head.iterdir()) == [".gitignore", "kept.txt", "untracked.txt"]
    assert (head / "kept.txt").read_text() == "new\n"
    assert git("status", "--porcelain") == status

#!/usr/bin/env python3
"""Before-and-after benchmark of the working tree against a base revision.

    python3 scripts/bench.py --base 7d4c465 --workload sweep_w2 --pairs 10 \\
        --seed 7 --seconds 20 --out BENCH_orbits.json

Both sides are exported with `git archive` into one temporary directory: the
base from its revision, the working tree from a git tree written through a
scratch index (tracked edits and deletions, and untracked files that git
does not ignore). So neither side runs in the repo itself, and neither
starts with a `__pycache__`. For each workload, base and working tree then
run `perfbench/run.py --trace 0` in alternating pairs (the side that runs
first alternates from pair to pair), and then three `perfbench/run.py
--trace 1` passes each, alternated the same way, since one traced pass per
side swings too much to attribute a change to a layer. The output file
holds the machine, the Python version, both commits, the working tree's git
tree, every pair's end-to-end metrics and, per workload, the medians, the
base's interquartile range, how many pairs the working tree won, every
traced pass, and each side's per-layer medians over its passes.

A failed, incorrect or timed-out end-to-end run, or one whose last output
line is not perfbench's JSON result, stops the benchmark at once. A failed
traced pass does not: the pass records the exit status (None after
a timeout) and the last output lines, its side's per-layer entry holds the
first such record in place of the medians, the file is still written, and
the script exits 1.

Runs are made one at a time, each in a fresh process that is waited for.
Nothing in the repo is written but the output file and git objects: the
scratch index, and the perfbench/out/ directory where each side writes its
inputs and span files, stay in the temporary directory, and the real index
and every ref are left as they were.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
TAIL_LINES = 20
TRACED_PASSES = 3


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def worktree(index: Path) -> str:
    """The working tree as a git tree: HEAD's files with the tracked edits
    and deletions and the untracked files that are not ignored. It goes
    through the scratch index file `index`, so the real index and the refs
    do not move. (`git stash create` would leave the untracked files out.)"""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


class RunFailed(SystemExit):
    """A perfbench run that failed or found a wrong output. Left uncaught it
    stops the benchmark; `record` holds its exit status and last lines."""

    def __init__(self, tree: Path, workload: str, proc: subprocess.CompletedProcess):
        super().__init__(f"perfbench failed in {tree} ({workload}):\n{proc.stdout}\n{proc.stderr}")
        tail = (proc.stdout.splitlines() + proc.stderr.splitlines())[-TAIL_LINES:]
        self.record = {"returncode": proc.returncode, "tail": tail}


def _text(output) -> str:
    # what a timed-out run had written: bytes, or None if nothing
    return output.decode(errors="replace") if isinstance(output, bytes) else output or ""


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Metrics of one perfbench run in tree, as {name: value}; raises
    RunFailed when it fails, times out, finds a wrong output or ends on a
    line that is not its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=tree,
            capture_output=True,
            text=True,
            timeout=max(600, 20 * seconds),
        )
    except subprocess.TimeoutExpired as exc:
        stderr = _text(exc.stderr) + f"timed out after {exc.timeout} s\n"
        proc = subprocess.CompletedProcess(exc.cmd, None, _text(exc.stdout), stderr)
        raise RunFailed(tree, workload, proc) from exc
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RunFailed(tree, workload, proc)
    return {k: v["value"] for k, v in result["metrics"].items()}


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        lines = []
    for line in lines:
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(pairs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric: both medians, the base's interquartile range,
    and the number of pairs in which the working tree was better."""
    out = {}
    for metric in declared:
        name = metric["name"]
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        lower = metric["better"] == "lower"
        q1, _, q3 = quartiles(base)
        out[name] = {
            "better": metric["better"],
            "base_median": statistics.median(base),
            "head_median": statistics.median(head),
            "base_iqr": q3 - q1,
            "head_wins": sum((h < b) if lower else (h > b) for b, h in zip(base, head)),
            "pairs": len(pairs),
        }
    return out


def layer_medians(passes: list[dict]) -> dict:
    """Each metric's median over one side's traced passes, or the first
    failed pass's entry if any failed."""
    for metrics in passes:
        if "failed" in metrics:
            return metrics
    return {name: statistics.median(m[name] for m in passes) for name in passes[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare the working tree with")
    ap.add_argument("--workload", action="append", required=True, help="perfbench workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    failed = False
    with tempfile.TemporaryDirectory(prefix="ccmax-bench-") as tmp:
        revs = {"base": args.base, "head": worktree(Path(tmp, "index"))}
        report = {
            "command": ["scripts/bench.py", *(argv if argv is not None else sys.argv[1:])],
            "machine": {
                "platform": platform.platform(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                # the enumerator caps its workers at this count
                "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
                "cpu_model": cpu_model(),
            },
            "python": platform.python_version(),
            "base": {"rev": args.base, "commit": git("rev-parse", args.base)},
            "head": {
                "commit": git("rev-parse", "HEAD"),
                "tree": revs["head"],
                "uncommitted_changes": revs["head"] != git("rev-parse", "HEAD^{tree}"),
            },
            "seed": args.seed,
            "seconds": args.seconds,
            "workloads": {},
        }
        trees = {side: Path(tmp, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = perfbench(trees[side], workload, args.seed, args.seconds, 0)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"norm_wall_s {pair[side]['norm_wall_s']:.3f} "
                          f"norm_cpu_s {pair[side]['norm_cpu_s']:.3f}", file=sys.stderr)
                pairs.append(pair)
            traced = {side: [] for side in SIDES}
            for i in range(TRACED_PASSES):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    try:
                        metrics = perfbench(trees[side], workload, args.seed, args.seconds, 1)
                    except RunFailed as err:
                        print(err.code, file=sys.stderr)
                        metrics = {"failed": err.record}
                        failed = True
                    traced[side].append(metrics)
            report["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarise(pairs, declared),
                "traced": traced,
                "per_layer": {side: layer_medians(traced[side]) for side in SIDES},
            }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

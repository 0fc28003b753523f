#!/usr/bin/env python3
"""The ccmax benchmark: one workload per run, in one fresh process that calls
the public ccmax API from the checkout's src/ and checks every output.

    python3 perfbench/run.py --workload sweep_w2 --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  sweep_w2   the 26 cells of scripts/verify_all.py at 2 workers
  g6_stream  seeded graph6 lines through the `cc classify` calls

--trace 0 repeats the workload until --seconds have passed, and at least
MIN_PASSES times, and reports the end-to-end metrics. Each unit of work (a
sweep cell, a stream graph) is timed on its own and normalised to nominal
host speed by the kernel of perfbench/speed.py, timed between units; a
unit's figure is the median over the passes. --trace 1 runs the workload once untraced and once with every layer
entry point wrapped (perfbench/spans.py), and reports per-layer metrics;
pooled enumeration is traced at 1 worker because wrappers in forked workers
do not report back.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record. A
failed check makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from checks import Checks, check_report, load_expected
from gen_stream import hard_set, stream_bytes
from spans import ROOT_NAME, TraceError, Tracer, summarise
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# setup_s is the median of at least this many fresh processes, and of
# more while the probes have taken less than SETUP_PROBE_SECONDS.
SETUP_PROBES = 5
SETUP_PROBE_SECONDS = 3.0
# End-to-end runs make at least this many passes, even past --seconds.
MIN_PASSES = 3
# Wrappers in forked pool workers do not report back, so traced runs
# enumerate in process.
TRACE_WORKERS = 1
# A traced run fails if the benchmark's own time directly under the root
# span exceeds this share of it: a layer entered through a name the tracer
# does not wrap would land there.
MAX_BENCH_SHARE = 0.10


def import_ccmax():
    """Import ccmax from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import ccmax

    where = Path(ccmax.__file__).resolve().parent
    if where != src / "ccmax":
        raise SystemExit(f"ccmax was imported from {where}, not from {src}")
    return ccmax


@dataclass
class Iteration:
    """One pass over a workload's inputs: one (key, start, wall seconds,
    cpu seconds, graphs) entry per unit of work, and a sha256 of the outputs
    for the run record."""

    units: list = field(default_factory=list)
    output: "hashlib._Hash" = field(default_factory=hashlib.sha256)


# -- verification workloads ----------------------------------------------------------


def _sweep_cells():
    # The jobs of scripts/verify_all.py, in its order.
    cells = []
    for n in (6, 8, 10, 12):
        cells.append((f"T1_k3_n{n}", lambda c, w, n=n: c.verify_theorem1(3, n, workers=w)))
    for n in (6, 7, 8, 9, 10):
        cells.append((f"T23_n{n}", lambda c, w, n=n: c.verify_theorem23(n, workers=w)))
    for n in (3, 4, 5, 6, 7):
        cells.append((f"T4_n{n}", lambda c, w, n=n: c.verify_theorem4(n, workers=w)))
    for k in (3, 4, 5, 6):
        for length in (2, 3, 4):
            cells.append(
                (f"caveman_k{k}_l{length}", lambda c, w, k=k, ln=length: c.verify_caveman_rewire(k, ln))
            )
    return cells


class Verify:
    """Verification cells run in process; each cell is one unit of work.
    Inputs are fixed (the seed has nothing to vary)."""

    def __init__(self, cells, workers: int, required: tuple[str, ...]):
        self.cells = cells
        self.workers = workers
        self.required = required

    def prepare(self, seed: int) -> None:
        """Nothing to write: the cells are the inputs."""

    def setup(self, ccmax, seed: int) -> dict:
        keys = [key for key, _ in self.cells]
        return {
            "expected": load_expected(),
            "input_sha256": hashlib.sha256(json.dumps(keys).encode()).hexdigest(),
        }

    def run(self, ccmax, inputs: dict, checks: Checks, workers: int, meter: Speedometer | None = None) -> Iteration:
        it = Iteration()
        for key, make in self.cells:
            if meter:
                meter.between()
            cpu0 = _cpu_seconds()
            t0 = perf_counter()
            try:
                report = make(ccmax, workers)
                text = report.to_json()
                report.summary_lines()
            except Exception as exc:  # a crashed cell is a failed check
                checks.error(key, exc)
                continue
            dt = perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            check_report(checks, key, report, text, inputs["expected"])
            it.units.append((key, t0, dt, cpu, report.graphs_examined))
            it.output.update(text.encode())
        return it


def _sweep_enumerations(ccmax):
    c = ccmax.DegreeConstraint
    return (
        [(n, c.regular(3, connected=True)) for n in (6, 8, 10, 12)]
        + [(n, c.max_degree(3, connected=True)) for n in (6, 7, 8, 9, 10)]
        + [(n, c.any_degree(connected=False)) for n in (3, 4, 5, 6, 7)]
    )


def pool_speedup(ccmax, checks: Checks) -> float:
    """Enumeration seconds of the sweep's 14 enumerations at 1 worker over
    those at 2 workers, untraced. Both must give the same graphs."""
    seconds = {}
    results = {}
    for workers in (1, 2):
        t0 = perf_counter()
        results[workers] = [ccmax.enumerate_graphs(n, c, workers=workers) for n, c in _sweep_enumerations(ccmax)]
        seconds[workers] = perf_counter() - t0
    checks.check("sweep enumerations agree at 1 and 2 workers", results[1] == results[2])
    return seconds[1] / seconds[2]


# -- graph6 stream -------------------------------------------------------------------


class Stream:
    """Seeded graph6 lines, each parsed, canonically labelled, measured and
    classified as `cc classify` does, then written back as graph6. Each
    graph is one unit of work; the checks are outside its timing."""

    workers = 1
    required = (
        "parse_graph6",
        "to_graph6",
        "canonical_graph",
        "_refine_classes",
        "graph_cc",
        "blocks",
        "classify_block_in",
        "graph_type",
        "s_set",
        "is_in_b0",
        "is_in_b",
        "is_in_b_literal",
        "claim_checks",
    )

    def prepare(self, seed: int) -> None:
        """Write the seed's graph6 lines before setup is timed: generating
        them is the benchmark's work, so setup (and each setup probe) only
        reads them."""
        OUT_DIR.mkdir(exist_ok=True)
        path = stream_path(seed)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(stream_bytes(seed))
        os.replace(tmp, path)

    def setup(self, ccmax, seed: int) -> dict:
        data = stream_path(seed).read_bytes()
        lines = data.decode("ascii").splitlines()
        rng = random.Random(f"{seed}:relabel")
        perms = []
        for line in lines:
            perm = list(range(ord(line[0]) - 63))
            rng.shuffle(perm)
            perms.append(perm)
        names = [name for name, _, _ in hard_set()]
        return {
            "lines": lines,
            "perms": perms,
            "hard": dict(zip(range(len(lines) - len(names), len(lines)), names)),
            "expected": load_expected()["hard_set"],
            "input_sha256": hashlib.sha256(data).hexdigest(),
        }

    def run(self, ccmax, inputs: dict, checks: Checks, workers: int, meter: Speedometer | None = None) -> Iteration:
        it = Iteration()
        forms = {}
        for i, line in enumerate(inputs["lines"]):
            if meter:
                meter.between()
            try:
                cpu0 = process_time()
                t0 = perf_counter()
                g, form, cc, info, out = _classify(ccmax, line)
                dt = perf_counter() - t0
                cpu = process_time() - cpu0
                checks.check(f"graph {i} graph6 round trip", out == line)
                perm = inputs["perms"][i]
                h = ccmax.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
                checks.check(f"graph {i} canonical form under relabelling", ccmax.canonical_form(h) == form)
            except Exception as exc:
                checks.error(f"graph {i}", exc)
                continue
            name = inputs["hard"].get(i)
            if name is not None:
                want = inputs["expected"][name]
                forms[name] = form
                checks.check(f"{name} canonical form", form.g6 == want["canonical_g6"], form.g6)
                checks.check(f"{name} clustering", str(cc) == want["cc"], str(cc))
            it.units.append((i, t0, dt, cpu, 1))
            it.output.update(f"{form.g6} {cc} {info}\n".encode())
        checks.check(
            "rook4x4 and shrikhande told apart",
            forms.get("rook4x4") is not None and forms.get("rook4x4") != forms.get("shrikhande"),
        )
        return it


def stream_path(seed: int) -> Path:
    return OUT_DIR / f"stream-{seed}.g6"


def _classify(ccmax, line: str):
    g = ccmax.parse_graph6(line)
    form = ccmax.canonical_form(g)
    cc = ccmax.graph_cc(g)
    info = None
    if ccmax.is_connected(g):
        dec = ccmax.blocks(g)
        t = ccmax.graph_type(g)
        info = (
            dec.blocks,
            [ccmax.structure.classify_block_in(g, dec, b).value for b in dec.blocks],
            sorted(dec.cut_vertices),
            t.as_tuple(),
            t.blocks_legal,
            sorted(ccmax.s_set(g)),
            ccmax.is_in_b0(g),
            ccmax.is_in_b(g),
            ccmax.is_in_b_literal(g),
            ccmax.claim_checks(g),
        )
    return g, form, cc, info, ccmax.to_graph6(g)


WORKLOADS = {
    "sweep_w2": Verify(
        _sweep_cells(),
        workers=2,
        required=(
            "canonical_graph",
            "_canon_masks",
            "_refine_classes",
            "to_graph6",
            "enumerate_graphs",
            "edge_add_delta",
            "TheoremReport.to_json",
            "TheoremReport.summary_lines",
            "complete_bipartite",
            "graph_cc",
            "blocks",
            "is_in_b",
            "is_in_b_literal",
            "claim_checks",
            "verify_theorem1",
            "verify_theorem23",
            "verify_theorem4",
            "verify_caveman_rewire",
            "g_kl",
            "caveman_rewired",
        ),
    ),
    "g6_stream": Stream(),
}


# -- measurement ---------------------------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def quantile(items, q: float) -> float:
    """Weighted quantile of (value, weight) pairs. Each value sits at the
    middle of its share of the total weight, and the quantile is linear
    between those points, so it moves smoothly when two values trade places
    (a sweep cell weighs as much as its graphs examined)."""
    items = sorted(items)
    target = q * sum(w for _, w in items)
    acc = 0.0
    prev = None
    for value, weight in items:
        mid = acc + weight / 2
        if target <= mid:
            if prev is None:
                return value
            return prev[0] + (value - prev[0]) * (target - prev[1]) / (mid - prev[1])
        prev = (value, mid)
        acc += weight
    return items[-1][0]


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time from process start until the
    workload's inputs are ready, the import of ccmax included."""
    times = []
    begin = time.monotonic()
    while len(times) < SETUP_PROBES or time.monotonic() - begin < SETUP_PROBE_SECONDS:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


class UnitTimes:
    """Each unit's wall and cpu seconds at nominal host speed, pass by pass,
    kept as compact arrays so that the benchmark's own memory stays small."""

    def __init__(self) -> None:
        self.walls: dict = {}
        self.cpus: dict = {}
        self.graphs: dict = {}

    def add(self, it: Iteration, meter: Speedometer) -> None:
        """Normalise one pass; the meter must hold a probe taken after it."""
        for key, start, wall, cpu, n in it.units:
            f = meter.factor(start, start + wall)
            self.walls.setdefault(key, array("d")).append(wall * f)
            self.cpus.setdefault(key, array("d")).append(cpu * f)
            self.graphs[key] = n

    def medians(self) -> dict:
        """{key: (wall, cpu, graphs)}, the times as medians over the passes."""
        return {
            k: (statistics.median(self.walls[k]), statistics.median(self.cpus[k]), self.graphs[k])
            for k in self.walls
        }


def end_to_end(name: str, ccmax, inputs: dict, seconds: int, seed: int, checks: Checks, record: dict) -> dict:
    wl = WORKLOADS[name]
    meter = Speedometer(cpus=sorted(os.sched_getaffinity(0)) if wl.workers > 1 else None)
    times = UnitTimes()
    pass_walls = []
    begin = perf_counter()
    while len(pass_walls) < MIN_PASSES or perf_counter() - begin < seconds:
        it = wl.run(ccmax, inputs, checks, wl.workers, meter)
        meter.probe()
        times.add(it, meter)
        pass_walls.append(sum(u[2] for u in it.units))
        record["output_sha256"] = it.output.hexdigest()
    rss = _peak_rss_mb()
    units = times.medians().values()
    wall = sum(u[0] for u in units)
    graphs = sum(u[2] for u in units)
    # Per-graph latency: a stream graph is its own sample; a sweep cell's
    # time is divided by its graphs examined and weighted by that count.
    items = [(u[0] / u[2], u[2]) for u in units]
    record.update(
        iterations=len(pass_walls),
        units=len(units),
        # As measured, before normalising: each pass's summed unit time.
        pass_walls_s=pass_walls,
        speed_probes=len(meter.took),
        speed_kernel_s=statistics.quantiles(meter.took, n=4),
    )
    return {
        "setup_s": (setup_seconds(name, seed), "s"),
        "norm_wall_s": (wall, "s"),
        "norm_graphs_per_s": (graphs / wall, "1/s"),
        "norm_cpu_s": (sum(u[1] for u in units), "s"),
        "peak_rss_mb": (rss, "MB"),
        "norm_item_p50_ms": (quantile(items, 0.50) * 1e3, "ms"),
        "norm_item_p99_ms": (quantile(items, 0.99) * 1e3, "ms"),
    }


def check_accounting(s, traced_s: float) -> None:
    """Raise TraceError unless the trace accounts for the traced pass.

    The self times add up to the root spans by construction; the other two
    conditions can fail. The root span must agree with a clock read outside
    the tracer, and the time no traced name accounts for must stay small.
    """
    self_sum = sum(s.group_self_s.values())
    if abs(self_sum - s.root_s) > 1e-3:
        raise TraceError(f"self times sum to {self_sum} s, traced wall is {s.root_s} s")
    if abs(s.root_s - traced_s) > 0.01 * traced_s + 1e-3:
        raise TraceError(f"root span is {s.root_s} s, the pass took {traced_s} s")
    bench_s = s.group_self_s[ROOT_NAME]
    if bench_s > MAX_BENCH_SHARE * s.root_s:
        raise TraceError(
            f"{bench_s:.3f} s of {s.root_s:.3f} s traced is outside every traced name "
            f"(more than {MAX_BENCH_SHARE:.0%}): a layer is entered through a name that is not wrapped"
        )


def per_layer(name: str, ccmax, inputs: dict, checks: Checks, record: dict) -> dict:
    wl = WORKLOADS[name]
    t0 = perf_counter()
    wl.run(ccmax, inputs, checks, TRACE_WORKERS)
    untraced = perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        with tracer.root():
            it = wl.run(ccmax, inputs, checks, TRACE_WORKERS)
        traced = perf_counter() - t0
    finally:
        tracer.restore()
    record["output_sha256"] = it.output.hexdigest()
    s = summarise(tracer.entries, tracer.parent, tracer.entry, tracer.start, tracer.end)

    unknown = set(wl.required) - {e.attr for e in tracer.entries}
    if unknown:
        raise TraceError(f"{name}: required names are not traced: {', '.join(sorted(unknown))}")
    silent = [
        f"{e.module}.{e.attr}"
        for e in tracer.entries
        if e.attr in wl.required and s.calls[f"{e.module}.{e.attr}"] == 0
    ]
    if silent:
        raise TraceError(f"{name}: traced names recorded no calls: {', '.join(silent)}")
    check_accounting(s, traced)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}.tsv")
    record["spans_file"] = str((OUT_DIR / f"spans-{name}.tsv").relative_to(ROOT))

    gs, gself, gcalls = s.group_s, s.group_self_s, s.group_calls
    canon_calls = gcalls["graphs.canon"]
    classes = tracer.classes
    blocks_calls = s.calls["structure.blocks"]
    speedup = pool_speedup(ccmax, checks) if name == "sweep_w2" else 0.0
    return {
        "graphs.canon.calls": (canon_calls, "count"),
        "graphs.canon.s": (gs["graphs.canon"], "s"),
        "graphs.canon.us_per_call": (gs["graphs.canon"] / canon_calls * 1e6 if canon_calls else 0.0, "us"),
        "graphs.refine.s": (gs["graphs.refine"], "s"),
        "graphs.search.s": (gs["graphs.canon"] - gs["graphs.refine"], "s"),
        "graphs.g6.calls": (gcalls["graphs.g6"], "count"),
        "graphs.g6.s": (gs["graphs.g6"], "s"),
        "graphs.self_s": (gself["graphs.canon"] + gself["graphs.refine"] + gself["graphs.g6"], "s"),
        "enumeration.s": (gs["enumeration"], "s"),
        "enumeration.classes": (classes, "count"),
        "enumeration.self_s": (gself["enumeration"], "s"),
        "enumeration.canon_per_class": (
            s.calls["graphs._canon_masks"] / classes if classes else 0.0,
            "ratio",
        ),
        "enumeration.pool_speedup": (speedup, "ratio"),
        "clustering.calls": (gcalls["clustering"], "count"),
        "clustering.edge_delta.calls": (s.calls["clustering.edge_add_delta"], "count"),
        "clustering.s": (gs["clustering"], "s"),
        "clustering.self_s": (gself["clustering"], "s"),
        "structure.blocks.calls": (blocks_calls, "count"),
        "structure.blocks_per_graph": (
            blocks_calls / len(tracer.block_graphs) if tracer.block_graphs else 0.0,
            "ratio",
        ),
        "structure.s": (gs["structure"], "s"),
        "structure.self_s": (gself["structure"], "s"),
        "harness.self_s": (gself["harness"], "s"),
        "harness.render_s": (gs["harness.render"], "s"),
        "generators.s": (gs["generators"], "s"),
        "bench.self_s": (gself[ROOT_NAME], "s"),
        "trace.wall_s": (s.root_s, "s"),
        "trace.spans": (len(tracer.entry), "count"),
        "trace.overhead_frac": ((s.root_s - untraced) / untraced, "ratio"),
    }


# -- run record ------------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is no git repository
    or git is missing. Git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    ccmax = import_ccmax()
    if not args.setup_probe:
        WORKLOADS[args.workload].prepare(args.seed)
    inputs = WORKLOADS[args.workload].setup(ccmax, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": _read(Path("/proc/loadavg")),
        "input_sha256": inputs["input_sha256"],
    }
    checks = Checks()
    if args.trace:
        metrics = per_layer(args.workload, ccmax, inputs, checks, record)
    else:
        metrics = end_to_end(args.workload, ccmax, inputs, args.seconds, args.seed, checks, record)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if names != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(names ^ set(metrics))}")
    # Only now: git is a child process, and children count toward peak_rss_mb.
    record.update(
        commit=_commit(),
        loadavg_end=_read(Path("/proc/loadavg")),
        attempted=checks.attempted,
        failed=checks.failed,
        fail_frac=checks.failed / checks.attempted if checks.attempted else 1.0,
        failures=checks.failures,
    )
    print(json.dumps({"record": record}))
    ok = checks.failed == 0 and checks.attempted > 0
    result = {
        "correct": ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

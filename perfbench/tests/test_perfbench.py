"""Tests of the benchmark's own parts: the seeded input generator, the span
arithmetic, the host-speed normalisation, and the output checks. They need
no ccmax import.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from checks import PINNED_COUNTS, Checks, check_report, load_expected, sha256  # noqa: E402
from gen_stream import (  # noqa: E402
    STREAM_SIZE,
    _connected,
    encode_graph6,
    hard_set,
    random_cubic,
    random_gnp,
    random_subcubic,
    stream_bytes,
    stream_lines,
)
from spans import ROOT_NAME, Entry, TraceError, Tracer, summarise  # noqa: E402
from speed import NOMINAL_S, Speedometer, kernel  # noqa: E402

# -- generator ------------------------------------------------------------------


def test_same_seed_same_stream_other_seed_other_stream():
    a = stream_lines(7)
    assert a == stream_lines(7)
    assert a != stream_lines(8)
    assert len(set(a[:STREAM_SIZE])) == STREAM_SIZE
    assert len(a) == STREAM_SIZE + len(hard_set())


def test_stream_bytes_identical_across_processes():
    outs = []
    for hashseed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen_stream.py"), "--seed", "3"],
            capture_output=True,
            env=env,
            check=True,
            timeout=60,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).digest() == hashlib.sha256(stream_bytes(3)).digest()


def test_stream_setup_reads_what_prepare_wrote(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    stream = run.Stream()
    stream.prepare(5)
    inputs = stream.setup(None, 5)
    assert inputs["input_sha256"] == hashlib.sha256(stream_bytes(5)).hexdigest()
    assert inputs["lines"] == stream_lines(5)
    assert sorted(inputs["hard"].values()) == sorted(name for name, _, _ in hard_set())


def _degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


@pytest.mark.parametrize("maker", [random_subcubic, random_cubic, random_gnp])
def test_random_graph_kinds(maker):
    rng = random.Random(11)
    for _ in range(30):
        n, edges = maker(rng)
        assert 12 <= n <= 20
        assert all(0 <= u < v < n for u, v in edges) and len(set(edges)) == len(edges)
        deg = _degrees(n, edges)
        if maker is random_subcubic:
            assert max(deg) <= 3 and _connected(n, edges)
        if maker is random_cubic:
            assert set(deg) == {3} and _connected(n, edges)


def test_graph6_encoder_known_strings():
    assert encode_graph6(1, []) == "@"
    assert encode_graph6(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"
    assert encode_graph6(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == "Cl"
    assert encode_graph6(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]) == "C~"


def test_hard_set_shapes():
    shapes = {name: (n, len(edges), set(_degrees(n, edges))) for name, n, edges in hard_set()}
    assert shapes == {
        "rook4x4": (16, 48, {6}),
        "shrikhande": (16, 48, {6}),
        "paley17": (17, 68, {8}),
        "c20": (20, 20, {2}),
        "g_4_4": (20, 40, {4}),
    }


# -- spans ------------------------------------------------------------------------

ENTRIES = [Entry("m", "a", "ga"), Entry("m", "b", "gb"), Entry("m", "c", "ga")]
ROOT = len(ENTRIES)


def test_self_time_arithmetic_on_a_synthetic_nest():
    # root [0,10] > a [1,6] > b [2,4] > c [2.5,3.5];  root > b [7,9]
    parent = [-1, 0, 1, 2, 0]
    entry = [ROOT, 0, 1, 2, 1]
    start = [0.0, 1.0, 2.0, 2.5, 7.0]
    end = [10.0, 6.0, 4.0, 3.5, 9.0]
    s = summarise(ENTRIES, parent, entry, start, end)
    assert s.root_s == 10.0
    assert s.calls == {"m.a": 1, "m.b": 2, "m.c": 1, ROOT_NAME: 1}
    assert s.group_calls == {"ga": 2, "gb": 2}
    # self: root 10-5-2 = 3, a 5-2 = 3, b 2-1 = 1, c 1, second b 2
    assert s.group_self_s == {"ga": 4.0, "gb": 3.0, ROOT_NAME: 3.0}
    assert sum(s.group_self_s.values()) == s.root_s
    # c sits below a (same group), so only a counts toward ga's time
    assert s.group_s == {"ga": 5.0, "gb": 4.0}


def _summary(root_s, bench_s):
    return SimpleNamespace(root_s=root_s, group_self_s={"ga": root_s - bench_s, ROOT_NAME: bench_s})


def test_accounting_passes_when_the_trace_covers_the_pass():
    run.check_accounting(_summary(10.0, 0.5), traced_s=10.02)


@pytest.mark.parametrize(
    "summary, traced_s, match",
    [
        (_summary(10.0, 0.5), 12.0, "the pass took"),  # root span disagrees with the outside clock
        (_summary(10.0, 2.0), 10.0, "not wrapped"),  # too much time under no traced name
    ],
)
def test_accounting_fails_on_a_gap(summary, traced_s, match):
    with pytest.raises(TraceError, match=match):
        run.check_accounting(summary, traced_s)


def _fake_package(name="fakepkg"):
    pkg = types.ModuleType(name)
    mod = types.ModuleType(f"{name}.m")
    user = types.ModuleType(f"{name}.user")

    def a(x):
        return mod.b(x) + 1

    def b(x):
        return x * 2

    mod.a, mod.b = a, b
    user.b = b  # imported by name into another module
    pkg.a = a
    return {name: pkg, f"{name}.m": mod, f"{name}.user": user}


def test_tracer_wraps_every_binding_and_restores(monkeypatch):
    modules = _fake_package()
    for key, value in modules.items():
        monkeypatch.setitem(sys.modules, key, value)
    ticks = iter(range(100))
    tracer = Tracer([Entry("m", "a", "ga"), Entry("m", "b", "gb")], clock=lambda: float(next(ticks)))
    original_b = modules["fakepkg.m"].b
    tracer.install("fakepkg")
    try:
        with tracer.root():
            assert modules["fakepkg"].a(3) == 7
            assert modules["fakepkg.user"].b(1) == 2
    finally:
        tracer.restore()
    assert modules["fakepkg.m"].b is original_b and modules["fakepkg.user"].b is original_b
    s = summarise(tracer.entries, tracer.parent, tracer.entry, tracer.start, tracer.end)
    assert s.calls == {"m.a": 1, "m.b": 2, ROOT_NAME: 1}
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert sum(s.group_self_s.values()) == s.root_s


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    for key, value in _fake_package().items():
        monkeypatch.setitem(sys.modules, key, value)
    tracer = Tracer([Entry("m", "a", "ga"), Entry("m", "renamed", "ga")])
    with pytest.raises(TraceError, match="fakepkg.m.renamed"):
        tracer.install("fakepkg")
    assert not tracer._patches


# -- host-speed normalisation ------------------------------------------------------


def _meter(probes):
    """A Speedometer holding (end time, kernel seconds) probes."""
    meter = Speedometer(kernel=lambda: 0)
    for at, took in probes:
        meter.at.append(at)
        meter.took.append(took)
    return meter


def test_kernel_is_deterministic():
    assert kernel() == kernel()


def test_factor_uses_the_probes_around_a_unit():
    meter = _meter([(1.0, NOMINAL_S), (2.0, 2 * NOMINAL_S), (3.0, 4 * NOMINAL_S)])
    # unit [2.5, 2.9]: probes ending at 2.0 and 3.0
    assert meter.factor(2.5, 2.9) == pytest.approx(1 / 3)
    # unit [1.0, 1.5]: the probe ending at its start counts as before it
    assert meter.factor(1.0, 1.5) == pytest.approx(2 / 3)
    # after the last probe, only the one before counts
    assert meter.factor(3.5, 3.6) == pytest.approx(1 / 4)


def test_between_probes_only_after_the_interval():
    now = [0.0]
    meter = Speedometer(clock=lambda: now[0], kernel=kernel)
    meter.between()  # no probe yet: probes
    now[0] = 0.05
    meter.between()  # 0.05 s after that probe ended: no probe
    now[0] = 0.2
    meter.between()  # 0.2 s after it: probes
    assert meter.at == [0.0, 0.2]


def test_normalised_unit_is_the_median_over_passes():
    # The host runs at half speed in the second pass and at nominal speed in
    # the other two; a unit taking 1 s at nominal speed reads 1 s in all three.
    meter = _meter(
        [(0.5, NOMINAL_S), (2.5, NOMINAL_S), (10.5, 2 * NOMINAL_S), (13.5, 2 * NOMINAL_S), (20.5, NOMINAL_S), (22.5, NOMINAL_S)]
    )
    times = run.UnitTimes()
    times.add(run.Iteration(units=[("a", 1.0, 1.0, 0.9, 4)]), meter)
    times.add(run.Iteration(units=[("a", 11.0, 2.0, 1.8, 4)]), meter)
    times.add(run.Iteration(units=[("a", 21.0, 1.1, 1.0, 4)]), meter)
    ((key, (wall, cpu, graphs)),) = times.medians().items()
    assert (key, graphs) == ("a", 4)
    assert wall == pytest.approx(1.0)
    assert cpu == pytest.approx(0.9)


# -- checks -------------------------------------------------------------------------


def _report(passed=True, graphs_examined=1044):
    return SimpleNamespace(passed=passed, graphs_examined=graphs_examined)


def test_matching_report_passes_every_check():
    checks = Checks()
    check_report(checks, "T4_n7", _report(), "{}", {"reports": {"T4_n7": sha256("{}")}})
    assert (checks.attempted, checks.failed) == (3, 0)


@pytest.mark.parametrize(
    "report, text, digest",
    [
        (_report(), "{}", sha256("{ }")),  # tampered digest
        (_report(), "{ }", sha256("{}")),  # changed output
        (_report(graphs_examined=1043), "{}", sha256("{}")),  # wrong count
        (_report(passed=False), "{}", sha256("{}")),  # failed verification
    ],
)
def test_tampered_digest_or_count_is_a_failure(report, text, digest):
    checks = Checks()
    check_report(checks, "T4_n7", report, text, {"reports": {"T4_n7": digest}})
    assert (checks.attempted, checks.failed) == (3, 1)
    assert checks.failures


def test_error_counts_as_failure():
    checks = Checks()
    checks.error("cell", ValueError("boom"))
    assert (checks.attempted, checks.failed) == (1, 1)
    assert "ValueError: boom" in checks.failures[0]


def test_recorded_expectations_cover_every_cell():
    expected = load_expected()
    keys = {key for key, _ in run.WORKLOADS["sweep_w2"].cells}
    assert keys == set(expected["reports"])
    assert set(PINNED_COUNTS) <= keys
    assert set(expected["hard_set"]) == {name for name, _, _ in hard_set()}


def test_weighted_quantile():
    items = [(3.0, 1), (1.0, 1), (2.0, 2)]
    assert run.quantile(items, 0.5) == 2.0
    assert run.quantile(items, 0.99) == 3.0
    assert run.quantile([(5.0, 1)], 0.5) == 5.0
    # linear between the middles of neighbouring weights
    assert run.quantile([(1.0, 1), (2.0, 1)], 0.5) == 1.5
    assert run.quantile([(1.0, 1), (2.0, 3)], 0.25) == pytest.approx(1.25)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_w2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

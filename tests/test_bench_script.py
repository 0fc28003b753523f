"""The summary statistics of scripts/bench.py."""

import importlib.util
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

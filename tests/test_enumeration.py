"""Isomorph-free enumeration against published counts and brute force."""

import concurrent.futures
import os
from itertools import combinations

import enum_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmax import (
    CapabilityError,
    DegreeConstraint,
    blocks,
    canonical_form,
    count,
    enumerate_graphs,
    from_edges,
    is_connected,
    to_graph6,
)
import ccmax.enumeration as enumeration
from ccmax.enumeration import _SPLIT, _deletable
from ccmax.graphs import _canon_masks, _spans

# OEIS A000088 (graphs), A002851 (connected cubic graphs) and A006820
# (connected 4-regular graphs)
ALL_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
CONNECTED_QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59}
# connected graphs of maximum degree 3: derived from this code, not from a
# published table
SUBCUBIC_CONNECTED = {6: 29, 7: 64, 8: 194, 9: 531, 10: 1733}


def fake_pool(monkeypatch):
    """Replace the process pool by an in-process executor on a 2-CPU
    machine, so no process starts. Returns two lists it appends to: the
    max_workers of each construction, and the share sizes of each map."""
    started, dealt = [], []

    class FakeExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shares, *rest):
            shares = list(shares)
            dealt.append([len(share) for share in shares])
            return map(fn, shares, *rest)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return started, dealt


@pytest.fixture(scope="module")
def any8():
    """The any-degree universe at n = 8, the largest in cap, enumerated once."""
    return enumerate_graphs(8, DegreeConstraint.any_degree())


def brute_count(n, constraint):
    """Count isomorphism classes by canonicalizing all 2^C(n,2) graphs."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        g = from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        if constraint.satisfied_by(g):
            seen.add(canonical_form(g))
    return len(seen)


class TestCounts:
    @pytest.mark.parametrize("n,expected", sorted(ALL_GRAPHS.items()))
    def test_all_graphs(self, n, expected):
        assert count(n, DegreeConstraint.any_degree()) == expected

    @pytest.mark.parametrize("n,expected", sorted(CONNECTED_CUBIC.items()))
    def test_connected_cubic(self, n, expected):
        assert count(n, DegreeConstraint.regular(3, connected=True)) == expected

    @pytest.mark.parametrize("n,expected", sorted(CONNECTED_QUARTIC.items()))
    def test_connected_quartic(self, n, expected):
        assert count(n, DegreeConstraint.regular(4, connected=True)) == expected

    def test_connected_counts(self):
        # OEIS A001349, connected graphs on 1..7 vertices
        want = [1, 1, 2, 6, 21, 112, 853]
        got = [count(n, DegreeConstraint.any_degree(connected=True)) for n in range(1, 8)]
        assert got == want

    def test_subcubic_connected(self):
        got = {n: count(n, DegreeConstraint.max_degree(3, connected=True)) for n in SUBCUBIC_CONNECTED}
        assert got == SUBCUBIC_CONNECTED


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_modes_small(self, n):
        for c in [
            DegreeConstraint.any_degree(),
            DegreeConstraint.any_degree(connected=True),
            DegreeConstraint.max_degree(2),
            DegreeConstraint.max_degree(3, connected=True),
            DegreeConstraint.regular(2, connected=True),
        ]:
            assert count(n, c) == brute_count(n, c)

    def test_cross_mode_filter(self, any8):
        # filtering the unconstrained list must reproduce every other mode
        connected = DegreeConstraint.any_degree(connected=True)
        for c in [
            connected,
            DegreeConstraint.max_degree(3),
            DegreeConstraint.max_degree(3, connected=True),
            DegreeConstraint.regular(3, connected=True),
        ]:
            want = sorted(to_graph6(g) for g in any8 if c.satisfied_by(g))
            got = [to_graph6(g) for g in enumerate_graphs(8, c)]
            assert got == want
            if c is connected:
                assert len(got) == 11_117  # OEIS A001349


def test_any_degree_equals_networkx_atlas():
    # The graph atlas lists every graph up to order 7 (1,253 with the empty
    # one) and shares no code with ccmax.
    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        g = from_edges(h.number_of_nodes(), list(h.edges()))
        atlas.setdefault(g.n, []).append(canonical_form(g).g6)
    for n in range(1, 8):
        got = [to_graph6(g) for g in enumerate_graphs(n, DegreeConstraint.any_degree())]
        assert len(got) == len(atlas[n]) == ALL_GRAPHS[n]
        assert set(got) == set(atlas[n]) and len(set(got)) == len(got)


def test_deletable_is_non_cut():
    # For connected targets the enumerator deletes exactly the vertices that
    # the block decomposition does not list as cut vertices.
    graphs = [
        g for n in range(1, 8) for g in enumerate_graphs(n, DegreeConstraint.any_degree(True))
    ]
    assert len(graphs) == 996  # OEIS A001349, orders 1..7
    for g in graphs:
        masks = [g.mask(v) for v in range(g.n)]
        cuts = blocks(g).cut_vertices
        for v in range(g.n):
            assert _deletable(masks, v, True) == (v not in cuts)
            assert _deletable(masks, v, False)
    assert _spans((), 0)


def test_rejected_tie_costs_no_second_canon_call(monkeypatch):
    # Grown from every any-degree graph of order 6, each class of order 7
    # comes out once. A tied child is kept or dropped by the orbit test on
    # its own labelling: every canonical call labels a child of order 7, and
    # the calls that keep nothing are the dropped ties.
    c = DegreeConstraint.any_degree()
    parents = [_canon_masks(g._masks) for g in enumerate_graphs(6, c)]
    want = sorted(g._masks for g in enumerate_graphs(7, c))
    calls = []
    monkeypatch.setattr(enumeration, "_canon_masks", lambda m: calls.append(m) or _canon_masks(m))
    kept = [child for parent in parents for child in enumeration._children(parent, 6, 7, c)]
    assert sorted(kept) == want and len(kept) == ALL_GRAPHS[7]
    assert all(len(masks) == 7 for masks in calls)
    assert len(calls) > len(kept)


class TestOutputProperties:
    def test_sorted_and_distinct(self):
        out = [to_graph6(g) for g in enumerate_graphs(6, DegreeConstraint.any_degree())]
        assert out == sorted(out) and len(out) == len(set(out))

    def test_all_canonical(self):
        for g in enumerate_graphs(5, DegreeConstraint.any_degree()):
            assert canonical_form(g).g6 == to_graph6(g)

    def test_constraints_hold(self):
        c = DegreeConstraint.max_degree(3, connected=True)
        for g in enumerate_graphs(7, c):
            assert max(g.degree(u) for u in range(g.n)) <= 3
            assert is_connected(g)

    def test_regular_constraints_hold(self):
        for g in enumerate_graphs(8, DegreeConstraint.regular(3, connected=True)):
            assert all(g.degree(u) == 3 for u in range(8))
            assert is_connected(g)

    def test_workers_deterministic(self):
        c = DegreeConstraint.max_degree(3, connected=True)
        seq = [to_graph6(g) for g in enumerate_graphs(7, c, workers=1)]
        par = [to_graph6(g) for g in enumerate_graphs(7, c, workers=3)]
        assert seq == par

    @pytest.mark.parametrize("workers", [5, 10**6])
    def test_pool_size_bounded_by_cpus(self, monkeypatch, workers):
        started, _ = fake_pool(monkeypatch)
        c = DegreeConstraint.max_degree(3, connected=True)
        seq = [to_graph6(g) for g in enumerate_graphs(9, c, workers=1)]
        par = [to_graph6(g) for g in enumerate_graphs(9, c, workers=workers)]
        assert par == seq
        # one pool per call, once some level has _SPLIT parents per worker
        # (the 194 at order 8 for 5 workers, never for 10**6)
        assert started == ([2] if workers == 5 else [])

    # Parents at each order below n. Cubic-connected n=8 never has more
    # than 18, so it stays serial; in the others the split falls at
    # different orders, or not at all, as the number of workers grows
    # (with _SPLIT = 16, subcubic-connected n=9 at 4 workers meets the
    # threshold exactly: 64 parents at order 7).
    @pytest.mark.parametrize(
        "n,c,levels",
        [
            (8, DegreeConstraint.regular(3, connected=True), [1, 1, 2, 6, 9, 18, 10]),
            (6, DegreeConstraint.any_degree(), [1, 2, 4, 11, 34]),
            (10, DegreeConstraint.regular(3, connected=True), [1, 1, 2, 6, 10, 29, 60, 117, 63]),
            (9, DegreeConstraint.max_degree(3, connected=True), [1, 1, 2, 6, 10, 29, 64, 194]),
        ],
        ids=["cubic-connected-8", "any-6", "cubic-connected-10", "subcubic-connected-9"],
    )
    def test_split_point_keeps_masks_and_order(self, monkeypatch, n, c, levels):
        started, dealt = fake_pool(monkeypatch)
        want = [g._masks for g in enum_reference.enumerate_graphs(n, c)]
        for workers in (1, 2, 3, 4, 7):
            started.clear()
            dealt.clear()
            got = [g._masks for g in enumerate_graphs(n, c, workers=workers)]
            assert got == want, workers
            split = next((k for k in levels if workers > 1 and k >= _SPLIT * workers), None)
            if split is None:
                assert started == dealt == []
            else:
                assert started == [min(workers, 2)]
                assert dealt == [[len(range(i, split, workers)) for i in range(workers)]]
        if n == 8:
            assert max(levels) < _SPLIT * 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.booleans())
    def test_count_matches_len(self, n, connected):
        c = DegreeConstraint.any_degree(connected=connected)
        assert count(n, c) == len(enumerate_graphs(n, c))


class TestCapabilityLimits:
    def test_any_mode_limit(self):
        with pytest.raises(CapabilityError):
            enumerate_graphs(9, DegreeConstraint.any_degree())

    def test_subcubic_limit(self):
        with pytest.raises(CapabilityError):
            enumerate_graphs(13, DegreeConstraint.max_degree(3, connected=True))

    def test_max_degree_4_limit(self):
        with pytest.raises(CapabilityError):
            enumerate_graphs(9, DegreeConstraint.max_degree(4))

    def test_cubic_limit(self):
        with pytest.raises(CapabilityError):
            enumerate_graphs(13, DegreeConstraint.regular(3, connected=True))

    def test_4_regular_limit(self):
        with pytest.raises(CapabilityError):
            enumerate_graphs(11, DegreeConstraint.regular(4, connected=True))

    def test_within_limits_ok(self, any8):
        assert len(any8) == 12_346  # OEIS A000088
        assert count(12, DegreeConstraint.regular(3, connected=True)) == 85


class TestValidation:
    def test_bad_n(self):
        # a float, a string or a bool is no order, even one equal to an int
        for n in (0, 8.0, "8", True):
            with pytest.raises(ValueError, match="n >= 1"):
                enumerate_graphs(n, DegreeConstraint.any_degree())

    def test_bad_constraint_params(self):
        with pytest.raises(ValueError):
            DegreeConstraint.max_degree(-1)
        with pytest.raises(ValueError):
            DegreeConstraint.regular(-1)
        with pytest.raises(ValueError):
            DegreeConstraint("weird")
        with pytest.raises(ValueError):
            DegreeConstraint("any", bound=3)
        for bound in (3.0, "3", True, None):
            with pytest.raises(ValueError, match="bound"):
                DegreeConstraint.regular(bound, connected=True)
            with pytest.raises(ValueError, match="bound"):
                DegreeConstraint.max_degree(bound)
        for connected in (1, "yes", None):
            with pytest.raises(ValueError, match="connected"):
                DegreeConstraint.any_degree(connected)

    def test_bad_workers(self):
        for workers in (0, 1.0, 2.0, True, "2"):
            with pytest.raises(ValueError, match="workers"):
                enumerate_graphs(5, DegreeConstraint.any_degree(), workers=workers)

    def test_satisfied_by(self):
        c = DegreeConstraint.regular(3, connected=True)
        assert c.satisfied_by(from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
        assert not c.satisfied_by(from_edges(4, [(0, 1), (1, 2), (2, 3)]))

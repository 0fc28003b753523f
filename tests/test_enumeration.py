"""Isomorph-free enumeration against published counts and brute force."""

import concurrent.futures
import os
import random
from itertools import combinations

import enum_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmax import (
    CapabilityError,
    DegreeConstraint,
    Graph,
    blocks,
    canonical_form,
    count,
    enumerate_graphs,
    from_edges,
    is_connected,
    to_graph6,
)
import ccmax.enumeration as enumeration
from ccmax.enumeration import _F_SHIFT, _LAST_SPLIT, _SHARES, _SPLIT, _deletable
from ccmax.graphs import CANONICAL_MAX_N, _canon_masks, _spans, triangles_at

from conftest import graphs, random_cubic, relabel

# OEIS A000088 (graphs), A002851 (connected cubic graphs) and A006820
# (connected 4-regular graphs)
ALL_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_CUBIC = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
CONNECTED_QUARTIC = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16, 10: 59}
# connected graphs of maximum degree 3: derived from this code, not from a
# published table
SUBCUBIC_CONNECTED = {6: 29, 7: 64, 8: 194, 9: 531, 10: 1733}


def fake_pool(monkeypatch, cpus):
    """Replace the process pool by an in-process executor on a machine with
    cpus usable CPUs, so no process starts. Returns two lists it appends
    to: the max_workers of each construction, and the shares of each map.
    Every share must hold plain (masks, generators) tuple pairs."""
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
            for share in shares:
                assert all(plain_pair(entry) for entry in share)
            dealt.append(shares)
            return map(fn, shares, *rest)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return started, dealt


def plain_pair(entry):
    """Whether entry is a level entry of plain tuples: (masks, generators),
    each generator a tuple of ints, and no _Canon anywhere."""
    if type(entry) is not tuple or len(entry) != 2:
        return False
    masks, gens = entry
    return (
        type(masks) is tuple
        and type(gens) is tuple
        and all(type(x) is int for x in masks)
        and all(type(g) is tuple and len(g) == len(masks) for g in gens)
    )


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


def vertex_fields(g, v):
    """f(v) = (degree, sum of neighbour degrees) and h(v) = (|B2(v)|,
    triangles at v, edge ends inside B2(v), |B3(v)|) as tuples, Br(v) the
    vertices within distance r of v, from breadth-first distances."""
    dist = {v: 0}
    frontier = [v]
    while frontier:
        reached = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    reached.append(w)
        frontier = reached
    ball = {w for w, d in dist.items() if d <= 2}
    f = (g.degree(v), sum(g.degree(w) for w in g.neighbors(v)))
    ends = sum(len(ball.intersection(g.neighbors(w))) for w in ball)
    h = (len(ball), triangles_at(g, v), ends, sum(d <= 3 for d in dist.values()))
    return f, h


def packed(fields):
    """fields as one integer, _F_SHIFT bits each, the first the highest."""
    out = 0
    for x in fields:
        out = out << _F_SHIFT | x
    return out


def check_vertex_invariants(g, perm):
    # _invariants and _h give each vertex its packed (f, h) fields, and a
    # relabelling moves them with the vertex
    moved = relabel(g, perm)
    got = {}
    for graph in (g, moved):
        masks = graph._masks
        degs = [x.bit_count() for x in masks]
        got[graph] = list(zip(
            enumeration._invariants(masks, degs), [enumeration._h(masks, v) for v in range(g.n)]
        ))
        for v in range(g.n):
            assert got[graph][v] == tuple(map(packed, vertex_fields(graph, v)))
    assert all(got[moved][perm[v]] == got[g][v] for v in range(g.n))


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=9), st.randoms(use_true_random=False))
def test_vertex_invariants_move_with_a_relabelling(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    check_vertex_invariants(g, perm)


def test_vertex_invariants_move_with_a_relabelling_at_order_20():
    rng = random.Random(2020)
    for p in (0.1, 0.2, 0.5, 0.9):
        g = from_edges(20, [e for e in combinations(range(20), 2) if rng.random() < p])
        perm = list(range(20))
        rng.shuffle(perm)
        check_vertex_invariants(g, perm)


@pytest.mark.parametrize(
    "g",
    [
        from_edges(CANONICAL_MAX_N, combinations(range(CANONICAL_MAX_N), 2)),
        random_cubic(random.Random(3), CANONICAL_MAX_N),
    ],
    ids=["K20", "cubic-20"],
)
def test_packed_fields_do_not_carry_at_the_canonical_cap(g):
    # No field of f or h at order CANONICAL_MAX_N exceeds its value on the
    # complete graph, and those values (edge ends in B2(v) the largest, at
    # 20 * 19) stay below 1 << _F_SHIFT: no packed field carries into the
    # next, so integer order is tuple order.
    n = CANONICAL_MAX_N
    top = (n - 1, (n - 1) ** 2, n, (n - 1) * (n - 2) // 2, n * (n - 1), n)
    assert max(top) == 380 < 1 << _F_SHIFT
    for v in range(n):
        f, h = vertex_fields(g, v)
        assert all(x <= t for x, t in zip(f + h, top))
        assert (f + h == top) == (g.m == n * (n - 1) // 2)
    check_vertex_invariants(g, list(reversed(range(n))))


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
    kept = [
        child for p in parents for child in enumeration._children(tuple(p), p.gens, 6, 7, c)
    ]
    assert sorted(masks for masks, _ in kept) == want and len(kept) == ALL_GRAPHS[7]
    # a child of order n has no children, so it carries no generators
    assert all(gens == () for _, gens in kept)
    assert all(len(masks) == 7 for masks in calls)
    assert len(calls) > len(kept)


def regular_levels(k, n, connected):
    """(m, the order-m canonical prefixes as (masks, generators) pairs) for
    m = 1..n-1 of the k-regular order-n target, as the enumerator grows
    them."""
    c = DegreeConstraint.regular(k, connected)
    level = [((0,), ())] if enum_reference.regular_prefix_ok((0,), 1, n, k) else []
    for m in range(1, n):
        yield m, level
        level = enumeration._grow(level, m, m + 1, n, c)


def with_vertex(parent, subset):
    """parent's masks plus a new last vertex joined to subset."""
    new = len(parent)
    return [x | 1 << new if u in subset else x for u, x in enumerate(parent)] + [
        sum(1 << u for u in subset)
    ]


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "any"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_regular_sizes_equal_prefix_test(k, connected):
    # Every neighbour set that holds the forced vertices (those short of
    # more edges than the later vertices can give) passes the frozen
    # enum_reference.regular_prefix_ok exactly when its size is one
    # _regular_sizes keeps.
    outcomes = []
    for n in range(k + 1, 11):
        for m, parents in regular_levels(k, n, connected):
            for parent, _ in parents:
                degs = [x.bit_count() for x in parent]
                forced = [u for u in range(m) if k - degs[u] > n - m - 1]
                free = [u for u in range(m) if u not in forced and degs[u] < k]
                sizes = enumeration._regular_sizes(degs, n, k, range(k + 1))
                for size in range(len(forced), min(k, len(forced) + len(free)) + 1):
                    for rest in combinations(free, size - len(forced)):
                        child = with_vertex(parent, {*forced, *rest})
                        ok = enum_reference.regular_prefix_ok(child, m + 1, n, k)
                        assert (size in sizes) == ok, (n, parent, rest)
                        outcomes.append(ok)
    assert True in outcomes and False in outcomes


def test_start_decision_equals_prefix_test():
    # The first vertex is the one child of the empty prefix, so _level's
    # start test is _regular_sizes over sizes range(1); it must agree with
    # the frozen prefix test of the one-vertex prefix beyond the range of
    # tests/test_enum_reference.py, n = 1 included.
    for k in range(7):
        for n in range(1, 21):
            want = enum_reference.regular_prefix_ok((0,), 1, n, k)
            assert bool(enumeration._regular_sizes([], n, k, range(1))) == want, (n, k)
        assert count(1, DegreeConstraint.regular(k)) == (k == 0)


@pytest.mark.parametrize(
    "c,top",
    [(DegreeConstraint.any_degree(), 7), (DegreeConstraint.max_degree(3, connected=True), 9)],
    ids=["any", "subcubic-connected"],
)
def test_least_degree_forcing_skips_only_rejected_sets(c, top):
    # A neighbour set of size d0 + 1 that misses a deletable vertex of the
    # least deletable degree d0 is never tried. Each such set gives a child
    # with a deletable vertex of smaller f than the new vertex, which the
    # f test would drop.
    skipped = 0
    for m in range(1, top):
        for g in enumerate_graphs(m, c):
            parent = g._masks
            degrees = [x.bit_count() for x in parent]
            deletable = [u for u in range(m) if _deletable(parent, u, c.connected)]
            d0 = min(degrees[u] for u in deletable)
            low = {u for u in deletable if degrees[u] == d0}
            assert enumeration._least_deletable(parent, degrees, c.connected) == (
                d0, sum(1 << u for u in low)
            )
            cap = m if c.bound is None else c.bound
            eligible = [u for u in range(m) if degrees[u] < cap]
            for subset in combinations(eligible, d0 + 1):
                if low <= set(subset):
                    continue
                child = with_vertex(parent, set(subset))
                f = enumeration._invariants(child, [x.bit_count() for x in child])
                assert any(
                    f[u] < f[m] and _deletable(child, u, c.connected) for u in range(m)
                ), (parent, subset)
                skipped += 1
    assert skipped > 1000


def completion(masks, k):
    """masks plus a last vertex joined to every vertex of degree below k."""
    return with_vertex(masks, {u for u, x in enumerate(masks) if x.bit_count() < k})


@pytest.mark.parametrize("k", [3, 4])
def test_look_ahead_spares_canonical_calls_exactly(monkeypatch, k):
    # At order n - 1 of a k-regular target, no child reaches the canonical
    # labelling if a deletable vertex of its one completion has a smaller h
    # than the completion's last vertex. Each child so dropped has no child
    # of its own, so the look-ahead only moves a rejection one level up.
    # Growing order n - 2 to n - 1 reaches only this look-ahead, so
    # patching _has_child turns off no other test.
    n = 10
    c = DegreeConstraint.regular(k, connected=True)
    calls = []
    monkeypatch.setattr(enumeration, "_canon_masks", lambda m: calls.append(m) or _canon_masks(m))
    assert count(n, c) == (CONNECTED_CUBIC if k == 3 else CONNECTED_QUARTIC)[n]
    last = [masks for masks in calls if len(masks) == n - 1]
    assert last
    for masks in last:
        full = completion(masks, k)
        h_last = enumeration._h(full, n - 1)
        for u in range(n - 1):
            assert enumeration._h(full, u) >= h_last or not _deletable(full, u, True)
    # the order n - 1 level the enumerator would keep without the look-ahead
    parents = dict(regular_levels(k, n, True))[n - 2]
    monkeypatch.setattr(enumeration, "_has_child", lambda masks, n, c: True)
    unpruned = enumeration._grow(parents, n - 2, n - 1, n, c)
    monkeypatch.undo()
    dropped = [pair for pair in unpruned if not enumeration._has_child(pair[0], n, c)]
    assert dropped
    for child, gens in dropped:
        assert enumeration._children(child, gens, n - 1, n, c) == []


@pytest.mark.parametrize(
    "n,c",
    [
        (10, DegreeConstraint.regular(3, connected=True)),
        (12, DegreeConstraint.regular(3, connected=True)),
        (10, DegreeConstraint.regular(3)),
        (10, DegreeConstraint.regular(4, connected=True)),
    ],
    ids=["cubic-connected-10", "cubic-connected-12", "cubic-10", "quartic-connected-10"],
)
def test_last_look_ahead_closed_form_equals_candidates(n, c):
    # At order n - 1, _has_child answers in closed form: the one completion
    # passes iff no deletable vertex has a smaller h than the last vertex.
    # It must agree with trying every neighbour set through _candidates on
    # every one-vertex-deleted subgraph of a target graph that passes the
    # prefix test, the vertex deletable as the enumerator reads it (so the
    # subgraph of a connected target is connected). The closed form stays
    # because the generic walk costs more: on cubic-connected n=12 it raised
    # the profiled calls from 1.20M to 1.57M and the _spans calls from
    # 11,638 to 27,320.
    answers = set()
    for g in enumerate_graphs(n, c):
        for v in range(n):
            if not _deletable(g._masks, v, c.connected):
                continue
            keep = [u for u in range(n) if u != v]
            masks = [
                sum(1 << i for i, w in enumerate(keep) if g._masks[u] >> w & 1) for u in keep
            ]
            if not enum_reference.regular_prefix_ok(masks, n - 1, n, c.bound):
                continue
            want = any(enumeration._candidates(masks, (), n - 1, n, c))
            assert enumeration._has_child(masks, n, c) == want, (to_graph6(g), v)
            answers.add(want)
    assert answers == {True, False}


def grown(n, c):
    """The masks of the order-n level as the enumerator grows it serially,
    before the sort."""
    level = [((0,), ())] if enum_reference.regular_prefix_ok((0,), 1, n, c.bound) else []
    return [masks for masks, _ in enumeration._grow(level, 1, n, n, c)]


@pytest.mark.parametrize(
    "k,n,unpruned,kept",
    [(3, 10, 117, 21), (3, 12, 941, 97), (4, 10, 481, 88)],
    ids=["cubic-connected-10", "cubic-connected-12", "quartic-connected-10"],
)
def test_two_level_look_ahead_drops_only_dead_prefixes(monkeypatch, k, n, unpruned, kept):
    # At order n - 2 of a k-regular target, a child none of whose own
    # children passes the tests before the labelling is dropped before its
    # canonical labelling. Each child so dropped has no order-n descendant,
    # and the children it keeps come in the order they came before.
    c = DegreeConstraint.regular(k, connected=True)
    parents = dict(regular_levels(k, n, True))[n - 3]
    level = enumeration._grow(parents, n - 3, n - 2, n, c)
    monkeypatch.setattr(enumeration, "_has_child", lambda masks, n, c: True)
    full = enumeration._grow(parents, n - 3, n - 2, n, c)
    monkeypatch.undo()
    alive = [enumeration._has_child(masks, n, c) for masks, _ in full]
    assert (len(full), len(level)) == (unpruned, kept)
    assert level == [pair for pair, ok in zip(full, alive) if ok]
    for pair, ok in zip(full, alive):
        if not ok:
            assert enumeration._grow([pair], n - 2, n, n, c) == [], pair


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "any"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_two_level_look_ahead_keeps_masks_and_order(monkeypatch, k, connected):
    # With and without the look-ahead (at orders n - 1 and n - 2 alike,
    # both turned off by the one patch), every order up to the cap grows
    # the same masks in the same order.
    c = DegreeConstraint.regular(k, connected)
    with_look_ahead = [grown(n, c) for n in range(1, enumeration._capability_limit(c) + 1)]
    monkeypatch.setattr(enumeration, "_has_child", lambda masks, n, c: True)
    without = [grown(n, c) for n in range(1, enumeration._capability_limit(c) + 1)]
    assert with_look_ahead == without
    assert sum(map(len, without)) > 0


@pytest.mark.parametrize(
    "n,c",
    [
        (8, DegreeConstraint.regular(3, connected=True)),
        (6, DegreeConstraint.any_degree()),
        (7, DegreeConstraint.max_degree(3, connected=True)),
    ],
    ids=["cubic-connected-8", "any-6", "subcubic-connected-7"],
)
def test_levels_are_plain_pairs(n, c):
    # Every level, from the seed up, is a list of (masks, generators) pairs
    # of plain tuples; only a level below order n carries generators, and a
    # parent with a nontrivial group has some.
    level = [((0,), ())]
    for m in range(1, n):
        level = enumeration._grow(level, m, m + 1, n, c)
        assert level and all(plain_pair(entry) for entry in level), m
        assert all(len(masks) == m + 1 for masks, _ in level)
        if m + 1 == n:
            assert all(gens == () for _, gens in level)
        else:
            assert any(gens for _, gens in level)
    got = sorted((Graph(n, masks) for masks, _ in level), key=to_graph6)
    assert got == enumerate_graphs(n, c)


@pytest.mark.parametrize(
    "n,c,calls",
    [
        # 1,148, 676 and 2,710 when every child below order n was labelled.
        # Before that, the cubic cell made 2,037 with only the last-vertex
        # look-ahead and 2,476 with neither, the quartic one 1,075 with only
        # the last.
        (12, DegreeConstraint.regular(3, connected=True), 536),
        (10, DegreeConstraint.regular(4, connected=True), 334),
        (10, DegreeConstraint.max_degree(3, connected=True), 2183),
    ],
    ids=["cubic-connected-12", "quartic-connected-10", "subcubic-connected-10"],
)
def test_canonical_call_counts(monkeypatch, n, c, calls):
    # Canonical labellings per enumeration, pinned: a rejection that moves
    # behind the labelling shows here first.
    made = []
    monkeypatch.setattr(enumeration, "_canon_masks", lambda m: made.append(1) or _canon_masks(m))
    enumerate_graphs(n, c)
    assert len(made) == calls


@pytest.mark.parametrize(
    "n,c,calls",
    [
        # 1,132, 666 and 1,574 when every child below order n was labelled
        (12, DegreeConstraint.regular(3, connected=True), 520),
        (10, DegreeConstraint.regular(4, connected=True), 324),
        (10, DegreeConstraint.max_degree(3, connected=True), 1047),
    ],
    ids=["cubic-connected-12", "quartic-connected-10", "subcubic-connected-10"],
)
def test_unlabelled_call_counts(monkeypatch, n, c, calls):
    # The same enumerations as test_canonical_call_counts with
    # canonical=False: an order-n child whose new vertex ties with no
    # deletable vertex is kept without a labelling.
    made = []
    monkeypatch.setattr(enumeration, "_canon_masks", lambda m: made.append(1) or _canon_masks(m))
    enumerate_graphs(n, c, canonical=False)
    assert len(made) == calls


UNLABELLED_CASES = [
    (7, DegreeConstraint.any_degree()),
    (7, DegreeConstraint.any_degree(connected=True)),
    (9, DegreeConstraint.max_degree(3, connected=True)),
    (10, DegreeConstraint.regular(3, connected=True)),
    (10, DegreeConstraint.regular(4, connected=True)),
]
UNLABELLED_IDS = [
    "any-7", "connected-7", "subcubic-connected-9", "cubic-connected-10", "quartic-connected-10"
]


@pytest.mark.parametrize("pooled", [False, True], ids=["in-process", "pooled"])
@pytest.mark.parametrize("n,c", UNLABELLED_CASES, ids=UNLABELLED_IDS)
def test_unlabelled_classes_equal_default(monkeypatch, n, c, pooled):
    # With canonical=False every class still comes out once, some of them
    # not canonically labelled; sorted by canonical graph6 they are the
    # default output. Pooled, each case splits at 2 workers, so the grown
    # graphs come back through the pool's map, which must carry the flag.
    want = [to_graph6(g) for g in enumerate_graphs(n, c)]
    workers = 1
    if pooled:
        started, _ = fake_pool(monkeypatch, 2)
        workers = 2
    got = enumerate_graphs(n, c, workers, canonical=False)
    labels = [canonical_form(g).g6 for g in got]
    assert sorted(labels) == want
    assert any(to_graph6(g) != s for g, s in zip(got, labels))
    if pooled:
        assert started == [2]


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
        started, _ = fake_pool(monkeypatch, 2)
        c = DegreeConstraint.max_degree(3, connected=True)
        seq = [to_graph6(g) for g in enumerate_graphs(9, c, workers=1)]
        par = [to_graph6(g) for g in enumerate_graphs(9, c, workers=workers)]
        assert par == seq
        # workers is capped at the 2 CPUs first, so both split as 2 workers
        # do: one pool, at the 64 parents of order 7
        assert started == [2]

    def test_one_cpu_starts_no_pool(self, monkeypatch):
        # subcubic-connected n=9 splits at 2, 4 and 7 workers on 8 CPUs
        started, dealt = fake_pool(monkeypatch, 1)
        c = DegreeConstraint.max_degree(3, connected=True)
        want = [g._masks for g in enumerate_graphs(9, c, workers=1)]
        for workers in (2, 4, 7):
            assert [g._masks for g in enumerate_graphs(9, c, workers=workers)] == want
        assert started == dealt == []

    def test_more_workers_than_cpus_split_as_cpus(self, monkeypatch):
        # the split order and the shares read the capped count
        started, dealt = fake_pool(monkeypatch, 3)
        c = DegreeConstraint.max_degree(3, connected=True)
        runs = []
        for workers in (3, 4, 10**6):
            started.clear()
            dealt.clear()
            masks = [g._masks for g in enumerate_graphs(9, c, workers=workers)]
            runs.append((masks, started[:], dealt[:]))
        assert runs[0][1] == [3] and len(runs[0][2]) == 1
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize(
        "affinity,cpus,want", [({0}, 8, 1), ({0, 1, 2}, 8, 3), (None, 6, 6), (None, None, 1)]
    )
    def test_cpus_counts_the_usable_ones(self, monkeypatch, affinity, cpus, want):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert enumeration._cpus() == want

    # Parents at each order below n. Cubic-connected n=8 never has more
    # than 18, so it stays serial; in the others the split falls at
    # different orders, or not at all, as the number of workers grows; with
    # 8 usable CPUs no workers value tried here is capped. With _SPLIT = 16,
    # subcubic-connected n=9 at 4 workers meets the threshold exactly (64
    # parents at order 7). A level of order n - 1 is shared out only from
    # _LAST_SPLIT parents: any-degree n=6 at 2 workers (34 at order 5)
    # starts no pool, subcubic-connected n=9 at 7 (194 at order 8) does.
    # The two-level look-ahead leaves cubic-connected n=10 28 parents at
    # order 8, so it splits at 2 and 3 workers only.
    @pytest.mark.parametrize(
        "n,c,levels",
        [
            (8, DegreeConstraint.regular(3, connected=True), [1, 1, 2, 6, 9, 18, 6]),
            (6, DegreeConstraint.any_degree(), [1, 2, 4, 11, 34]),
            (10, DegreeConstraint.regular(3, connected=True), [1, 1, 2, 6, 10, 29, 60, 28, 24]),
            (9, DegreeConstraint.max_degree(3, connected=True), [1, 1, 2, 6, 10, 29, 64, 194]),
        ],
        ids=["cubic-connected-8", "any-6", "cubic-connected-10", "subcubic-connected-9"],
    )
    def test_split_point_keeps_masks_and_order(self, monkeypatch, n, c, levels):
        cpus = 8
        started, dealt = fake_pool(monkeypatch, cpus)
        want = [g._masks for g in enum_reference.enumerate_graphs(n, c)]
        for workers in (1, 2, 3, 4, 7):
            started.clear()
            dealt.clear()
            got = [g._masks for g in enumerate_graphs(n, c, workers=workers)]
            assert got == want, workers
            used = min(workers, cpus)
            split = next(
                (
                    m
                    for m, k in enumerate(levels, 1)
                    if used > 1 and k >= _SPLIT * used and (m < n - 1 or k >= _LAST_SPLIT)
                ),
                None,
            )
            if split is None:
                assert started == dealt == []
            else:
                assert started == [used]
                # each parent of the split level in exactly one of the
                # strided shares, whose sizes differ by at most one
                parents = enumeration._grow([((0,), ())], 1, split, n, c)
                assert len(parents) == levels[split - 1]
                k = _SHARES * used
                (shares,) = dealt
                assert [len(s) for s in shares] == [len(range(i, len(parents), k)) for i in range(k)]
                assert sorted(pair for share in shares for pair in share) == sorted(parents)
        if n == 8:
            assert max(levels) < _SPLIT * 2

    def test_real_pool_keeps_masks_and_order(self):
        # cubic-connected n=12 splits at 2 and 3 workers
        c = DegreeConstraint.regular(3, connected=True)
        want = [g._masks for g in enumerate_graphs(12, c, workers=1)]
        for workers in (2, 3):
            assert [g._masks for g in enumerate_graphs(12, c, workers=workers)] == want
        assert len(want) == count(12, c, workers=2) == CONNECTED_CUBIC[12]

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

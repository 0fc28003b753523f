"""Automorphism generators of the canonical search, against brute force,
networkx and the labelled-count identity.

_canon_masks returns the canonical masks with `gens`, permutations of
canonical positions that should generate the whole automorphism group of the
canonical copy, and `pos`, the canonical position of each input vertex. The
enumerator tries one neighbour set per orbit of a parent's group and keeps a
child by McKay's orbit test, so a missing generator would double classes and
a wrong one would lose them. A kept child that gets no labelling takes its
generators from its parent's by enumeration._stabiliser, so those are
checked too.
"""

import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from ccmax import DegreeConstraint, enumerate_graphs, enumeration, from_edges
from ccmax.enumeration import _stabiliser
from ccmax.graphs import _canon_masks

from conftest import hard_set, relabel


def image(perm, mask):
    """The vertex set mask moved by perm."""
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def generated_group(gens, n):
    """Every element of the group that gens generate, by closure; a
    generator already in the group found so far adds nothing and is skipped."""
    group = {tuple(range(n))}
    kept = []
    for g in gens:
        if g in group:
            continue
        kept.append(g)
        todo = list(group)
        while todo:
            a = todo.pop()
            for h in kept:
                b = tuple(h[x] for x in a)
                if b not in group:
                    group.add(b)
                    todo.append(b)
    return group


def brute_group(masks):
    """Every automorphism of the graph with these masks."""
    n = len(masks)
    return {
        p for p in permutations(range(n)) if all(image(p, masks[v]) == masks[p[v]] for v in range(n))
    }


def check_generators(masks):
    canon = _canon_masks(masks)
    n = len(masks)
    # pos relabels the input onto the canonical copy
    assert all(image(canon.pos, masks[v]) == canon[canon.pos[v]] for v in range(n))
    assert generated_group(canon.gens, n) == brute_group(canon)


def test_every_small_labelled_graph():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
            check_generators(g._masks)


def test_every_class_of_order_6_relabelled():
    rng = random.Random(6)
    graphs = enumerate_graphs(6, DegreeConstraint.any_degree())
    assert len(graphs) == 156
    for g in graphs:
        perm = list(range(6))
        rng.shuffle(perm)
        check_generators(relabel(g, perm)._masks)


def test_random_graphs_of_order_7():
    rng = random.Random(7)
    pairs = list(combinations(range(7), 2))
    for _ in range(40):
        p = rng.choice((0.2, 0.5, 0.8))
        check_generators(from_edges(7, [e for e in pairs if rng.random() < p])._masks)


@pytest.mark.parametrize("name", sorted(hard_set()))
def test_group_order_equals_networkx(name):
    nx = pytest.importorskip("networkx")
    g = hard_set()[name]
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    want = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    assert len(generated_group(_canon_masks(g._masks).gens, g.n)) == want


def connected_labelled(n):
    """Labelled connected graphs on n vertices: c_n = 2^C(n,2) minus the
    graphs whose vertex 1 lies in a component of k < n vertices."""
    c = {}
    for m in range(1, n + 1):
        c[m] = 2 ** comb(m, 2) - sum(
            comb(m - 1, k - 1) * c[k] * 2 ** comb(m - k, 2) for k in range(1, m)
        )
    return c[n]


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
def test_labelled_count_identity(connected):
    # Each class stands for n!/|Aut| labelled graphs, so a class missing or
    # doubled in the enumeration breaks the sum.
    assert [connected_labelled(n) for n in range(1, 6)] == [1, 1, 4, 38, 728]
    for n in range(1, 8):
        labelled = 0
        for g in enumerate_graphs(n, DegreeConstraint.any_degree(connected)):
            labelled += factorial(n) // len(generated_group(_canon_masks(g._masks).gens, n))
        assert labelled == (connected_labelled(n) if connected else 2 ** comb(n, 2)), n


def test_stabiliser_is_the_setwise_stabiliser():
    # The Schreier generators generate exactly the elements of the whole
    # group that map S to itself, each extended to fix the new vertex n.
    rng = random.Random(26)
    for _ in range(60):
        n = rng.randint(1, 8)
        p = rng.choice((0.0, 0.2, 0.5, 0.8))
        pairs = list(combinations(range(n), 2))
        canon = _canon_masks(from_edges(n, [e for e in pairs if rng.random() < p])._masks)
        s = rng.getrandbits(n)
        got = _stabiliser(canon.gens, s, n)
        assert all(type(a) is tuple and len(a) == n + 1 and a[n] == n for a in got)
        want = {a + (n,) for a in generated_group(canon.gens, n) if image(a, s) == s}
        assert generated_group(got, n + 1) == want
    assert _stabiliser((), 0b101, 3) == ()


LEVEL_CELLS = [
    (7, DegreeConstraint.any_degree()),
    (10, DegreeConstraint.max_degree(3, connected=True)),
    (12, DegreeConstraint.regular(3, connected=True)),
    (10, DegreeConstraint.regular(4, connected=True)),
    (9, DegreeConstraint.max_degree(3)),
]


@pytest.mark.parametrize(
    "n,c",
    LEVEL_CELLS,
    ids=["any-7", "subcubic-connected-10", "cubic-connected-12", "quartic-connected-10", "subcubic-9"],
)
def test_level_generators_generate_the_whole_group(n, c):
    # Every entry below order n carries automorphisms of its masks that
    # generate a group as large as its labelling's, whether they came from
    # the labelling or from the parent's by _stabiliser; some entries keep
    # the numbering they were built with, so the stabiliser is exercised.
    level = [((0,), ())]
    built = 0
    for m in range(1, n - 1):
        level = enumeration._grow(level, m, m + 1, n, c)
        for masks, gens in level:
            k = len(masks)
            assert all(image(a, masks[v]) == masks[a[v]] for a in gens for v in range(k))
            want = generated_group(_canon_masks(masks).gens, k)
            assert len(generated_group(gens, k)) == len(want), masks
            built += tuple(_canon_masks(masks)) != masks
    assert built

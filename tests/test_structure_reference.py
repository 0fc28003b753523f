"""Block structure against the frozen reference in structure_reference.py.

Every B verdict, graph type and structural claim feeds the T1 and T23
reports, so the library must agree with the reference on every connected
graph up to order 7 and on every connected subcubic graph of order 8 and 9,
including the diagnostic blocks_legal flag and the order-< 6 errors. `cc
classify` prints the blocks in decomposition order, so the decomposition
must equal the reference's in block order too, also on large inputs.
"""

import random
from itertools import combinations

import pytest

from ccmax import (
    DegreeConstraint,
    blocks,
    caveman,
    claim_checks,
    classify_block,
    enumerate_graphs,
    from_edges,
    graph_type,
    is_in_b,
    is_in_b0,
    is_in_b_literal,
    named,
)

import structure_reference as ref

UNIVERSES = [
    pytest.param(n, DegreeConstraint.any_degree(connected=True), id=f"any-{n}")
    for n in range(1, 8)
] + [
    pytest.param(n, DegreeConstraint.max_degree(3, connected=True), id=f"subcubic-{n}")
    for n in (8, 9)
]


def random_connected(rng, n, dense):
    """A random tree on n shuffled labels plus random extra edges, each
    further pair with probability c/n: c in [1, 8] when dense, else c in
    [0, 3] and only while both ends have degree below 3."""
    degree = [0] * n
    edges = []
    for v in range(1, n):
        u = rng.choice([w for w in range(v) if dense or degree[w] < 3])
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    tree = set(edges)
    p = rng.uniform(1, 8) / n if dense else rng.uniform(0, 3) / n
    for u, v in combinations(range(n), 2):
        if (u, v) in tree or rng.random() >= p:
            continue
        if dense or max(degree[u], degree[v]) < 3:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    label = rng.sample(range(n), n)
    return from_edges(n, [(label[u], label[v]) for u, v in edges])


def _decomposition_inputs():
    for n in range(1, 8):
        yield from enumerate_graphs(n, DegreeConstraint.any_degree(connected=True))
    rng = random.Random(1973)
    for _ in range(100):
        for dense in (False, True):
            yield random_connected(rng, rng.randint(9, 62), dense)
    yield named("path(3000)")
    yield caveman(3, 500)


def test_same_decomposition():
    for g in _decomposition_inputs():
        dec, want = blocks(g), ref.reference_blocks(g)
        assert dec.blocks == want.blocks and dec.cut_vertices == want.cut_vertices, g


def outcome(predicate, g):
    try:
        return predicate(g)
    except ValueError as err:
        return ("ValueError", str(err))


@pytest.mark.parametrize("n,constraint", UNIVERSES)
def test_same_verdicts(n, constraint):
    for g in enumerate_graphs(n, constraint):
        t, want_t = graph_type(g), ref.graph_type(g)
        assert (t.as_tuple(), t.blocks_legal) == (want_t.as_tuple(), want_t.blocks_legal)
        assert claim_checks(g) == ref.claim_checks(g)
        for b in blocks(g).blocks:
            assert classify_block(g, b) is ref.classify_block(g, b)
        for mine, theirs in (
            (is_in_b0, ref.is_in_b0),
            (is_in_b_literal, ref.is_in_b_literal),
            (is_in_b, ref.is_in_b),
        ):
            assert outcome(mine, g) == outcome(theirs, g), (mine.__name__, g)

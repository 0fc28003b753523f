"""Structure predicates against the frozen reference in structure_reference.py.

Every B verdict, graph type and structural claim feeds the T1 and T23
reports, so the library must agree with the reference on every connected
graph up to order 7 and on every connected subcubic graph of order 8 and 9,
including the diagnostic blocks_legal flag and the order-< 6 errors.
"""

import pytest

from ccmax import (
    DegreeConstraint,
    blocks,
    claim_checks,
    classify_block,
    enumerate_graphs,
    graph_type,
    is_in_b,
    is_in_b0,
    is_in_b_literal,
)

import structure_reference as ref

UNIVERSES = [
    pytest.param(n, DegreeConstraint.any_degree(connected=True), id=f"any-{n}")
    for n in range(1, 8)
] + [
    pytest.param(n, DegreeConstraint.max_degree(3, connected=True), id=f"subcubic-{n}")
    for n in (8, 9)
]


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

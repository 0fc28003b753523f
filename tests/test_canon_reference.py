"""Canonical labelling against the frozen reference in canon_reference.py.

Canonical strings are part of the output contract (enumeration order and
every report depend on them), so the library must reproduce the reference
labelling exactly, not merely some labelling that separates isomorphism
classes.
"""

import random
from itertools import combinations

import pytest

import ccmax.enumeration as enumeration
from ccmax import DegreeConstraint, canonical_form, enumerate_graphs, from_edges
from ccmax.graphs import _canon_masks

from canon_reference import canon_masks as reference_canon_masks
from conftest import hard_set, random_cubic


def enumerator_inputs(monkeypatch, n, constraint):
    """Every adjacency the enumerator canonicalises on the way to order n."""
    seen = set()
    real = enumeration._canon_masks

    def record(masks):
        seen.add(tuple(masks))
        return real(masks)

    monkeypatch.setattr(enumeration, "_canon_masks", record)
    enumerate_graphs(n, constraint)
    return seen


# Levels below n are the same for every target order in the any-degree and
# max-degree modes, so the largest order covers the smaller ones; regular
# prefixes are pruned against n, so each order is its own universe.
UNIVERSES = [
    pytest.param(6, DegreeConstraint.any_degree(), id="any-6"),
    pytest.param(8, DegreeConstraint.max_degree(3, connected=True), id="subcubic-8"),
] + [
    pytest.param(n, DegreeConstraint.regular(3, connected=True), id=f"cubic-{n}")
    for n in (4, 6, 8, 10)
]


@pytest.mark.parametrize("n,constraint", UNIVERSES)
def test_enumerator_inputs_match_reference(monkeypatch, n, constraint):
    inputs = enumerator_inputs(monkeypatch, n, constraint)
    assert inputs
    for masks in inputs:
        assert _canon_masks(masks) == reference_canon_masks(masks, len(masks)), masks


def _random_graphs():
    rng = random.Random(20140101)
    out = []
    for _ in range(100):
        n = rng.randint(9, 20)
        p = rng.uniform(1.5, 3.5) / n
        out.append(from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for _ in range(100):
        out.append(random_cubic(rng, rng.choice(range(10, 21, 2))))
    for _ in range(100):
        n = rng.randint(9, 20)
        out.append(from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
    return out


def test_random_graphs_match_reference():
    for g in _random_graphs():
        assert _canon_masks(g._masks) == reference_canon_masks(g._masks, g.n), g.edges()


@pytest.mark.parametrize("name", sorted(hard_set()))
def test_hard_set_matches_reference(name):
    g = hard_set()[name]
    assert _canon_masks(g._masks) == reference_canon_masks(g._masks, g.n)


def test_rook_and_shrikhande_told_apart():
    # Both are SRG(16,6,2,2): refinement leaves each a single class.
    hard = hard_set()
    assert canonical_form(hard["rook4x4"]) != canonical_form(hard["shrikhande"])

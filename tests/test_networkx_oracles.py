"""Structure, clustering and canonical forms against networkx.

networkx shares no code with ccmax, so these checks are independent
oracles: blocks and cut vertices against biconnected_components and
articulation_points, and graph_cc against per-vertex triangle counts, on
every connected graph up to order 8 (12,113 graphs); canonical forms
against VF2 isomorphism on the hard cases and on random cubic graphs of
order 20.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from ccmax import (
    DegreeConstraint,
    blocks,
    canonical_form,
    canonical_graph,
    enumerate_graphs,
    graph_cc,
)

from conftest import hard_set, random_cubic, relabel

nx = pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def connected_upto_8():
    """(ccmax graph, networkx graph) for every connected graph of order 1-8."""
    out = []
    for n in range(1, 9):
        for g in enumerate_graphs(n, DegreeConstraint.any_degree(connected=True)):
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(n))
            out.append((g, h))
    assert len(out) == 12_113  # OEIS A001349, n = 1..8
    return out


def test_blocks_equal_biconnected_components(connected_upto_8):
    for g, h in connected_upto_8:
        want = {tuple(sorted(c)) for c in nx.biconnected_components(h)}
        assert set(blocks(g).blocks) == want, g.edges()


def test_cut_vertices_equal_articulation_points(connected_upto_8):
    for g, h in connected_upto_8:
        assert blocks(g).cut_vertices == set(nx.articulation_points(h)), g.edges()


def test_graph_cc_equals_triangle_sum(connected_upto_8):
    for g, h in connected_upto_8:
        triangles = nx.triangles(h)
        total = sum(
            (Fraction(triangles[u], comb(d, 2)) for u, d in h.degree() if d >= 2),
            Fraction(0),
        )
        assert graph_cc(g) == total / g.n, g.edges()


def _canonical_cases():
    hard = hard_set()
    cases = {name: hard[name] for name in ("rook4x4", "shrikhande", "paley17")}
    rng = random.Random(20)
    for i in range(5):
        cases[f"cubic20-{i}"] = random_cubic(rng, 20)
    return cases


@pytest.mark.parametrize("name", sorted(_canonical_cases()))
def test_canonical_graph_isomorphic_and_label_free(name):
    g = _canonical_cases()[name]
    h = canonical_graph(g)
    assert nx.is_isomorphic(nx.Graph(g.edges()), nx.Graph(h.edges()))
    rng = random.Random(name)
    forms = {canonical_form(relabel(g, rng.sample(range(g.n), g.n))) for _ in range(5)}
    assert forms == {canonical_form(g)}

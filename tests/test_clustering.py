"""Clustering coefficients, the edge-addition delta, and the bounds."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccmax import (
    DegreeConstraint,
    cc_sum,
    complete_bipartite,
    decimal_str,
    edge_add_delta,
    enumerate_graphs,
    family_b_cc,
    from_edges,
    g_kl,
    graph_cc,
    local_cc,
    named,
    theorem1_bound,
    theorem2_bound,
    theorem4_bound,
)
from ccmax.clustering import _binomial_lcm, _scaled_deltas

from conftest import graphs


class TestLocalCC:
    def test_complete_neighborhood(self):
        assert all(local_cc(named("K4"), u) == 1 for u in range(4))

    def test_diamond_degree3_vertex(self):
        assert local_cc(named("diamond"), 0) == Fraction(2, 3)

    def test_low_degree_is_zero(self):
        p2 = named("path(2)")
        assert local_cc(p2, 0) == 0
        assert local_cc(from_edges(2, []), 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            local_cc(named("K4"), 4)
        with pytest.raises(ValueError, match="int vertex"):
            local_cc(named("paw"), 1.0)

    @given(graphs())
    def test_unit_interval(self, g):
        for u in range(g.n):
            v = local_cc(g, u)
            assert 0 <= v <= 1

    @given(graphs())
    def test_one_iff_neighborhood_clique(self, g):
        for u in range(g.n):
            d = g.degree(u)
            nbrs = g.neighbors(u)
            clique = all(
                g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :]
            )
            assert (local_cc(g, u) == 1) == (d >= 2 and clique)


class TestGraphCC:
    def test_diamond(self):
        assert graph_cc(named("diamond")) == Fraction(5, 6)

    def test_paw(self):
        assert graph_cc(named("paw")) == Fraction(7, 12)

    def test_bipartite_triangle_free(self):
        assert graph_cc(complete_bipartite(2, 6)) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            graph_cc(from_edges(0, []))

    @given(graphs(min_n=1, max_n=20))
    def test_equals_ccsum_over_n(self, g):
        # the integer sum over one denominator against the Fraction path
        assert graph_cc(g) == cc_sum(g, range(g.n)) / g.n


class TestCCSum:
    def test_gkl_copy(self):
        assert cc_sum(g_kl(3, 2), range(4)) == 2

    def test_empty_set(self):
        assert cc_sum(named("K4"), []) == 0

    def test_endblock_triangle_contribution(self):
        g = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)])
        assert cc_sum(g, {0, 1, 2}) == Fraction(7, 3)


class TestEdgeAddDelta:
    @pytest.mark.parametrize(
        "g, u, v, delta",
        [
            (complete_bipartite(2, 2), 0, 1, Fraction(5, 6)),
            (named("path(3)"), 0, 2, 1),
            (named("diamond"), 2, 3, Fraction(1, 6)),
            # vertex 0 drops from 1 to 1/3; the isolated endpoint stays at 0
            (from_edges(4, [(0, 1), (0, 2), (1, 2)]), 0, 3, Fraction(-1, 6)),
        ],
        ids=["k22-diagonal", "p3-endpoints", "diamond-missing-edge", "isolated-endpoint"],
    )
    def test_exact(self, g, u, v, delta):
        assert edge_add_delta(g, u, v) == delta

    def test_adjacent_rejected(self):
        with pytest.raises(ValueError):
            edge_add_delta(named("K4"), 0, 1)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            edge_add_delta(named("path(3)"), 1, 1)

    def test_non_int_vertex_rejected(self):
        with pytest.raises(ValueError, match="int vertex"):
            edge_add_delta(named("paw"), 1.0, 3)
        with pytest.raises(ValueError, match="int vertex"):
            edge_add_delta(named("paw"), 3, True)

    @given(graphs(min_n=3))
    @settings(max_examples=60)
    def test_matches_full_recompute(self, g):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert edge_add_delta(g, u, v) == graph_cc(
                        g.with_edge(u, v)
                    ) - graph_cc(g)

    @given(graphs(min_n=3))
    @settings(max_examples=60)
    def test_decomposition_over_affected_vertices(self, g):
        # the proof's decomposition: only u, v, and common neighbors move,
        # and each common neighbor w gains exactly one neighborhood edge
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                h = g.with_edge(u, v)
                common = [w for w in g.neighbors(u) if g.has_edge(w, v)]
                moved = sum(
                    (local_cc(h, w) - local_cc(g, w) for w in (u, v, *common)),
                    Fraction(0),
                )
                assert g.n * edge_add_delta(g, u, v) == moved
                for w in common:
                    d = g.degree(w)
                    assert local_cc(h, w) - local_cc(g, w) == Fraction(
                        1, d * (d - 1) // 2
                    )
                for w in range(g.n):
                    if w not in (u, v) and w not in common:
                        assert local_cc(h, w) == local_cc(g, w)

    @given(graphs(min_n=3, max_n=7))
    @settings(max_examples=40)
    def test_never_exceeds_bound(self, g):
        bound = theorem4_bound(g.n)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.has_edge(u, v):
                    assert edge_add_delta(g, u, v) <= bound


class TestScaledDeltas:
    """The integer T4 kernel against the Fraction path of edge_add_delta."""

    @given(graphs(min_n=3, max_n=20))
    @settings(max_examples=60)
    def test_matches_edge_add_delta(self, g):
        lcm = _binomial_lcm(g.n)
        got = list(_scaled_deltas(g._masks, lcm))
        assert [(u, v) for _, u, v in got] == [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        for value, u, v in got:
            assert Fraction(value, g.n * lcm) == edge_add_delta(g, u, v)

    def test_every_pair_of_order_7(self):
        lcm = _binomial_lcm(7)
        checked = 0
        for g in enumerate_graphs(7, DegreeConstraint.any_degree()):
            for value, u, v in _scaled_deltas(g._masks, lcm):
                assert Fraction(value, 7 * lcm) == edge_add_delta(g, u, v)
                checked += 1
        assert checked == 10962


class TestBounds:
    def test_theorem1_values(self):
        assert theorem1_bound(3) == Fraction(1, 2)
        assert theorem1_bound(4) == Fraction(7, 10)
        assert theorem1_bound(5) == Fraction(4, 5)

    def test_theorem1_domain(self):
        with pytest.raises(ValueError):
            theorem1_bound(2)
        with pytest.raises(ValueError, match="int k >= 3"):
            theorem1_bound(3.0)

    def test_theorem2_values(self):
        assert theorem2_bound(6) == Fraction(7, 9)
        assert theorem2_bound(7) == Fraction(5, 7)
        assert theorem2_bound(9) == Fraction(19, 27)
        assert theorem2_bound(8) == Fraction(17, 24)

    def test_theorem2_domain(self):
        with pytest.raises(ValueError):
            theorem2_bound(5)
        with pytest.raises(ValueError, match="int n >= 6"):
            theorem2_bound(6.0)

    def test_theorem4_values(self):
        assert theorem4_bound(3) == 1
        assert theorem4_bound(4) == Fraction(5, 6)
        assert theorem4_bound(5) == Fraction(4, 5)

    def test_theorem4_domain(self):
        with pytest.raises(ValueError):
            theorem4_bound(2)
        with pytest.raises(ValueError, match="int n >= 3"):
            theorem4_bound(3.0)


class TestFamilyBCC:
    def test_known_values(self):
        assert family_b_cc((0, 0, 0), 6) == Fraction(7, 9)
        assert family_b_cc((1, 0, 0), 7) == Fraction(5, 7)
        assert family_b_cc((0, 2, 0), 12) == Fraction(2, 3)

    def test_type_200_accepted(self):
        assert family_b_cc((2, 0, 0), 8) == Fraction(2, 3)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            family_b_cc((3, 0, 0), 18)

    def test_inconsistent_order_rejected(self):
        with pytest.raises(ValueError):
            family_b_cc((0, 0, 0), 7)
        with pytest.raises(ValueError):
            family_b_cc((0, 0, 1), 8)
        with pytest.raises(ValueError, match="int n >= 6"):
            family_b_cc((0, 0, 0), 6.0)


class TestRationalArithmetic:
    ints = st.integers(-10**9, 10**9)
    pos = st.integers(1, 10**9)

    @given(ints, pos, ints, pos)
    def test_matches_cross_multiplication(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        assert x + y == Fraction(a * d + c * b, b * d)
        assert x * y == Fraction(a * c, b * d)
        assert (x < y) == (a * d < c * b)
        assert (x == y) == (a * d == c * b)

    @given(ints, pos)
    def test_stored_reduced(self, a, b):
        import math

        x = Fraction(a, b)
        assert x.denominator > 0
        assert math.gcd(x.numerator, x.denominator) == 1


class TestDecimalStr:
    def test_twenty_significant_digits(self):
        assert decimal_str(Fraction(7, 12)) == "0.58333333333333333333"
        assert decimal_str(Fraction(37, 48)) == "0.77083333333333333333"

    def test_exact_values_stay_short(self):
        assert decimal_str(Fraction(1, 2)) == "0.5"
        assert decimal_str(Fraction(1)) == "1"

    def test_round_half_even(self):
        assert decimal_str(Fraction(2 * 10**20 + 5, 10**20)) == "2.0000000000000000000"
        assert decimal_str(Fraction(2 * 10**20 + 15, 10**20)) == "2.0000000000000000002"

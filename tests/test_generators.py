"""Named family constructors and their closed-form properties."""

from fractions import Fraction

import pytest

from ccmax import (
    BSkeleton,
    canonical_form,
    caveman,
    caveman_rewired,
    cc_sum,
    complete_bipartite,
    complete_minus_edge,
    family_b,
    family_b_cc,
    family_b_order,
    from_edges,
    g_kl,
    graph_cc,
    graph_type,
    is_connected,
    is_in_b,
    is_in_b0,
    named,
    skeleton_from_dict,
    standard_skeleton,
    theorem1_bound,
    theorem2_bound,
    LEGAL_TYPES,
)

ALL_TYPES = list(LEGAL_TYPES) + [(2, 0, 0)]


class TestNamed:
    def test_diamond_degrees(self):
        assert named("diamond").degree_sequence() == (3, 3, 2, 2)

    def test_paw_degrees(self):
        assert named("paw").degree_sequence() == (3, 2, 2, 1)

    def test_cycle3_is_triangle(self):
        assert canonical_form(named("cycle(3)")) == canonical_form(named("triangle"))

    def test_path_and_cycle_sizes(self):
        assert named("path(1)").n == 1
        assert named("path(5)").m == 4
        assert named("cycle(6)").m == 6

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            named("house")
        with pytest.raises(ValueError):
            named("cycle(2)")
        with pytest.raises(ValueError):
            named("path(0)")


class TestCompleteMinusEdge:
    def test_q4_is_diamond(self):
        assert complete_minus_edge(4) == named("diamond")

    def test_q3_is_path(self):
        assert canonical_form(complete_minus_edge(3)) == canonical_form(
            named("path(3)")
        )

    def test_q6_degrees(self):
        assert complete_minus_edge(6).degree_sequence() == (5, 5, 5, 5, 4, 4)

    def test_low_degree_vertices_are_last_labels(self):
        g = complete_minus_edge(5)
        assert g.degree(3) == g.degree(4) == 3
        assert not g.has_edge(3, 4)

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_minus_edge(1)
        with pytest.raises(ValueError, match="int q"):
            complete_minus_edge(4.0)


class TestCompleteBipartite:
    def test_k22_is_c4(self):
        assert canonical_form(complete_bipartite(2, 2)) == canonical_form(
            named("cycle(4)")
        )

    def test_k23(self):
        g = complete_bipartite(2, 3)
        assert g.m == 6 and graph_cc(g) == 0

    def test_star(self):
        g = complete_bipartite(1, 3)
        assert g.degree_sequence() == (3, 1, 1, 1)

    def test_part_labels(self):
        g = complete_bipartite(2, 4)
        assert g.degree(0) == g.degree(1) == 4

    def test_domain(self):
        with pytest.raises(ValueError):
            complete_bipartite(0, 3)
        with pytest.raises(ValueError, match="int b >= 1"):
            complete_bipartite(2, 2.0)
        with pytest.raises(ValueError, match="int a >= 1"):
            complete_bipartite(True, 2)


class TestGkl:
    def test_regular_connected_order(self):
        for k in range(3, 7):
            for length in range(2, 5):
                g = g_kl(k, length)
                assert g.n == length * (k + 1)
                assert all(g.degree(u) == k for u in range(g.n))
                assert is_connected(g)

    def test_attains_theorem1_bound(self):
        for k in range(3, 7):
            for length in range(2, 5):
                assert graph_cc(g_kl(k, length)) == theorem1_bound(k)

    def test_canonical_form_independent_of_attachment(self):
        base = g_kl(3, 2)
        alt = from_edges(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
            + [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]
            + [(2, 6), (3, 7)],
        )
        assert canonical_form(alt) == canonical_form(base)

    def test_domain(self):
        with pytest.raises(ValueError):
            g_kl(2, 2)
        with pytest.raises(ValueError):
            g_kl(3, 1)
        with pytest.raises(ValueError, match="int l"):
            g_kl(3, 2.0)
        with pytest.raises(ValueError, match="int k"):
            g_kl(3.0, 2)


class TestCaveman:
    def test_order_and_max_degree(self):
        g = caveman(3, 2)
        assert g.n == 8
        assert max(g.degree(u) for u in range(8)) == 4

    def test_known_cc(self):
        assert graph_cc(caveman(3, 2)) == Fraction(7, 12)

    def test_connected(self):
        assert is_connected(caveman(3, 3))
        assert caveman(3, 3).n == 12

    def test_k2_allowed(self):
        g = caveman(2, 2)
        assert g.n == 6 and is_connected(g)

    def test_domain(self):
        with pytest.raises(ValueError):
            caveman(1, 2)
        with pytest.raises(ValueError):
            caveman(3, 1)
        with pytest.raises(ValueError, match="int k"):
            caveman(True, 2)
        with pytest.raises(ValueError, match="int l"):
            caveman(3, 2.0)


class TestCavemanRewired:
    def test_known_cc(self):
        assert graph_cc(caveman_rewired(3, 2)) == Fraction(37, 48)

    def test_strict_increase(self):
        for k in range(3, 7):
            for length in range(2, 5):
                assert graph_cc(caveman_rewired(k, length)) > graph_cc(
                    caveman(k, length)
                )

    def test_same_order_and_size(self):
        for k, length in [(3, 3), (4, 2), (5, 4)]:
            a, b = caveman(k, length), caveman_rewired(k, length)
            assert (a.n, a.m) == (b.n, b.m)

    def test_first_copy_becomes_clique(self):
        g = caveman_rewired(3, 2)
        assert all(g.has_edge(i, j) for i in range(4) for j in range(i + 1, 4))

    def test_connected(self):
        assert is_connected(caveman_rewired(3, 4))


class TestFamilyB:
    def test_two_triangles_bridge(self):
        sk = BSkeleton(
            tree=from_edges(2, [(0, 1)]),
            leaf_marks={0: "triangle", 1: "triangle"},
        )
        g = family_b(sk)
        assert g.n == 6 and graph_cc(g) == Fraction(7, 9)

    def test_triangle_diamond(self):
        sk = BSkeleton(
            tree=from_edges(2, [(0, 1)]),
            leaf_marks={0: "triangle", 1: "diamond"},
        )
        g = family_b(sk)
        assert g.n == 7 and graph_cc(g) == Fraction(5, 7)
        assert tuple(graph_type(g)) == (1, 0, 0)

    def test_three_triangle_chain(self):
        sk = BSkeleton(
            tree=from_edges(3, [(0, 1), (1, 2)]),
            leaf_marks={0: "triangle", 2: "triangle"},
            inner_marks=frozenset({1}),
        )
        g = family_b(sk)
        assert g.n == 9 and graph_cc(g) == Fraction(19, 27)
        assert tuple(graph_type(g)) == (0, 1, 0)

    def test_unmarked_degree2_rejected(self):
        sk = BSkeleton(
            tree=from_edges(3, [(0, 1), (1, 2)]),
            leaf_marks={0: "triangle", 2: "triangle"},
        )
        with pytest.raises(ValueError):
            family_b(sk)

    def test_non_tree_rejected(self):
        sk = BSkeleton(
            tree=from_edges(3, [(0, 1), (1, 2), (0, 2)]),
            leaf_marks={},
        )
        with pytest.raises(ValueError):
            family_b(sk)

    def test_high_degree_rejected(self):
        star4 = from_edges(5, [(0, i) for i in range(1, 5)])
        sk = BSkeleton(tree=star4, leaf_marks={i: "triangle" for i in range(1, 5)})
        with pytest.raises(ValueError):
            family_b(sk)

    def test_missing_leaf_mark_rejected(self):
        sk = BSkeleton(tree=from_edges(2, [(0, 1)]), leaf_marks={0: "triangle"})
        with pytest.raises(ValueError):
            family_b(sk)

    def test_bad_mark_rejected(self):
        sk = BSkeleton(
            tree=from_edges(2, [(0, 1)]),
            leaf_marks={0: "triangle", 1: "pentagon"},
        )
        with pytest.raises(ValueError):
            family_b(sk)

    @pytest.mark.parametrize(
        "n, inner, match",
        [
            (1, (), "at least 2 vertices"),
            (3, (0, 1), "only contain internal vertices"),
            (3, (1, 5), "out-of-range"),
        ],
        ids=["one-vertex-tree", "inner-mark-on-leaf", "inner-mark-out-of-range"],
    )
    def test_bad_skeleton_rejected(self, n, inner, match):
        path = from_edges(n, [(v, v + 1) for v in range(n - 1)])
        leaves = {v: "triangle" for v in range(n) if path.degree(v) == 1}
        sk = BSkeleton(tree=path, leaf_marks=leaves, inner_marks=frozenset(inner))
        with pytest.raises(ValueError, match=match):
            family_b(sk)

    def test_all_types_all_k(self):
        for t in ALL_TYPES:
            for k in range(3):
                g = family_b(standard_skeleton(t, k))
                n = family_b_order(t, k)
                assert g.n == n
                assert is_connected(g)
                assert max(g.degree(u) for u in range(g.n)) <= 3
                assert graph_cc(g) == family_b_cc(t, n)
                assert tuple(graph_type(g)) == t
                assert is_in_b0(g)
                assert is_in_b(g) == (t in LEGAL_TYPES)

    def test_legal_types_attain_theorem2_bound(self):
        # LEGAL_TYPES, _FAMILY_B and _T2_C agree: the seven legal types meet the
        # bound at every order of their construction, and (2, 0, 0) stays below
        for k in range(6):
            for t in LEGAL_TYPES:
                n = family_b_order(t, k)
                assert family_b_cc(t, n) == theorem2_bound(n), (t, k)
                assert graph_cc(family_b(standard_skeleton(t, k))) == theorem2_bound(n), (t, k)
            n = family_b_order((2, 0, 0), k)
            assert family_b_cc((2, 0, 0), n) < theorem2_bound(n)
            assert graph_cc(family_b(standard_skeleton((2, 0, 0), k))) < theorem2_bound(n)


class TestFamilyBOrder:
    def test_known_orders(self):
        assert family_b_order((0, 0, 0), 0) == 6
        assert family_b_order((0, 0, 1), 0) == 12
        assert family_b_order((0, 3, 0), 0) == 15
        assert family_b_order((1, 0, 0), 2) == 15

    def test_illegal_type(self):
        with pytest.raises(ValueError):
            family_b_order((0, 4, 0), 0)
        with pytest.raises(ValueError):
            family_b_order((0, 0, 0), -1)
        with pytest.raises(ValueError, match="int k"):
            family_b_order((0, 0, 0), 1.0)
        with pytest.raises(ValueError, match="int k"):
            standard_skeleton((0, 0, 0), True)
        with pytest.raises(ValueError, match="no standard skeleton"):
            standard_skeleton((0, 4, 0), 0)


class TestSkeletonFromDict:
    def test_round_trip(self):
        data = {
            "edges": [[0, 1], [1, 2]],
            "leaf_marks": {"0": "triangle", "2": "triangle"},
            "inner_marks": [1],
        }
        g = family_b(skeleton_from_dict(data))
        assert g.n == 9 and graph_cc(g) == Fraction(19, 27)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            skeleton_from_dict({"edges": []})


class TestPerBlockContributions:
    def test_block_cc_sums(self):
        # endblock triangle 7/3, endblock diamond 8/3, inner triangles 5/3 / 1
        from ccmax import blocks, classify_block
        from ccmax.structure import BlockKind

        for t in ALL_TYPES:
            for k in range(3):
                g = family_b(standard_skeleton(t, k))
                dec = blocks(g)
                ends = set(dec.endblocks())
                for b in dec.blocks:
                    kind = classify_block(g, b)
                    if kind is BlockKind.DIAMOND:
                        assert cc_sum(g, b) == Fraction(8, 3)
                    elif kind is BlockKind.K3:
                        deg3 = sum(g.degree(v) == 3 for v in b)
                        if b in ends:
                            assert cc_sum(g, b) == Fraction(7, 3)
                        elif deg3 == 2:
                            assert cc_sum(g, b) == Fraction(5, 3)
                        else:
                            assert cc_sum(g, b) == 1

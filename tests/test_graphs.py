"""Graph core: construction, counting, graph6, canonical forms."""

import pytest
from hypothesis import given, settings, strategies as st

from ccmax import (
    CapabilityError,
    Graph,
    Graph6ParseError,
    canonical_form,
    canonical_graph,
    edges_within,
    from_edges,
    is_connected,
    named,
    parse_graph6,
    to_graph6,
    triangles_at,
)
from ccmax.graphs import _canon_masks, _canonical_perm, _neighbor_lists

from conftest import brute_isomorphic, brute_triangle_triples, graphs, relabel

K3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestFromEdges:
    def test_triangle(self):
        assert K3.n == 3 and K3.m == 3
        assert K3.degree_sequence() == (2, 2, 2)

    def test_edgeless(self):
        g = from_edges(4, [])
        assert g.n == 4 and g.m == 0

    def test_duplicate_edges_collapse(self):
        g = from_edges(4, [(0, 1), (0, 1), (1, 0)])
        assert g.m == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            from_edges(3, [(-1, 0)])
        with pytest.raises(ValueError, match="int n >= 0"):
            from_edges(True, [])
        for edge in [(0.0, 1), (True, 2)]:
            with pytest.raises(ValueError, match="int endpoints"):
                from_edges(3, [edge])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])

    def test_adjacency_views(self):
        g = from_edges(4, [(0, 2), (2, 3)])
        assert g.neighbors(2) == (0, 3)
        assert g.has_edge(2, 0) and not g.has_edge(0, 3)
        for u in (True, 1.0):
            for view in (g.degree, g.mask, g.neighbors, lambda x: g.has_edge(0, x)):
                with pytest.raises(ValueError, match="int vertex"):
                    view(u)

    def test_edit_returns_new_graph(self):
        g = from_edges(3, [(0, 1)])
        h = g.with_edge(1, 2)
        assert g.m == 1 and h.m == 2
        assert h.without_edge(0, 1).m == 1
        with pytest.raises(ValueError):
            g.without_edge(1, 2)
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            g.with_edge(1, 1)

    def test_equality_hash_repr(self):
        g = from_edges(3, [(0, 1)])
        h = from_edges(3, [(1, 0)])
        assert g == h and hash(g) == hash(h)
        assert g != from_edges(4, [(0, 1)])
        assert g != g._masks and g.__eq__("Bo") is NotImplemented
        assert repr(g) == "Graph(n=3, m=1)"


class TestEdgesWithin:
    def test_triangle_inside_clique(self):
        assert edges_within(named("K4"), {0, 1, 2}) == 3

    def test_diamond_missing_edge(self):
        assert edges_within(named("diamond"), {2, 3}) == 0

    def test_empty_set(self):
        assert edges_within(K3, set()) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            edges_within(K3, {0, 5})


class TestTrianglesAt:
    def test_k4(self):
        assert all(triangles_at(named("K4"), u) == 3 for u in range(4))

    def test_paw_hub(self):
        assert triangles_at(named("paw"), 0) == 1

    def test_c5_triangle_free(self):
        assert all(triangles_at(named("cycle(5)"), u) == 0 for u in range(5))

    @given(graphs())
    def test_sum_counts_each_triangle_thrice(self, g):
        total = sum(triangles_at(g, u) for u in range(g.n))
        assert total == 3 * brute_triangle_triples(g)

    @given(graphs())
    def test_bounded_by_degree_pairs(self, g):
        for u in range(g.n):
            d = g.degree(u)
            assert 0 <= triangles_at(g, u) <= d * (d - 1) // 2


class TestIsConnected:
    def test_disjoint_triangles(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not is_connected(g)

    def test_path(self):
        assert is_connected(named("path(4)"))

    def test_single_vertex_and_empty(self):
        assert is_connected(from_edges(1, []))
        assert is_connected(from_edges(0, []))
        assert not is_connected(from_edges(2, []))


class TestGraph6:
    def test_hand_decoded_k3(self):
        assert parse_graph6("Bw") == K3
        assert to_graph6(K3) == "Bw"

    def test_hand_decoded_k4(self):
        assert parse_graph6("C~") == named("K4")
        assert to_graph6(named("K4")) == "C~"

    def test_round_trip_string(self):
        assert to_graph6(parse_graph6("Bw")) == "Bw"

    def test_trailing_newline_ok(self):
        assert parse_graph6("Bw\n") == K3

    def test_empty_line_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("")

    def test_long_form_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("~??~?????")

    def test_bad_length_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("Bww")
        with pytest.raises(Graph6ParseError):
            parse_graph6("B")

    def test_bad_character_rejected(self):
        with pytest.raises(Graph6ParseError):
            parse_graph6("B\x1f")

    def test_nonzero_padding_rejected(self):
        # K3 body byte with a padding bit set: 0b111001 + 63
        with pytest.raises(Graph6ParseError):
            parse_graph6("B" + chr(0b111001 + 63))

    def test_order_limit(self):
        with pytest.raises(CapabilityError):
            to_graph6(from_edges(63, []))

    @given(
        st.one_of(
            st.text(),
            st.text(st.characters(min_codepoint=58, max_codepoint=130)),
            st.integers(0, 12).flatmap(
                lambda n: st.text(
                    st.characters(min_codepoint=60, max_codepoint=128),
                    min_size=(n * (n - 1) // 2 + 5) // 6,
                    max_size=(n * (n - 1) // 2 + 5) // 6,
                ).map(lambda body: chr(n + 63) + body)
            ),
        )
    )
    def test_arbitrary_text_fails_only_with_parse_error(self, text):
        try:
            g = parse_graph6(text)
        except Graph6ParseError:
            return
        assert to_graph6(g) == text.rstrip("\r\n")

    @given(graphs(max_n=12))
    def test_round_trip_random(self, g):
        assert parse_graph6(to_graph6(g)) == g


class TestCanonicalForm:
    def test_relabelled_path(self):
        a = from_edges(3, [(0, 1), (1, 2)])
        b = from_edges(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_str_is_graph6(self):
        assert str(canonical_form(K3)) == canonical_form(K3).g6 == "Bw"

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(K3) != canonical_form(from_edges(3, [(0, 1), (1, 2)]))

    def test_capability_limit(self):
        with pytest.raises(CapabilityError):
            canonical_form(from_edges(21, []))
        canonical_form(from_edges(20, [(0, 1)]))

    def test_canonical_graph_is_isomorphic_relabelling(self):
        g = named("paw")
        h = canonical_graph(g)
        assert h.degree_sequence() == g.degree_sequence()
        assert brute_isomorphic(g, h)

    def test_fast_path_matches(self):
        names = ["triangle", "diamond", "paw", "K4"]
        names += [f"path({n})" for n in range(1, 9)] + [f"cycle({n})" for n in range(3, 9)]
        for name in names:
            g = named(name)
            assert canonical_graph(g) == Graph(g.n, _canon_masks(g._masks)), name
        # orders 0 and 1 are discrete before any refinement round
        for n, g6 in ((0, "?"), (1, "@")):
            g = from_edges(n, [])
            assert canonical_form(g).g6 == g6
            assert canonical_graph(g) == Graph(n, _canon_masks(g._masks))

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_invariant_under_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=60)
    def test_agrees_with_brute_isomorphism(self, g, h):
        assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)

    def test_idempotent(self):
        g = named("diamond")
        h = canonical_graph(g)
        assert canonical_graph(h) == h

    @pytest.mark.parametrize(
        "g",
        [
            # a hub (a leading singleton class) plus C19: pruning at position 1
            from_edges(20, [(0, i) for i in range(1, 20)] + [(i, i % 19 + 1) for i in range(1, 20)]),
            # one class: pruning at position 0
            named("cycle(20)"),
        ],
        ids=["wheel-20", "cycle-20"],
    )
    def test_root_orbit_pruning(self, g):
        # Root orbit pruning skips every start vertex in the orbit of a tried
        # one, so a vertex-transitive rim is searched from one start vertex
        # and few automorphisms are collected; without it, or at the wrong
        # position, the search collects over 30.
        _, found = _canonical_perm(g._masks, _neighbor_lists(g._masks))
        assert len(found) <= 3

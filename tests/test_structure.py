"""Block decomposition, graph types, and membership predicates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from ccmax import (
    BlockKind,
    Graph,
    blocks,
    classify_block,
    claim_checks,
    family_b,
    from_edges,
    g_kl,
    graph_cc,
    graph_type,
    is_in_b,
    is_in_b0,
    is_in_b_literal,
    named,
    s_set,
    standard_skeleton,
    v_partition,
    LEGAL_TYPES,
)
from ccmax import structure
from conftest import brute_blocks, connected_graphs


def two_triangles_bridge():
    return from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


class TestBlocks:
    def test_triangle_single_block(self):
        dec = blocks(named("triangle"))
        assert dec.blocks == ((0, 1, 2),)
        assert dec.cut_vertices == frozenset()
        assert dec.endblocks() == ((0, 1, 2),)

    def test_diamond_single_block(self):
        dec = blocks(named("diamond"))
        assert len(dec.blocks) == 1 and not dec.cut_vertices

    def test_paw(self):
        dec = blocks(named("paw"))
        assert sorted(dec.blocks) == [(0, 1, 2), (0, 3)]
        assert dec.cut_vertices == frozenset({0})
        assert len(dec.endblocks()) == 2

    def test_two_triangles_bridge(self):
        dec = blocks(two_triangles_bridge())
        assert sorted(dec.blocks) == [(0, 1, 2), (2, 3), (3, 4, 5)]
        assert dec.cut_vertices == frozenset({2, 3})
        assert sorted(dec.endblocks()) == [(0, 1, 2), (3, 4, 5)]

    def test_path_all_bridges(self):
        dec = blocks(named("path(5)"))
        assert len(dec.blocks) == 4
        assert dec.cut_vertices == frozenset({1, 2, 3})

    def test_single_vertex(self):
        dec = blocks(from_edges(1, []))
        assert dec.blocks == () and not dec.cut_vertices

    def test_empty_graph(self):
        dec = blocks(from_edges(0, []))
        assert dec.blocks == () and not dec.cut_vertices

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            blocks(from_edges(4, [(0, 1), (2, 3)]))

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(min_n=1, max_n=8))
    def test_matches_brute_force(self, g):
        dec = blocks(g)
        got = sorted(dec.blocks)
        want_blocks, want_cuts = brute_blocks(g)
        assert got == sorted(want_blocks)
        assert dec.cut_vertices == want_cuts

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_edge_partition(self, g):
        # every edge lies in exactly one block
        dec = blocks(g)
        seen = []
        for b in dec.blocks:
            bs = set(b)
            seen.extend(e for e in g.edges() if e[0] in bs and e[1] in bs)
        assert sorted(seen) == sorted(g.edges())


class TestClassifyBlock:
    def test_kinds(self):
        g = two_triangles_bridge()
        assert classify_block(g, (2, 3)) is BlockKind.K2
        assert classify_block(g, (0, 1, 2)) is BlockKind.K3

    def test_diamond_and_other(self):
        assert classify_block(named("diamond"), (0, 1, 2, 3)) is BlockKind.DIAMOND
        c4 = named("cycle(4)")
        assert classify_block(c4, (0, 1, 2, 3)) is BlockKind.OTHER
        c5 = named("cycle(5)")
        assert classify_block(c5, (0, 1, 2, 3, 4)) is BlockKind.OTHER

    def test_not_a_block_rejected(self):
        g = two_triangles_bridge()
        with pytest.raises(ValueError):
            classify_block(g, (0, 1))
        with pytest.raises(ValueError):
            classify_block(g, (1, 2, 3))


class TestGraphType:
    def test_two_triangles_bridge(self):
        assert tuple(graph_type(two_triangles_bridge())) == (0, 0, 0)

    def test_as_tuple(self):
        t = graph_type(two_triangles_bridge())
        assert t.as_tuple() == (0, 0, 0) and (t.d, t.i2, t.i3) == (0, 0, 0)

    def test_with_diamond(self):
        g = from_edges(
            7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
        )
        assert tuple(graph_type(g)) == (1, 0, 0)

    def test_illegal_block_flag(self):
        t = graph_type(g_kl(3, 2))
        assert t.as_tuple() == (0, 0, 0) and not t.blocks_legal

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            graph_type(from_edges(6, [(0, 1), (2, 3), (4, 5)]))


class TestSSet:
    def test_empty_for_family_member(self):
        assert s_set(two_triangles_bridge()) == frozenset()

    def test_bridge_path_vertex(self):
        # triangle - path(3) - triangle: middle path vertex has degree 2,
        # lies in no triangle
        g = from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
        )
        assert s_set(g) == frozenset({3})

    def test_cycle(self):
        assert s_set(named("cycle(6)")) == frozenset(range(6))


class TestVPartition:
    def test_gkl_copies(self):
        part = v_partition(g_kl(3, 2), 3)
        assert set(part) == {1, 2}
        assert sorted(len(v) for v in part.values()) == [4, 4]
        # class 1: vertices not incident to the removed copy edge or a
        # cross edge; they miss exactly one neighborhood edge
        assert part[1] == frozenset({0, 1, 4, 5})

    def test_partition_covers(self):
        g = g_kl(4, 3)
        part = v_partition(g, 4)
        union = set()
        for v in part.values():
            assert not (union & v)
            union |= v
        assert union == set(range(g.n))

    def test_non_regular_rejected(self):
        with pytest.raises(ValueError):
            v_partition(named("paw"), 3)
        with pytest.raises(ValueError):
            v_partition(g_kl(3, 2), 4)
        with pytest.raises(ValueError, match="int k >= 0"):
            v_partition(g_kl(3, 2), 3.0)


class TestMembership:
    def test_two_triangles_bridge_in_b(self):
        g = two_triangles_bridge()
        assert is_in_b0(g) and is_in_b(g) and is_in_b_literal(g)

    def test_too_small(self):
        with pytest.raises(ValueError):
            is_in_b0(named("triangle"))
        with pytest.raises(ValueError):
            is_in_b(named("triangle"))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            is_in_b0(from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)]))

    def test_regular_graph_not_in_b0(self):
        assert not is_in_b0(g_kl(3, 2))

    def test_cycle_not_in_b0(self):
        assert not is_in_b0(named("cycle(6)"))

    def test_interior_diamond_not_in_b0(self):
        # diamond between two triangles: diamond is not an endblock
        g = from_edges(
            10,
            [(0, 1), (0, 2), (1, 2), (2, 3)]
            + [(3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
            + [(6, 7), (7, 8), (7, 9), (8, 9)],
        )
        assert not is_in_b0(g)
        assert not is_in_b(g)

    def test_literal_but_not_b(self):
        # legal type (0,0,0) but one degree-2 vertex outside every triangle
        g = from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (6, 3)],
        )
        assert is_in_b0(g)
        assert tuple(graph_type(g)) in LEGAL_TYPES
        assert is_in_b_literal(g)
        assert not is_in_b(g)
        assert s_set(g) == frozenset({6})
        assert graph_cc(g) == Fraction(2, 3)

    def test_max_degree_violation(self):
        k5e = from_edges(
            6,
            [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]
            + [(3, 5)],
        )
        assert not is_in_b0(k5e)


class TestClaimChecks:
    def test_b_member_all_pass(self):
        checks = claim_checks(two_triangles_bridge())
        assert checks == {
            "diamonds_are_endblocks": True,
            "blocks_are_k2_k3_diamond": True,
            "at_most_two_diamonds": True,
            "s_empty": True,
            "at_most_one_inner_triangle": True,
        }

    def test_regular_maximizer_pattern(self):
        checks = claim_checks(g_kl(3, 2))
        assert not checks["blocks_are_k2_k3_diamond"]
        assert checks["diamonds_are_endblocks"]
        assert checks["at_most_two_diamonds"]
        assert checks["s_empty"]
        assert checks["at_most_one_inner_triangle"]

    def test_s_vertex_detected(self):
        g = from_edges(
            7,
            [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (6, 3)],
        )
        assert not claim_checks(g)["s_empty"]

    def test_three_diamonds(self):
        # star of three diamonds hanging off one hub vertex
        edges = [(0, 1), (0, 2), (0, 3)]
        base = 4
        for i in range(3):
            a = base + 4 * i
            edges += [
                (a, a + 1),
                (a, a + 2),
                (a + 1, a + 2),
                (a + 1, a + 3),
                (a + 2, a + 3),
                (i + 1, a + 3),
            ]
        g = from_edges(16, edges)
        checks = claim_checks(g)
        assert checks["diamonds_are_endblocks"]
        assert not checks["at_most_two_diamonds"]


# connected graphs of order >= 6, one for each way through the membership tests
KEPT = {
    "in B": two_triangles_bridge(),
    "literal B, S not empty": from_edges(
        7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (6, 3)]
    ),
    "diamond endblock": family_b(standard_skeleton((1, 0, 0), 0)),
    "two diamonds": family_b(standard_skeleton((2, 0, 0), 0)),
    "inner triangles": family_b(standard_skeleton((0, 1, 1), 0)),
    "inner diamond": from_edges(
        10,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
        + [(6, 7), (7, 8), (7, 9), (8, 9)],
    ),
    "cubic, other blocks": g_kl(3, 2),
    "degree above 3": from_edges(
        6, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)] + [(3, 5)]
    ),
    "cycle": named("cycle(7)"),
}


def _classify(g: Graph, copy: bool) -> tuple:
    # the structure queries of a g6_stream item in perfbench/run.py, in its
    # order; with copy, each query gets a new Graph equal to g
    h = (lambda: Graph(g.n, g._masks)) if copy else (lambda: g)
    dec = blocks(h())
    t = graph_type(h())
    return (
        dec,
        [structure.classify_block_in(h(), dec, b) for b in dec.blocks],
        t.as_tuple(),
        t.blocks_legal,
        s_set(h()),
        is_in_b0(h()),
        is_in_b(h()),
        is_in_b_literal(h()),
        claim_checks(h()),
    )


class TestKeptStructure:
    """A Graph keeps its decomposition and block kinds: one DFS per object."""

    def _counting(self, monkeypatch, name: str) -> list:
        calls = []
        real = getattr(structure, name)
        monkeypatch.setattr(structure, name, lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("name", KEPT)
    def test_one_dfs_per_graph(self, name, monkeypatch):
        g = Graph(KEPT[name].n, KEPT[name]._masks)
        made = self._counting(monkeypatch, "BlockDecomposition")
        got = _classify(g, copy=False)
        again = _classify(g, copy=False)
        assert len(made) == 1
        monkeypatch.undo()
        assert got == again == _classify(g, copy=True)

    @pytest.mark.parametrize("name", KEPT)
    def test_each_block_classified_once(self, name, monkeypatch):
        g = Graph(KEPT[name].n, KEPT[name]._masks)
        kinds = self._counting(monkeypatch, "_kind")
        dec = blocks(g)
        for b in dec.blocks:
            classify_block(g, b)
        for query in (graph_type, is_in_b0, is_in_b, is_in_b_literal, claim_checks):
            query(g)
        for b in dec.blocks:
            classify_block(g, b)
            structure.classify_block_in(g, dec, b)
        assert sorted(b for _, b in kinds) == sorted(dec.blocks)

    @pytest.mark.parametrize("name", KEPT)
    def test_membership_reads_the_kept_record(self, name, monkeypatch):
        membership = (is_in_b0, is_in_b, is_in_b_literal)
        g = Graph(KEPT[name].n, KEPT[name]._masks)
        checked = self._counting(monkeypatch, "is_connected")
        blocks(g)
        for query in membership:
            query(g)
        assert checked == []  # a graph that keeps its blocks is connected
        fresh = Graph(g.n, g._masks)
        for query in membership:
            query(fresh)
        assert len(checked) == 1

    def test_membership_errors_in_order(self):
        # order first, then connectivity
        with pytest.raises(ValueError, match="order >= 6, got 5"):
            is_in_b0(from_edges(5, [(0, 1), (0, 2), (1, 2)]))
        with pytest.raises(ValueError, match="connected graph"):
            is_in_b0(from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)]))

    def test_kept_structure_is_invisible(self):
        g = Graph(KEPT["in B"].n, KEPT["in B"]._masks)
        plain = Graph(g.n, g._masks)
        claim_checks(g)
        assert g._blocks is not None and g._structure is not None
        assert plain._blocks is None and plain._structure is None  # equal, not shared
        assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
        assert {g: 1}[plain] == 1

    def test_disconnected_raises_on_every_call(self):
        g = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5)])
        for query in (blocks, graph_type, claim_checks, is_in_b0, is_in_b, is_in_b_literal):
            errors = []
            for _ in range(2):
                with pytest.raises(ValueError) as exc:
                    query(g)
                errors.append(str(exc.value))
            assert errors[0] == errors[1], query.__name__
        with pytest.raises(ValueError):
            classify_block(g, (0, 1, 2))
        assert g._blocks is None and g._structure is None

"""Block structure of connected graphs.

Block decomposition (maximal 2-connected subgraphs and bridges), the
K2/K3/diamond block classification, the graph type t(G) = (d, i2, i3),
the sets S and V_i, and membership tests for the extremal families B0/B.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from .graphs import Graph, _bits, _need_int, edges_within, is_connected, triangles_at


class BlockKind(enum.Enum):
    K2 = "K2"
    K3 = "K3"
    DIAMOND = "diamond"
    OTHER = "other"


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks as sorted vertex tuples, plus the cut vertices.

    Every edge lies in exactly one block; two blocks share at most one
    vertex, necessarily a cut vertex.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]

    def endblocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks containing at most one cut vertex."""
        return tuple(
            b for b in self.blocks if sum(v in self.cut_vertices for v in b) <= 1
        )


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components of a connected graph (Hopcroft-Tarjan), by one
    iterative DFS over the adjacency masks from vertex 0. A cut vertex is a
    vertex that lies in two or more blocks."""
    if g.n == 0:
        return BlockDecomposition((), frozenset())
    num = [0] * g.n  # DFS preorder index, 1-based; 0 = unvisited
    num[0] = count = 1
    low = num[:]
    seen = [0]  # visited vertices not yet closed into a block, in preorder
    path = [(0, -1, _bits(g._masks[0]))]  # (vertex, DFS parent, neighbours left)
    out: list[tuple[int, ...]] = []
    while path:
        u, p, rest = path[-1]
        for v in rest:
            if not num[v]:
                count += 1
                num[v] = low[v] = count
                seen.append(v)
                path.append((v, u, _bits(g._masks[v])))
                break
            # v is an ancestor (p included) or a descendant; the >= test
            # below holds whether or not low[u] counts the tree edge to p
            if num[v] < low[u]:
                low[u] = num[v]
        else:
            path.pop()
            if p < 0:
                continue
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= num[p]:  # nothing below u reaches above p: close a block
                block = [p]
                while block[-1] != u:
                    block.append(seen.pop())
                out.append(tuple(sorted(block)))
    if count < g.n:
        raise ValueError("block decomposition requires a connected graph")
    lies_in = Counter(v for b in out for v in b)
    return BlockDecomposition(tuple(out), frozenset(v for v, k in lies_in.items() if k > 1))


# block kind by (vertices, edges); a block on two vertices is a bridge
_KINDS = {(2, 1): BlockKind.K2, (3, 3): BlockKind.K3, (4, 5): BlockKind.DIAMOND}


def _kind(g: Graph, block: tuple[int, ...]) -> BlockKind:
    return _KINDS.get((len(block), edges_within(g, block)), BlockKind.OTHER)


def classify_block(g: Graph, block) -> BlockKind:
    """K2/K3/diamond classification of one block of g."""
    return classify_block_in(g, blocks(g), block)


def classify_block_in(g: Graph, dec: BlockDecomposition, block) -> BlockKind:
    """classify_block without recomputing the decomposition."""
    verts = tuple(sorted(block))
    if verts not in dec.blocks:
        raise ValueError(f"{verts} is not a block of the graph")
    return _kind(g, verts)


@dataclass(frozen=True)
class GraphType:
    """t(G) = (d, i2, i3): diamond blocks and inner triangles with exactly
    2 resp. 3 degree-3 vertices. blocks_legal flags whether every block is
    K2/K3/diamond (carried for diagnostics, ignored in comparisons)."""

    d: int
    i2: int
    i3: int
    blocks_legal: bool = field(default=True, compare=False)

    def __iter__(self):
        return iter((self.d, self.i2, self.i3))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.d, self.i2, self.i3)


# the seven extremal types of the family B
LEGAL_TYPES = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 2, 0),
    (0, 3, 0),
)


class _Structure(NamedTuple):
    """One block decomposition of a connected graph with each block
    classified once, and the B0 and literal-B verdicts read from it (None
    below order 6, where membership is not defined)."""

    dec: BlockDecomposition
    kinds: tuple[BlockKind, ...]
    type: GraphType
    diamonds_are_endblocks: bool
    in_b0: bool | None
    in_b_literal: bool | None

    def in_b(self, s: frozenset[int]) -> bool | None:
        """B membership given s_set(g): literal B and S empty; None stays None."""
        return self.in_b_literal and not s


def _structure(g: Graph) -> _Structure:
    dec = blocks(g)
    kinds = tuple([_kind(g, b) for b in dec.blocks])
    diamonds = [b for b, kind in zip(dec.blocks, kinds) if kind is BlockKind.DIAMOND]
    triangles = [b for b, kind in zip(dec.blocks, kinds) if kind is BlockKind.K3]
    deg3 = [sum(g.degree(v) == 3 for v in b) for b in triangles]
    legal = BlockKind.OTHER not in kinds
    t = GraphType(len(diamonds), deg3.count(2), deg3.count(3), blocks_legal=legal)
    diamonds_are_endblocks = not diamonds or set(diamonds) <= set(dec.endblocks())
    in_b0 = in_b_literal = None
    if g.n >= 6:
        in_b0 = legal and diamonds_are_endblocks and all(g.degree(u) <= 3 for u in range(g.n))
        in_b_literal = in_b0 and t.as_tuple() in LEGAL_TYPES
    return _Structure(dec, kinds, t, diamonds_are_endblocks, in_b0, in_b_literal)


def graph_type(g: Graph) -> GraphType:
    """Type of a connected graph; triangle endblocks (one degree-3 vertex)
    count toward neither i2 nor i3."""
    return _structure(g).type


def s_set(g: Graph) -> frozenset[int]:
    """Vertices of degree at most 2 lying in no triangle."""
    return frozenset(
        u for u in range(g.n) if g.degree(u) <= 2 and triangles_at(g, u) == 0
    )


def v_partition(g: Graph, k: int) -> dict[int, frozenset[int]]:
    """Partition of a k-regular graph's vertices by triangle deficiency:
    V_i = vertices whose neighborhood misses i of the C(k,2) possible edges."""
    _need_int("k", k, 0)
    if any(g.degree(u) != k for u in range(g.n)):
        raise ValueError(f"graph is not {k}-regular")
    full = k * (k - 1) // 2
    parts: dict[int, set[int]] = {}
    for u in range(g.n):
        i = full - triangles_at(g, u)
        parts.setdefault(i, set()).add(u)
    return {i: frozenset(vs) for i, vs in sorted(parts.items())}


def _b_structure(g: Graph) -> _Structure | None:
    """_structure(g) for a membership test; None, with no decomposition,
    when a degree above 3 rules out B0."""
    if g.n < 6:
        raise ValueError(f"family membership needs order >= 6, got {g.n}")
    if not is_connected(g):
        raise ValueError("family membership needs a connected graph")
    if any(g.degree(u) > 3 for u in range(g.n)):
        return None
    return _structure(g)


def is_in_b0(g: Graph) -> bool:
    """Connected, order >= 6, max degree <= 3, every block K2/K3/diamond,
    and every diamond block an endblock."""
    st = _b_structure(g)
    return st is not None and st.in_b0


def is_in_b(g: Graph) -> bool:
    """B0 membership with type in the seven-tuple list and S empty.

    The S = empty-set requirement goes beyond the literal type condition; it
    rules out subdivided bridges and pendant edges, which keep the type legal
    but fall below the extremal value. is_in_b_literal gives the type-only
    reading for diagnostics.
    """
    st = _b_structure(g)
    return st is not None and st.in_b(s_set(g))


def is_in_b_literal(g: Graph) -> bool:
    """B0 membership plus the type list, without the S = empty requirement."""
    st = _b_structure(g)
    return st is not None and st.in_b_literal


def claim_checks(g: Graph) -> dict[str, bool]:
    """The structural claims satisfied by subcubic extremal graphs:
    blocks all K2/K3/diamond; diamonds are endblocks; at most 2 diamonds;
    S empty; at most 1 inner triangle."""
    st = _structure(g)
    t = st.type
    return {
        "diamonds_are_endblocks": st.diamonds_are_endblocks,
        "blocks_are_k2_k3_diamond": t.blocks_legal,
        "at_most_two_diamonds": t.d <= 2,
        "s_empty": not s_set(g),
        "at_most_one_inner_triangle": t.i2 + t.i3 <= 1,
    }

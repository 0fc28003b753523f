"""Reference structure predicates, frozen for use as a test oracle only.

reference_blocks is the Hopcroft-Tarjan block decomposition that
ccmax.structure shipped with an edge stack and a connectivity pre-pass;
ccmax.structure.blocks must return the same blocks, in the same order, and
the same cut vertices. The rest are the block classification, graph type,
B0/B membership tests and structural claims that ccmax.structure shipped
before it computed one block decomposition per query: each predicate
recomputes what it needs through the others, on reference_blocks. Only the
graph primitives come from the library. The library's predicates must
return the same values.
"""

from __future__ import annotations

from ccmax.graphs import Graph, edges_within, is_connected, triangles_at
from ccmax.structure import BlockDecomposition, BlockKind, GraphType


def reference_blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components of a connected graph, by Hopcroft-Tarjan."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    num = [0] * n  # DFS preorder index, 1-based; 0 = unvisited
    low = [0] * n
    parent = [-1] * n
    counter = 0
    stack: list[tuple[int, int]] = []  # edge stack
    out: list[tuple[int, ...]] = []
    cuts: set[int] = set()

    def emit(u: int, v: int) -> None:
        verts: set[int] = set()
        while stack:
            e = stack.pop()
            verts.update(e)
            if e == (u, v):
                break
        out.append(tuple(sorted(verts)))

    def dfs(root: int) -> None:
        nonlocal counter
        counter += 1
        num[root] = low[root] = counter
        work = [(root, iter(g.neighbors(root)))]
        root_children = 0
        while work:
            u, it = work[-1]
            advanced = False
            for v in it:
                if num[v] == 0:
                    stack.append((u, v))
                    parent[v] = u
                    counter += 1
                    num[v] = low[v] = counter
                    work.append((v, iter(g.neighbors(v))))
                    if u == root:
                        root_children += 1
                    advanced = True
                    break
                if v != parent[u] and num[v] < num[u]:
                    stack.append((u, v))
                    low[u] = min(low[u], num[v])
            if not advanced:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[u])
                    if low[u] >= num[p]:
                        emit(p, u)
                        if p != root:
                            cuts.add(p)
        if root_children >= 2:
            cuts.add(root)

    if n > 0:
        dfs(0)
    return BlockDecomposition(tuple(out), frozenset(cuts))


LEGAL_TYPES = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 2, 0),
    (0, 3, 0),
)


def classify_block(g: Graph, block) -> BlockKind:
    verts = tuple(sorted(block))
    if verts not in reference_blocks(g).blocks:
        raise ValueError(f"{verts} is not a block of the graph")
    k = len(verts)
    m = edges_within(g, verts)
    if k == 2:
        return BlockKind.K2
    if k == 3 and m == 3:
        return BlockKind.K3
    if k == 4 and m == 5:
        return BlockKind.DIAMOND
    return BlockKind.OTHER


def graph_type(g: Graph) -> GraphType:
    d = i2 = i3 = 0
    legal = True
    for b in reference_blocks(g).blocks:
        kind = classify_block(g, b)
        if kind is BlockKind.DIAMOND:
            d += 1
        elif kind is BlockKind.K3:
            deg3 = sum(g.degree(v) == 3 for v in b)
            if deg3 == 2:
                i2 += 1
            elif deg3 == 3:
                i3 += 1
        elif kind is BlockKind.OTHER:
            legal = False
    return GraphType(d, i2, i3, blocks_legal=legal)


def s_set(g: Graph) -> frozenset[int]:
    return frozenset(
        u for u in range(g.n) if g.degree(u) <= 2 and triangles_at(g, u) == 0
    )


def _check_b_input(g: Graph) -> None:
    if g.n < 6:
        raise ValueError(f"family membership needs order >= 6, got {g.n}")
    if not is_connected(g):
        raise ValueError("family membership needs a connected graph")


def is_in_b0(g: Graph) -> bool:
    _check_b_input(g)
    if any(g.degree(u) > 3 for u in range(g.n)):
        return False
    dec = reference_blocks(g)
    ends = set(dec.endblocks())
    for b in dec.blocks:
        kind = classify_block(g, b)
        if kind is BlockKind.OTHER:
            return False
        if kind is BlockKind.DIAMOND and b not in ends:
            return False
    return True


def is_in_b_literal(g: Graph) -> bool:
    if not is_in_b0(g):
        return False
    return graph_type(g).as_tuple() in LEGAL_TYPES


def is_in_b(g: Graph) -> bool:
    return is_in_b_literal(g) and not s_set(g)


def claim_checks(g: Graph) -> dict[str, bool]:
    dec = reference_blocks(g)
    ends = set(dec.endblocks())
    kinds = {b: classify_block(g, b) for b in dec.blocks}
    t = graph_type(g)
    return {
        "diamonds_are_endblocks": all(
            b in ends for b, k in kinds.items() if k is BlockKind.DIAMOND
        ),
        "blocks_are_k2_k3_diamond": t.blocks_legal,
        "at_most_two_diamonds": t.d <= 2,
        "s_empty": not s_set(g),
        "at_most_one_inner_triangle": t.i2 + t.i3 <= 1,
    }

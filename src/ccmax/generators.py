"""Constructors for the named graph families.

All labelings are deterministic: copies of a gadget occupy consecutive
labels, and within K_q minus an edge the two degree-(q-2) vertices are
always the last two labels. This makes graph6 output reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Mapping

from .clustering import _FAMILY_B
from .graphs import Graph, _is_int, _need_int, from_edges, is_connected

TRIANGLE_MARK = "triangle"
DIAMOND_MARK = "diamond"

_NAME_RE = re.compile(r"^(path|cycle)\((\d+)\)$")


def named(name: str) -> Graph:
    """One of: triangle, diamond, paw, K4, path(n) with n >= 1,
    cycle(n) with n >= 3."""
    if name == "triangle":
        return from_edges(3, [(0, 1), (0, 2), (1, 2)])
    if name == "diamond":
        return complete_minus_edge(4)
    if name == "paw":
        return from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    if name == "K4":
        return from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    m = _NAME_RE.match(name)
    if m:
        n = int(m.group(2))
        if m.group(1) == "path":
            if n < 1:
                raise ValueError("path needs n >= 1")
            return from_edges(n, [(i, i + 1) for i in range(n - 1)])
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    raise ValueError(f"unknown graph name: {name!r}")


def complete_minus_edge(q: int) -> Graph:
    """K_q minus the edge (q-2, q-1): the two degree-(q-2) vertices are the
    last two labels."""
    _need_int("q", q, 2)
    return from_edges(q, _copies_of_kq_minus_e(q - 1, 1))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the size-a part labeled 0..a-1."""
    _need_int("a", a, 1)
    _need_int("b", b, 1)
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _copies_of_kq_minus_e(k: int, length: int) -> list[tuple[int, int]]:
    # length copies of K_{k+1}-e on consecutive label ranges
    q = k + 1
    edges = []
    for c in range(length):
        base = c * q
        edges.extend(
            (base + i, base + j)
            for i in range(q)
            for j in range(i + 1, q)
            if (i, j) != (q - 2, q - 1)
        )
    return edges


def _ring_of_copies(k: int, length: int, entry: int) -> Graph:
    # length copies of K_{k+1}-e in a cycle, local label k of each copy
    # joined to local label entry of the next
    _need_int("l", length, 2)
    q = k + 1
    edges = _copies_of_kq_minus_e(k, length)
    edges += [(c * q + k, (c + 1) % length * q + entry) for c in range(length)]
    return from_edges(length * q, edges)


def g_kl(k: int, length: int) -> Graph:
    """The k-regular graph G(k, l): l copies of K_{k+1}-e arranged cyclically,
    joined only at their degree-(k-1) vertices (local labels k-1 and k)."""
    _need_int("k", k, 3)
    return _ring_of_copies(k, length, k - 1)


def caveman(k: int, length: int) -> Graph:
    """Connected caveman graph: l copies of K_{k+1}-e arranged cyclically,
    each linked to the next by an edge from a degree-(k-1) vertex (local
    label k) to a degree-k vertex (local label 0)."""
    _need_int("k", k, 2)
    return _ring_of_copies(k, length, 0)


def caveman_rewired(k: int, length: int) -> Graph:
    """The caveman graph after the rewiring step: drop the edge from copy 0
    to copy 1 and join copy 0's two degree-(k-1) vertices instead, turning
    copy 0 into K_{k+1}."""
    g = caveman(k, length)
    q = k + 1
    return g.without_edge(k, q).with_edge(k - 1, k)


# -- the extremal family ------------------------------------------------------


@dataclass(frozen=True)
class BSkeleton:
    """Recipe for a member of the extremal family.

    tree: a tree with maximum degree 3. Every leaf carries a mark (triangle
    or diamond) and becomes that endblock. Marked internal vertices become
    triangles bridged to each former neighbor; unmarked internal vertices
    must have degree 3 and stay plain. Unmarked degree-2 internal vertices
    are rejected: they would survive as S-vertices and lose extremality.
    """

    tree: Graph
    leaf_marks: Mapping[int, str] = field(default_factory=dict)
    inner_marks: frozenset[int] = frozenset()


def _check_skeleton(sk: BSkeleton) -> None:
    t = sk.tree
    if t.n < 2:
        raise ValueError("skeleton tree needs at least 2 vertices")
    if t.m != t.n - 1 or not is_connected(t):
        raise ValueError("skeleton graph is not a tree")
    if any(t.degree(v) > 3 for v in range(t.n)):
        raise ValueError("skeleton tree must have maximum degree 3")
    leaves = {v for v in range(t.n) if t.degree(v) == 1}
    if set(sk.leaf_marks) != leaves:
        raise ValueError("leaf_marks must cover exactly the leaves of the tree")
    bad = [m for m in sk.leaf_marks.values() if m not in (TRIANGLE_MARK, DIAMOND_MARK)]
    if bad:
        raise ValueError(f"unknown leaf mark(s): {bad}")
    inner = set(sk.inner_marks)
    if inner & leaves:
        raise ValueError("inner_marks may only contain internal vertices")
    if not inner <= set(range(t.n)):
        raise ValueError("inner_marks contain out-of-range vertices")
    for v in range(t.n):
        if t.degree(v) == 2 and v not in inner:
            raise ValueError(
                f"internal vertex {v} has degree 2 but is unmarked; "
                "it would be an S-vertex"
            )


def family_b(sk: BSkeleton) -> Graph:
    """Expand a skeleton into its graph.

    Leaves become endblock triangles (bridged at one vertex) or endblock
    diamonds (bridged at a degree-2 diamond vertex); marked internal
    vertices of degree j become triangles with j distinct bridge
    attachments; unmarked internal vertices stay plain. Tree edges become
    bridges between the chosen attachment vertices.
    """
    _check_skeleton(sk)
    t = sk.tree
    edges: list[tuple[int, int]] = []
    # ports[v] = attachment labels for v's incident tree edges, in neighbor order
    ports: dict[int, list[int]] = {}
    base = 0
    for v in range(t.n):
        deg = t.degree(v)
        if v in sk.inner_marks or sk.leaf_marks.get(v) == TRIANGLE_MARK:
            edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
            ports[v] = [base + i for i in range(deg)]
            base += 3
        elif deg == 1:
            # diamond on base..base+3, degree-2 vertices last; bridge at base+2
            edges += [(base + i, base + j) for i, j in _copies_of_kq_minus_e(3, 1)]
            ports[v] = [base + 2]
            base += 4
        else:
            ports[v] = [base] * 3
            base += 1
    edges += [(ports[u].pop(0), ports[v].pop(0)) for u, v in t.edges()]
    return from_edges(base, edges)


def family_b_order(t, k: int) -> int:
    """Order of the type-t construction with k plain internal vertices."""
    key = tuple(t)
    if key not in _FAMILY_B:
        raise ValueError(f"no order formula for type {key}")
    _need_int("k", k, 0)
    return _FAMILY_B[key][0] + 4 * k


def standard_skeleton(t, k: int) -> BSkeleton:
    """A canonical skeleton of type t with k plain degree-3 internal
    vertices: a caterpillar spine of plain vertices, diamonds and triangles
    on the leaves, degree-2 marked vertices subdividing the first edge, and
    (for i3 = 1) one degree-3 marked vertex joined to the spine."""
    key = tuple(t)
    if key not in _FAMILY_B:
        raise ValueError(f"no standard skeleton for type {key}")
    _need_int("k", k, 0)
    d, i2, i3 = key
    # spine 0..spine-1: k plain then i3 marked degree-3 vertices; vertex i
    # gets leaves up to degree 3, labeled spine..nxt-1 (0 and 1 with no spine)
    spine = k + i3
    edges, nxt = ([], spine) if spine else ([(0, 1)], 2)
    for i in range(spine):
        leaves = 1 + (i == 0) + (i == spine - 1)
        edges += [(i, i + 1)] * (i < spine - 1) + [(i, nxt + j) for j in range(leaves)]
        nxt += leaves
    # a chain of i2 marked degree-2 vertices subdivides the first edge
    chain = range(nxt, nxt + i2)
    u, v = edges[0]
    edges[0:1] = pairwise([u, *chain, v])
    marks = {x: DIAMOND_MARK if x - spine < d else TRIANGLE_MARK for x in range(spine, nxt)}
    inner = frozenset(range(k, spine)).union(chain)
    return BSkeleton(from_edges(nxt + i2, edges), marks, inner)


def _typed(x, kind):
    # x if it is a kind; an int as _is_int has it (JSON true is no vertex)
    if not (_is_int(x) if kind is int else isinstance(x, kind)):
        raise TypeError(x)
    return x


def _vertex_key(x) -> int:
    # a vertex as a JSON object key (a string of decimal digits) or an int
    return int(x) if isinstance(x, str) and x.isascii() and x.isdecimal() else _typed(x, int)


def skeleton_from_dict(data: Mapping) -> BSkeleton:
    """Build a BSkeleton from a parsed JSON object: edges, a list of integer
    pairs [u, v]; leaf_marks, an object from vertex to mark string;
    inner_marks, a list of integers. Any other shape raises ValueError
    naming the field."""
    if not isinstance(data, Mapping):
        raise ValueError("skeleton must be a JSON object")
    try:
        edges = [(_typed(u, int), _typed(v, int)) for u, v in data.get("edges")]
    except (TypeError, ValueError):
        raise ValueError("skeleton field 'edges' must be a list of [u, v] pairs") from None
    if not edges:
        raise ValueError("skeleton needs at least one edge")
    n = max(max(u, v) for u, v in edges) + 1
    # a tree on n vertices has n - 1 edges; checked before allocating n
    if n > len(edges) + 1:
        raise ValueError("skeleton graph is not a tree")
    tree = from_edges(n, edges)
    try:
        leaf_marks = _typed(data.get("leaf_marks", {}), Mapping)
        marks = {_vertex_key(v): _typed(m, str) for v, m in leaf_marks.items()}
    except TypeError:
        raise ValueError("skeleton field 'leaf_marks' must map vertices to marks") from None
    try:
        inner = frozenset(_typed(v, int) for v in data.get("inner_marks", ()))
    except TypeError:
        raise ValueError("skeleton field 'inner_marks' must be a list of vertices") from None
    return BSkeleton(tree=tree, leaf_marks=marks, inner_marks=inner)

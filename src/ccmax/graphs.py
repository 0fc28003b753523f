"""Simple undirected graphs on dense integer vertices.

Graphs are immutable: vertices are 0..n-1, adjacency is kept as per-vertex
bitmasks, and every edit (adding or removing an edge) returns a new Graph.
The module also provides graph6 serialization (the n <= 62 one-line ASCII
format) and canonical forms for isomorphism testing at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Iterator, Sequence

GRAPH6_MAX_N = 62
CANONICAL_MAX_N = 20


class Graph6ParseError(ValueError):
    """Malformed graph6 input."""


class CapabilityError(RuntimeError):
    """Operation requested beyond the supported size limit."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    A graph keeps its derived block structure: ccmax.structure stores the
    block decomposition and its classification on the graph the first time
    it computes them, so every later structure query on the same object
    reads them back. Equality, hashing and repr see only n and the edges.
    """

    __slots__ = ("n", "_masks", "_blocks", "_structure")

    def __init__(self, n: int, masks: Sequence[int]):
        # Internal constructor: `masks` must already be a valid symmetric,
        # loop-free adjacency; use from_edges() to build from edge lists.
        self.n = n
        self._masks = tuple(masks)
        # set by structure.blocks and structure._structure
        self._blocks = None
        self._structure = None

    # -- basic views -------------------------------------------------------

    def mask(self, u: int) -> int:
        self._check_vertex(u)
        return self._masks[u]

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return self._masks[u].bit_count()

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbors of u in increasing order."""
        self._check_vertex(u)
        return tuple(_bits(self._masks[u]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        # an inline bit walk, not _bits, as in _edges_in
        out = []
        for u, mask in enumerate(self._masks):
            rest = mask >> (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, u + low.bit_length()))
                rest ^= low
        return out

    @property
    def m(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return tuple(sorted((m.bit_count() for m in self._masks), reverse=True))

    # -- edits (return new graphs) ------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        masks = list(self._masks)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        return Graph(self.n, masks)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        masks = list(self._masks)
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        return Graph(self.n, masks)

    # -- dunder plumbing -----------------------------------------------------

    def _check_vertex(self, u: int) -> None:
        # inline, not _is_int: this runs a few hundred times per graph
        if type(u) is not int or not 0 <= u < self.n:
            raise ValueError(f"need an int vertex in 0..{self.n - 1}, got {u!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int(x: object) -> bool:
    # bool is a subclass of int, but True is no vertex count or degree
    return isinstance(x, int) and not isinstance(x, bool)


def _need_int(name: str, value: object, least: int) -> None:
    if not _is_int(value) or value < least:
        raise ValueError(f"need an int {name} >= {least}, got {value!r}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse to one."""
    _need_int("n", n, 0)
    masks = [0] * n
    for u, v in edges:
        # inline, as in Graph._check_vertex: this runs once per edge
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u!r}, {v!r}) needs int endpoints in 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph(n, masks)


def _edges_in(masks: Sequence[int], within: int) -> int:
    # edges with both endpoints in the vertex mask `within`; an inline bit
    # walk, not _bits: graph_cc and the T4 kernel call it for every vertex
    total = 0
    rest = within
    while rest:
        low = rest & -rest
        total += (masks[low.bit_length() - 1] & within).bit_count()
        rest ^= low
    return total // 2


def edges_within(g: Graph, vertices: Iterable[int]) -> int:
    """Number of edges of g with both endpoints in the given vertex set."""
    umask = 0
    for u in vertices:
        g._check_vertex(u)
        umask |= 1 << u
    return _edges_in(g._masks, umask)


def triangles_at(g: Graph, u: int) -> int:
    """Number of triangles of g containing u (= edges inside N(u))."""
    return _edges_in(g._masks, g.mask(u))


def _non_edges(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    # the non-adjacent pairs (u, v), u < v, in lexicographic order
    n = len(masks)
    for u in range(n):
        mask = masks[u]
        for v in range(u + 1, n):
            if not mask >> v & 1:
                yield u, v


def _spans(masks: Sequence[int], within: int) -> bool:
    # whether the vertex mask `within` induces a connected graph (0 does)
    seen = frontier = within & -within
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen == within


def is_connected(g: Graph) -> bool:
    """True iff g has a single component (vacuously for n <= 1)."""
    return _spans(g._masks, (1 << g.n) - 1)


# -- graph6 ------------------------------------------------------------------
#
# One line per graph: byte n+63, then the upper-triangle bits in column-major
# order b(0,1), b(0,2), b(1,2), b(0,3), ... packed 6 per byte (first bit is
# the high bit), each byte offset by 63, zero-padded at the end.


def to_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise CapabilityError(f"graph6 supports n <= {GRAPH6_MAX_N}, got {g.n}")
    out = [chr(g.n + 63)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        col = g._masks[j]
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def parse_graph6(line: str) -> Graph:
    text = line.rstrip("\r\n")
    if not text:
        raise Graph6ParseError("empty graph6 line")
    head = ord(text[0])
    if head == 126:
        raise Graph6ParseError("multi-byte graph6 order (n > 62) is not supported")
    if not (63 <= head <= 125):
        raise Graph6ParseError(f"bad order byte {text[0]!r}")
    n = head - 63
    npairs = n * (n - 1) // 2
    want = (npairs + 5) // 6
    body = text[1:]
    if len(body) != want:
        raise Graph6ParseError(f"expected {want} data bytes for n={n}, got {len(body)}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not (0 <= val <= 63):
            raise Graph6ParseError(f"byte {ch!r} outside graph6 range")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[npairs:]):
        raise Graph6ParseError("nonzero padding bits")
    masks = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            idx += 1
    return Graph(n, masks)


# -- canonical forms -----------------------------------------------------------
#
# The canonical labelling is the vertex ordering whose upper-triangle bit
# string, read column by column as in graph6 (b(0,1), b(0,2), b(1,2), ...),
# is largest among all orderings compatible with the ordered stable
# partition: the classes of _refine_classes, in exactly its order, fill the
# positions one class after another. This definition, class order included,
# fixes every canonical string and so every enumeration order and report;
# an implementation may change only how fast the maximum is found, and
# tests/test_canon_reference.py holds it to a frozen reference. After
# refinement, a discrete partition (orders 0 and 1 included) is the
# labelling; otherwise one depth-first branch and bound over the positions,
# with twin skipping, finds the maximum, and it places a singleton class, a
# class with one candidate, like any other. Works well through n = 20;
# enforced by CANONICAL_MAX_N.
#
# How the maximum is found. The search meets automorphisms: a leaf whose
# string equals the best one, and each twin it skips. It always collects
# them, and together they generate the whole automorphism group: every
# labelling with the best string is reached, or lies in a skipped subtree
# that a collected automorphism maps onto a searched one. Three freedoms cut
# the work and change no string, since each skips only subtrees that cannot
# hold a larger one:
# - candidate order: any order among equal columns reaches the same maximum,
#   and a tight node (columns so far equal to the best's) drops every
#   candidate whose column is below the best's before sorting;
# - start order: a one-colour partition (a regular graph) is searched from
#   the vertices with the most triangles, then the most pairs of common
#   neighbours, since the best string tends to start there;
# - root orbit pruning: at the first position after the singleton classes,
#   whose vertices every automorphism fixes, a vertex in the orbit of a
#   tried one under the automorphisms collected so far only repeats that
#   one's subtree under a known automorphism, so it is skipped. Only that
#   position may do this: deeper down, those automorphisms need not fix the
#   vertices already placed.
# A different optimal leaf may be found, so the enumerator (_canon_masks)
# may see other canonical positions, but the same masks and the same group.


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """A canonical graph6 string: equal iff the graphs are isomorphic."""

    g6: str

    def __str__(self) -> str:
        return self.g6


def _neighbor_lists(masks: Sequence[int]) -> list[list[int]]:
    # an inline bit walk, not _bits: this is in canonical labelling's hot path
    out = []
    for mask in masks:
        nbrs = []
        while mask:
            low = mask & -mask
            nbrs.append(low.bit_length() - 1)
            mask ^= low
        out.append(nbrs)
    return out


def _refine_classes(nbrs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Stable colour-refinement partition, classes in invariant order.

    Colours start as degree ranks. Each round splits every class by the
    sorted colours of its vertices' neighbours and numbers the new colours in
    (old colour, sorted neighbour colours) order, until no class splits.
    Classes are ordered by (size, colour); each lists its vertices in
    increasing order.
    """
    n = len(nbrs)
    degs = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degs)))}
    classes: list[list[int]] = [[] for _ in rank]
    for v, d in enumerate(degs):
        classes[rank[d]].append(v)
    # A vertex's key packs how many neighbours it has of each colour into one
    # integer, colour 0 in the highest field; a field of n.bit_length() bits
    # holds any count. Within a class all degrees are equal, so a larger key
    # is exactly a smaller sorted tuple of neighbour colours.
    width = n.bit_length()
    weight = [0] * n
    # Neither one colour (a regular graph: every vertex sees the same
    # neighbour colours) nor n colours can split further.
    while 1 < len(classes) < n:
        shift = width * len(classes)
        for cls in classes:
            field = 1 << shift
            shift -= width
            for v in cls:
                weight[v] = field
        split: list[list[int]] = []
        for cls in classes:
            if len(cls) == 1:
                split.append(cls)
                continue
            parts: dict[int, list[int]] = {}
            for v in cls:
                key = sum(map(weight.__getitem__, nbrs[v]))
                parts.setdefault(key, []).append(v)
            if len(parts) == 1:
                split.append(cls)
            else:
                split.extend(parts[key] for key in sorted(parts, reverse=True))
        if len(split) == len(classes):
            break
        classes = split
    classes.sort(key=len)
    return classes


_COL_SHIFT = 64


def _orbit(gens: Sequence[Sequence[int]], x, move) -> set:
    # the orbit of x under the group that gens generate; move(g, x) is the
    # image of x under g
    seen = {x}
    todo = [x]
    while todo:
        y = todo.pop()
        for g in gens:
            z = move(g, y)
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


def _image(perm: Sequence[int], mask: int) -> int:
    # the vertex set mask moved by the permutation perm
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _start_key(masks: Sequence[int], nbrs: Sequence[Sequence[int]], v: int) -> tuple[int, int]:
    # (triangles at v, sum of c(c-1) over the other vertices w, c being the
    # number of common neighbours of v and w): vertices rich in short cycles
    # tend to start the largest string, whose first columns fill up early
    mv = masks[v]
    ball = 0
    tri = 0
    for x in nbrs[v]:
        ball |= masks[x]
        tri += (masks[x] & mv).bit_count()
    pairs = 0
    ball &= ~(1 << v)
    while ball:
        low = ball & -ball
        c = (masks[low.bit_length() - 1] & mv).bit_count()
        pairs += c * (c - 1)
        ball ^= low
    return tri, pairs


def _canonical_perm(
    masks: Sequence[int], nbrs: Sequence[Sequence[int]]
) -> tuple[list[int], list[list[int]]]:
    """Vertices in canonical order (perm[p] is the vertex placed at p), and
    automorphisms that generate the whole group, each as the list of vertex
    images: one for each leaf equal to the best leaf, and one transposition
    for each twin the search skips. It prunes start vertices with them.
    """
    n = len(masks)
    classes = _refine_classes(nbrs)
    if len(classes) == n:
        return [v for (v,) in classes], []
    if len(classes) == 1:
        classes[0].sort(key=lambda v: _start_key(masks, nbrs, v), reverse=True)
    found: list[list[int]] = []
    pos_class: list[int] = []
    for ci, cls in enumerate(classes):
        pos_class.extend([ci] * len(cls))
    # rcol[v]: adjacency bits of v toward already placed positions, stored so
    # that integer order equals left-to-right column order.
    rcol = [0] * n
    cur = [0] * n
    placed: list[int] = []
    best: list[int] = []
    best_perm: list[int] = []
    # The singleton classes fill the first positions (classes are sorted by
    # size, and some class has two vertices); start is the first position
    # after them.
    start = 0
    while len(classes[start]) == 1:
        start += 1

    def dfs(j: int, tight: bool) -> bool:
        # tight: the columns placed so far equal best's; only then can a
        # smaller column prune, and an equal leaf is no improvement.
        nonlocal best, best_perm
        if j == n:
            if tight:
                image = [0] * n
                for u, w in zip(best_perm, placed):
                    image[u] = w
                found.append(image)
                return False
            best = cur[:]
            best_perm = placed[:]
            return True
        # Deeper calls put back every vertex they take from a class, so cls
        # holds exactly the vertices of its class not yet placed.
        cls = classes[pos_class[j]]
        if tight:
            least = best[j]
            cands = [v for v in cls if rcol[v] >= least]
        else:
            cands = cls[:]
        if len(cands) > 1:
            cands.sort(key=rcol.__getitem__, reverse=True)
        updated = False
        tried: list[int] = []
        for v in cands:
            col = rcol[v]
            if tight and col < best[j]:
                break
            # A start vertex in the orbit of a tried one, under the
            # automorphisms found so far, only repeats that one's subtree:
            # they fix every singleton placed before it. Deeper down they
            # need not fix the placed vertices.
            if j == start and found and not _orbit(found, v, getitem).isdisjoint(tried):
                continue
            mv = masks[v]
            bv = 1 << v
            twin = False
            for u in tried:
                # Swapping twins u and v is an automorphism that fixes every
                # placed vertex, so v's subtree repeats u's.
                if (masks[u] ^ mv) & ~(bv | 1 << u) == 0:
                    twin = True
                    break
            if twin:
                image = list(range(n))
                image[u], image[v] = v, u
                found.append(image)
                continue
            tried.append(v)
            cur[j] = col
            placed.append(v)
            cls.remove(v)
            bit = 1 << (_COL_SHIFT - j)
            touched = nbrs[v]
            for w in touched:
                rcol[w] += bit
            if dfs(j + 1, tight and col == best[j]):
                updated = True
                tight = True
            for w in touched:
                rcol[w] -= bit
            placed.pop()
            cls.append(v)
        return updated

    dfs(0, False)
    return best_perm, found


def _canonical_masks(
    masks: Sequence[int],
) -> tuple[tuple[int, ...], list[int], list[int], list[list[int]]]:
    """Adjacency masks of the canonically labelled copy, perm (perm[p] is the
    vertex at canonical position p), pos (pos[v] is the canonical position of
    vertex v), and the search's automorphisms."""
    nbrs = _neighbor_lists(masks)
    perm, found = _canonical_perm(masks, nbrs)
    pos = [0] * len(perm)
    for p, v in enumerate(perm):
        pos[v] = p
    return tuple([_image(pos, masks[v]) for v in perm]), perm, pos, found


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g."""
    if g.n > CANONICAL_MAX_N:
        raise CapabilityError(f"canonical form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    return Graph(g.n, _canonical_masks(g._masks)[0])


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 string; equal across all relabelings of g."""
    return CanonicalForm(to_graph6(canonical_graph(g)))


class _Canon(tuple):
    """Canonical masks, equal to and hashing as the plain tuple, that carry
    `gens`, generators of the automorphism group as tuples of canonical
    positions (gens[i][p] is the image of position p; empty when the group
    is trivial), and `pos`, the canonical position of each input vertex."""


def _canon_masks(masks: Sequence[int]) -> _Canon:
    # The enumerator's entry point: masks in and out, no Graph and no
    # capability check (enumeration caps are far below CANONICAL_MAX_N).
    # Kept apart from canonical_graph, whose search collects automorphisms
    # only to prune start vertices and reports none, so that the two count
    # as separate calls when perfbench traces them.
    out, perm, pos, found = _canonical_masks(masks)
    canon = _Canon(out)
    # an automorphism a of the input moves position p, held by vertex
    # perm[p], to pos[a[perm[p]]]
    canon.gens = tuple(dict.fromkeys([tuple([pos[a[v]] for v in perm]) for a in found]))
    canon.pos = pos
    return canon

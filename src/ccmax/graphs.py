"""Simple undirected graphs on dense integer vertices.

Graphs are immutable: vertices are 0..n-1, adjacency is kept as per-vertex
bitmasks, and every edit (adding or removing an edge) returns a new Graph.
The module also provides graph6 serialization (the n <= 62 one-line ASCII
format) and canonical forms for isomorphism testing at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

GRAPH6_MAX_N = 62
CANONICAL_MAX_N = 20


class Graph6ParseError(ValueError):
    """Malformed graph6 input."""


class CapabilityError(RuntimeError):
    """Operation requested beyond the supported size limit."""


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, masks: Sequence[int]):
        # Internal constructor: `masks` must already be a valid symmetric,
        # loop-free adjacency; use from_edges() to build from edge lists.
        self.n = n
        self._masks = tuple(masks)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(n, masks)

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

    @property
    def adj(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_bits(m)) for m in self._masks)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self._masks[u] >> (u + 1)
            for v in _bits(rest):
                out.append((u, u + 1 + v))
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
        if not (0 <= u < self.n):
            raise ValueError(f"vertex {u} outside 0..{self.n - 1}")

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


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse to one."""
    return Graph.from_edges(n, edges)


def edges_within(g: Graph, vertices: Iterable[int]) -> int:
    """Number of edges of g with both endpoints in the given vertex set."""
    umask = 0
    for u in vertices:
        g._check_vertex(u)
        umask |= 1 << u
    total = 0
    for u in _bits(umask):
        total += (g._masks[u] & umask).bit_count()
    return total // 2


def triangles_at(g: Graph, u: int) -> int:
    """Number of triangles of g containing u (= edges inside N(u))."""
    numask = g.mask(u)
    total = 0
    for v in _bits(numask):
        total += (g._masks[v] & numask).bit_count()
    return total // 2


def is_connected(g: Graph) -> bool:
    """True iff g has a single component (vacuously for n <= 1)."""
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g._masks[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


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
# tests/test_canon_reference.py holds it to a frozen reference. When every
# class is a singleton the class order is the labelling; otherwise a
# depth-first branch and bound over positions, with twin skipping, finds
# the maximum. Works well through n = 20; enforced by CANONICAL_MAX_N.


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """A canonical graph6 string: equal iff the graphs are isomorphic."""

    g6: str

    def __str__(self) -> str:
        return self.g6


def _neighbor_lists(masks: Sequence[int]) -> list[list[int]]:
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
                if key in parts:
                    parts[key].append(v)
                else:
                    parts[key] = [v]
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


def _canonical_perm(masks: Sequence[int], nbrs: Sequence[Sequence[int]]) -> list[int]:
    """Vertices in canonical order: perm[p] is the vertex placed at p."""
    n = len(masks)
    if n <= 1:
        return list(range(n))
    classes = _refine_classes(nbrs)
    if len(classes) == n:
        return [v for (v,) in classes]
    pos_class: list[int] = []
    for ci, cls in enumerate(classes):
        pos_class.extend([ci] * len(cls))
    remaining = [list(cls) for cls in classes]
    # rcol[v]: adjacency bits of v toward already placed positions, stored so
    # that integer order equals left-to-right column order.
    rcol = [0] * n
    cur = [0] * n
    placed: list[int] = []
    best: list[int] = []
    best_perm: list[int] = []
    # Classes are ordered by size, so singletons take the first positions
    # and leave no choice: place them before the search starts.
    for cls in classes:
        if len(cls) > 1:
            break
        v = cls[0]
        j = len(placed)
        cur[j] = rcol[v]
        placed.append(v)
        bit = 1 << (_COL_SHIFT - j)
        for w in nbrs[v]:
            rcol[w] += bit

    def dfs(j: int, tight: bool) -> bool:
        # tight: the columns placed so far equal best's; only then can a
        # smaller column prune, and an equal leaf is no improvement.
        nonlocal best, best_perm
        if j == n:
            if tight:
                return False
            best = cur[:]
            best_perm = placed[:]
            return True
        cls = remaining[pos_class[j]]
        cands = cls[:] if len(cls) == 1 else sorted(cls, key=rcol.__getitem__, reverse=True)
        updated = False
        tried: list[int] = []
        for v in cands:
            col = rcol[v]
            if tight and col < best[j]:
                break
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

    dfs(len(placed), False)
    return best_perm


def _canonical_masks(masks: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the canonically labelled copy."""
    nbrs = _neighbor_lists(masks)
    perm = _canonical_perm(masks, nbrs)
    pos = [0] * len(perm)
    for p, v in enumerate(perm):
        pos[v] = p
    out = []
    for v in perm:
        mv = 0
        for w in nbrs[v]:
            mv |= 1 << pos[w]
        out.append(mv)
    return tuple(out)


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g."""
    if g.n > CANONICAL_MAX_N:
        raise CapabilityError(f"canonical form supports n <= {CANONICAL_MAX_N}, got {g.n}")
    return Graph(g.n, _canonical_masks(g._masks))


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical graph6 string; equal across all relabelings of g."""
    return CanonicalForm(to_graph6(canonical_graph(g)))


def _canon_masks(masks: Sequence[int]) -> tuple[int, ...]:
    # The enumerator's entry point: masks in and out, no Graph and no
    # capability check (enumeration caps are far below CANONICAL_MAX_N).
    # Kept apart from canonical_graph, which does not call it, so that the
    # two count as separate calls when perfbench traces them.
    return _canonical_masks(masks)

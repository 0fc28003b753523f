"""Isomorph-free exhaustive enumeration of small graphs under degree
constraints, by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998) 306-324).

Graphs are grown one vertex at a time. A child of an order-m canonical
parent P attaches the new vertex m to an admissible neighbour set, and only
one neighbour set per orbit of Aut(P) is tried: the canonical search
reports generators of each graph's automorphism group (graphs._canon_masks),
and the orbits are closed over them. A child's deletable vertices are its
non-cut vertices for connected targets (deleting one leaves a connected
graph, so connected graphs are reached through connected intermediates) and
all of its vertices otherwise. Among them the canonical deletion vertex has
minimal f(v) = (degree, sum of neighbour degrees), then minimal h(v) = (size
of the distance-2 ball, triangles at v), then the highest position in the
canonical labelling. A child is kept only when m lies in the orbit of that
vertex under the child's automorphism group:

- a child in which some deletable vertex has a smaller (f, h) than m is
  dropped without a canonical labelling;
- a child in which m alone has minimal (f, h) is kept;
- otherwise the child's canonical labelling decides: m's position must be
  the highest of the tied positions or share an orbit with it.

Every class is thereby produced exactly once, from one parent class and one
neighbour set, so a level is the concatenation of the parents' children and
needs no deduplication. Regular targets add only neighbour sets that hold
every vertex too short of edges to wait for a later one, and prune prefixes
that cannot complete to a k-regular graph; every induced subgraph of a
k-regular graph passes that test, so no target graph loses its chain of
canonical parents. Work is split at most once, as in nauty's geng
(res/mod): levels grow serially until one has enough parents, and each
worker grows its share of that level to order n. As every class has one
parent, the classes do not depend on the split; they are sorted once by
canonical graph6.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import getitem
from typing import Sequence

from .graphs import (
    CapabilityError,
    Graph,
    _canon_masks,
    _edges_in,
    _is_int,
    _need_int,
    _spans,
    is_connected,
    to_graph6,
)

MODE_ANY = "any"
MODE_MAX_DEGREE = "max_degree"
MODE_REGULAR = "regular"


@dataclass(frozen=True)
class DegreeConstraint:
    """Degree regime (any / max_degree(bound) / regular(bound)) plus whether
    only connected graphs are wanted."""

    mode: str
    bound: int | None = None
    connected: bool = False

    def __post_init__(self):
        if self.mode not in (MODE_ANY, MODE_MAX_DEGREE, MODE_REGULAR):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_ANY:
            if self.bound is not None:
                raise ValueError("mode 'any' takes no bound")
        elif not _is_int(self.bound) or self.bound < 0:
            raise ValueError(f"mode {self.mode!r} needs an int bound >= 0, got {self.bound!r}")
        if not isinstance(self.connected, bool):
            raise ValueError(f"connected must be a bool, got {self.connected!r}")

    @classmethod
    def any_degree(cls, connected: bool = False) -> "DegreeConstraint":
        return cls(MODE_ANY, None, connected)

    @classmethod
    def max_degree(cls, bound: int, connected: bool = False) -> "DegreeConstraint":
        return cls(MODE_MAX_DEGREE, bound, connected)

    @classmethod
    def regular(cls, bound: int, connected: bool = False) -> "DegreeConstraint":
        return cls(MODE_REGULAR, bound, connected)

    def satisfied_by(self, g: Graph) -> bool:
        degs = [g.degree(u) for u in range(g.n)]
        if self.mode == MODE_MAX_DEGREE and any(d > self.bound for d in degs):
            return False
        if self.mode == MODE_REGULAR and any(d != self.bound for d in degs):
            return False
        if self.connected:
            return is_connected(g)
        return True


def _capability_limit(c: DegreeConstraint) -> int:
    if c.mode == MODE_MAX_DEGREE and c.bound <= 3:
        return 12
    if c.mode == MODE_REGULAR:
        if c.bound <= 3:
            return 12
        if c.bound == 4:
            return 10
    return 8


def _regular_prefix_ok(masks: Sequence[int], m: int, n: int, k: int) -> bool:
    # necessary conditions for an order-m prefix to complete to k-regular
    # order n: each vertex still needs def(u) = k - deg(u) in [0, n-m] more
    # edges, all toward the n-m future vertices; the future side must absorb
    # the total deficiency with matching parity and enough internal room.
    rem = n - m
    total = 0
    for u in range(m):
        d = k - masks[u].bit_count()
        if d < 0 or d > rem:
            return False
        total += d
    spare = rem * k - total
    return spare >= 0 and spare % 2 == 0 and spare <= rem * (rem - 1)


_F_SHIFT = 16


def _invariants(masks: Sequence[int]) -> list[int]:
    # f(v) = (degree, sum of neighbour degrees), packed so that integer
    # order is tuple order (a sum of at most 19 degrees of at most 19 fits
    # below the shift). An inline bit walk, not _bits: this is in the hot path.
    degs = [x.bit_count() for x in masks]
    out = []
    for x, d in zip(masks, degs):
        s = 0
        while x:
            low = x & -x
            s += degs[low.bit_length() - 1]
            x ^= low
        out.append(d << _F_SHIFT | s)
    return out


def _deletable(masks: Sequence[int], v: int, connected: bool) -> bool:
    # every vertex for disconnected targets; for connected ones a vertex of
    # degree <= 1 or one whose deletion leaves the rest connected
    if not connected or masks[v] & (masks[v] - 1) == 0:
        return True
    return _spans(masks, ((1 << len(masks)) - 1) ^ (1 << v))


def _h(masks: Sequence[int], v: int) -> int:
    # h(v) = (size of the distance-2 ball, triangles at v), packed as f is
    nbrs = masks[v]
    ball = nbrs | 1 << v
    rest = nbrs
    while rest:
        low = rest & -rest
        ball |= masks[low.bit_length() - 1]
        rest ^= low
    return ball.bit_count() << _F_SHIFT | _edges_in(masks, nbrs)


def _image(perm: Sequence[int], mask: int) -> int:
    # the vertex set mask moved by the permutation perm
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


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


def _children(
    parent: tuple[int, ...], m: int, n: int, c: DegreeConstraint
) -> list[tuple[int, ...]]:
    # Canonical masks of the admissible children of an order-m canonical
    # parent that pass the orbit test, one per class (module docstring).
    # No vertex of an order-m parent has degree m, so m caps the any mode.
    cap = m if c.bound is None else c.bound
    eligible = [u for u in range(m) if parent[u].bit_count() < cap]
    max_size = min(cap, len(eligible))
    connected = c.connected
    regular = c.mode == MODE_REGULAR
    newm = m + 1
    base = _invariants(parent)
    # A regular target's vertex that lacks more edges than the n - m - 1
    # vertices after m can give must take one from m: the regular prefix
    # test would reject every subset without it.
    forced = 0
    forced_f = 0  # what the forced vertices add to the new vertex's f
    if regular:
        for u in eligible:
            if cap - parent[u].bit_count() > n - newm:
                forced |= 1 << u
                forced_f += (base[u] >> _F_SHIFT) + 1
    free = [u for u in eligible if not forced >> u & 1]
    # A deletable vertex u of the parent stays deletable in a child unless
    # the new vertex's only neighbour is u, and gains at most one edge; so a
    # new vertex of degree above u's + 1 never has minimal f.
    by_degree = sorted((x.bit_count(), u) for u, x in enumerate(parent))
    d0 = next(d for d, u in by_degree if _deletable(parent, u, connected))
    max_size = min(max_size, d0 + 1)
    # Neighbour sets in one orbit of Aut(parent) give isomorphic children,
    # so only the first of each orbit is tried.
    gens = getattr(parent, "gens", ())
    seen: set[int] = set()
    new = 1 << m
    out = []
    # f in the child, from the parent's: every neighbour of u in the subset
    # gains one degree, and a vertex u in the subset gains one degree and
    # the new vertex (of degree size) as a neighbour.
    for size in range(max(1 if connected else 0, forced.bit_count()), max_size + 1):
        bump = (1 << _F_SHIFT) + size
        for subset in combinations(free, size - forced.bit_count()):
            smask = forced
            fm = (size << _F_SHIFT) + forced_f
            for u in subset:
                smask |= 1 << u
                fm += (base[u] >> _F_SHIFT) + 1
            if gens:
                if smask in seen:
                    continue
                seen |= _orbit(gens, smask, _image)
            masks = list(parent)
            lower = []
            ties = []
            for u in range(m):
                x = masks[u]
                fu = base[u] + (x & smask).bit_count()
                if smask >> u & 1:
                    fu += bump
                    masks[u] = x | new
                if fu < fm:
                    lower.append(u)
                elif fu == fm:
                    ties.append(u)
            masks.append(smask)
            if any(_deletable(masks, u, connected) for u in lower):
                continue
            if regular and not _regular_prefix_ok(masks, newm, n, c.bound):
                continue
            ties = [u for u in ties if _deletable(masks, u, connected)]
            if ties:
                hm = _h(masks, m)
                hs = [_h(masks, u) for u in ties]
                if min(hs) < hm:
                    continue
                ties = [u for u, h in zip(ties, hs) if h == hm]
            canon = _canon_masks(masks)
            # The canonical deletion vertex is the highest canonical position
            # among m and its ties; the child is kept iff m lies in its orbit.
            pos = canon.pos
            top = max((pos[u] for u in ties), default=-1)
            if top > pos[m] and top not in _orbit(canon.gens, pos[m], getitem):
                continue
            if newm < n and canon.gens:
                del canon.pos  # the next level reads only the generators
                out.append(canon)
            else:
                out.append(tuple(canon))
    return out


def _grow(parents: list, m: int, stop: int, n: int, c: DegreeConstraint) -> list:
    # order-m parents to their order-stop descendants, a level at a time
    for m in range(m, stop):
        parents = [child for parent in parents for child in _children(parent, m, n, c)]
    return parents


# A level is shared out once it has this many parents per worker: fewer
# give unevenly loaded shares, more keep more of the work serial. From 4 to
# 64 the sweep's 14 enumerations at 2 workers on a 2-core host took 1.99 to
# 2.11 s (medians of 5), within the host's noise; 16 sits in the middle.
_SPLIT = 16


def enumerate_graphs(
    n: int, c: DegreeConstraint, workers: int = 1
) -> list[Graph]:
    """All graphs of order n satisfying c, one per isomorphism class, in
    ascending canonical-graph6 order."""
    _need_int("n", n, 1)
    _need_int("workers", workers, 1)
    limit = _capability_limit(c)
    if n > limit:
        raise CapabilityError(
            f"enumeration for {c.mode} is supported up to n = {limit}, got {n}"
        )
    start = c.mode != MODE_REGULAR or _regular_prefix_ok((0,), 1, n, c.bound)
    level = [(0,)] if start else []
    m = 1
    while m < n and (workers == 1 or len(level) < _SPLIT * workers):
        level = _grow(level, m, m + 1, n, c)
        m += 1
    if m < n:
        # one share per worker, whatever the number of CPUs
        processes = min(workers, os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            shares = [level[i::workers] for i in range(workers)]
            grown = pool.map(_grow, shares, repeat(m), repeat(n), repeat(n), repeat(c))
            level = [masks for share in grown for masks in share]
    # Construction meets c: children of connected targets get an edge, only
    # vertices below the bound gain one, and at order n the regular prefix
    # test leaves every degree at the bound.
    return sorted((Graph(n, masks) for masks in level), key=to_graph6)


def count(n: int, c: DegreeConstraint, workers: int = 1) -> int:
    """Number of isomorphism classes of order-n graphs satisfying c."""
    return len(enumerate_graphs(n, c, workers=workers))

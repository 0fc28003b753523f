"""Isomorph-free exhaustive enumeration of small graphs under degree
constraints, by canonical deletion (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998) 306-324).

Graphs are grown one vertex at a time. A child of an order-m canonical
parent P attaches the new vertex m to an admissible neighbour set. Its
deletable vertices are its non-cut vertices for connected targets (deleting
one leaves a connected graph, so connected graphs are reached through
connected intermediates) and all of its vertices otherwise. Among them the
canonical deletion vertex has minimal f(v) = (degree, sum of neighbour
degrees) and, among those, the highest position in the canonical labelling.
A child is kept only when deleting that vertex gives back P's class:

- a child in which some deletable vertex has a smaller f than m is dropped
  without a canonical labelling;
- a child in which m alone has minimal f is kept;
- otherwise the child's canonical copy C* is kept iff C* minus its canonical
  deletion vertex labels canonically as P.

Every class is thereby produced from exactly one parent class, so a level is
the union of per-parent sets (duplicates within one parent come from
automorphic neighbour sets) and needs no level-wide deduplication. Regular
targets also prune prefixes that cannot complete to a k-regular graph; every
induced subgraph of a k-regular graph passes that test, so no target graph
loses its chain of canonical parents. Work is split at most once, as in
nauty's geng (res/mod): levels grow serially until one has enough parents,
and each worker grows its share of that level to order n. As every class has
one parent, the classes do not depend on the split; they are sorted once by
canonical graph6.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Sequence

from .graphs import (
    CapabilityError, Graph, _canon_masks, _is_int, _need_int, _spans, is_connected, to_graph6
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


def _delete(masks: Sequence[int], p: int) -> list[int]:
    # masks of the graph without vertex p, later vertices shifted down
    low = (1 << p) - 1
    return [x & low | x >> (p + 1) << p for i, x in enumerate(masks) if i != p]


def _deletes_to(
    canon: tuple[int, ...], fmin: int, connected: bool, parent: tuple[int, ...], parent_f: list[int]
) -> bool:
    # The canonical deletion vertex of a canonical child is its highest
    # deletable position with minimal f; the child belongs to parent iff
    # deleting that vertex gives back parent's class. parent_f is the sorted
    # f of parent: isomorphic graphs have the same multiset of f, so a
    # different one is an exact "no" without a canonical labelling.
    f = _invariants(canon)
    p = next(
        p for p in reversed(range(len(canon))) if f[p] == fmin and _deletable(canon, p, connected)
    )
    rest = _delete(canon, p)
    return sorted(_invariants(rest)) == parent_f and _canon_masks(rest) == parent


def _children(
    parent: tuple[int, ...], m: int, n: int, c: DegreeConstraint
) -> list[tuple[int, ...]]:
    # Canonical masks of the admissible children of an order-m canonical
    # parent whose canonical deletion gives back parent (module docstring).
    # No vertex of an order-m parent has degree m, so m caps the any mode.
    cap = m if c.bound is None else c.bound
    eligible = [u for u in range(m) if parent[u].bit_count() < cap]
    max_size = min(cap, len(eligible))
    connected = c.connected
    regular = c.mode == MODE_REGULAR
    base = _invariants(parent)
    base_f = sorted(base)
    # A deletable vertex u of the parent stays deletable in a child unless
    # the new vertex's only neighbour is u, and gains at most one edge; so a
    # new vertex of degree above u's + 1 never has minimal f.
    by_degree = sorted((x.bit_count(), u) for u, x in enumerate(parent))
    d0 = next(d for d, u in by_degree if _deletable(parent, u, connected))
    max_size = min(max_size, d0 + 1)
    new = 1 << m
    newm = m + 1
    verdicts: dict[tuple[int, ...], bool] = {}
    # f in the child, from the parent's: every neighbour of u in the subset
    # gains one degree, and a vertex u in the subset gains one degree and
    # the new vertex (of degree size) as a neighbour.
    for size in range(1 if connected else 0, max_size + 1):
        bump = (1 << _F_SHIFT) + size
        for subset in combinations(eligible, size):
            smask = 0
            fm = size << _F_SHIFT
            for u in subset:
                smask |= 1 << u
                fm += (base[u] >> _F_SHIFT) + 1
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
            canon = _canon_masks(masks)
            # Children with equal canonical masks (automorphic neighbour
            # sets) get the same verdict, which depends on canon alone.
            if canon not in verdicts:
                tied = any(_deletable(masks, u, connected) for u in ties)
                verdicts[canon] = not tied or _deletes_to(canon, fm, connected, parent, base_f)
    return [canon for canon, kept in verdicts.items() if kept]


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

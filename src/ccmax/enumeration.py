"""Isomorph-free exhaustive enumeration of small graphs under degree
constraints.

Graphs are grown one vertex at a time: every order-(m+1) graph arises from
an order-m graph by attaching a new vertex (for connected targets, removing
a non-cut vertex shows every connected graph is reachable through connected
intermediates), so extending each order-m isomorphism class by every
admissible neighbor set and deduplicating by canonical form is exhaustive.
Regular targets additionally prune prefixes that cannot complete to a
k-regular graph. Deterministic: each level is a sorted set of canonical
adjacency vectors, independent of how the work is split across workers.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import CapabilityError, Graph, _canon_masks, to_graph6

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
        else:
            if self.bound is None or self.bound < 0:
                raise ValueError(f"mode {self.mode!r} needs a bound >= 0")

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
            from .graphs import is_connected

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


def _children(
    parent: tuple[int, ...], m: int, n: int, c: DegreeConstraint
) -> Iterable[tuple[int, ...]]:
    # all admissible ways to attach vertex m to an order-m parent
    if c.mode == MODE_ANY:
        eligible = list(range(m))
        max_size = m
    else:
        eligible = [u for u in range(m) if parent[u].bit_count() < c.bound]
        max_size = min(c.bound, len(eligible))
    min_size = 1 if c.connected else 0
    newm = m + 1
    for size in range(min_size, max_size + 1):
        for subset in combinations(eligible, size):
            masks = list(parent) + [0]
            for u in subset:
                masks[u] |= 1 << m
                masks[m] |= 1 << u
            if c.mode == MODE_REGULAR and not _regular_prefix_ok(
                masks, newm, n, c.bound
            ):
                continue
            yield _canon_masks(masks)


def _extend_chunk(args) -> list[tuple[int, ...]]:
    parents, m, n, c = args
    seen: set[tuple[int, ...]] = set()
    for parent in parents:
        seen.update(_children(parent, m, n, c))
    return sorted(seen)


def enumerate_graphs(
    n: int, c: DegreeConstraint, workers: int = 1
) -> list[Graph]:
    """All graphs of order n satisfying c, one per isomorphism class, in
    ascending canonical-graph6 order."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    limit = _capability_limit(c)
    if n > limit:
        raise CapabilityError(
            f"enumeration for {c.mode} is supported up to n = {limit}, got {n}"
        )
    level: list[tuple[int, ...]] = [(0,)]
    if c.mode == MODE_REGULAR and not _regular_prefix_ok((0,), 1, n, c.bound):
        level = []
    # One pool serves every level of this call; it starts at the first level
    # large enough to split, so small enumerations start no processes.
    pool = None
    try:
        for m in range(1, n):
            if not level:
                break
            if workers > 1 and len(level) > workers:
                if pool is None:
                    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
                chunks = [level[i::workers] for i in range(workers)]
                merged: set[tuple[int, ...]] = set()
                for part in pool.map(
                    _extend_chunk, [(ch, m, n, c) for ch in chunks]
                ):
                    merged.update(part)
                level = sorted(merged)
            else:
                level = _extend_chunk((level, m, n, c))
    finally:
        if pool is not None:
            pool.shutdown()
    out = [Graph(n, masks) for masks in level]
    out = [g for g in out if c.satisfied_by(g)]
    out.sort(key=to_graph6)
    return out


def count(n: int, c: DegreeConstraint, workers: int = 1) -> int:
    """Number of isomorphism classes of order-n graphs satisfying c."""
    return len(enumerate_graphs(n, c, workers=workers))

"""Reference enumerator, frozen for use as a test oracle only.

This is the level-by-level enumerator ccmax shipped before canonical
deletion, kept in behaviour: every admissible child of every parent is
canonically labelled, each level is deduplicated as one set and sorted, and
the last level is filtered by the constraint and sorted by graph6. It uses
the library's canonical labelling (frozen separately in canon_reference.py)
and runs in one process. The library's enumerator must return the same
graphs in the same order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from ccmax.enumeration import MODE_ANY, MODE_REGULAR, DegreeConstraint
from ccmax.graphs import Graph, _canon_masks, to_graph6


def regular_prefix_ok(masks: Sequence[int], m: int, n: int, k: int) -> bool:
    """Necessary conditions for an order-m prefix to complete to a k-regular
    graph of order n."""
    rem = n - m
    total = 0
    for u in range(m):
        d = k - masks[u].bit_count()
        if d < 0 or d > rem:
            return False
        total += d
    spare = rem * k - total
    return spare >= 0 and spare % 2 == 0 and spare <= rem * (rem - 1)


def children(parent: tuple[int, ...], m: int, n: int, c: DegreeConstraint):
    """Canonical masks of every admissible way to attach vertex m."""
    if c.mode == MODE_ANY:
        eligible = list(range(m))
        max_size = m
    else:
        eligible = [u for u in range(m) if parent[u].bit_count() < c.bound]
        max_size = min(c.bound, len(eligible))
    min_size = 1 if c.connected else 0
    for size in range(min_size, max_size + 1):
        for subset in combinations(eligible, size):
            masks = list(parent) + [0]
            for u in subset:
                masks[u] |= 1 << m
                masks[m] |= 1 << u
            if c.mode == MODE_REGULAR and not regular_prefix_ok(masks, m + 1, n, c.bound):
                continue
            yield _canon_masks(masks)


def enumerate_graphs(n: int, c: DegreeConstraint) -> list[Graph]:
    """All graphs of order n satisfying c, one per isomorphism class, in
    ascending canonical-graph6 order."""
    level: list[tuple[int, ...]] = [(0,)]
    if c.mode == MODE_REGULAR and not regular_prefix_ok((0,), 1, n, c.bound):
        level = []
    for m in range(1, n):
        seen: set[tuple[int, ...]] = set()
        for parent in level:
            seen.update(children(parent, m, n, c))
        level = sorted(seen)
    out = [Graph(n, masks) for masks in level]
    out = [g for g in out if c.satisfied_by(g)]
    out.sort(key=to_graph6)
    return out

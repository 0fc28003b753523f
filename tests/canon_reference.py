"""Reference canonical labelling, frozen for use as a test oracle only.

This is the first implementation of ccmax.graphs' canonical form, kept
verbatim in behaviour: refinement by sorted neighbour-colour tuples from a
single colour, a depth-first branch and bound over every refined partition
(discrete or not), and a relabel from freshly decoded neighbour sets. It is
slow and simple on purpose; the library's canonical masks must equal its
output byte for byte.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def refine_classes(masks: Sequence[int], n: int) -> list[list[int]]:
    """Stable color-refinement partition, classes in invariant order."""
    colors = [0] * n
    ncolors = 1
    while True:
        keys = []
        for v in range(n):
            nbr = tuple(sorted(colors[w] for w in _bits(masks[v])))
            keys.append((colors[v], nbr))
        palette = sorted(set(keys))
        index = {k: i for i, k in enumerate(palette)}
        colors = [index[k] for k in keys]
        if len(palette) == ncolors:
            break
        ncolors = len(palette)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    return [classes[c] for c in sorted(classes, key=lambda c: (len(classes[c]), c))]


def _twins(masks: Sequence[int], u: int, v: int) -> bool:
    return masks[u] & ~(1 << v) == masks[v] & ~(1 << u)


_COL_SHIFT = 64


def canonical_perm(masks: Sequence[int], n: int) -> list[int]:
    if n <= 1:
        return list(range(n))
    classes = refine_classes(masks, n)
    pos_class: list[int] = []
    for ci, cls in enumerate(classes):
        pos_class.extend([ci] * len(cls))
    remaining = [list(cls) for cls in classes]
    rcol = [0] * n
    cur = [0] * n
    placed: list[int] = []
    best: list[int] | None = None
    best_perm: list[int] | None = None

    def dfs(j: int, tight: bool) -> bool:
        nonlocal best, best_perm
        if j == n:
            if not tight:
                best = cur[:]
                best_perm = placed[:]
                return True
            return False
        cls = remaining[pos_class[j]]
        cands = sorted(cls, key=lambda v: -rcol[v])
        updated = False
        tried: list[int] = []
        for v in cands:
            col = rcol[v]
            if tight and best is not None and col < best[j]:
                break
            if any(_twins(masks, u, v) for u in tried):
                continue
            tried.append(v)
            child_tight = tight and best is not None and col == best[j]
            cur[j] = col
            placed.append(v)
            cls.remove(v)
            bit = 1 << (_COL_SHIFT - j)
            touched = list(_bits(masks[v]))
            for w in touched:
                rcol[w] += bit
            if dfs(j + 1, child_tight):
                updated = True
                tight = True
            for w in touched:
                rcol[w] -= bit
            placed.pop()
            cls.append(v)
        return updated

    dfs(0, False)
    assert best_perm is not None
    return best_perm


def canon_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Adjacency masks of the canonically labelled copy."""
    perm = canonical_perm(masks, n)
    pos = [0] * n
    for p, v in enumerate(perm):
        pos[v] = p
    out = [0] * n
    for v in range(n):
        mv = 0
        for w in _bits(masks[v]):
            mv |= 1 << pos[w]
        out[pos[v]] = mv
    return tuple(out)

#!/usr/bin/env python3
"""Seeded graph6 input for the g6_stream workload.

Writes about 3,000 distinct random graphs of order 12-20, one third each
connected subcubic, connected cubic and G(n, 1/2), followed by a fixed set
of hard cases for canonical labelling: the 4x4 rook graph, the Shrikhande
graph, Paley(17), C20 and G(4,4). The same seed gives byte-identical
output. Uses only the standard library (its own graph6 encoder), so the
program under test sees nothing but the lines.

    python3 perfbench/gen_stream.py --seed 1 > stream.g6
"""

from __future__ import annotations

import argparse
import random
import sys

STREAM_SIZE = 3000
MIN_N, MAX_N = 12, 20


def encode_graph6(n: int, edges) -> str:
    """graph6 line of a graph on 0..n-1 (n <= 62)."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(n + 63) + body


def _connected(n: int, edges) -> bool:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0}
    todo = [0]
    while todo:
        for w in nbrs[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def random_subcubic(rng: random.Random) -> tuple[int, list]:
    """Connected, max degree 3: a random tree, then random extra edges."""
    n = rng.randint(MIN_N, MAX_N)
    order = list(range(n))
    rng.shuffle(order)
    deg = [0] * n
    edges = set()
    for k in range(1, n):
        v = order[k]
        u = rng.choice([w for w in order[:k] if deg[w] < 3])
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        e = (min(u, v), max(u, v))
        if deg[u] < 3 and deg[v] < 3 and e not in edges:
            edges.add(e)
            deg[u] += 1
            deg[v] += 1
    return n, sorted(edges)


def random_cubic(rng: random.Random) -> tuple[int, list]:
    """Connected 3-regular, by the pairing model with rejection."""
    n = rng.randrange(MIN_N, MAX_N + 1, 2)
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(u, v), max(u, v)) for u, v in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            edges = sorted(edges)
            if _connected(n, edges):
                return n, edges


def random_gnp(rng: random.Random) -> tuple[int, list]:
    """G(n, 1/2); may be disconnected."""
    n = rng.randint(MIN_N, MAX_N)
    return n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < 0.5]


def hard_set() -> list[tuple[str, int, list]]:
    """(name, n, edges) of the fixed hard cases, in stream order."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    rook = [
        (i, j)
        for i, (r1, c1) in enumerate(cells)
        for j, (r2, c2) in enumerate(cells)
        if i < j and (r1 == r2 or c1 == c2)
    ]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = [
        (i, j)
        for i, (a1, b1) in enumerate(cells)
        for j, (a2, b2) in enumerate(cells)
        if i < j and ((a2 - a1) % 4, (b2 - b1) % 4) in steps
    ]
    residues = {x * x % 17 for x in range(1, 17)}
    paley = [(i, j) for i in range(17) for j in range(i + 1, 17) if (j - i) % 17 in residues]
    cycle = [(i, (i + 1) % 20) for i in range(20)]
    # G(4,4): four copies of K5 minus the edge (3,4), copy c's vertex 4
    # joined to copy c+1's vertex 3, cyclically.
    gkl = []
    for c in range(4):
        base = 5 * c
        gkl += [(base + i, base + j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (3, 4)]
        gkl.append((base + 4, 5 * ((c + 1) % 4) + 3))
    return [
        ("rook4x4", 16, rook),
        ("shrikhande", 16, shrikhande),
        ("paley17", 17, paley),
        ("c20", 20, cycle),
        ("g_4_4", 20, gkl),
    ]


def stream_lines(seed: int) -> list[str]:
    """STREAM_SIZE distinct random graphs (rotating subcubic, cubic,
    G(n,1/2)), then the hard set."""
    rng = random.Random(seed)
    makers = (random_subcubic, random_cubic, random_gnp)
    lines: list[str] = []
    seen: set[str] = set()
    while len(lines) < STREAM_SIZE:
        line = encode_graph6(*makers[len(lines) % 3](rng))
        if line not in seen:
            seen.add(line)
            lines.append(line)
    return lines + [encode_graph6(n, edges) for _, n, edges in hard_set()]


def stream_bytes(seed: int) -> bytes:
    """The stream as written: one graph6 line per graph, newline-terminated."""
    return "".join(line + "\n" for line in stream_lines(seed)).encode("ascii")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.stdout.buffer.write(stream_bytes(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

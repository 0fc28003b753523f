"""Shared strategies and brute-force oracles for the test suite."""

from __future__ import annotations

import signal
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from ccmax import Graph, from_edges, g_kl, is_connected


# The slowest test takes about 4 s on a 2-core host: the labelled-count
# check of subcubic-connected n=12.
TIME_LIMIT_S = 30


class TimeLimitExceeded(BaseException):
    """A test ran over TIME_LIMIT_S. Not an Exception, so neither a test's own
    `except Exception` nor hypothesis catches it and runs the test again."""


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs over TIME_LIMIT_S instead of letting it hang the
    suite (a canonical search that loses its pruning runs for hours)."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran over {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Random graph: order in [min_n, max_n], each pair an independent coin."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
    else:
        bits = 0
    return from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    """Random connected graph: a random tree plus random extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = []
    for v in range(1, n):
        attach = draw(st.integers(0, v - 1))
        edges.append((attach, v))
    pairs = list(combinations(range(n), 2))
    if pairs:
        bits = draw(st.integers(0, (1 << len(pairs)) - 1))
        edges.extend(p for i, p in enumerate(pairs) if bits >> i & 1)
    g = from_edges(n, edges)
    assert is_connected(g)
    return g


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Ground-truth isomorphism test: try every bijection."""
    if g.n != h.n or g.m != h.m:
        return False
    ge = g.edges()
    for perm in permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in ge):
            return True
    return False


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex u renamed perm[u]."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_triangle_triples(g: Graph) -> int:
    """Number of triangles by checking all vertex triples."""
    return sum(
        g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def all_simple_cycles_edge_sets(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """Edge sets of all simple cycles, by path backtracking.

    Each cycle is found once: it starts at its smallest vertex and its second
    vertex is smaller than its last.
    """
    cycles = []
    n = g.n

    def extend(start: int, path: list[int], used: set[int]) -> None:
        u = path[-1]
        for w in g.neighbors(u):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    es = frozenset(
                        (min(a, b), max(a, b)) for a, b in zip(path, path[1:] + [start])
                    )
                    cycles.append(es)
            elif w > start and w not in used:
                used.add(w)
                path.append(w)
                extend(start, path, used)
                path.pop()
                used.remove(w)

    for s in range(n):
        extend(s, [s], {s})
    return cycles


def brute_blocks(g: Graph) -> tuple[set[tuple[int, ...]], set[int]]:
    """Block decomposition of a connected graph from first principles.

    Two edges share a block iff some simple cycle contains both; edges on no
    cycle are bridges, each its own block. A vertex is a cut vertex iff its
    removal disconnects two of its neighbors.
    """
    edges = g.edges()
    idx = {e: i for i, e in enumerate(edges)}
    parent = list(range(len(edges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for cyc in all_simple_cycles_edge_sets(g):
        es = [idx[e] for e in cyc]
        for e in es[1:]:
            parent[find(e)] = find(es[0])
    groups: dict[int, set[int]] = {}
    for e, i in idx.items():
        groups.setdefault(find(i), set()).update(e)
    blocks = {tuple(sorted(vs)) for vs in groups.values()}

    cuts = set()
    for v in range(g.n):
        nbrs = g.neighbors(v)
        if len(nbrs) < 2:
            continue
        seen = {v, nbrs[0]}
        stack = [nbrs[0]]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if any(w not in seen for w in nbrs):
            cuts.add(v)
    return blocks, cuts


def random_cubic(rng, n: int) -> Graph:
    """Random cubic graph on n vertices by the pairing model, retried until
    the pairing is a simple graph."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return from_edges(n, edges)


def hard_set() -> dict[str, Graph]:
    """Hard cases for canonical labelling: the strongly regular 4x4 rook and
    Shrikhande graphs (same parameters), Paley(17), C20 and G(4,4)."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    pairs = list(combinations(range(16), 2))
    rook = [(i, j) for i, j in pairs if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]]
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = [
        (i, j)
        for i, j in pairs
        if ((cells[j][0] - cells[i][0]) % 4, (cells[j][1] - cells[i][1]) % 4) in steps
    ]
    squares = {x * x % 17 for x in range(1, 17)}
    paley = [(i, j) for i, j in combinations(range(17), 2) if (j - i) % 17 in squares]
    return {
        "rook4x4": from_edges(16, rook),
        "shrikhande": from_edges(16, shrikhande),
        "paley17": from_edges(17, paley),
        "c20": from_edges(20, [(i, (i + 1) % 20) for i in range(20)]),
        "g44": g_kl(4, 4),
    }

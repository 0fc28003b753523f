"""Isomorph-free exhaustive enumeration of small graphs under degree
constraints, by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998) 306-324).

Graphs are grown one vertex at a time. A child of an order-m parent P
attaches the new vertex m to an admissible neighbour set, and only one
neighbour set per orbit of Aut(P) is tried: each level entry carries
generators of its graph's automorphism group, from the canonical search
(graphs._canon_masks) or from its parent's (below), and the orbits are
closed over them. A child's deletable vertices are its non-cut vertices for
connected targets (deleting one leaves a connected graph, so connected
graphs are reached through connected intermediates) and all of its
vertices otherwise. Among them the canonical deletion vertex has minimal
f(v) = (degree, sum of neighbour degrees), then minimal h(v) = (size of the
distance-2 ball, triangles at v, edge ends inside the distance-2 ball, size
of the distance-3 ball), then the highest position in the canonical
labelling. The finer h is, the fewer children tie with m and reach a
labelling. A child is kept only when m lies in the orbit of that vertex
under the child's automorphism group:

- a child in which some deletable vertex has a smaller (f, h) than m is
  dropped without a canonical labelling;
- a child in which m alone has minimal (f, h) is kept;
- otherwise the child's canonical labelling decides: m's position must be
  the highest of the tied positions or share an orbit with it.

Every class is thereby produced exactly once, from one parent class and one
neighbour set, so a level is the concatenation of the parents' children and
needs no deduplication. A level is a list of (masks, generators) pairs of
plain tuples; the order-n level, which has no children, keeps no generators.
Regular targets add only neighbour sets that hold every vertex too short of
edges to wait for a later one, and prune prefixes that cannot complete to a
k-regular graph; every induced subgraph of a k-regular graph passes that
test, so no target graph loses its chain of canonical parents.

A child is labelled only when m ties with some deletable vertex, or at
order n when the caller asks for canonical labels. Any other child keeps
the numbering it was built with: nothing downstream needs a canonical
parent, as the tests before a labelling read only the graph and the orbits
are closed in the parent's own numbering. Below order n such a child gets
its generators from its parent's, with no labelling (_stabiliser). They are
exact: deletability, f and h are invariants, so every automorphism of the
child fixes m, the one deletable vertex with the least (f, h), and
restricts to an automorphism of P that maps S = N(m) onto itself; each such
automorphism of P, extended by m -> m, is one of the child. So Aut(child)
is the setwise stabiliser of S in Aut(P), and Schreier's lemma gives
generators of it from generators of Aut(P). A caller that reads only
invariants of each class (count and the verifiers) gets the order-n
children with no ties in their built numbering as well.

Three rejections and one look-ahead come before the expensive step. Each
drops only children that a later test drops anyway, so the classes and
their order do not change:

- a neighbour set of size d0 + 1, d0 the least degree of a deletable parent
  vertex, is built only if it holds every deletable vertex of degree d0.
  One left out keeps degree d0, so a smaller f than the new vertex, and
  stays deletable (the new vertex has another neighbour), so the f test
  would drop the child;
- for a regular target, the prefix test (_regular_sizes) runs once per
  neighbour-set size, not once per set: with the forced vertices in, every
  old vertex meets its bound, and what is left depends on the size alone;
- a child is dropped when some deletable vertex has a smaller (f, h) than
  the new vertex (the f and h tests above);
- for a regular target of order n, a child of order n - 1 or n - 2 is
  dropped before its canonical labelling when none of its own children
  passes the tests that come before a labelling, this look-ahead included.
  Such a child has no descendant that reaches a labelling. At order n - 1
  the one child is the completion, in which the last vertex joins every
  vertex still short of an edge; all its vertices share one f, so it
  passes when no deletable vertex has a smaller h than the last vertex. At
  order n - 2 every neighbour set is tried, and the look-ahead stops at the
  first that passes. Each test reads only the graph, not its vertex
  numbering, so it gives the same answer on the unlabelled child as on its
  canonical form, and no generators are needed. One generator,
  _candidates, runs these tests both for the children that get labelled
  and for the look-ahead, so the two never test different things.

Work is split at most once, as in nauty's geng (res/mod). The number of
workers is first capped at the CPUs this process may use, and at 1 where
os.fork is missing, so one usable CPU never forks. Levels grow serially
until one has enough parents per worker. That level is dealt into several
strided shares per worker. The caller forks workers - 1 children, and the
caller and each child take the shares one at a time from one pipe and
grow each to order n, so a process that drew cheap parents takes more
shares. Every child is reaped before the call returns. A level of order
n - 1 is shared out only when it is large, since a small one costs less
CPU to grow in process than to fork for. As every class has one parent,
the classes do not depend on the split; canonically labelled, they are
sorted once by canonical graph6, and unlabelled they come share by share
in the order the shares were dealt.
"""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from dataclasses import dataclass
from itertools import combinations
from operator import getitem
from typing import Callable, Iterator, Sequence

from .graphs import (
    CapabilityError,
    Graph,
    _canon_masks,
    _image,
    _need_int,
    _orbit,
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
        else:
            _need_int("bound", self.bound, 0)
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


def _regular_sizes(degs: Sequence[int], n: int, k: int, sizes: range) -> list[int]:
    # The sizes in `sizes` for which a child of the order-m prefix of degrees
    # degs, its new vertex joined to every forced vertex, meets the necessary
    # conditions to complete to a k-regular graph of order n. These are: each
    # vertex still needs k - deg(u) in [0, n - m - 1] more edges, all toward
    # the rem = n - m - 1 future vertices; and of the future side's rem * k
    # edge ends, those the prefix does not take (spare) pair up among
    # themselves, so spare is even and in [0, rem * (rem - 1)]. The parent
    # met them, so a vertex lacks at most rem + 1 edges, and exactly that
    # many if forced: with the forced vertices in, every old vertex meets its
    # bound. What is left depends on the size alone: the new vertex lacks
    # k - size edges, and spare grows by 2 * size. The first vertex is the
    # one child of the empty prefix: degs [] and sizes range(1).
    rem = n - len(degs) - 1
    spare = rem * k - sum(k - d for d in degs) - k
    room = rem * (rem - 1)
    return [s for s in sizes if k - s <= rem and spare % 2 == 0 and 0 <= spare + 2 * s <= room]


_F_SHIFT = 16


def _invariants(masks: Sequence[int], degs: Sequence[int]) -> list[int]:
    # f(v) = (degree, sum of neighbour degrees), packed so that integer
    # order is tuple order (a sum of at most 19 degrees of at most 19 fits
    # below the shift). An inline bit walk, not _bits: this is in the hot path.
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
    # h(v) = (|B2(v)|, triangles at v, edge ends inside B2(v), |B3(v)|),
    # Br(v) the vertices within distance r of v, packed as f is (each field
    # is at most 380 at order 20). The first walk, over the neighbours, sees
    # each edge among them from both ends and every edge end of a vertex in
    # N[v], all inside B2(v); the second walks the rest of B2(v).
    nbrs = masks[v]
    ball = near = nbrs | 1 << v
    tri = 0
    ends = nbrs.bit_count()
    rest = nbrs
    while rest:
        low = rest & -rest
        x = masks[low.bit_length() - 1]
        ball |= x
        tri += (x & nbrs).bit_count()
        ends += x.bit_count()
        rest ^= low
    far = ball
    rest = ball ^ near
    while rest:
        low = rest & -rest
        x = masks[low.bit_length() - 1]
        ends += (x & ball).bit_count()
        far |= x
        rest ^= low
    return (
        (ball.bit_count() << _F_SHIFT | tri >> 1) << _F_SHIFT | ends
    ) << _F_SHIFT | far.bit_count()


def _least_deletable(parent: Sequence[int], degs: Sequence[int], connected: bool) -> tuple[int, int]:
    # d0, the least degree of a deletable vertex, and the mask of the
    # deletable vertices of degree d0; a graph of order >= 1 has a deletable
    # vertex (a leaf of a spanning tree), so the loop returns
    for d in sorted(set(degs)):
        low = 0
        for u, du in enumerate(degs):
            if du == d and _deletable(parent, u, connected):
                low |= 1 << u
        if low:
            return d, low


def _candidates(
    parent: Sequence[int], gens: tuple, m: int, n: int, c: DegreeConstraint
) -> Iterator[tuple[list[int], list[int]]]:
    # (masks, ties) of each child of an order-m parent that passes every
    # test before the canonical labelling (module docstring): the child's
    # masks, with the new vertex m last, and the deletable vertices tied
    # with m on (f, h). With generators, only the first neighbour set of
    # each orbit of Aut(parent) is tried; without, every one is. No vertex
    # of an order-m parent has degree m, so m caps the any mode.
    cap = m if c.bound is None else c.bound
    degs = [x.bit_count() for x in parent]
    eligible = [u for u in range(m) if degs[u] < cap]
    connected = c.connected
    regular = c.mode == MODE_REGULAR
    newm = m + 1
    # A regular target's vertex that lacks more edges than the n - m - 1
    # vertices after m can give must take one from m: the regular prefix
    # test would reject every subset without it.
    forced = 0
    if regular:
        for u in eligible:
            if cap - degs[u] > n - newm:
                forced |= 1 << u
    # A deletable vertex u of the parent stays deletable in a child unless
    # the new vertex's only neighbour is u, and gains at most one edge; so a
    # new vertex of degree above u's + 1 never has minimal f, and one of
    # degree d0 + 1 must take every deletable vertex of degree d0.
    d0, low = _least_deletable(parent, degs, connected)
    max_size = min(cap, len(eligible), d0 + 1)
    sizes = range(max(1 if connected else 0, forced.bit_count()), max_size + 1)
    if regular:
        sizes = _regular_sizes(degs, n, cap, sizes)
    if not sizes:
        # no child; many look-ahead prefixes end here, before f is computed
        return
    base = _invariants(parent, degs)
    # Neighbour sets in one orbit of Aut(parent) give isomorphic children,
    # so only the first of each orbit is tried.
    seen: set[int] = set()
    new = 1 << m
    # f in the child, from the parent's: every neighbour of u in the subset
    # gains one degree, and a vertex u in the subset gains one degree and
    # the new vertex (of degree size) as a neighbour.
    for size in sizes:
        must = forced | low if size == d0 + 1 else forced
        if must.bit_count() > size:
            continue
        pool = [u for u in eligible if not must >> u & 1]
        must_f = sum(degs[u] + 1 for u in eligible if must >> u & 1)
        bump = (1 << _F_SHIFT) + size
        for subset in combinations(pool, size - must.bit_count()):
            smask = must
            fm = (size << _F_SHIFT) + must_f
            for u in subset:
                smask |= 1 << u
                fm += degs[u] + 1
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
            ties = [u for u in ties if _deletable(masks, u, connected)]
            if ties:
                hm = _h(masks, m)
                hs = [_h(masks, u) for u in ties]
                if min(hs) < hm:
                    continue
                ties = [u for u, h in zip(ties, hs) if h == hm]
            if regular and n - 2 <= newm < n and not _has_child(masks, n, c):
                continue
            yield masks, ties


def _has_child(masks: Sequence[int], n: int, c: DegreeConstraint) -> bool:
    # whether some child of the order-m prefix masks of a regular order-n
    # target passes every test before the labelling; each test is invariant
    # under relabelling, so masks need not be canonical and no generators
    # are needed (module docstring)
    m = len(masks)
    if m < n - 1:
        return any(_candidates(masks, (), m, n, c))
    # The one child: the last vertex joins every vertex short of an edge.
    # All its vertices share one f, so it passes iff no deletable vertex has
    # a smaller h than the last vertex. The generic _candidates walk is
    # slower: median CPU seconds of 5 runs (2-core host, Python 3.11) go
    # 0.28 -> 0.35 on cubic-connected n=12 and 0.14 -> 0.16 on
    # 4-regular-connected n=10.
    full = list(masks)
    new = 0
    for u, x in enumerate(masks):
        if x.bit_count() < c.bound:
            full[u] = x | 1 << m
            new |= 1 << u
    full.append(new)
    h_last = _h(full, m)
    return not any(_h(full, u) < h_last and _deletable(full, u, c.connected) for u in range(m))


def _stabiliser(gens: tuple, s: int, m: int) -> tuple:
    # Generators of the stabiliser of the vertex set s in the group that
    # gens generate (permutations of 0..m-1), each extended to fix m.
    # Schreier's lemma: with rep[t] a product of generators that moves s to
    # t, one for each t in the orbit of s, found breadth first, the
    # permutations rep[g(t)]^-1 g rep[t] fix s and generate its stabiliser.
    # Those of tree edges are the identity; the others are kept once each.
    ident = tuple(range(m))
    rep = {s: ident}
    out = {}
    todo = [s]
    for t in todo:
        r = rep[t]
        for g in gens:
            gr = [g[x] for x in r]
            u = _image(g, t)
            if u not in rep:
                rep[u] = gr
                todo.append(u)
                continue
            inv = [0] * m
            for x, y in enumerate(rep[u]):
                inv[y] = x
            a = tuple([inv[y] for y in gr])
            if a != ident:
                out[a + (m,)] = None
    return tuple(out)


def _children(
    parent: tuple[int, ...],
    gens: tuple,
    m: int,
    n: int,
    c: DegreeConstraint,
    canonical: bool = True,
) -> list[tuple[tuple[int, ...], tuple]]:
    # (masks, generators) of the admissible children of an order-m parent
    # with generators gens that pass the orbit test, one per class (module
    # docstring); children of order n keep no generators. A child with no
    # ties passes the orbit test without a labelling, as m alone has
    # minimal (f, h); it keeps the masks it was built with, and below order
    # n its generators come from gens by _stabiliser. At order n only
    # canonical asks for its labelling.
    out = []
    last = m + 1 == n
    for masks, ties in _candidates(parent, gens, m, n, c):
        if not ties and not (last and canonical):
            out.append((tuple(masks), () if last else _stabiliser(gens, masks[m], m)))
            continue
        canon = _canon_masks(masks)
        # The canonical deletion vertex is the highest canonical position
        # among m and its ties; the child is kept iff m lies in its orbit.
        pos = canon.pos
        top = max((pos[u] for u in ties), default=-1)
        if top > pos[m] and top not in _orbit(canon.gens, pos[m], getitem):
            continue
        out.append((tuple(canon), () if last else canon.gens))
    return out


def _grow(
    level: list, m: int, stop: int, n: int, c: DegreeConstraint, canonical: bool = True
) -> list:
    # order-m (masks, generators) parents to their order-stop descendants,
    # a level at a time
    for m in range(m, stop):
        level = [
            child for masks, gens in level for child in _children(masks, gens, m, n, c, canonical)
        ]
    return level


# A level is shared out once it has this many parents per worker, about
# four per share: fewer give unevenly loaded shares, more keep more of the
# work serial. From 8 to 32 the sweep's 14 enumerations at 2 workers
# (canonical=False) on a 2-core host took 0.34 to 0.37 s wall and 0.60 to
# 0.61 s CPU, children included (medians of 10 alternating runs), within
# the host's noise; 16 sits in the middle.
_SPLIT = 16

# The split level is dealt into this many strided shares per worker, one
# share per task, so a worker that finishes early takes the next share.
# Strided shares are not equally costly: the 64 order-7 parents of
# subcubic-connected n=12 grow in 4.5 s of CPU, and 2 workers taking 2, 4
# or 8 shares each would finish after 61%, 54% or 51% of it (one share each:
# 61%). perfbench sweep_w2 on a 2-core host, medians of 5 alternating runs
# (seed 1, --seconds 10):
#
#     shares per worker     2       4       8
#     norm_item_p99_ms      1.18    1.01    0.99
#     norm_wall_s           0.397   0.372   0.357
#     norm_cpu_s            0.549   0.561   0.547
#
# 4 and 8 are within the host's noise, and the deal fixes the order of the
# unlabelled output at a given worker count, so it stays at 4.
_SHARES = 4

# A level of order n - 1 is shared out only from this many parents: it has
# one step left, and a small one costs less CPU to grow in process than to
# fork for. On a 2-core host at 2 workers, 10 alternating runs each, three
# times, any-degree n=6 (34 parents) took 9-16 ms in process against
# 11-15 ms forked, subcubic-connected n=8 (64) 18-32 ms against 17-28 ms,
# and connected max-degree-4 n=7 (78) 21-36 ms against 18-29 ms: about even
# in wall time, but 4-8 ms more CPU forked (medians). With no such floor,
# perfbench sweep_w2 (seed 1, --seconds 10, 4 alternating runs) read
# norm_cpu_s 0.571-0.611 s against 0.541-0.571 s and norm_wall_s
# 0.370-0.393 s against 0.361-0.374 s.
_LAST_SPLIT = 100


def _cpus() -> int:
    # the CPUs this process may run on, which a container or a taskset may
    # hold below the machine's count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A share index travels through the task pipe as a record of this many
# bytes, far below PIPE_BUF (at least 512), so no two readers split one.
_RECORD = 4


def _take(tasks: int, shares: list, grow: Callable[[list], list]) -> list:
    # (index, grown share) for each record read from the task pipe until it
    # is empty; every record is written before any child starts, so an
    # empty read is the end
    out = []
    while record := os.read(tasks, _RECORD):
        i = int.from_bytes(record, "little")
        out.append((i, grow(shares[i])))
    return out


def _work(tasks: int, reply: int, shares: list, grow: Callable[[list], list]) -> None:
    # The body of a forked child: take shares until the task pipe is empty,
    # then pickle the (index, grown share) pairs, or the exception that
    # stopped it and its traceback, onto the reply pipe. It never returns:
    # os._exit leaves on every path, a failed write included, with status 0
    # only once the reply is written, and runs no handler of the caller's
    # and flushes none of its buffers.
    status = 1
    try:
        try:
            data = pickle.dumps(_take(tasks, shares, grow))
        except BaseException as exc:
            data = pickle.dumps((exc, traceback.format_exc()))
        with open(reply, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _fan_out(shares: list, workers: int, grow: Callable[[list], list]) -> list:
    # grow applied to each share, the results joined in index order. The
    # caller and workers - 1 forked children take the share indices one at
    # a time from one pipe, so a process that drew cheap shares takes more;
    # each child sends its grown shares back on a pipe of its own. Every
    # child is reaped before this returns or raises, so none outlives the
    # call and RUSAGE_CHILDREN counts all of their work. A child's exception
    # is raised again here, caused by its traceback in the child; a child
    # that ends with no reply raises a RuntimeError. If the caller itself
    # fails, the children are killed.
    tasks, feed = os.pipe()
    fds = [tasks]
    running = []  # (pid, reply pipe) of the children not yet reaped
    replies = []
    try:
        # Every record is written before anything reads the pipe, so all of
        # them must fit in it: _level deals _SHARES = 4 shares per worker,
        # 16 bytes, and a Linux pipe holds 64 KiB, or 4 KiB (256 workers)
        # once the user's pipe quota is spent.
        with open(feed, "wb") as f:
            f.write(b"".join(i.to_bytes(_RECORD, "little") for i in range(len(shares))))
        for _ in range(workers - 1):
            r, w = os.pipe()
            fds.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(tasks, w, shares, grow)
            finally:
                os.close(w)
            running.append((pid, r))
        grown = dict(_take(tasks, shares, grow))
        while running:
            pid, r = running[0]
            with open(r, "rb", closefd=False) as f:
                data = f.read()
            replies.append((pid, data, os.waitpid(pid, 0)[1]))
            running.pop(0)
    finally:
        for fd in fds:
            os.close(fd)
        for pid, _ in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for pid, data, status in replies:
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"enumeration worker {pid} ended with status {code}")
        reply = pickle.loads(data)
        if isinstance(reply, tuple):
            exc, text = reply
            raise exc from RuntimeError(f"in enumeration worker {pid}:\n{text}")
        grown.update(reply)
    return [pair for i in range(len(shares)) for pair in grown[i]]


def _level(n: int, c: DegreeConstraint, workers: int, canonical: bool) -> list:
    # the order-n level of (masks, ()) pairs, in no particular order; the
    # masks are canonical only with canonical
    _need_int("n", n, 1)
    _need_int("workers", workers, 1)
    # at most one process per CPU, and the split reads the same number; with
    # no os.fork the work stays in this process
    workers = min(workers, _cpus()) if hasattr(os, "fork") else 1
    limit = _capability_limit(c)
    if n > limit:
        raise CapabilityError(
            f"enumeration for {c.mode} is supported up to n = {limit}, got {n}"
        )
    start = c.mode != MODE_REGULAR or _regular_sizes([], n, c.bound, range(1))
    level = [((0,), ())] if start else []
    m = 1
    while m < n and (
        workers == 1
        or len(level) < _SPLIT * workers
        or (m == n - 1 and len(level) < _LAST_SPLIT)
    ):
        level = _grow(level, m, m + 1, n, c, canonical)
        m += 1
    if m < n:
        k = _SHARES * workers
        level = _fan_out(
            [level[i::k] for i in range(k)],
            workers,
            lambda share: _grow(share, m, n, n, c, canonical),
        )
    return level


def enumerate_graphs(
    n: int, c: DegreeConstraint, workers: int = 1, *, canonical: bool = True
) -> list[Graph]:
    """All graphs of order n satisfying c, one per isomorphism class.

    By default each graph is canonically labelled and the list is in
    ascending canonical-graph6 order. With canonical=False a graph whose
    last vertex was kept without a labelling keeps the numbering it was
    built with, and the list is in enumeration order, which may change
    with workers; use this when only class invariants are read, and
    canonical_form for the graphs reported. workers is capped at the CPUs
    this process may use; the default output does not depend on it."""
    # Construction meets c: children of connected targets get an edge, only
    # vertices below the bound gain one, and at order n the regular prefix
    # test leaves every degree at the bound.
    graphs = [Graph(n, masks) for masks, _ in _level(n, c, workers, canonical)]
    return sorted(graphs, key=to_graph6) if canonical else graphs


def count(n: int, c: DegreeConstraint, workers: int = 1) -> int:
    """Number of isomorphism classes of order-n graphs satisfying c. As
    with enumerate_graphs(canonical=False), a graph of order n is labelled
    only where the orbit test needs its labelling."""
    return len(_level(n, c, workers, False))

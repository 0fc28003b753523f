"""Exact clustering coefficients and the closed-form maximality bounds.

Every value is exact; floats never enter the arithmetic. The global
coefficient is the mean of the local ones (vertices of degree below 2
contribute 0), not the transitivity ratio. graph_cc and the T4 kernel sum
integers over one common denominator, a least common multiple of the
binomials C(d, 2), and build a fractions.Fraction only at the boundary:
one per graph, or one for the maximum of a whole T4 scan. local_cc, cc_sum
and edge_add_delta add Fractions term by term and serve as the oracle.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, _bits, _edges_in, _need_int, _non_edges, triangles_at


def local_cc(g: Graph, u: int) -> Fraction:
    """Local clustering coefficient of u; 0 when deg(u) < 2."""
    d = g.degree(u)
    if d < 2:
        return Fraction(0)
    return Fraction(triangles_at(g, u), d * (d - 1) // 2)


def cc_sum(g: Graph, vertices: Iterable[int]) -> Fraction:
    """sigma(U): sum of local clustering coefficients over a vertex set."""
    return sum((local_cc(g, u) for u in vertices), Fraction(0))


def graph_cc(g: Graph) -> Fraction:
    """Global clustering coefficient: the mean of all local coefficients."""
    if g.n == 0:
        raise ValueError("clustering coefficient of the empty graph is undefined")
    masks = g._masks
    # (t, C(d, 2)) of every vertex u on a triangle, t = edges inside N(u)
    terms = []
    for x in masks:
        t = _edges_in(masks, x)
        if t:
            d = x.bit_count()
            terms.append((t, d * (d - 1) // 2))
    lcm = math.lcm(*{b for _, b in terms})
    return Fraction(sum(t * (lcm // b) for t, b in terms), g.n * lcm)


def edge_add_delta(g: Graph, u: int, v: int) -> Fraction:
    """C(G + uv) - C(G) for a non-adjacent pair u, v, from the local
    decomposition: each of the c common neighbors w gains one triangle and
    adds 1/C(d_w, 2); u and v each go from t/C(d, 2) to (t + c)/C(d + 1, 2),
    counted as 0 below degree 2. The sum of the changes is divided by n."""
    if u == v:
        raise ValueError(f"cannot add a loop at vertex {u}")
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    common = g.mask(u) & g.mask(v)
    c = common.bit_count()
    change = sum((Fraction(2, d * (d - 1)) for d in map(g.degree, _bits(common))), Fraction(0))
    for x in (u, v):
        d = g.degree(x)
        if d:
            change += Fraction(triangles_at(g, x) + c, d * (d + 1) // 2) - local_cc(g, x)
    return change / g.n


def _binomial_lcm(n: int) -> int:
    """L = lcm{C(d, 2) : 2 <= d <= n - 1}: n * L * edge_add_delta is an
    integer for every non-adjacent pair of every graph of order n."""
    return math.lcm(*(d * (d - 1) // 2 for d in range(2, n)))


def _scaled_deltas(masks: Sequence[int], lcm: int) -> Iterator[tuple[int, int, int]]:
    """(n * lcm * edge_add_delta(u, v), u, v) for every non-adjacent pair
    u < v in lexicographic order; lcm is _binomial_lcm(n).

    With W[w] = lcm / C(d_w, 2) and A[x] = lcm / C(d_x + 1, 2), the scaled
    delta is the sum of W over the c common neighbours plus, for x in
    {u, v}, (t_x + c) * A[x] - t_x * W[x]; every term is an integer."""
    degs = [x.bit_count() for x in masks]
    tris = [_edges_in(masks, x) for x in masks]
    w = [lcm // (d * (d - 1) // 2) if d > 1 else 0 for d in degs]
    # d + 1 <= n - 1 at an endpoint of a non-edge, so C(d + 1, 2) divides
    # lcm wherever a is read; a vertex of degree 0 has t = c = 0.
    a = [lcm // (d * (d + 1) // 2) if d else 0 for d in degs]
    tw = [t * x for t, x in zip(tris, w)]
    for u, v in _non_edges(masks):
        common = masks[u] & masks[v]
        c = common.bit_count()
        change = (tris[u] + c) * a[u] - tw[u] + (tris[v] + c) * a[v] - tw[v]
        while common:
            low = common & -common
            change += w[low.bit_length() - 1]
            common ^= low
        yield change, u, v


# -- closed-form bounds -------------------------------------------------------


def theorem1_bound(k: int) -> Fraction:
    """Max clustering coefficient of a connected k-regular graph, k >= 3."""
    _need_int("k", k, 3)
    return 1 - Fraction(6, k * (k + 1))


_T2_C = {0: 12, 1: 13, 2: 14, 3: 11}


def theorem2_bound(n: int) -> Fraction:
    """Max clustering coefficient of a connected subcubic graph of order n >= 6."""
    _need_int("n", n, 6)
    return Fraction(7, 12) + Fraction(_T2_C[n % 4], 12 * n)


def theorem4_bound(n: int) -> Fraction:
    """Max increase of C from one edge addition on a graph of order n >= 3."""
    _need_int("n", n, 3)
    return 1 - Fraction(2, n) + Fraction(4, n * (n - 1))


# type of the extremal construction -> (smallest order, numerator constant c
# in C = (7n + c)/(12n)); legal orders step by 4 (one extra plain degree-3
# inner vertex per step). generators.py builds these types from this table.
_FAMILY_B = {
    (0, 0, 0): (6, 14),
    (1, 0, 0): (7, 11),
    (2, 0, 0): (8, 8),
    (0, 1, 0): (9, 13),
    (0, 0, 1): (12, 12),
    (0, 2, 0): (12, 12),
    (0, 1, 1): (15, 11),
    (0, 3, 0): (15, 11),
}


def family_b_cc(t, n: int) -> Fraction:
    """Closed-form C of the type-t extremal construction of order n.

    t is a (d, i2, i3) triple (or anything tuple-like, e.g. a GraphType).
    Orders inconsistent with the type's order formula are rejected.
    """
    key = tuple(t)
    if key not in _FAMILY_B:
        raise ValueError(f"no closed form for type {key}")
    base, c = _FAMILY_B[key]
    _need_int("n", n, base)
    if (n - base) % 4 != 0:
        raise ValueError(f"order {n} impossible for type {key}: need {base} + 4k")
    return Fraction(7 * n + c, 12 * n)


_DIGITS = 20


def decimal_str(q: Fraction) -> str:
    """Render a fraction as a decimal string with 20 significant digits
    (round-half-even). Presentation only; exact values stay fractions."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)

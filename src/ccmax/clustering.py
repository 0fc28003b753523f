"""Exact clustering coefficients and the closed-form maximality bounds.

All quantities are exact rationals (fractions.Fraction); floats never enter
the arithmetic. The global coefficient is the mean of the local ones
(vertices of degree below 2 contribute 0), not the transitivity ratio.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable

from .graphs import Graph, _bits, _need_int, triangles_at


def local_cc(g: Graph, u: int) -> Fraction:
    """Local clustering coefficient of u; 0 when deg(u) < 2."""
    # No helper shared with edge_add_delta: one cost graph_cc a call per vertex.
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
    return cc_sum(g, range(g.n)) / g.n


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
    # local_cc's terms inline: a shared helper measured slower in graph_cc.
    for x in (u, v):
        d = g.degree(x)
        if d:
            change += Fraction(triangles_at(g, x) + c, d * (d + 1) // 2) - local_cc(g, x)
    return change / g.n


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

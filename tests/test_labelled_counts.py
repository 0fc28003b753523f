"""Labelled counts of the max-degree and regular modes, an oracle
independent of the enumerator, against the enumerated classes.

By orbit-stabiliser a class G stands for n!/|Aut(G)| labelled graphs, so the
enumeration of a constraint is complete and free of repeats only if these
sum over its classes to the number of labelled graphs that meet it. That
number comes from the exponential formula (Harary and Palmer, Graphical
Enumeration, 1973): labelled_count counts the graphs with every degree at
most (or exactly) k by a recursion on the multiset of residual degrees, and
connected_count takes away the graphs whose vertex 1 lies in a smaller
component, c_n = a_n - sum_{j<n} C(n-1, j-1) c_j a_{n-j}. Both constraints
are closed under taking components, so the formula holds for each.
"""

from functools import cache
from math import comb, factorial

import pytest

from ccmax import DegreeConstraint, enumerate_graphs
from ccmax.graphs import _canon_masks

from test_automorphisms import generated_group


@cache
def _residual(counts: tuple[int, ...], exact: bool) -> int:
    # counts[r - 1] vertices may (or, if exact, must) still gain r edges, for
    # r = 1..k; vertices with nothing left to gain take no further part.
    # Vertex v, one of largest residual r, picks its neighbours: t of the
    # counts[c - 1] vertices of residual c for each c, in C(counts[c-1], t)
    # ways, each of which then has one edge less to gain.
    top = max((r for r, m in enumerate(counts, 1) if m), default=0)
    if top == 0:
        return 1
    rest = list(counts)
    rest[top - 1] -= 1
    total = 0

    def choose(c: int, left: int, ways: int, after: list[int]) -> None:
        nonlocal total
        if c == 0:
            if left == 0 or not exact:
                total += ways * _residual(tuple(after[1:]), exact)
            return
        for t in range(min(left, rest[c - 1]) + 1):
            nxt = after[:]
            nxt[c] -= t
            nxt[c - 1] += t
            choose(c - 1, left - t, ways * comb(rest[c - 1], t), nxt)

    choose(len(rest), top, 1, [0, *rest])
    return total


def labelled_count(n: int, k: int, exact: bool) -> int:
    """Labelled graphs on n vertices with every degree <= k, or = k if exact."""
    if k == 0 or n == 0:
        return 1
    return _residual((0,) * (k - 1) + (n,), exact)


def connected_count(n: int, k: int, exact: bool) -> int:
    """Connected labelled graphs on n >= 1 vertices, degrees as in labelled_count."""
    c = {}
    for m in range(1, n + 1):
        c[m] = labelled_count(m, k, exact) - sum(
            comb(m - 1, j - 1) * c[j] * labelled_count(m - j, k, exact) for j in range(1, m)
        )
    return c[n]


def test_cubic_counts():
    # A002829: labelled cubic graphs on 4, 6, 8 and 10 vertices
    assert [labelled_count(n, 3, True) for n in (4, 6, 8, 10)] == [1, 70, 19355, 11180820]
    assert [labelled_count(n, 3, True) for n in (1, 2, 3, 5, 7)] == [0] * 5


def test_subcubic_connected_counts():
    # 472 = the 728 connected graphs on 5 vertices less the 256 that have a
    # vertex of degree 4
    assert [connected_count(n, 3, False) for n in range(1, 6)] == [1, 1, 4, 38, 472]


def test_without_a_binding_bound():
    # a bound of n - 1 or more binds nothing: every labelled graph, and the
    # connected ones (A001187)
    assert [labelled_count(n, 7, False) for n in range(9)] == [2 ** comb(n, 2) for n in range(9)]
    assert [connected_count(n, 7, False) for n in range(1, 9)] == [
        1, 1, 4, 38, 728, 26704, 1866256, 251548592
    ]


def test_values_at_the_caps():
    assert connected_count(11, 3, False) == 137_897_726_400
    assert connected_count(12, 3, False) == 6_031_051_765_200
    # past today's caps: cubic n = 14, 4-regular n = 11 and 5-regular n = 12
    assert connected_count(14, 3, True) == 19_491_385_914_000
    assert connected_count(11, 4, True) == 5_188_446_900
    assert connected_count(12, 5, True) == 2_977_635_137_400


# (mode, k, connected, cap): each constraint is compared at every order up to
# its enumeration cap. |Aut| comes from listing the whole group, so these are
# the constraints whose groups stay small enough to list, the largest being
# the 8! of the empty graph under max_degree(4) at its cap of 8. A
# constraint that allows the empty graph up to a cap of 12 would need 12!.
CONSTRAINTS = [
    ("max_degree", 3, True, 12),
    ("regular", 3, True, 12),
    ("regular", 4, True, 10),
    ("max_degree", 4, True, 8),
    ("max_degree", 4, False, 8),
    ("regular", 5, True, 8),
]


@pytest.mark.parametrize(
    "mode,k,connected,n",
    [
        pytest.param(
            mode, k, connected, n, id=f"{mode}{k}-{'connected' if connected else 'all'}-{n}"
        )
        for mode, k, connected, cap in CONSTRAINTS
        for n in range(1, cap + 1)
    ],
)
def test_enumeration_matches_labelled_count(mode, k, connected, n):
    c = getattr(DegreeConstraint, mode)(k, connected)
    labelled = sum(
        factorial(n) // len(generated_group(_canon_masks(g._masks).gens, n))
        for g in enumerate_graphs(n, c)
    )
    exact = mode == "regular"
    assert labelled == (connected_count if connected else labelled_count)(n, k, exact)

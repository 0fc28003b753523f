"""Canonical-deletion enumeration against the frozen level-dedupe enumerator.

The enumeration order and every class in it are part of the output
contract (reports list graphs in that order), so the library must return
exactly the masks of the reference in enum_reference.py, in the same order,
for every mode, connected and not.
"""

import pytest

from ccmax import DegreeConstraint, enumerate_graphs

import enum_reference

# (constraint factory, largest order checked); each is checked connected and
# not, at every order from 1 up.
MODES = [
    ("any", DegreeConstraint.any_degree, 6),
    ("max_degree-2", lambda connected: DegreeConstraint.max_degree(2, connected), 9),
    ("max_degree-3", lambda connected: DegreeConstraint.max_degree(3, connected), 9),
    ("regular-0", lambda connected: DegreeConstraint.regular(0, connected), 9),
    ("regular-2", lambda connected: DegreeConstraint.regular(2, connected), 9),
    ("cubic", lambda connected: DegreeConstraint.regular(3, connected), 10),
    ("regular-4", lambda connected: DegreeConstraint.regular(4, connected), 9),
]


@pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
@pytest.mark.parametrize("make,top", [pytest.param(f, t, id=name) for name, f, t in MODES])
def test_same_masks_same_order(make, top, connected):
    c = make(connected)
    for n in range(1, top + 1):
        got = [g._masks for g in enumerate_graphs(n, c)]
        want = [g._masks for g in enum_reference.enumerate_graphs(n, c)]
        assert got == want, (n, c)

"""Exhaustive verification of the four extremal statements.

Each verifier enumerates the full isomorphism-class universe for its
hypothesis, computes exact clustering values, and compares the maximum and
the set of equality cases against the closed-form prediction. Reports are
pure values: rerunning a verifier reproduces the report byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .clustering import (
    _binomial_lcm,
    _scaled_deltas,
    decimal_str,
    edge_add_delta,
    graph_cc,
    theorem1_bound,
    theorem2_bound,
    theorem4_bound,
)
from .enumeration import DegreeConstraint, enumerate_graphs
from .generators import caveman, caveman_rewired, complete_bipartite, g_kl
from .graphs import (
    Graph, _edges_in, _is_int, _need_int, _non_edges, canonical_form, canonical_graph, to_graph6
)
from .structure import claim_checks, is_in_b, is_in_b_literal


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one verification run.

    bound / max_found are exact; extremal_graphs is the argmax set as
    canonical graph6 (the enumerators emit canonically labeled graphs).
    attained means max_found equals the bound; characterization_ok means
    the equality cases match the predicted extremal set exactly. For the
    caveman comparison, bound holds the baseline value, max_found the
    rewired value, and characterization_ok the strict increase.
    """

    theorem_id: str
    parameters: dict
    bound: Fraction
    max_found: Fraction
    extremal_graphs: tuple[str, ...]
    attained: bool
    characterization_ok: bool
    graphs_examined: int
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {f.name: _jsonify(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        params = ", ".join(f"{k}={v}" for k, v in self.parameters.items())
        return [
            f"theorem {self.theorem_id} ({params})",
            f"graphs examined: {self.graphs_examined}",
            f"bound:     {self.bound} = {decimal_str(self.bound)}",
            f"max found: {self.max_found} = {decimal_str(self.max_found)}"
            + (" (attained)" if self.attained else " (not attained)"),
            f"extremal graphs: {' '.join(self.extremal_graphs) or '(none)'}",
            f"characterization: {'ok' if self.characterization_ok else 'MISMATCH'}",
            "PASS" if self.passed else "FAIL",
        ]


def _jsonify(value):
    if isinstance(value, Fraction):
        return {
            "num": str(value.numerator),
            "den": str(value.denominator),
            "decimal": decimal_str(value),
        }
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _scan(pairs, bound: Fraction):
    """The maximum over a stream of (value, key) pairs (0 when it is empty),
    the sorted keys that attain it, the sorted keys whose value equals
    bound, and the number of pairs. A key starts with the index of the graph
    it names in an enumeration, which lists graphs in canonical graph6 order,
    so keys sort as the graph6 strings would."""
    best = None
    argmax: list = []
    equality: list = []
    count = 0
    for value, key in pairs:
        count += 1
        if best is None or value > best:
            best, argmax = value, [key]
        elif value == best:
            argmax.append(key)
        if value == bound:
            equality.append(key)
    best = Fraction(0) if best is None else best
    return best, sorted(argmax), sorted(equality), count


def _report(
    theorem_id, parameters, bound, max_found, extremal, equality, predicted, examined, details
) -> TheoremReport:
    """The verdict of an exhaustive check over examined graphs, from the
    maximum, the graph6 of its graphs and the equality cases: the maximum
    stays at or below the bound, and the equality cases are exactly the
    predicted ones."""
    characterization_ok = equality == predicted
    return TheoremReport(
        theorem_id=theorem_id,
        parameters=parameters,
        bound=bound,
        max_found=max_found,
        extremal_graphs=tuple(sorted(set(extremal))),
        attained=max_found == bound,
        characterization_ok=characterization_ok,
        graphs_examined=examined,
        passed=max_found <= bound and characterization_ok,
        details=details,
    )


def _added_edges(graphs: list[Graph], lcm: int):
    # (n * lcm * delta, (index, (u, v))) for every graph and non-adjacent pair
    for i, g in enumerate(graphs):
        for value, u, v in _scaled_deltas(g._masks, lcm):
            yield value, (i, (u, v))


def _verify_cc(theorem_id, parameters, bound, graphs, predicted, details) -> TheoremReport:
    """The verdict on C over graphs, an enumeration: the maximum stays at or
    below bound and the graphs at the bound, as canonical graph6, are
    exactly predicted. details gains the equality graphs and the claim
    checks of each maximizer."""
    values = ((graph_cc(g), i) for i, g in enumerate(graphs))
    max_found, argmax, equality, _ = _scan(values, bound)
    g6 = {i: to_graph6(graphs[i]) for i in {*argmax, *equality}}
    equality = [g6[i] for i in equality]
    details["equality_graphs"] = equality
    details["maximizer_claims"] = {g6[i]: claim_checks(graphs[i]) for i in argmax}
    extremal = [g6[i] for i in argmax]
    return _report(
        theorem_id, parameters, bound, max_found, extremal, equality, predicted, len(graphs), details
    )


def verify_theorem1(k: int, n: int, workers: int = 1) -> TheoremReport:
    """Exhaustive check of the k-regular bound at order n.

    Enumerates every connected k-regular graph of order n; the maximum of C
    must stay at or below 1 - 6/(k(k+1)), with equality exactly when (k+1)
    divides n, and then only at G(k, n/(k+1)).
    """
    _need_int("k", k, 3)
    if not _is_int(n) or n < k + 2:
        raise ValueError(f"need an int n >= k + 2, got n={n!r}")
    if n * k % 2:
        raise ValueError(f"need n*k even (no {k}-regular graph has odd order), got n={n}")
    graphs = enumerate_graphs(n, DegreeConstraint.regular(k, connected=True), workers)
    predicted = [canonical_form(g_kl(k, n // (k + 1))).g6] if n % (k + 1) == 0 else []
    details = {"predicted_extremal": predicted}
    return _verify_cc("T1", {"k": k, "n": n}, theorem1_bound(k), graphs, predicted, details)


def _cycles_are_triangles(g: Graph) -> bool:
    # Whether a connected g has as many triangles as independent cycles,
    # m - n + 1: every graph whose blocks are all K2, K3 or diamond does, as
    # each such block has 0, 1 or 2 of both.
    masks = g._masks
    return sum(_edges_in(masks, x) for x in masks) == 3 * (g.m - g.n + 1)


def verify_theorem23(n: int, workers: int = 1) -> TheoremReport:
    """Exhaustive check of the subcubic bound and its characterization.

    Enumerates every connected graph of order n with maximum degree 3;
    the maximum of C must stay at or below the order-n bound, and the
    equality cases must be exactly the order-n members of the family B.
    """
    _need_int("n", n, 6)
    graphs = enumerate_graphs(n, DegreeConstraint.max_degree(3, connected=True), workers)
    # B is contained in literal B, so is_in_b runs on the literal members
    # only; the triangle gate spares most graphs their block decomposition
    literal = [
        (to_graph6(g), g) for g in graphs if _cycles_are_triangles(g) and is_in_b_literal(g)
    ]
    b_members = sorted(s for s, g in literal if is_in_b(g))
    details = {
        "b_members": b_members,
        "b_members_literal_type_reading": sorted(s for s, _ in literal),
    }
    return _verify_cc("T3", {"n": n}, theorem2_bound(n), graphs, b_members, details)


def verify_theorem4(n: int, workers: int = 1) -> TheoremReport:
    """Exhaustive check of the single-edge increase bound.

    Ranges over every graph of order n (connected or not) and every
    non-adjacent pair; the delta must stay at or below the bound, with
    equality exactly at K_{2,n-2} joining its two degree-(n-2) vertices.
    The scan is in integers (clustering._scaled_deltas); every maximising
    pair is recomputed with edge_add_delta, and a disagreement raises
    RuntimeError.
    """
    _need_int("n", n, 3)
    bound = theorem4_bound(n)
    graphs = enumerate_graphs(n, DegreeConstraint.any_degree(connected=False), workers)
    # integers over the common denominator n * lcm, and the bound over it
    lcm = _binomial_lcm(n)
    top, argmax, equality, pairs_examined = _scan(_added_edges(graphs, lcm), bound * n * lcm)
    max_found = Fraction(top, n * lcm)
    for i, (u, v) in argmax:
        exact = edge_add_delta(graphs[i], u, v)
        if exact != max_found:
            raise RuntimeError(
                f"integer delta {max_found} disagrees with edge_add_delta {exact} "
                f"at {to_graph6(graphs[i])} {(u, v)}"
            )
    rep = canonical_graph(complete_bipartite(2, n - 2))
    k2_rep = to_graph6(rep)
    if rep not in graphs:
        raise ValueError(
            f"the order-{n} enumeration lacks K_{{2,{n - 2}}} (canonical graph6 {k2_rep})"
        )
    predicted = [
        (k2_rep, (u, v))
        for u, v in _non_edges(rep._masks)
        if rep.degree(u) == n - 2 and rep.degree(v) == n - 2
    ]
    g6 = {i: to_graph6(graphs[i]) for i, _ in argmax + equality}
    argmax = [(g6[i], uv) for i, uv in argmax]
    equality = [(g6[i], uv) for i, uv in equality]
    details = {
        "pairs_examined": pairs_examined,
        "max_pairs": argmax,
        "equality_pairs": equality,
        "predicted_pairs": predicted,
    }
    extremal = [s for s, _ in argmax]
    return _report(
        "T4", {"n": n}, bound, max_found, extremal, equality, predicted, len(graphs), details
    )


def verify_caveman_rewire(k: int, length: int) -> TheoremReport:
    """Check that the rewiring step strictly increases C."""
    before = caveman(k, length)
    after = caveman_rewired(k, length)
    c_before = graph_cc(before)
    c_after = graph_cc(after)
    increased = c_after > c_before
    return TheoremReport(
        theorem_id="caveman_rewire",
        parameters={"k": k, "l": length},
        bound=c_before,
        max_found=c_after,
        extremal_graphs=(to_graph6(after),),
        attained=c_after == c_before,
        characterization_ok=increased,
        graphs_examined=2,
        passed=increased,
        details={
            "caveman_graph6": to_graph6(before),
            "caveman_cc": c_before,
            "rewired_graph6": to_graph6(after),
            "rewired_cc": c_after,
        },
    )


# The sweep of scripts/verify_all.py, in its order: (name, run) cells where
# run(workers) returns the report and name is the stem of its golden file
# in tests/golden/. The caveman cells enumerate nothing and ignore workers.
SWEEP: tuple[tuple[str, Callable[[int], TheoremReport]], ...] = (
    *((f"T1_k{k}_n{n}", lambda w, k=k, n=n: verify_theorem1(k, n, w))
      for k, n in ((3, 6), (3, 8), (3, 10), (3, 12), (4, 10))),
    *((f"T23_n{n}", lambda w, n=n: verify_theorem23(n, w)) for n in range(6, 13)),
    *((f"T4_n{n}", lambda w, n=n: verify_theorem4(n, w)) for n in range(3, 9)),
    *((f"caveman_k{k}_l{ln}", lambda w, k=k, ln=ln: verify_caveman_rewire(k, ln))
      for k in (3, 4, 5, 6) for ln in (2, 3, 4)),
)

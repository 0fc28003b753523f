"""Verifier reports on small instances with hand-checked values."""

import json
import re
from fractions import Fraction

import pytest

import ccmax.graphs as graphs
import ccmax.harness as harness
import ccmax.structure as structure
from ccmax import (
    LEGAL_TYPES,
    DegreeConstraint,
    TheoremReport,
    canonical_form,
    complete_bipartite,
    enumerate_graphs,
    family_b,
    family_b_order,
    g_kl,
    named,
    standard_skeleton,
    theorem2_bound,
    to_graph6,
    verify_caveman_rewire,
    verify_theorem1,
    verify_theorem23,
    verify_theorem4,
)
from ccmax.structure import BlockKind, _structure


class TestTheorem1:
    def test_k3_n6(self):
        r = verify_theorem1(3, 6)
        assert r.passed and not r.attained
        assert r.bound == Fraction(1, 2)
        assert r.max_found == Fraction(1, 3)
        assert r.graphs_examined == 2
        assert r.extremal_graphs and not r.details["equality_graphs"]
        assert r.details["predicted_extremal"] == []
        assert r.characterization_ok

    def test_k3_n8(self):
        r = verify_theorem1(3, 8)
        assert r.passed and r.attained and r.characterization_ok
        assert r.max_found == Fraction(1, 2)
        assert r.graphs_examined == 5
        want = canonical_form(g_kl(3, 2)).g6
        assert r.details["equality_graphs"] == [want]
        assert r.details["predicted_extremal"] == [want]
        assert r.extremal_graphs == (want,)

    def test_parameters_recorded(self):
        r = verify_theorem1(3, 6)
        assert r.parameters == {"k": 3, "n": 6}
        assert r.theorem_id == "T1"

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_theorem1(2, 6)
        with pytest.raises(ValueError):
            verify_theorem1(3, 4)
        with pytest.raises(ValueError, match="even"):
            verify_theorem1(3, 7)
        with pytest.raises(ValueError, match="even"):
            verify_theorem1(5, 7)
        with pytest.raises(ValueError, match="int k"):
            verify_theorem1(3.0, 8)
        with pytest.raises(ValueError, match="int n >= 5"):
            verify_theorem1(3, 8.0)


class TestTheorem23:
    def test_n6(self):
        r = verify_theorem23(6)
        assert r.passed and r.attained
        assert r.theorem_id == "T3"
        assert r.bound == theorem2_bound(6) == Fraction(7, 9)
        assert r.max_found == Fraction(7, 9)
        assert r.graphs_examined == 29
        assert r.details["b_members"] == ["EtPG"]
        assert r.extremal_graphs == ("EtPG",)

    def test_n7(self):
        r = verify_theorem23(7)
        assert r.passed and r.attained
        assert r.max_found == Fraction(5, 7)
        assert r.graphs_examined == 64
        assert r.details["b_members"] == ["FIUdG"]

    def test_n8_gap(self):
        # no graph of the family exists at this order; the bound is strict
        r = verify_theorem23(8)
        assert r.passed and not r.attained
        assert r.max_found == Fraction(2, 3) < r.bound == Fraction(17, 24)
        assert r.details["b_members"] == []
        assert r.characterization_ok

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_theorem23(5)
        with pytest.raises(ValueError, match="int n >= 6"):
            verify_theorem23(6.0)

    def test_empty_universe(self, monkeypatch):
        monkeypatch.setattr(harness, "enumerate_graphs", lambda n, c, workers, canonical=True: [])
        r = verify_theorem23(6)
        assert r.graphs_examined == 0 and r.extremal_graphs == ()
        assert r.max_found == 0 and not r.attained


class TestTriangleGate:
    """verify_theorem23 tests literal-B membership only on graphs with as
    many triangles as independent cycles."""

    def test_passes_every_graph_of_legal_blocks(self):
        legal = {BlockKind.K2, BlockKind.K3, BlockKind.DIAMOND}
        passed = 0
        for n in range(6, 11):
            for g in enumerate_graphs(n, DegreeConstraint.max_degree(3, connected=True)):
                if set(_structure(g).kinds) <= legal:
                    assert harness._cycles_are_triangles(g), to_graph6(g)
                    passed += 1
        assert passed > 100

    def test_passes_family_b(self):
        # the seven types of B, and two diamonds, at every order up to 20
        members = 0
        for t in (*LEGAL_TYPES, (2, 0, 0)):
            k = 0
            while family_b_order(t, k) <= 20:
                assert harness._cycles_are_triangles(family_b(standard_skeleton(t, k))), (t, k)
                members += 1
                k += 1
        assert members == 25

    def test_stops_graphs_with_other_blocks(self):
        for name in ("cycle(6)", "K4", "path(6)"):
            g = named(name)
            assert harness._cycles_are_triangles(g) == (name == "path(6)")

    def test_one_decomposition_per_gated_graph(self, monkeypatch):
        # a graph keeps its decomposition, so each graph past the gate is
        # decomposed once by is_in_b_literal, and is_in_b and the
        # maximizers' claim_checks read it back: 338 blocks calls over
        # n = 6..10, one per gated graph (343 while claim_checks decomposed
        # each maximizer again, 624 while is_in_b did so for each literal
        # member)
        calls = []
        blocks = structure.blocks
        monkeypatch.setattr(structure, "blocks", lambda g: calls.append(g) or blocks(g))
        for n in range(6, 11):
            verify_theorem23(n)
        assert len(calls) == 338
        assert len({id(g) for g in calls}) == len(calls)  # no graph twice


class TestTheorem4:
    def test_n3(self):
        r = verify_theorem4(3)
        assert r.passed and r.attained and r.characterization_ok
        # 1 - 2/3 + 4/(3*2): adding the missing edge of P3 yields K3
        assert r.bound == 1
        assert r.graphs_examined == 4
        assert r.details["pairs_examined"] == 6

    def test_n5(self):
        r = verify_theorem4(5)
        assert r.passed
        assert r.bound == Fraction(4, 5)
        assert r.details["pairs_examined"] > 0

    def test_predicted_pair_is_missing_k2_edge(self):
        r = verify_theorem4(4)
        assert r.details["predicted_pairs"]
        g6, pair = r.details["predicted_pairs"][0]
        assert len(pair) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_theorem4(2)
        with pytest.raises(ValueError, match="int n >= 3"):
            verify_theorem4(True)
        with pytest.raises(ValueError, match="int n >= 3"):
            verify_theorem4(4.0)

    def test_missing_k2_representative(self, monkeypatch):
        rep = canonical_form(complete_bipartite(2, 3)).g6
        real = harness.enumerate_graphs

        # the verifier asks for graphs in any labelling, so K_{2,3} is
        # recognised by its canonical form, not by its own graph6
        def without_rep(n, c, workers, canonical=True):
            graphs = real(n, c, workers, canonical=canonical)
            return [g for g in graphs if canonical_form(g).g6 != rep]

        monkeypatch.setattr(harness, "enumerate_graphs", without_rep)
        with pytest.raises(ValueError, match=r"K_\{2,3\}.*" + re.escape(rep)):
            verify_theorem4(5)

    def test_maximum_cross_checked(self, monkeypatch):
        # every maximising pair of the integer scan is recomputed with the
        # Fraction path; a disagreement raises instead of reporting
        monkeypatch.setattr(harness, "edge_add_delta", lambda g, u, v: Fraction(-1))
        with pytest.raises(RuntimeError, match="disagrees with edge_add_delta -1"):
            verify_theorem4(5)


class TestCaveman:
    def test_k3_l2(self):
        r = verify_caveman_rewire(3, 2)
        assert r.passed and not r.attained
        assert r.theorem_id == "caveman_rewire"
        assert r.bound == Fraction(7, 12)
        assert r.max_found == Fraction(37, 48)
        assert r.graphs_examined == 2
        assert r.parameters == {"k": 3, "l": 2}

    def test_larger(self):
        for k, length in [(4, 2), (3, 3), (5, 4)]:
            assert verify_caveman_rewire(k, length).passed

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_caveman_rewire(1, 2)
        with pytest.raises(ValueError):
            verify_caveman_rewire(3, 1)
        with pytest.raises(ValueError, match="int k"):
            verify_caveman_rewire(3.0, 2)
        with pytest.raises(ValueError, match="int l"):
            verify_caveman_rewire(3, 2.0)


class TestReportShape:
    def test_json_round_trip(self):
        r = verify_theorem1(3, 6)
        data = json.loads(r.to_json())
        assert data["theorem_id"] == "T1"
        assert data["passed"] is True
        # num/den travel as strings so consumers with 53-bit ints stay exact
        assert data["bound"] == {
            "num": "1",
            "den": "2",
            "decimal": "0.5",
        }
        assert data["max_found"]["num"] == "1"
        assert data["max_found"]["den"] == "3"

    def test_json_dict_keys(self):
        d = verify_caveman_rewire(3, 2).to_json_dict()
        for key in (
            "theorem_id",
            "parameters",
            "bound",
            "max_found",
            "extremal_graphs",
            "attained",
            "characterization_ok",
            "graphs_examined",
            "passed",
            "details",
        ):
            assert key in d

    def test_summary_lines(self):
        lines = verify_theorem1(3, 8).summary_lines()
        text = "\n".join(lines)
        assert "T1" in text and "PASS" in text

    def test_reports_deterministic(self):
        a = verify_theorem23(6).to_json()
        b = verify_theorem23(6).to_json()
        assert a == b

    def test_frozen(self):
        r = verify_caveman_rewire(3, 2)
        with pytest.raises(AttributeError):
            r.passed = False

    def test_workers_agree(self):
        a = verify_theorem1(3, 8, workers=1).to_json()
        b = verify_theorem1(3, 8, workers=2).to_json()
        assert a == b


@pytest.mark.parametrize(
    "name, replacement, verify, characterization_ok",
    [
        ("theorem1_bound", lambda k: Fraction(1, 4), lambda: verify_theorem1(3, 6), True),
        ("g_kl", lambda k, length: complete_bipartite(4, 4), lambda: verify_theorem1(3, 8), False),
        ("is_in_b", lambda g: False, lambda: verify_theorem23(6), False),
        ("theorem4_bound", lambda n: Fraction(1, 2), lambda: verify_theorem4(5), False),
    ],
    ids=["T1-bound", "T1-characterization", "T23-membership", "T4-bound"],
)
def test_failing_verdict(monkeypatch, name, replacement, verify, characterization_ok):
    monkeypatch.setattr(harness, name, replacement)
    r = verify()
    assert r.passed is False
    assert r.characterization_ok is characterization_ok


@pytest.mark.parametrize(
    "verify, generated",
    [
        (lambda: verify_theorem1(3, 8), 1),
        (lambda: verify_theorem23(9), 0),
        (lambda: verify_theorem4(6), 1),
    ],
    ids=["T1-G(3,2)", "T23", "T4-K_{2,4}"],
)
def test_each_enumerated_graph_labelled_once(monkeypatch, verify, generated):
    # canonical_form, canonical_graph and _canon_masks all run one search,
    # _canonical_masks. Once the enumeration has returned, each search is
    # for a distinct enumerated graph, known by its masks object, or for a
    # generated graph: G(3, 2) in T1, the K_{2,4} representative in T4.
    index = {}
    real_enumerate = harness.enumerate_graphs

    def enumerate_then_count(*args, **kwargs):
        out = real_enumerate(*args, **kwargs)
        index.update((id(g._masks), i) for i, g in enumerate(out))
        return out

    searched = []
    real_search = graphs._canonical_masks

    def search(masks):
        if index:
            searched.append(index.get(id(masks)))
        return real_search(masks)

    monkeypatch.setattr(harness, "enumerate_graphs", enumerate_then_count)
    monkeypatch.setattr(graphs, "_canonical_masks", search)
    r = verify()
    labelled = [i for i in searched if i is not None]
    assert len(searched) - generated == len(labelled) == len(set(labelled))
    assert len(labelled) >= len(r.extremal_graphs) > 0

"""The canonical search on one-colour and highly symmetric graphs.

Refinement leaves a regular graph as one colour class, so these are the
searches that the start-vertex order and the pruning of start vertices by
the automorphisms met so far act on. Both may change only which optimal leaf
is found: the masks must equal the frozen reference's, and the recorded
generators must still generate the whole automorphism group.
"""

import random
from math import comb, factorial

import pytest

from ccmax import DegreeConstraint, enumerate_graphs, from_edges, is_connected
from ccmax.enumeration import _capability_limit
from ccmax.graphs import _canon_masks

from canon_reference import canon_masks as reference_canon_masks
from conftest import random_cubic, relabel
from test_automorphisms import connected_labelled, generated_group

REGULAR = [
    pytest.param(k, n, id=f"{k}-regular-{n}")
    for k, orders in ((3, range(4, 13, 2)), (4, range(5, 11)))
    for n in orders
]


@pytest.mark.parametrize("k,n", REGULAR)
def test_connected_regular_classes_match_reference(k, n):
    rng = random.Random(f"{k}:{n}")
    classes = enumerate_graphs(n, DegreeConstraint.regular(k, connected=True))
    assert classes
    for g in classes:
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            masks = relabel(g, perm)._masks
            assert _canon_masks(masks) == reference_canon_masks(masks, n), masks


def _symmetric_regular_graphs(nx):
    named = {
        "petersen": nx.petersen_graph(),
        "moebius_kantor": nx.LCF_graph(16, [5, -5], 8),
        "heawood": nx.heawood_graph(),
        "pappus": nx.pappus_graph(),
        "desargues": nx.desargues_graph(),
        "dodecahedron": nx.dodecahedral_graph(),
        "q4": nx.hypercube_graph(4),
    }
    out = {}
    for name, h in named.items():
        h = nx.convert_node_labels_to_integers(h)
        out[name] = from_edges(h.number_of_nodes(), h.edges())
    rng = random.Random(1416)
    for i in range(20):
        out[f"random_cubic_{i}"] = random_cubic(rng, rng.choice(range(14, 21, 2)))
    return out


def test_group_order_equals_networkx_on_symmetric_regular_graphs():
    nx = pytest.importorskip("networkx")
    for name, g in _symmetric_regular_graphs(nx).items():
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        want = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert len(generated_group(_canon_masks(g._masks).gens, g.n)) == want, name


def test_labelled_count_identity_at_the_any_degree_cap():
    # One enumeration for both sums: every class stands for n!/|Aut| labelled
    # graphs, so the classes sum to 2^C(n,2) and the connected ones to c_n.
    n = _capability_limit(DegreeConstraint.any_degree())
    assert n == 8
    total = connected = 0
    classes = enumerate_graphs(n, DegreeConstraint.any_degree())
    assert len(classes) == 12346
    for g in classes:
        labelled = factorial(n) // len(generated_group(_canon_masks(g._masks).gens, n))
        total += labelled
        if is_connected(g):
            connected += labelled
    assert total == 2 ** comb(n, 2)
    assert connected == connected_labelled(n)

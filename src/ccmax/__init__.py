"""Exact clustering coefficients, extremal graph families, and exhaustive
small-order verification of their maximality bounds."""

from .clustering import (
    cc_sum,
    decimal_str,
    edge_add_delta,
    family_b_cc,
    graph_cc,
    local_cc,
    theorem1_bound,
    theorem2_bound,
    theorem4_bound,
)
from .enumeration import DegreeConstraint, count, enumerate_graphs
from .generators import (
    BSkeleton,
    caveman,
    caveman_rewired,
    complete_bipartite,
    complete_minus_edge,
    family_b,
    family_b_order,
    g_kl,
    named,
    skeleton_from_dict,
    standard_skeleton,
)
from .graphs import (
    CanonicalForm,
    CapabilityError,
    Graph,
    Graph6ParseError,
    canonical_form,
    canonical_graph,
    edges_within,
    from_edges,
    is_connected,
    parse_graph6,
    to_graph6,
    triangles_at,
)
from .harness import (
    TheoremReport,
    verify_caveman_rewire,
    verify_theorem1,
    verify_theorem23,
    verify_theorem4,
)
from .structure import (
    BlockDecomposition,
    BlockKind,
    GraphType,
    LEGAL_TYPES,
    blocks,
    claim_checks,
    classify_block,
    graph_type,
    is_in_b,
    is_in_b0,
    is_in_b_literal,
    s_set,
    v_partition,
)

__version__ = "0.1.0"

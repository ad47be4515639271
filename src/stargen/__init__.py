"""Toolkit for m-step competition graphs of digraphs with sources:
computation, star-generating classification, enumeration, and exhaustive
desk-scale verification of the structural results they satisfy.
"""

from .classify import (
    ClassificationReport,
    Verdict,
    check_no_common_prey_functional,
    classify_components,
    classify_star_generating,
    is_disjoint_cycle_union,
)
from .competition import (
    Graph,
    Star,
    StarDecomposition,
    StarDecompositionFailure,
    competition_graph,
    components,
    graph_from_edges,
    is_triangle_free,
    star_decomposition,
)
from .digraph import (
    Digraph,
    InputError,
    compose,
    from_arc_list,
    has_min_outdegree_one,
    induced_subdigraph,
    m_step_digraph,
    parse_edge_list,
    sources,
    step_neighbors,
    weak_components,
)
from .generate import (
    all_digraphs,
    are_isomorphic,
    canonical_form,
    digraph_at,
    digraph_space_size,
    enumerate_single_source_star_generating,
    figure_digraphs,
    figure_labels,
    lemma_kl_digraph,
    partitions,
    star_generating_from_partition,
)
from .verify import (
    CATALOG,
    VerificationReport,
    replay_counterexample,
    verify_claims,
)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ClassificationReport",
    "Digraph",
    "Graph",
    "InputError",
    "Star",
    "StarDecomposition",
    "StarDecompositionFailure",
    "Verdict",
    "VerificationReport",
    "all_digraphs",
    "are_isomorphic",
    "canonical_form",
    "check_no_common_prey_functional",
    "classify_components",
    "classify_star_generating",
    "competition_graph",
    "components",
    "compose",
    "digraph_at",
    "digraph_space_size",
    "enumerate_single_source_star_generating",
    "figure_digraphs",
    "figure_labels",
    "from_arc_list",
    "graph_from_edges",
    "has_min_outdegree_one",
    "induced_subdigraph",
    "is_disjoint_cycle_union",
    "is_triangle_free",
    "lemma_kl_digraph",
    "m_step_digraph",
    "parse_edge_list",
    "partitions",
    "replay_counterexample",
    "sources",
    "star_decomposition",
    "star_generating_from_partition",
    "step_neighbors",
    "verify_claims",
    "weak_components",
]

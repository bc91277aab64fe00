"""Exact inference for Bayesian networks with tree-structured CPTs.

Tree CPTs make regularities explicit: once some parents take particular
values, other parents may stop mattering.  This package detects those
context-specific regularities structurally and turns them into savings in
three ways: arcs that a context renders vacuous are deleted before
separation tests, nodes with skewed trees are decomposed through
deterministic multiplexers into smaller families, and loop cutsets become
trees whose branches instantiate only the variables that still cut loops
in their context.  Brute-force engines ship alongside so every shortcut
can be checked numerically.
"""

from .csi import (
    ContextNetwork,
    context_network,
    csi_separated,
    d_separated,
    instantiate_family,
    reduce_network,
    reduce_tree,
    vacuous_parents,
)
from .cutset import (
    EMPTY,
    CutsetNode,
    CutsetTree,
    EmptyLeaf,
    arc_deletion_score,
    best_cut_variable,
    branch_contexts,
    build_conditional_cutset,
    count_branches,
    cutset_variables,
    expected_parents,
    flat_cutset,
    rank_variables,
    weight,
)
from .inference import (
    ImpossibleEvidenceError,
    InferenceResult,
    NotSinglyConnectedError,
    Query,
    cutset_infer,
    joint_probability,
    query_enumerate,
    solve_singly_connected,
    variable_elimination,
)
from .model import (
    Context,
    CptTable,
    CptTree,
    Distribution,
    Leaf,
    Network,
    NetworkFormatError,
    NetworkSemanticsError,
    Node,
    NodeSpec,
    Variable,
    as_tree,
    format_context,
    network_from_json,
    network_to_json,
    parse_context,
    parse_network,
    serialize_network,
    tree_size,
    tree_tested_vars,
    validate,
)
from .transform import (
    CliqueReport,
    DecompositionReport,
    clique_report,
    decompose_network,
    is_full_tree,
)

__version__ = "0.1.0"

__all__ = [
    "CliqueReport",
    "Context",
    "ContextNetwork",
    "CptTable",
    "CptTree",
    "CutsetNode",
    "CutsetTree",
    "DecompositionReport",
    "Distribution",
    "EMPTY",
    "EmptyLeaf",
    "ImpossibleEvidenceError",
    "InferenceResult",
    "Leaf",
    "Network",
    "NetworkFormatError",
    "NetworkSemanticsError",
    "Node",
    "NodeSpec",
    "NotSinglyConnectedError",
    "Query",
    "Variable",
    "arc_deletion_score",
    "as_tree",
    "best_cut_variable",
    "branch_contexts",
    "build_conditional_cutset",
    "clique_report",
    "context_network",
    "count_branches",
    "csi_separated",
    "cutset_infer",
    "cutset_variables",
    "d_separated",
    "decompose_network",
    "expected_parents",
    "flat_cutset",
    "format_context",
    "instantiate_family",
    "is_full_tree",
    "joint_probability",
    "network_from_json",
    "network_to_json",
    "parse_context",
    "parse_network",
    "query_enumerate",
    "rank_variables",
    "reduce_network",
    "reduce_tree",
    "serialize_network",
    "solve_singly_connected",
    "tree_size",
    "tree_tested_vars",
    "validate",
    "variable_elimination",
    "vacuous_parents",
    "weight",
    "__version__",
]

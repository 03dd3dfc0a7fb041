"""The paper's primary contribution: DGGT and its optimizations."""

from repro.core.cgt import CGT
from repro.core.dggt import DggtConfig, DggtEngine
from repro.core.dynamic_graph import VIRTUAL, InternedDynamicGraph
from repro.core.expression import (
    Expr,
    cgt_to_expression,
    direct_api_children,
    normalize_codelet,
    parse_expression,
    validate_expression,
)
from repro.core.grammar_pruning import (
    combination_conflicts,
    conflict_pairs_for,
)
from repro.core.orphan import candidate_governors, relocation_variants
from repro.core.size_pruning import exact_tree_cost

__all__ = [
    "CGT",
    "DggtEngine",
    "DggtConfig",
    "InternedDynamicGraph",
    "VIRTUAL",
    "Expr",
    "cgt_to_expression",
    "parse_expression",
    "normalize_codelet",
    "validate_expression",
    "direct_api_children",
    "conflict_pairs_for",
    "combination_conflicts",
    "relocation_variants",
    "candidate_governors",
    "exact_tree_cost",
]

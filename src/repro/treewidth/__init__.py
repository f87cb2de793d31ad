"""Treewidth: decompositions, exact solver, heuristics, bounds."""

from repro.treewidth.bounds import (
    clique_lower_bound,
    degeneracy,
    max_clique_size,
    mmd_lower_bound,
    treewidth_lower_bound,
)
from repro.treewidth.decomposition import (
    TreeDecomposition,
    decomposition_from_elimination_ordering,
    ordering_width,
    trivial_decomposition,
)
from repro.treewidth.exact import (
    is_treewidth_at_most,
    optimal_tree_decomposition,
    treewidth,
    treewidth_with_ordering,
)
from repro.treewidth.heuristics import (
    heuristic_decomposition,
    heuristic_treewidth_upper_bound,
    min_degree_ordering,
    min_fill_ordering,
)
from repro.treewidth.subset_dp import treewidth_subset_dp

__all__ = [
    "TreeDecomposition",
    "clique_lower_bound",
    "decomposition_from_elimination_ordering",
    "degeneracy",
    "heuristic_decomposition",
    "heuristic_treewidth_upper_bound",
    "is_treewidth_at_most",
    "max_clique_size",
    "min_degree_ordering",
    "min_fill_ordering",
    "mmd_lower_bound",
    "optimal_tree_decomposition",
    "ordering_width",
    "treewidth",
    "treewidth_lower_bound",
    "treewidth_subset_dp",
    "treewidth_with_ordering",
    "trivial_decomposition",
]

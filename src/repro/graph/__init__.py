"""Graph substrate used by the filtered-graph and DBHT algorithms.

This package provides the data structures and graph algorithms the paper's
system depends on:

* validation of dense similarity / dissimilarity matrices
  (:mod:`repro.graph.matrix`),
* an adjacency-list weighted graph for construction
  (:mod:`repro.graph.weighted_graph`) and its frozen CSR form for
  vectorised consumption (:mod:`repro.graph.csr`),
* all-pairs shortest paths by a cell-sparse push frontier on the CSR
  graph (:mod:`repro.graph.shortest_paths`),
* breadth-first search and connected components
  (:mod:`repro.graph.traversal`),
* a from-scratch Left-Right planarity test used by the PMFG baseline
  (:mod:`repro.graph.planarity`),
* triangular-face bookkeeping shared by TMFG construction
  (:mod:`repro.graph.faces`).
"""

from repro.graph.csr import CSRGraph
from repro.graph.faces import Triangle, triangle_key
from repro.graph.matrix import (
    correlation_like,
    validate_dissimilarity_matrix,
    validate_similarity_matrix,
)
from repro.graph.planarity import is_planar
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.traversal import bfs_order, connected_components
from repro.graph.weighted_graph import WeightedGraph

__all__ = [
    "CSRGraph",
    "Triangle",
    "triangle_key",
    "correlation_like",
    "validate_dissimilarity_matrix",
    "validate_similarity_matrix",
    "is_planar",
    "all_pairs_shortest_paths",
    "bfs_order",
    "connected_components",
    "WeightedGraph",
]

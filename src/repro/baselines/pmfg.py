"""Planar Maximally Filtered Graph (PMFG) construction.

The PMFG (Tumminello et al., 2005) is the paper's quality reference: edges
are considered in decreasing weight order and an edge is kept iff adding it
keeps the graph planar.  The resulting maximal planar graph has exactly
``3n - 6`` edges.  Planarity is checked with the from-scratch Left-Right
test in :mod:`repro.graph.planarity`; this makes PMFG construction orders of
magnitude slower than the TMFG, exactly as in the paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph.matrix import validate_similarity_matrix
from repro.graph.planarity import is_planar
from repro.graph.weighted_graph import WeightedGraph


@dataclass
class PMFGResult:
    """Output of PMFG construction."""

    graph: WeightedGraph
    edges: List[Tuple[int, int]]
    candidates_tested: int

    def edge_weight_sum(self) -> float:
        return self.graph.edge_weight_sum()


def construct_pmfg(similarity: np.ndarray) -> PMFGResult:
    """Build the PMFG of a similarity matrix.

    Notes
    -----
    The construction sorts all Theta(n^2) candidate edges and runs a
    planarity test for each candidate that is not trivially acceptable,
    stopping early once the maximal planar size of ``3n - 6`` edges is
    reached.  This is the (intentionally slow) baseline of Figs. 1, 3 and 8.
    """
    similarity = validate_similarity_matrix(similarity)
    n = similarity.shape[0]

    upper_i, upper_j = np.triu_indices(n, k=1)
    weights = similarity[upper_i, upper_j]
    order = np.argsort(-weights, kind="stable")

    graph = WeightedGraph(n)
    edges: List[Tuple[int, int]] = []
    max_edges = 3 * n - 6
    candidates_tested = 0

    for index in order:
        if len(edges) >= max_edges:
            break
        u = int(upper_i[index])
        v = int(upper_j[index])
        candidate_edges = edges + [(u, v)]
        candidates_tested += 1
        # Small graphs are always planar; skip the test while m <= 8 because
        # planarity can only fail once a K5 or K3,3 subdivision is possible.
        if len(candidate_edges) <= 8 or is_planar(candidate_edges, num_vertices=n):
            graph.add_edge(u, v, float(similarity[u, v]))
            edges.append((u, v))

    return PMFGResult(graph=graph, edges=edges, candidates_tested=candidates_tested)

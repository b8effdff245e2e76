"""Parallel DBHT for TMFG — Algorithm 4 end to end.

Takes the output of TMFG construction (the filtered graph and its bubble
tree), the similarity matrix, and a dissimilarity matrix, and produces the
DBHT dendrogram.  The phases match Fig. 5's runtime decomposition:

* ``"apsp"`` — all-pairs shortest paths on the filtered graph with the
  dissimilarity weights, by the serial frontier kernel of
  :mod:`repro.graph.shortest_paths` (the paper's per-source parallelism is
  modelled by the work-span cost model, not run on a pool);
* ``"bubble-tree"`` — directing the bubble-tree edges and assigning vertices
  to bubbles;
* ``"hierarchy"`` — the three-level complete-linkage construction.

Each phase runs under a trace span (``fit.apsp``, ``fit.bubble_tree``,
``fit.hierarchy``; :func:`repro.core.pipeline.tmfg_dbht` opens
``fit.tmfg``), and ``fit.bubble_tree`` holds one child span per half
(``fit.direction``, ``fit.assignment``).  The spans are the fit's only
clock: the estimator reads ``step_seconds`` off them
(:func:`repro.obs.tracer.collect_steps`), and ``"bubble-tree"`` covers
both halves.  Outside a traced or collected scope they are the shared
no-op and cost nothing.

The work and span of each phase are computed after the fit, from the
result, by :func:`repro.parallel.cost_model.fit_cost`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import AssignmentResult, assign_vertices
from repro.core.bubble_tree import BubbleTree
from repro.core.direction import DirectionResult, compute_directions
from repro.core.hierarchy import build_hierarchy
from repro.core.tmfg import TMFGResult
from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import validate_dissimilarity_matrix
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.obs.tracer import trace_span


@dataclass
class DBHTResult:
    """Full output of the DBHT pipeline."""

    dendrogram: Dendrogram
    assignment: AssignmentResult
    directions: DirectionResult
    shortest_paths: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.dendrogram.num_leaves

    def cut(self, num_clusters: int) -> np.ndarray:
        """Flat clustering with ``num_clusters`` clusters."""
        from repro.dendrogram.cut import cut_k

        return cut_k(self.dendrogram, num_clusters)


def dbht(
    tmfg: TMFGResult,
    similarity: np.ndarray,
    dissimilarity: np.ndarray,
) -> DBHTResult:
    """Run the parallel DBHT on a TMFG (Algorithm 4).

    Parameters
    ----------
    tmfg:
        Result of :func:`repro.core.tmfg.construct_tmfg` with
        ``build_bubble_tree=True``.
    similarity:
        The similarity matrix the TMFG was built from (used by the
        attachment scores ``chi`` and ``chi'``).
    dissimilarity:
        Dissimilarity matrix supplying the edge lengths for shortest paths
        and linkage distances (e.g. ``sqrt(2 (1 - p))`` for correlations).
    """
    if tmfg.bubble_tree is None:
        raise ValueError("TMFG result has no bubble tree; pass build_bubble_tree=True")
    similarity = np.asarray(similarity, dtype=float)
    dissimilarity = validate_dissimilarity_matrix(
        dissimilarity, size=similarity.shape[0]
    )
    return run_dbht(tmfg, similarity, dissimilarity)


def run_dbht(
    tmfg: TMFGResult, similarity: np.ndarray, dissimilarity: np.ndarray
) -> DBHTResult:
    """:func:`dbht` on a TMFG with a bubble tree and a dissimilarity matrix
    that is already validated."""
    tree: BubbleTree = tmfg.bubble_tree
    n = tmfg.num_vertices
    with trace_span("fit.apsp", n=int(n)):
        # Shortest paths use the dissimilarity weights on the TMFG topology:
        # freeze the TMFG into CSR form once and swap in the dissimilarity
        # weights with a single fancy index (no per-edge rebuild).
        distance_graph = tmfg.csr().reweighted(dissimilarity)
        shortest_paths = all_pairs_shortest_paths(distance_graph)

    with trace_span("fit.bubble_tree", n=int(n)):
        with trace_span("fit.direction", n=int(n)):
            directions = compute_directions(tree, tmfg)
        with trace_span("fit.assignment", n=int(n)):
            assignment = assign_vertices(tree, directions, similarity, shortest_paths)

    with trace_span("fit.hierarchy", n=int(n)):
        dendrogram = build_hierarchy(assignment, shortest_paths)

    return DBHTResult(
        dendrogram=dendrogram,
        assignment=assignment,
        directions=directions,
        shortest_paths=shortest_paths,
    )

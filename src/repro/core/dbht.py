"""Parallel DBHT for TMFG — Algorithm 4 end to end.

Takes the output of TMFG construction (the filtered graph and its bubble
tree), the similarity matrix, and a dissimilarity matrix, and produces the
DBHT dendrogram.  The phases match Fig. 5's runtime decomposition:

* ``"apsp"`` — all-pairs shortest paths on the filtered graph with the
  dissimilarity weights;
* ``"bubble-tree"`` — directing the bubble-tree edges and assigning vertices
  to bubbles;
* ``"hierarchy"`` — the three-level complete-linkage construction.

(The ``"tmfg"`` phase is recorded by :func:`repro.core.tmfg.construct_tmfg`.)

Each phase also runs under a trace span (``fit.apsp``, ``fit.bubble_tree``,
``fit.hierarchy``; :func:`repro.core.pipeline.tmfg_dbht` opens
``fit.tmfg``), so a traced fit shows where its time went.  With tracing
off the spans are the shared no-op and cost nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.assignment import AssignmentResult, assign_vertices
from repro.core.bubble_tree import BubbleTree
from repro.core.direction import DirectionResult, compute_directions
from repro.core.hierarchy import build_hierarchy
from repro.core.tmfg import TMFGResult
from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import validate_dissimilarity_matrix
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import trace_span
from repro.parallel.cost_model import WorkSpanTracker
from repro.parallel.scheduler import ParallelBackend


@dataclass
class DBHTResult:
    """Full output of the DBHT pipeline."""

    dendrogram: Dendrogram
    assignment: AssignmentResult
    directions: DirectionResult
    shortest_paths: np.ndarray
    tracker: WorkSpanTracker
    step_seconds: Dict[str, float] = field(default_factory=dict)

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
    tracker: Optional[WorkSpanTracker] = None,
    backend: Optional[ParallelBackend] = None,
    apsp_method: str = "dijkstra",
    kernel: Optional[str] = None,
    landmarks: Optional[int] = None,
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
    apsp_method:
        Any id from the APSP method registry
        (:func:`repro.graph.shortest_paths.available_apsp_methods`):
        ``"dijkstra"`` (the paper's per-source algorithm run as batched CSR
        kernels, optionally over a thread/process backend), ``"floyd"``
        (vectorised Floyd-Warshall), ``"scipy"`` (SciPy's C
        implementation), or ``"landmark"`` (opt-in approximation).  APSP
        is the remaining bottleneck of the pipeline (Fig. 5), so the
        faster implementations are exposed here; all but
        ``"landmark"`` give identical distances (Floyd-Warshall up to the
        last float ulp).
    kernel:
        APSP kernel for the ``"dijkstra"`` method: ``"python"`` (array-heap
        Dijkstra per source) or ``"numpy"`` (frontier relaxation: each round
        relaxes only the arcs whose tail improved in the previous one),
        both with byte-identical distances.  ``None`` uses the process-wide
        default.
    landmarks:
        Landmark count; only meaningful with ``apsp_method="landmark"``.
    """
    if tmfg.bubble_tree is None:
        raise ValueError("TMFG result has no bubble tree; pass build_bubble_tree=True")
    similarity = np.asarray(similarity, dtype=float)
    dissimilarity = validate_dissimilarity_matrix(
        dissimilarity, size=similarity.shape[0]
    )
    tracker = tracker if tracker is not None else tmfg.tracker
    tree: BubbleTree = tmfg.bubble_tree
    graph: WeightedGraph = tmfg.graph
    step_seconds: Dict[str, float] = {}

    if landmarks is not None and apsp_method != "landmark":
        raise ValueError(
            f"landmarks only applies to apsp_method='landmark', got {apsp_method!r}"
        )
    apsp_options = {}
    if landmarks is not None:
        apsp_options["landmarks"] = landmarks

    n = graph.num_vertices
    start = time.perf_counter()
    with trace_span("fit.apsp", n=int(n)):
        # Shortest paths use the dissimilarity weights on the TMFG topology:
        # freeze the TMFG into CSR form once and swap in the dissimilarity
        # weights with a single fancy index (no per-edge rebuild).
        distance_graph = tmfg.csr().reweighted(dissimilarity)
        shortest_paths = all_pairs_shortest_paths(
            distance_graph, backend=backend, method=apsp_method, kernel=kernel, **apsp_options
        )
    step_seconds["apsp"] = time.perf_counter() - start
    tracker.add(
        "apsp",
        work=float(n * n * np.log2(max(n, 2))),
        span=float(np.log2(max(n, 2)) ** 2),
    )

    start = time.perf_counter()
    with trace_span("fit.bubble_tree", n=int(n)):
        directions = compute_directions(tree, graph, tracker=tracker)
        assignment = assign_vertices(
            tree, directions, similarity, shortest_paths, tracker=tracker
        )
    step_seconds["bubble-tree"] = time.perf_counter() - start

    start = time.perf_counter()
    with trace_span("fit.hierarchy", n=int(n)):
        dendrogram = build_hierarchy(assignment, shortest_paths, tracker=tracker)
    step_seconds["hierarchy"] = time.perf_counter() - start

    return DBHTResult(
        dendrogram=dendrogram,
        assignment=assignment,
        directions=directions,
        shortest_paths=shortest_paths,
        tracker=tracker,
        step_seconds=step_seconds,
    )

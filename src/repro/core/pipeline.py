"""One-call functional entry point: filtered-graph hierarchical clustering.

``tmfg_dbht`` runs the whole pipeline of the paper — build the (prefix-
batched) TMFG from a similarity matrix, then the DBHT on top of it — and
returns the dendrogram together with all intermediate artefacts.  Every
call is a cold fit: nothing is carried between calls, so a streaming tick
and a batch fit of the same matrix run the same code and agree byte for
byte.

.. note::
   New code should prefer the estimator layer in :mod:`repro.api`
   (``TMFGClusterer`` / ``make_estimator`` driven by a
   :class:`~repro.api.ClusteringConfig`), which wraps this function without
   changing its output; ``tmfg_dbht`` is kept as a thin, byte-identical
   shim for existing callers and may eventually be folded into the
   estimator layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.dbht import DBHTResult, dbht
from repro.core.tmfg import TMFGResult, construct_tmfg
from repro.datasets.similarity import default_dissimilarity
from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import validate_similarity_matrix
from repro.obs.tracer import trace_span
from repro.parallel.cost_model import WorkSpanTracker
from repro.parallel.scheduler import ParallelBackend


@dataclass
class PipelineResult:
    """Result of the full TMFG + DBHT pipeline."""

    tmfg: TMFGResult
    dbht: DBHTResult
    step_seconds: Dict[str, float]

    @property
    def dendrogram(self) -> Dendrogram:
        return self.dbht.dendrogram

    @property
    def tracker(self) -> WorkSpanTracker:
        return self.dbht.tracker

    def cut(self, num_clusters: int) -> np.ndarray:
        """Flat clustering with ``num_clusters`` clusters."""
        return self.dbht.cut(num_clusters)


def tmfg_dbht(
    similarity: np.ndarray,
    dissimilarity: Optional[np.ndarray] = None,
    prefix: int = 1,
    backend: Optional[ParallelBackend] = None,
    tracker: Optional[WorkSpanTracker] = None,
    apsp_method: str = "dijkstra",
    kernel: Optional[str] = None,
    landmarks: Optional[int] = None,
) -> PipelineResult:
    """Hierarchical clustering with a TMFG filtered graph and the DBHT.

    Parameters
    ----------
    similarity:
        Symmetric ``n x n`` similarity matrix (e.g. Pearson correlations).
    dissimilarity:
        Optional dissimilarity matrix.  If omitted and ``similarity`` looks
        like a correlation matrix, the paper's transform
        ``sqrt(2 (1 - p))`` is used; otherwise a rank-preserving transform
        ``max(S) - S`` is applied.
    prefix:
        Batch size of the parallel TMFG (``1`` = exact sequential TMFG).
    backend:
        Optional :class:`ParallelBackend` for the parallelisable phases.
    tracker:
        Optional :class:`WorkSpanTracker` collecting work/span per phase.
    apsp_method:
        APSP implementation used by the DBHT: any registered method id
        (``"dijkstra"`` default, ``"floyd"``, ``"scipy"``, ``"landmark"``);
        see
        :func:`repro.graph.shortest_paths.all_pairs_shortest_paths`.
    kernel:
        ``"python"`` or ``"numpy"`` APSP kernel (see
        :mod:`repro.parallel.kernels`); ``None`` uses the process-wide
        default.  Both produce identical results.
    landmarks:
        Landmark count for ``apsp_method="landmark"``.

    Returns
    -------
    PipelineResult
        The dendrogram plus the TMFG, assignments, shortest paths, and the
        per-step wall-clock times (keys ``"tmfg"``, ``"apsp"``,
        ``"bubble-tree"``, ``"hierarchy"``) used by the Fig. 5 reproduction.
    """
    similarity = validate_similarity_matrix(similarity)
    if dissimilarity is None:
        dissimilarity = default_dissimilarity(similarity)
    tracker = tracker if tracker is not None else WorkSpanTracker()

    start = time.perf_counter()
    with trace_span("fit.tmfg", n=int(similarity.shape[0]), prefix=int(prefix)):
        tmfg_result = construct_tmfg(
            similarity,
            prefix=prefix,
            build_bubble_tree=True,
            tracker=tracker,
            backend=backend,
        )
    tmfg_seconds = time.perf_counter() - start

    dbht_result = dbht(
        tmfg_result,
        similarity=similarity,
        dissimilarity=dissimilarity,
        tracker=tracker,
        backend=backend,
        apsp_method=apsp_method,
        kernel=kernel,
        landmarks=landmarks,
    )
    step_seconds = {"tmfg": tmfg_seconds}
    step_seconds.update(dbht_result.step_seconds)
    return PipelineResult(tmfg=tmfg_result, dbht=dbht_result, step_seconds=step_seconds)

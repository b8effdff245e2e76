"""One-call functional entry point: filtered-graph hierarchical clustering.

``tmfg_dbht`` runs the whole pipeline of the paper — build the (prefix-
batched) TMFG from a similarity matrix, then the DBHT on top of it — and
returns the dendrogram together with all intermediate artefacts.  Every
call is a cold fit on one execution path: nothing is carried between calls
and there is no kernel, APSP method or pool to choose, so a streaming tick,
a served request and a batch fit of the same matrix run the same code and
agree byte for byte.

.. note::
   New code should prefer the estimator layer in :mod:`repro.api`
   (``TMFGClusterer`` / ``make_estimator`` driven by a
   :class:`~repro.api.ClusteringConfig`), which wraps this function without
   changing its output; ``tmfg_dbht`` is kept as a thin, byte-identical
   shim for existing callers and may eventually be folded into the
   estimator layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dbht import DBHTResult, run_dbht
from repro.core.tmfg import TMFGResult, build_tmfg
from repro.datasets.similarity import default_dissimilarity
from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import validate_dissimilarity_matrix, validate_similarity_matrix
from repro.obs.tracer import trace_span


@dataclass
class PipelineResult:
    """Result of the full TMFG + DBHT pipeline."""

    tmfg: TMFGResult
    dbht: DBHTResult

    @property
    def dendrogram(self) -> Dendrogram:
        return self.dbht.dendrogram

    def cut(self, num_clusters: int) -> np.ndarray:
        """Flat clustering with ``num_clusters`` clusters."""
        return self.dbht.cut(num_clusters)


def tmfg_dbht(
    similarity: np.ndarray,
    dissimilarity: Optional[np.ndarray] = None,
    prefix: int = 1,
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

    Returns
    -------
    PipelineResult
        The dendrogram plus the TMFG, assignments and shortest paths.  The
        phases run under ``fit.*`` spans, whose durations the estimator
        reports as ``ClusterResult.step_seconds``; this function times
        nothing.  The fit runs serially; the work and span that model the
        paper's parallel running time are
        ``repro.parallel.cost_model.fit_cost(result.tmfg, result.dbht)``.
    """
    # The pipeline boundary: each matrix is validated exactly once here and
    # the trusted arrays are passed inward.
    similarity = validate_similarity_matrix(similarity)
    if prefix < 1:
        raise ValueError("prefix must be at least 1")
    if dissimilarity is None:
        dissimilarity = default_dissimilarity(similarity)
    dissimilarity = validate_dissimilarity_matrix(dissimilarity, size=similarity.shape[0])

    with trace_span("fit.tmfg", n=int(similarity.shape[0]), prefix=int(prefix)):
        tmfg_result = build_tmfg(similarity, prefix, True)
    dbht_result = run_dbht(tmfg_result, similarity, dissimilarity)
    return PipelineResult(tmfg=tmfg_result, dbht=dbht_result)

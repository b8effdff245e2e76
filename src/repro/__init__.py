"""repro — Parallel Filtered Graphs for Hierarchical Clustering.

A from-scratch Python reproduction of "Parallel Filtered Graphs for
Hierarchical Clustering" (Shangdi Yu and Julian Shun, ICDE 2023).  The
library builds Triangulated Maximally Filtered Graphs (TMFG) with the
paper's prefix-batched parallel algorithm, constructs Directed Bubble
Hierarchy Trees (DBHT) optimised for TMFG inputs, and ships the baselines
(PMFG, the original DBHT, complete/average-linkage HAC, k-means, spectral
k-means), synthetic data sets, metrics, and an experiment harness that
regenerates every table and figure of the paper's evaluation.

Quickstart (the estimator API)::

    from repro import ClusteringConfig, make_estimator
    from repro.datasets import make_time_series_dataset
    from repro.metrics import adjusted_rand_index

    dataset = make_time_series_dataset(num_objects=200, length=128, num_classes=4, seed=0)
    config = ClusteringConfig(method="tmfg-dbht", prefix=10, num_clusters=4)
    labels = make_estimator(config.method, config).fit_predict(dataset.data)
    print(adjusted_rand_index(dataset.labels, labels))

The functional entry point ``tmfg_dbht(similarity, dissimilarity, ...)``
remains available (and byte-identical); see :mod:`repro.api` for the full
estimator layer.

The top-level re-exports below resolve lazily (PEP 562): importing
:mod:`repro` itself pulls in no numpy/scipy, so the stdlib-only tooling
(``repro lint`` / :mod:`repro.analysis`) runs on a bare interpreter — the
CI lint job installs no numerical dependencies at all.  The first access
to any exported name imports its real module as before.
"""

from importlib import import_module

__version__ = "1.8.0"

#: Exported name -> defining module; resolved on first attribute access.
_EXPORTS = {
    "ClusteringConfig": "repro.api",
    "ClusterResult": "repro.api",
    "TMFGClusterer": "repro.api",
    "available_estimators": "repro.api",
    "make_estimator": "repro.api",
    "ResultCache": "repro.cache",
    "get_result_cache": "repro.cache",
    "clear_result_caches": "repro.cache",
    "DBHTResult": "repro.core.dbht",
    "dbht": "repro.core.dbht",
    "PipelineResult": "repro.core.pipeline",
    "tmfg_dbht": "repro.core.pipeline",
    "TMFGResult": "repro.core.tmfg",
    "construct_tmfg": "repro.core.tmfg",
    "Dendrogram": "repro.dendrogram",
    "cut_height": "repro.dendrogram",
    "cut_k": "repro.dendrogram",
    "adjusted_mutual_information": "repro.metrics",
    "adjusted_rand_index": "repro.metrics",
    "Tracer": "repro.obs",
    "trace_span": "repro.obs",
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(_EXPORTS[name]), name)
        globals()[name] = value  # cache: subsequent access skips this hook
        return value
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

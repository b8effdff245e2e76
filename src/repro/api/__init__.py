"""Unified estimator API.

One typed configuration surface (:class:`ClusteringConfig`), one estimator
contract (:class:`ClusteringEstimator` subclasses behind
:func:`make_estimator`) and one result type (:class:`ClusterResult`)::

    from repro.api import ClusteringConfig, make_estimator

    config = ClusteringConfig(method="tmfg-dbht", prefix=10, num_clusters=4)
    labels = make_estimator(config.method, config).fit_predict(data)

A batch is a loop of fits; with ``cache=True`` repeated matrices are
fitted once and served from the result cache after that::

    estimator = make_estimator(config.method, config.replace(cache=True))
    results = [estimator.fit(m).result_ for m in matrices]

Configs serialize losslessly (``to_dict``/``from_dict``, ``to_json``/
``from_json``), which backs ``repro cluster --config cfg.json`` and lets
batch jobs ship their configuration as data.
"""

from repro.api.config import LINKAGE_NAMES, ClusteringConfig
from repro.api.estimators import (
    ClassicDBHTClusterer,
    ClusteringEstimator,
    HACClusterer,
    KMeansClusterer,
    NotFittedError,
    PMFGClusterer,
    SpectralKMeansClusterer,
    TMFGClusterer,
    available_estimators,
    make_estimator,
    register_method,
)
from repro.api.result import ClusterResult

__all__ = [
    "LINKAGE_NAMES",
    "ClusteringConfig",
    "ClusterResult",
    "ClusteringEstimator",
    "NotFittedError",
    "TMFGClusterer",
    "PMFGClusterer",
    "ClassicDBHTClusterer",
    "HACClusterer",
    "KMeansClusterer",
    "SpectralKMeansClusterer",
    "available_estimators",
    "make_estimator",
    "register_method",
]

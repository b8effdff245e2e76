"""Sklearn-style estimators and the method registry.

Every clustering method in the library — the paper's TMFG+DBHT pipeline,
the PMFG/classic-DBHT baselines, HAC, k-means, spectral k-means — is
wrapped in a uniform estimator contract:

* construct with a :class:`~repro.api.config.ClusteringConfig` (or keyword
  overrides of one),
* ``fit(X)`` where ``X`` is either raw series (one object per row) or,
  with ``config.precomputed``, a similarity matrix,
* read ``labels_`` / ``result_`` afterwards, or call ``fit_predict(X)``;
* ``fit`` is ``lookup(X)`` (key and cached result) then, on a miss,
  ``compute(X, key)``; the server calls the halves separately so that
  concurrent identical misses can share one fit.

Estimators are stateless between fits apart from ``result_``: refitting
with the same data reproduces the same output, and the config is frozen so
a fit can never mutate it.

The registry maps string ids to estimators so that the CLI, the harness,
and the server can swap methods without touching code::

    estimator = make_estimator("hac-average", config)
    labels = estimator.fit_predict(data)

Custom methods plug in with :func:`register_method`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.api.config import ClusteringConfig
from repro.api.result import ClusterResult
from repro.cache import get_result_cache, result_cache_key
from repro.datasets.similarity import (
    default_dissimilarity,
    similarity_and_dissimilarity,
)
from repro.obs.tracer import collect_steps, trace_span


class NotFittedError(ValueError):
    """Raised when a fitted-only attribute is read before ``fit``."""


class ClusteringEstimator:
    """Base class: the fit/predict contract shared by every method.

    Parameters
    ----------
    config:
        The run's :class:`ClusteringConfig`; ``None`` uses the defaults.
        The estimator pins ``config.method`` to its own registry id.
    **overrides:
        Field overrides applied to ``config`` (e.g. ``prefix=10``).
    """

    method_id: str = ""
    requires_raw_data = False

    def __init__(
        self,
        config: Optional[ClusteringConfig] = None,
        **overrides: Any,
    ) -> None:
        base = config if config is not None else ClusteringConfig()
        overrides.pop("method", None)  # the class, not the caller, names the method
        self.config = base.replace(method=self.method_id, **overrides)
        self.result_: Optional[ClusterResult] = None

    # -- fitted attributes -------------------------------------------------

    @property
    def labels_(self) -> np.ndarray:
        """Flat labels of the last fit."""
        if self.result_ is None:
            raise NotFittedError(
                f"this {type(self).__name__} is not fitted yet; call fit(X) first"
            )
        if self.result_.labels is None:
            raise NotFittedError(
                "no flat labels: the config has num_clusters=None; set it or "
                "cut the dendrogram via result_.cut(k)"
            )
        return self.result_.labels

    # -- the contract ------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: Optional[np.ndarray] = None,
        dissimilarity: Optional[np.ndarray] = None,
        **fit_params: Any,
    ) -> "ClusteringEstimator":
        """Cluster ``X`` and store the :class:`ClusterResult` on ``result_``.

        ``dissimilarity`` optionally supplies an explicit dissimilarity
        matrix (as the functional ``tmfg_dbht(sim, dis, ...)`` signature
        allowed) instead of the default derivation; only the
        similarity-based methods accept it.

        With ``config.cache``, the content-addressed result cache is
        consulted first (:meth:`lookup`); a hit stores a clone of the
        cached cold fit on ``result_`` and skips the computation entirely,
        and a miss is computed and stored (:meth:`compute`).
        """
        # Drop the previous fit up front so a failed refit can never serve
        # stale labels.
        self.result_ = None
        key = None
        if self.config.cache:
            key, cached = self.lookup(X, dissimilarity)
            if cached is not None:
                self.result_ = cached.clone()
                return self
        return self.compute(X, key, dissimilarity, **fit_params)

    def lookup(
        self, X: np.ndarray, dissimilarity: Optional[np.ndarray] = None
    ) -> Tuple[str, Optional[ClusterResult]]:
        """The lookup half of :meth:`fit`: ``(key, cached)`` for ``X``.

        ``key`` is the result-cache key of this config plus the float64
        view of the input (so int/float spellings of identical data share
        an entry).  ``cached`` is the stored result itself, not a clone,
        or ``None``; the cache is only consulted when ``config.cache`` is
        on.  Pass a miss's ``key`` to :meth:`compute`.
        """
        X = np.asarray(X, dtype=float)
        if dissimilarity is not None:
            dissimilarity = np.asarray(dissimilarity, dtype=float)
        key = result_cache_key(self.config, X, dissimilarity)
        if not self.config.cache:
            return key, None
        return key, get_result_cache(self.config.cache_dir).get(key)

    def compute(
        self,
        X: np.ndarray,
        key: Optional[str] = None,
        dissimilarity: Optional[np.ndarray] = None,
        **fit_params: Any,
    ) -> "ClusteringEstimator":
        """The compute-and-store half of :meth:`fit`: fit ``X`` uncached.

        The result lands on ``result_``; with ``config.cache`` and a ``key``
        from :meth:`lookup`, it keeps only the answer (``raw`` is the
        dendrogram), as a hit does, and a clone is stored under ``key``.  Its
        ``step_seconds`` are its spans' (``"total"``: ``estimator.fit``,
        closed before the store), replacing any that ``_fit`` set.
        """
        self.result_ = None
        caching = self.config.cache and key is not None
        with collect_steps() as steps, trace_span(
            "estimator.fit", method=self.method_id, cache="miss" if caching else "off"
        ) as probe:
            with trace_span("fit.prepare"):
                data, similarity, derived_dissimilarity = self._prepare(X)
            probe.set_attribute("n", int(np.asarray(X).shape[0]))
            if dissimilarity is not None:
                if self.requires_raw_data:
                    raise ValueError(
                        f"method {self.method_id!r} operates on raw series and does not "
                        "accept a dissimilarity matrix"
                    )
                derived_dissimilarity = np.asarray(dissimilarity, dtype=float)
            result = self._fit(data, similarity, derived_dissimilarity, **fit_params)
        result.step_seconds = steps
        if caching:
            # The cache keeps the answer, not the fit's intermediates, in a
            # private clone that caller mutations of result_ cannot reach.
            result.raw = result.dendrogram
            get_result_cache(self.config.cache_dir).put(key, result.clone())
        self.result_ = result
        return self

    def fit_predict(self, X: np.ndarray, y: Optional[np.ndarray] = None, **fit_params: Any) -> np.ndarray:
        """``fit(X)`` and return the flat labels."""
        return self.fit(X, **fit_params).labels_

    # -- method-specific pieces --------------------------------------------

    def _prepare(
        self, X: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """Split the input into (raw data, similarity, dissimilarity)."""
        X = np.asarray(X, dtype=float)
        if self.requires_raw_data:
            if self.config.precomputed:
                raise ValueError(
                    f"method {self.method_id!r} operates on raw series and does not "
                    "accept a precomputed similarity matrix"
                )
            return X, None, None
        if self.config.precomputed:
            return None, X, None
        similarity, dissimilarity = similarity_and_dissimilarity(X)
        return X, similarity, dissimilarity

    def _fit(
        self,
        data: Optional[np.ndarray],
        similarity: Optional[np.ndarray],
        dissimilarity: Optional[np.ndarray],
        **fit_params: Any,
    ) -> ClusterResult:
        raise NotImplementedError

    def _require_num_clusters(self) -> int:
        if self.config.num_clusters is None:
            raise ValueError(
                f"method {self.method_id!r} needs config.num_clusters at fit time"
            )
        return self.config.num_clusters

    def _cut_labels(self, result: ClusterResult) -> None:
        """Fill ``result.labels`` by cutting the dendrogram, if a cut was asked for."""
        if self.config.num_clusters is not None:
            result.labels = result.cut(self.config.num_clusters)


class TMFGClusterer(ClusteringEstimator):
    """The paper's pipeline: prefix-batched TMFG + TMFG-specialised DBHT.

    A thin estimator shell over :func:`repro.core.pipeline.tmfg_dbht` — the
    constructed graph, dendrogram, and labels are byte-identical to a
    direct call with the same knobs.
    """

    method_id = "tmfg-dbht"

    def _fit(self, data, similarity, dissimilarity):
        from repro.core.pipeline import tmfg_dbht

        pipeline = tmfg_dbht(similarity, dissimilarity, prefix=self.config.prefix)
        result = ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=None,
            raw=pipeline,
            extras={
                "edge_weight_sum": pipeline.tmfg.edge_weight_sum(),
                "rounds": pipeline.tmfg.rounds,
            },
        )
        self._cut_labels(result)
        return result


class PMFGClusterer(ClusteringEstimator):
    """The PMFG-DBHT baseline: planarity-tested PMFG + the original DBHT."""

    method_id = "pmfg-dbht"

    def _fit(self, data, similarity, dissimilarity, **fit_params):
        from repro.baselines.classic_dbht import pmfg_dbht

        classic = pmfg_dbht(similarity, dissimilarity)
        result = ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=None,
            raw=classic,
        )
        self._cut_labels(result)
        return result


class ClassicDBHTClusterer(ClusteringEstimator):
    """SEQ-TDBHT: exact TMFG (prefix 1) + the original quadratic-work DBHT."""

    method_id = "classic-dbht"

    def _fit(self, data, similarity, dissimilarity, **fit_params):
        from repro.baselines.classic_dbht import classic_dbht
        from repro.core.tmfg import construct_tmfg

        if dissimilarity is None:
            dissimilarity = default_dissimilarity(similarity)
        with trace_span("fit.tmfg", n=int(similarity.shape[0]), prefix=1):
            tmfg = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        with trace_span("fit.dbht", n=tmfg.num_vertices):
            classic = classic_dbht(tmfg.graph, dissimilarity)
        result = ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=None,
            raw=classic,
            extras={"edge_weight_sum": tmfg.edge_weight_sum()},
        )
        self._cut_labels(result)
        return result


class HACClusterer(ClusteringEstimator):
    """Hierarchical agglomerative clustering (the COMP/AVG baselines).

    The linkage rule comes from ``config.linkage``; the registered ids
    ``hac-complete``/``hac-average`` (aliases ``comp``/``avg``) pin it.
    """

    method_id = "hac"

    def _fit(self, data, similarity, dissimilarity, **fit_params):
        from repro.baselines.hac import hac_dendrogram

        if dissimilarity is None:
            dissimilarity = default_dissimilarity(similarity)
        dendrogram = hac_dendrogram(dissimilarity, method=self.config.linkage)
        result = ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=None,
            raw=dendrogram,
            extras={"linkage": self.config.linkage},
        )
        self._cut_labels(result)
        return result


class KMeansClusterer(ClusteringEstimator):
    """The K-MEANS baseline: Lloyd's algorithm with k-means|| seeding."""

    method_id = "kmeans"
    requires_raw_data = True

    def _fit(self, data, similarity, dissimilarity, **fit_params):
        from repro.baselines.kmeans import kmeans

        num_clusters = self._require_num_clusters()
        fitted = kmeans(
            data,
            num_clusters,
            init="k-means||",
            seed=self.config.seed,
            num_restarts=self.config.num_restarts,
        )
        return ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=fitted.labels,
            raw=fitted,
            extras={"inertia": fitted.inertia, "iterations": fitted.iterations},
        )


class SpectralKMeansClusterer(ClusteringEstimator):
    """The K-MEANS-S baseline: kNN-Laplacian embedding + k-means."""

    method_id = "spectral"
    requires_raw_data = True

    def _fit(self, data, similarity, dissimilarity, **fit_params):
        from repro.baselines.spectral import spectral_kmeans

        num_clusters = self._require_num_clusters()
        neighbors = min(self.config.spectral_neighbors, data.shape[0] - 1)
        fitted = spectral_kmeans(
            data,
            num_clusters,
            num_neighbors=neighbors,
            seed=self.config.seed,
            num_restarts=self.config.num_restarts,
        )
        return ClusterResult(
            method=self.method_id,
            config=self.config,
            labels=fitted.labels,
            raw=fitted,
            extras={"inertia": fitted.inertia, "num_neighbors": neighbors},
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Tuple[Type[ClusteringEstimator], Dict[str, Any]]] = {}


def register_method(
    name: str,
    estimator_cls: Type[ClusteringEstimator],
    **config_overrides: Any,
) -> None:
    """Register ``estimator_cls`` under ``name`` (lower-cased).

    ``config_overrides`` are config fields the id pins (e.g.
    ``hac-average`` pins ``linkage="average"``); they win over the caller's
    config, so an id always means the same method.  ``compute`` replaces
    a custom ``_fit``'s ``step_seconds`` with its spans'.
    """
    _REGISTRY[name.lower()] = (estimator_cls, dict(config_overrides))


def available_estimators() -> List[str]:
    """Sorted method ids :func:`make_estimator` resolves."""
    return sorted(_REGISTRY)


def make_estimator(
    name: str,
    config: Optional[ClusteringConfig] = None,
    **overrides: Any,
) -> ClusteringEstimator:
    """Build the estimator registered under ``name``.

    ``config`` supplies the knobs (defaults when ``None``); ``overrides``
    are applied on top, and fields pinned by the id win over both.  An
    unknown id raises ``ValueError`` listing every valid id.
    """
    key = str(name).lower()
    try:
        estimator_cls, pinned = _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown method id {name!r}; valid ids: {available_estimators()}"
        ) from None
    merged = {**overrides, **pinned}
    return estimator_cls(config, **merged)


register_method("tmfg-dbht", TMFGClusterer)
register_method("par-tdbht", TMFGClusterer)
register_method("pmfg-dbht", PMFGClusterer)
register_method("classic-dbht", ClassicDBHTClusterer)
register_method("seq-tdbht", ClassicDBHTClusterer)
register_method("hac", HACClusterer)
register_method("hac-complete", HACClusterer, linkage="complete")
register_method("comp", HACClusterer, linkage="complete")
register_method("hac-average", HACClusterer, linkage="average")
register_method("avg", HACClusterer, linkage="average")
register_method("kmeans", KMeansClusterer)
register_method("k-means", KMeansClusterer)
register_method("spectral", SpectralKMeansClusterer)
register_method("k-means-s", SpectralKMeansClusterer)

"""Batch front door: cluster many matrices through one config.

:func:`cluster_many` is the serving-shaped endpoint of the library: give it
a sequence of input matrices (independent jobs — different windows,
different markets, different scenario sweeps) and one
:class:`~repro.api.config.ClusteringConfig`, and it returns one
:class:`~repro.api.result.ClusterResult` per input, in order.

Serving batches are heavily repetitive, so the front door is
cache-and-dedup aware:

* identical jobs (same config fingerprint, same matrix bytes) are
  deduplicated — each distinct job is fitted once and its duplicates
  receive clones;
* with ``config.cache``, the content-addressed result cache
  (:mod:`repro.cache`) is consulted per distinct job and only the misses
  are fitted; each miss stores itself through ``estimator.fit``.

Misses run in input order on the calling thread (the server's
``--fit-workers`` executor thread when serving); a fit itself is serial.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.config import ClusteringConfig
from repro.api.estimators import make_estimator
from repro.api.result import ClusterResult
from repro.cache import get_result_cache, result_cache_key
from repro.obs.tracer import trace_span


def fit_one(config: ClusteringConfig, matrix: np.ndarray) -> ClusterResult:
    """Fit ``config.method`` on one matrix (the unit of batch work)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(
            f"fit_one expects a 2-D matrix (objects x observations, or a "
            f"square similarity matrix with config.precomputed); got shape "
            f"{matrix.shape}"
        )
    estimator = make_estimator(config.method, config)
    estimator.fit(matrix)
    assert estimator.result_ is not None
    return estimator.result_


def cluster_many(
    matrices: Sequence[np.ndarray],
    config: Optional[ClusteringConfig] = None,
) -> List[ClusterResult]:
    """Cluster every matrix in ``matrices`` with the same config.

    Parameters
    ----------
    matrices:
        Independent input matrices (raw series per row, or precomputed
        similarities when ``config.precomputed``).
    config:
        The shared :class:`ClusteringConfig` (defaults when ``None``).
        ``config.cache`` routes every distinct job through the
        content-addressed result cache.

    Returns
    -------
    list of ClusterResult
        One result per input matrix, in input order.  Duplicates of one
        job receive :meth:`~repro.api.result.ClusterResult.clone`\\ s of
        the one computed result — byte-identical payloads that share the
        read-only ``raw`` artefacts.
    """
    config = config if config is not None else ClusteringConfig()
    if len(matrices) == 0:
        # Nothing to fit: skip fingerprinting entirely (the serving path
        # flushes empty batches away).
        return []
    with trace_span("batch.cluster_many", jobs=len(matrices)) as probe:
        # Normalize the config through the registry before fingerprinting:
        # the estimator a fit builds pins method aliases to their canonical
        # id (par-tdbht -> tmfg-dbht) and applies id-pinned fields
        # (comp -> linkage="complete") and fingerprints *that* config, so
        # keying on the raw config would store every alias under a second
        # key and miss entries a direct estimator fit wrote.
        config = make_estimator(config.method, config).config

        arrays = [np.asarray(matrix, dtype=float) for matrix in matrices]
        cache = get_result_cache(config.cache_dir) if config.cache else None
        keys = [result_cache_key(config, array) for array in arrays]

        # One representative result per distinct key: cache hits now,
        # computed misses below.
        resolved: Dict[str, ClusterResult] = {}
        if cache is not None:
            for key in dict.fromkeys(keys):
                hit = cache.get(key)
                if hit is not None:
                    resolved[key] = hit
        first_index: Dict[str, int] = {}
        for index, key in enumerate(keys):
            if key not in resolved:
                first_index.setdefault(key, index)
        probe.set_attribute("distinct", len(first_index))
        probe.set_attribute("cache_hits", len(resolved))

        results: List[Optional[ClusterResult]] = [None] * len(arrays)
        # dicts keep insertion order, so misses fit in input order; each
        # estimator.fit stores its own result under the same key.
        for key, index in first_index.items():
            results[index] = resolved[key] = fit_one(config, arrays[index])
        for index, key in enumerate(keys):
            if results[index] is None:
                results[index] = resolved[key].clone()
        return results

"""Content-addressed caching of clustering results.

Serving traffic is heavily repetitive — the same window re-requested,
overlapping scenario sweeps, identical ticks after a flat market — so the
library caches each fit's answer (a slim
:class:`~repro.api.result.ClusterResult`) under a stable fingerprint of
*what determines it*: the
computation-relevant fields of the
:class:`~repro.api.config.ClusteringConfig` plus the input matrix's
dtype/shape/bytes (see :mod:`repro.cache.fingerprint`).

A fit has one execution path, and every config field that can change its
output is part of the key, so a cache hit returns exactly what a cold fit
would have produced (the stored cold fit's answer, timings and all).

Entry points:

* ``ClusteringConfig(cache=True, cache_dir=...)`` — estimator ``fit`` (and
  its ``lookup`` half, which the server calls) consults the cache;
* :func:`get_result_cache` — the process-wide cache instances (one
  in-memory LRU, plus one per persistent directory);
* :func:`result_cache_key` / :func:`matrix_fingerprint` — the key
  derivation, also used by the streaming runner to skip ticks whose
  windowed correlation did not change.
"""

from repro.cache.fingerprint import (
    CACHE_KNOB_FIELDS,
    FINGERPRINT_VERSION,
    config_fingerprint,
    matrix_fingerprint,
    result_cache_key,
)
from repro.cache.store import (
    DEFAULT_MAX_ENTRIES,
    ENTRY_FORMAT_VERSION,
    CacheStats,
    ResultCache,
    clear_result_caches,
    get_result_cache,
)

__all__ = [
    "CACHE_KNOB_FIELDS",
    "DEFAULT_MAX_ENTRIES",
    "ENTRY_FORMAT_VERSION",
    "FINGERPRINT_VERSION",
    "CacheStats",
    "ResultCache",
    "clear_result_caches",
    "config_fingerprint",
    "get_result_cache",
    "matrix_fingerprint",
    "result_cache_key",
]

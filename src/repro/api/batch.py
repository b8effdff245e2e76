"""Batch front door: cluster many matrices through one config.

:func:`cluster_many` is the serving-shaped endpoint of the library: give it
a sequence of input matrices (independent jobs — different windows,
different markets, different scenario sweeps) and one
:class:`~repro.api.config.ClusteringConfig`, and it fans the fits out over
a :mod:`repro.parallel.scheduler` backend, returning one
:class:`~repro.api.result.ClusterResult` per input, in order.

Serving batches are heavily repetitive, so the front door is
cache-and-dedup aware:

* identical jobs (same config fingerprint, same matrix bytes) are
  deduplicated *before* dispatch — each distinct job is fitted once and
  its duplicates receive clones (``dedupe=False`` restores one-fit-per-
  input, mainly for benchmarking the dedup itself);
* with ``config.cache``, the content-addressed result cache
  (:mod:`repro.cache`) is consulted per distinct job and only the misses
  are shipped to workers; computed results are stored back.

With a process fan-out, input matrices are placed in shared memory and
mapped zero-copy into the workers (:mod:`repro.parallel.shm`) instead of
being pickled into every job; where shared memory is unavailable the
dispatch transparently falls back to pickling.  Each fit itself runs
serially, so a fan-out never nests pools.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.config import ClusteringConfig
from repro.api.estimators import make_estimator
from repro.api.result import ClusterResult
from repro.cache import get_result_cache, result_cache_key
from repro.obs.tracer import trace_span
from repro.parallel import shm
from repro.parallel.scheduler import (
    ParallelBackend,
    ProcessBackend,
    SerialBackend,
    make_backend,
)


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


def _fit_one_shared(config: ClusteringConfig, ref: shm.SharedMatrixRef) -> ClusterResult:
    """Worker entry point: fit one matrix mapped from shared memory."""
    return fit_one(config, shm.open_matrix(ref))


def cluster_many(
    matrices: Sequence[np.ndarray],
    config: Optional[ClusteringConfig] = None,
    backend: Optional[Union[ParallelBackend, str]] = None,
    workers: Optional[int] = None,
    dedupe: bool = True,
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
    backend:
        Fan-out backend: a live :class:`ParallelBackend` (caller closes
        it), a name (``"serial"``/``"thread"``/``"process"`` — opened and
        closed here), or ``None`` for serial.
    workers:
        Worker count when ``backend`` is a name.  Passing it alongside a
        live backend instance (whose pool size is already fixed) or with
        no backend at all (a serial run) raises ``ValueError`` — silently
        ignoring the argument would let a mis-sized pool pass unnoticed.
    dedupe:
        Deduplicate identical jobs before dispatch (default).  Duplicates
        receive :meth:`~repro.api.result.ClusterResult.clone`\\ s of the
        one computed result — byte-identical payloads that share the
        read-only ``raw`` artefacts.

    Returns
    -------
    list of ClusterResult
        One result per input matrix, in input order.
    """
    config = config if config is not None else ClusteringConfig()
    if workers is not None and isinstance(backend, ParallelBackend):
        raise ValueError(
            f"workers={workers} was passed alongside a live backend instance, "
            f"which already fixed its pool at {backend.num_workers} worker(s); "
            "size the pool at construction or pass the backend by name"
        )
    if workers is not None and backend is None:
        raise ValueError(
            f"workers={workers} has no effect without a fan-out backend; "
            "pass backend='thread' or backend='process'"
        )
    if len(matrices) == 0:
        # Nothing to fit: skip backend construction, fingerprinting, and
        # dispatch entirely (the serving path flushes empty batches away).
        return []
    owns_backend = False
    if backend is None:
        backend = SerialBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend, num_workers=workers)
        owns_backend = True
    with trace_span("batch.cluster_many", jobs=len(matrices)) as probe:
        try:
            # Normalize the config through the registry before fingerprinting:
            # the estimator a worker builds pins method aliases to their
            # canonical id (par-tdbht -> tmfg-dbht) and applies id-pinned
            # fields (comp -> linkage="complete") and fingerprints *that*
            # config, so keying on the raw config would store every alias
            # under a second key and miss entries a direct estimator fit wrote.
            config = make_estimator(config.method, config).config

            arrays = [np.asarray(matrix, dtype=float) for matrix in matrices]
            cache = get_result_cache(config.cache_dir) if config.cache else None
            if not dedupe and cache is None:
                # Explicit cold path (bench baselines): nothing consumes the
                # fingerprints, so skip hashing the inputs entirely.
                return _dispatch(backend, config, arrays)
            keys = [result_cache_key(config, array) for array in arrays]

            # One representative result per distinct key: cache hits now,
            # computed misses below.
            resolved: Dict[str, ClusterResult] = {}
            if cache is not None:
                for key in dict.fromkeys(keys):
                    hit = cache.get(key)
                    if hit is not None:
                        resolved[key] = hit
            if dedupe:
                first_index: Dict[str, int] = {}
                for index, key in enumerate(keys):
                    if key not in resolved:
                        first_index.setdefault(key, index)
                todo = sorted(first_index.values())
            else:
                todo = [i for i, key in enumerate(keys) if key not in resolved]
            probe.set_attribute("distinct", len(todo))
            probe.set_attribute("cache_hits", len(resolved))

            results: List[Optional[ClusterResult]] = [None] * len(arrays)
            if todo:
                computed = _dispatch(backend, config, [arrays[i] for i in todo])
                for index, result in zip(todo, computed):
                    results[index] = result
                    key = keys[index]
                    if key not in resolved:
                        resolved[key] = result
                        # Misses dispatched to serial/thread backends already
                        # stored themselves via estimator.fit (same process-wide
                        # cache), so only store what is still absent — process
                        # workers populate their own memory tier, not ours.
                        # (Dispatch keeps config.cache on rather than stripping
                        # it: the config is embedded in serialized payloads, so
                        # a stripped copy would break hit/cold byte-identity.)
                        if cache is not None and key not in cache:
                            cache.put(key, result.clone())
            for index, key in enumerate(keys):
                if results[index] is None:
                    results[index] = resolved[key].clone()
            return results
        finally:
            if owns_backend:
                backend.close()


def _dispatch(
    backend: ParallelBackend,
    config: ClusteringConfig,
    arrays: List[np.ndarray],
) -> List[ClusterResult]:
    """Run the miss jobs on ``backend``, zero-copy where it pays off.

    Shared-memory shipment only helps when matrices actually cross a
    process boundary: serial/thread backends and single-item dispatches
    (which run inline) go straight to :func:`fit_one`.
    """
    use_shared = (
        isinstance(backend, ProcessBackend)
        and len(arrays) > 1
        and shm.shared_memory_available()
    )
    if not use_shared:
        return backend.map(partial(fit_one, config), arrays)
    with shm.SharedMatrixArena() as arena:
        refs = [arena.share(array) for array in arrays]
        return backend.map(partial(_fit_one_shared, config), refs)

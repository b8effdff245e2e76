"""Stable content fingerprints for the result cache.

A cache key must identify *exactly* the inputs that determine a clustering
result and nothing else.  Two fingerprints are combined:

* :func:`config_fingerprint` hashes the canonical JSON form of
  ``ClusteringConfig.to_dict()`` with the cache knobs themselves
  (:data:`CACHE_KNOB_FIELDS`) removed — whether or where a run is cached
  never changes its output, so ``cache=True`` and ``cache=False`` runs of
  the same configuration share a key;
* :func:`matrix_fingerprint` hashes an array's dtype, shape, and raw bytes,
  so any bit-level change to the data produces a new key while a re-sent
  identical matrix (same window, flat market tick, duplicated scenario)
  maps to the same one.

Keys are SHA-256 hex digests (:func:`content_digest`, which the fleet
ring's raw-body key uses too), safe to use as file names for the on-disk
tier.  On CPUs with the SHA extensions (x86 ``sha_ni``) SHA-256 hashes a
request matrix in about half the time BLAKE2b took.
:data:`FINGERPRINT_VERSION` is folded into every key so that a change to
the hashing scheme invalidates old entries instead of silently colliding
with them.  Version 2 is SHA-256; version 1 was BLAKE2b-160, so disk
entries written under it are never read again: an upgraded ``cache_dir``
refits each job once, and its old ``.pkl`` files can be deleted.

This module deliberately imports nothing from :mod:`repro.api` — configs
are consumed through their ``to_dict()`` method — so the cache layer sits
below the API layer without import cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

import numpy as np

#: Config fields that select caching behaviour rather than the computation;
#: they are excluded from the fingerprint so cached and uncached runs of
#: the same configuration address the same entry.
CACHE_KNOB_FIELDS = ("cache", "cache_dir")

#: The config fields the fingerprint *does* hash — every ClusteringConfig
#: field that is not a cache knob.  :func:`config_fingerprint` derives the
#: set dynamically from ``to_dict()`` (nothing reads this tuple at hash
#: time, so the key derivation is untouched), but the explicit accounting
#: lets the config-fingerprint lint rule fail the build when a new config
#: field is added without deciding whether it belongs in the cache key.
FINGERPRINT_FIELDS = (
    "method",
    "num_clusters",
    "prefix",
    "precomputed",
    "linkage",
    "seed",
    "num_restarts",
    "spectral_neighbors",
)

#: Bumped whenever the key derivation changes; folded into every key.
FINGERPRINT_VERSION = 2


def content_digest() -> "hashlib._Hash":
    """A fresh hash object of the one digest every content key uses."""
    return hashlib.sha256()


def config_fingerprint(config: Any) -> str:
    """Hex fingerprint of a config's computation-relevant fields.

    ``config`` is anything with a JSON-safe ``to_dict()`` (in practice a
    :class:`~repro.api.config.ClusteringConfig`); a plain dict is accepted
    too.  The cache knobs in :data:`CACHE_KNOB_FIELDS` are dropped before
    hashing.
    """
    payload: Dict[str, Any] = config if isinstance(config, dict) else config.to_dict()
    payload = {k: v for k, v in payload.items() if k not in CACHE_KNOB_FIELDS}
    digest = content_digest()
    digest.update(json.dumps(payload, sort_keys=True, default=str).encode("utf-8"))
    return digest.hexdigest()


def matrix_fingerprint(matrix: np.ndarray) -> str:
    """Hex fingerprint of an array's dtype, shape, and bytes.

    C-contiguous arrays (including the read-only ``frombuffer`` views the
    binary serve transport decodes) are hashed straight through the buffer
    protocol with no intermediate copy; non-contiguous arrays hash their
    C-order bytes (``tobytes`` copies), so views and contiguous copies of
    the same data agree.
    """
    array = np.asarray(matrix)
    digest = content_digest()
    digest.update(array.dtype.str.encode("ascii"))
    digest.update(repr(array.shape).encode("ascii"))
    if array.flags.c_contiguous:
        digest.update(memoryview(array).cast("B") if array.ndim else memoryview(array))
    else:
        # Non-contiguous fallback: hashing must read C-order bytes, and a
        # strided view has no single buffer to hand the digest.
        digest.update(array.tobytes())  # repro: allow[hot-path-copy]
    return digest.hexdigest()


def result_cache_key(
    config: Any,
    matrix: np.ndarray,
    dissimilarity: Optional[np.ndarray] = None,
) -> str:
    """The content-addressed key of one fit: config x input data.

    ``dissimilarity`` covers the explicit-dissimilarity fit path
    (``fit(X, dissimilarity=...)``); passing one changes the key, omitting
    it matches only fits that also omitted it.
    """
    digest = content_digest()
    digest.update(f"repro-result-cache/v{FINGERPRINT_VERSION}".encode("ascii"))
    digest.update(config_fingerprint(config).encode("ascii"))
    digest.update(matrix_fingerprint(matrix).encode("ascii"))
    if dissimilarity is not None:
        digest.update(matrix_fingerprint(dissimilarity).encode("ascii"))
    return digest.hexdigest()

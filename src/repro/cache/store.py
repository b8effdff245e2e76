"""Content-addressed result cache: in-memory LRU tier + optional disk tier.

:class:`ResultCache` maps the keys produced by
:func:`repro.cache.fingerprint.result_cache_key` to cached values (any
value in memory; on disk, :class:`~repro.api.result.ClusterResult` answers
without fit intermediates).  Lookups go memory first, then disk; disk hits
are promoted into the memory tier.

The disk tier is written for concurrent serving processes:

* entries are written to a temp file in the cache directory and published
  with :func:`os.replace`, so readers never observe a partial entry;
* every entry is one ``<key>.json`` file (:func:`_encode`), read without
  running code, whose envelope carries the format version, the library
  version, and its own key — a corrupt or foreign file, a format bump, or
  a library upgrade all degrade to a *miss* (counted in
  :attr:`CacheStats.disk_errors` / evicted from disk), never an exception.

:func:`get_result_cache` hands out process-wide instances (one shared
in-memory cache, plus one per on-disk directory) so that every estimator
fit and every served request in a process shares hits.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.dendrogram.node import Dendrogram
from repro.obs.tracer import trace_span

#: Envelope magic + format version; bump the version to invalidate disk entries.
_ENTRY_MAGIC = "repro-result-cache"
ENTRY_FORMAT_VERSION = 3

#: Default capacity of the in-memory LRU tier.
DEFAULT_MAX_ENTRIES = 128


def _encode(key: str, result: Any) -> str:
    """A ``ClusterResult``'s disk entry: the envelope, ``result.to_dict()``,
    the labels' dtype and one ``[left, right, height, distance, metadata]``
    row per internal dendrogram node (JSON floats round-trip exactly)."""
    from repro import __version__  # lazily: the api layer imports this module

    tree = result.dendrogram
    return json.dumps({
        "magic": _ENTRY_MAGIC, "version": ENTRY_FORMAT_VERSION, "library": __version__, "key": key,
        "result": result.to_dict(),
        "labels_dtype": None if result.labels is None else result.labels.dtype.str,
        "num_leaves": None if tree is None else tree.num_leaves,
        "merges": [] if tree is None else [
            [node.left, node.right, node.height, node.distance, node.metadata]
            for node in tree.internal_nodes()
        ],
    })


def _decode(key: str, text: bytes) -> Any:
    """The ``ClusterResult`` of an :func:`_encode` entry for ``key``; raises
    on anything else (malformed JSON, a stale or foreign envelope)."""
    # Imported lazily: the api layer imports this module.
    from repro import __version__
    from repro.api.config import ClusteringConfig
    from repro.api.result import ClusterResult

    entry = json.loads(text)
    envelope = [entry["magic"], entry["version"], entry["library"], entry["key"]]
    if envelope != [_ENTRY_MAGIC, ENTRY_FORMAT_VERSION, __version__, key]:
        raise ValueError(f"stale or foreign cache entry {envelope!r}")
    payload, tree = entry["result"], None
    if entry["num_leaves"] is not None:
        tree = Dendrogram(entry["num_leaves"])
        for left, right, height, distance, metadata in entry["merges"]:
            tree.merge(left, right, height, distance, **metadata)
    labels = payload["labels"]
    return ClusterResult(
        method=payload["method"],
        config=ClusteringConfig.from_dict(payload["config"]),
        labels=None if labels is None else np.asarray(labels, dtype=entry["labels_dtype"]),
        step_seconds=payload["step_seconds"],
        raw=tree,
        extras=payload["extras"],
    )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultCache`.

    ``hits`` counts every successful ``get`` (memory or disk);
    ``disk_hits`` the subset served from disk.  ``disk_errors`` counts
    corrupt, stale, or unreadable disk entries (each also surfaced to the
    caller as a miss).

    Counters are mutated under the owning store's lock, and the store
    shares that lock with its stats object, so the derived readers
    (:meth:`snapshot`, :attr:`hit_rate`, :meth:`as_dict`) see a consistent
    point-in-time view even while serving threads are counting — e.g. a
    ``/metrics`` scrape can never observe ``hits`` from after a lookup
    whose ``misses`` increment it already read.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_errors: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: asdict()/repr/compare skip it, and the
        # owning ResultCache replaces it with the store lock the counter
        # mutations already run under.
        self._lock = threading.Lock()

    def snapshot(self) -> "CacheStats":
        """A consistent point-in-time copy (one lock acquisition)."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                stores=self.stores,
                evictions=self.evictions,
                disk_hits=self.disk_hits,
                disk_errors=self.disk_errors,
            )

    @property
    def lookups(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 with no lookups)."""
        with self._lock:
            hits, lookups = self.hits, self.hits + self.misses
        return hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        snap = self.snapshot()
        payload = asdict(snap)
        payload["hit_rate"] = snap.hits / snap.lookups if snap.lookups else 0.0
        return payload


class ResultCache:
    """LRU cache of clustering results, optionally persisted to a directory.

    Parameters
    ----------
    max_entries:
        Capacity of the in-memory tier; the least recently used entry is
        evicted first.  Entries are counted, not sized; a cached fit is
        its answer (labels and dendrogram, O(n)), not the n x n
        intermediates.  The disk tier is not size-bounded.
    cache_dir:
        Optional directory for the persistent tier (created on first
        write); values written there must be ``ClusterResult`` objects.

    Thread-safe: the memory tier is guarded by a lock, and disk writes are
    atomic write-then-rename, so concurrent readers/writers (including
    separate processes sharing ``cache_dir``) see either the old or the
    new entry, never a torn one.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.cache_dir = os.path.abspath(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Counter mutations happen under self._lock; sharing it with the
        # stats object makes snapshot()/hit_rate/as_dict consistent for
        # concurrent readers (the serving /metrics path).
        self.stats._lock = self._lock

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` on a miss."""
        with trace_span("cache.get") as probe:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    probe.set_attribute("tier", "memory")
                    return self._entries[key]
            if self.cache_dir is not None:
                value = self._read_disk(key)
                if value is not None:
                    with self._lock:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        self._insert(key, value)
                    probe.set_attribute("tier", "disk")
                    return value
            with self._lock:
                self.stats.misses += 1
            probe.set_attribute("tier", "miss")
            return None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list:
        """Memory-tier keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    # -- updates -----------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` in both tiers."""
        with trace_span("cache.put", disk=self.cache_dir is not None):
            with self._lock:
                self._insert(key, value)
                self.stats.stores += 1
            if self.cache_dir is not None:
                self._write_disk(key, value)

    def _insert(self, key: str, value: Any) -> None:
        """Memory-tier insert + LRU eviction; caller holds the lock."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[Any]:
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                return _decode(key, handle.read())
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated, corrupt, stale or foreign entry: a miss, not a crash.
            with self._lock:
                self.stats.disk_errors += 1
            self._discard_disk(path)
            return None

    def _write_disk(self, key: str, value: Any) -> None:
        path = self._entry_path(key)
        try:
            text = _encode(key, value)
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "w", encoding="ascii") as handle:
                    handle.write(text)
                os.replace(tmp_path, path)
            except BaseException:
                self._discard_disk(tmp_path)
                raise
        except Exception:
            # A full/read-only disk or an unencodable value degrades
            # persistence, not correctness.
            with self._lock:
                self.stats.disk_errors += 1

    @staticmethod
    def _discard_disk(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Process-wide instances
# ---------------------------------------------------------------------------

_REGISTRY_LOCK = threading.Lock()
_MEMORY_CACHE: Optional[ResultCache] = None
_DISK_CACHES: Dict[str, ResultCache] = {}


def get_result_cache(cache_dir: Optional[str] = None) -> ResultCache:
    """The process-wide cache for ``cache_dir`` (memory-only when ``None``).

    Every caller asking for the same directory (or for no directory) gets
    the same instance, so hits are shared across estimators, batch calls,
    and streaming runs in the process.
    """
    global _MEMORY_CACHE
    with _REGISTRY_LOCK:
        if cache_dir is None:
            if _MEMORY_CACHE is None:
                _MEMORY_CACHE = ResultCache()
            return _MEMORY_CACHE
        resolved = os.path.abspath(cache_dir)
        cache = _DISK_CACHES.get(resolved)
        if cache is None:
            cache = ResultCache(cache_dir=resolved)
            _DISK_CACHES[resolved] = cache
        return cache


def clear_result_caches() -> None:
    """Forget every process-wide cache instance (primarily for tests)."""
    global _MEMORY_CACHE
    with _REGISTRY_LOCK:
        _MEMORY_CACHE = None
        _DISK_CACHES.clear()

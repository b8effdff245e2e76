"""Content-addressed result cache: in-memory LRU tier + optional disk tier.

:class:`ResultCache` maps the keys produced by
:func:`repro.cache.fingerprint.result_cache_key` to cached values (in
practice :class:`~repro.api.result.ClusterResult` objects, but the store is
value-agnostic).  Lookups go memory first, then disk; disk hits are
promoted into the memory tier.

The disk tier is written for concurrent serving processes:

* entries are written to a temp file in the cache directory and published
  with :func:`os.replace`, so readers never observe a partial entry;
* every entry is a versioned envelope carrying the format version, the
  library version, and its own key — a corrupt file, a foreign pickle, a
  format bump, or a library upgrade all degrade to a *miss* (counted in
  :attr:`CacheStats.disk_errors` / evicted from disk), never an exception.

:func:`get_result_cache` hands out process-wide instances (one shared
in-memory cache, plus one per on-disk directory) so that every estimator
fit and every served request in a process shares hits.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.obs.tracer import trace_span

#: Envelope magic + format version; bump the version to invalidate disk entries.
_ENTRY_MAGIC = "repro-result-cache"
ENTRY_FORMAT_VERSION = 2

#: Default capacity of the in-memory LRU tier.
DEFAULT_MAX_ENTRIES = 128


def _library_version() -> str:
    # Imported lazily: repro/__init__ imports the api layer, which may in
    # turn import this module, so a top-level import would be cyclic.
    from repro import __version__

    return __version__


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

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_lock", None)  # locks do not pickle
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
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
        evicted first.  Entries are counted, not sized: a cached
        clustering result retains its ``raw`` pipeline artefacts
        (shortest paths, graph, dendrogram — on the order of the n x n
        input matrix each), so size ``max_entries`` to roughly
        ``budget_bytes / (a few * n^2 * 8)`` for your largest ``n``.  The
        disk tier is not size-bounded and grows by about one input matrix
        per distinct job; point ``cache_dir`` at storage sized for that.
    cache_dir:
        Optional directory for the persistent tier (created on first
        write).  Values stored there must be picklable.

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

    def clear(self) -> None:
        """Drop the memory tier (disk entries are left in place)."""
        with self._lock:
            self._entries.clear()

    # -- disk tier ---------------------------------------------------------

    def _entry_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.pkl")

    def _read_disk(self, key: str) -> Optional[Any]:
        path = self._entry_path(key)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated, corrupt, or unreadable entry: a miss, not a crash.
            with self._lock:
                self.stats.disk_errors += 1
            self._discard_disk(path)
            return None
        if (
            not isinstance(envelope, tuple)
            or len(envelope) != 5
            or envelope[0] != _ENTRY_MAGIC
            or envelope[1] != ENTRY_FORMAT_VERSION
            or envelope[2] != _library_version()
            or envelope[3] != key
        ):
            # Stale format/version or a key collision with a foreign file.
            with self._lock:
                self.stats.disk_errors += 1
            self._discard_disk(path)
            return None
        return envelope[4]

    def _write_disk(self, key: str, value: Any) -> None:
        path = self._entry_path(key)
        envelope = (_ENTRY_MAGIC, ENTRY_FORMAT_VERSION, _library_version(), key, value)
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=self.cache_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, path)
            except BaseException:
                self._discard_disk(tmp_path)
                raise
        except Exception:
            # A full/read-only disk degrades persistence, not correctness.
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

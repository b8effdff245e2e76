"""The one typed, serializable configuration surface of the library.

Every run — a CLI invocation, a harness method, a streaming tick, a batch
job — is described by a frozen :class:`ClusteringConfig`.  The dataclass
consolidates the knobs that previously lived as positional/keyword
arguments of ``tmfg_dbht``, hand-rolled CLI plumbing, and the streaming
runner's parameter copies:

* ``method`` — a registry id resolved by
  :func:`repro.api.estimators.make_estimator` (``"tmfg-dbht"``,
  ``"pmfg-dbht"``, ``"hac"``, ``"kmeans"``, ...);
* the TMFG/DBHT knobs ``prefix``, ``apsp_method``, ``landmarks``,
  ``kernel``;
* the execution knobs ``backend`` (a *name*, so the config stays
  serializable; pools are opened with :meth:`ClusteringConfig.open_backend`
  and owned by the caller) and ``workers``;
* baseline-specific knobs (``linkage``, ``seed``, ``num_restarts``,
  ``spectral_neighbors``) that are ignored by methods that do not use them.

Configs validate eagerly in ``__post_init__`` and round-trip losslessly
through ``to_dict``/``from_dict`` (and the JSON convenience wrappers), which
is what the ``repro cluster --config cfg.json`` path and the batch front
door rely on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.parallel.kernels import resolve_kernel_name
from repro.parallel.scheduler import BACKEND_NAMES, ParallelBackend, make_backend

#: The built-in APSP methods; kept for documentation and backwards
#: compatibility.  Validation resolves against the *live* registry
#: (:func:`repro.graph.shortest_paths.available_apsp_methods`), so custom
#: methods registered with ``register_apsp_method`` are accepted too.
APSP_METHODS = ("dijkstra", "floyd", "scipy", "landmark")
LINKAGE_NAMES = ("single", "complete", "average", "weighted")

DEFAULT_METHOD = "tmfg-dbht"


@dataclass(frozen=True)
class ClusteringConfig:
    """Immutable description of one clustering run.

    Parameters
    ----------
    method:
        Registry id of the estimator (see
        :func:`repro.api.available_estimators`).  Validated against the
        registry when the estimator is built, not here, so configs can be
        constructed without importing the estimator layer.
    num_clusters:
        Flat clusters to cut/produce.  ``None`` defers the choice: the
        hierarchical estimators still fit and expose their dendrogram, and
        the caller cuts later; the partitional ones (k-means, spectral)
        require it at ``fit`` time.
    prefix:
        TMFG prefix batch size (``1`` = exact sequential TMFG).
    apsp_method:
        APSP implementation for the DBHT, resolved against the live method
        registry (:func:`repro.graph.shortest_paths.available_apsp_methods`).
        ``"dijkstra"``/``"floyd"``/``"scipy"`` give identical distances;
        ``"landmark"`` is the opt-in approximate mode — it never engages
        unless selected here.
    landmarks:
        Landmark count for ``apsp_method="landmark"`` (``None`` = the
        method's default, currently 32).  Rejected for any other
        ``apsp_method``.  Part of the cache fingerprint, so approximate
        results can never collide with exact cache entries.
    kernel:
        APSP hot-loop kernel name (``"python"``/``"numpy"``/any registered
        custom kernel); ``None`` uses the process-wide default.
    backend:
        Parallel-backend *name* (``"serial"``/``"thread"``/``"process"``)
        or ``None`` for the serial default.  Kept as a name so the config
        serializes; :meth:`open_backend` constructs the pool.
    workers:
        Worker count for the thread/process backend; requires such a
        backend to be selected.
    precomputed:
        Treat the fitted matrix as a precomputed similarity matrix instead
        of raw series (one object per row).
    cache:
        Consult the content-addressed result cache (:mod:`repro.cache`)
        before fitting, keyed by this config's computation-relevant fields
        plus the input matrix's dtype/shape/bytes.  Hits return the stored
        cold fit verbatim (labels, timings, artefacts), so enabling the
        cache never changes results.  ``cluster_many`` additionally uses
        the same fingerprints to deduplicate identical jobs, and the
        streaming runner to skip ticks whose windowed correlation is
        unchanged.
    cache_dir:
        Optional directory for the persistent cache tier (entries survive
        the process; corrupt or stale files degrade to misses).  Requires
        ``cache=True``.
    linkage:
        Linkage rule for the HAC estimator.
    seed / num_restarts:
        Seeding for the k-means-family estimators.
    spectral_neighbors:
        kNN-graph neighbours for the spectral estimator (clamped to
        ``n - 1`` at fit time, as the harness always did).
    """

    method: str = DEFAULT_METHOD
    num_clusters: Optional[int] = None
    prefix: int = 1
    apsp_method: str = "dijkstra"
    landmarks: Optional[int] = None
    kernel: Optional[str] = None
    backend: Optional[str] = None
    workers: Optional[int] = None
    precomputed: bool = False
    cache: bool = False
    cache_dir: Optional[str] = None
    linkage: str = "complete"
    seed: int = 0
    num_restarts: int = 3
    spectral_neighbors: int = 10

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ValueError("method must be a non-empty string id")
        if self.num_clusters is not None and self.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1 (or None)")
        if self.prefix < 1:
            raise ValueError("prefix must be at least 1")
        from repro.graph.shortest_paths import available_apsp_methods

        valid_methods = available_apsp_methods()
        if self.apsp_method not in valid_methods:
            raise ValueError(
                f"unknown apsp_method {self.apsp_method!r}; expected one of {valid_methods}"
            )
        if self.landmarks is not None:
            if self.apsp_method != "landmark":
                raise ValueError(
                    "landmarks is set but apsp_method is "
                    f"{self.apsp_method!r}; it only applies to apsp_method='landmark'"
                )
            if self.landmarks < 2:
                raise ValueError("landmarks must be at least 2")
        if self.kernel is not None:
            resolve_kernel_name(self.kernel)
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.workers is not None:
            if self.backend in (None, "serial"):
                raise ValueError("workers has no effect without backend 'thread' or 'process'")
            if self.workers < 1:
                raise ValueError("workers must be at least 1")
        if self.cache_dir is not None and not self.cache:
            raise ValueError(
                "cache_dir is set but caching is disabled; enable cache or drop cache_dir"
            )
        if self.linkage not in LINKAGE_NAMES:
            raise ValueError(
                f"unknown linkage {self.linkage!r}; expected one of {LINKAGE_NAMES}"
            )
        if self.num_restarts < 1:
            raise ValueError("num_restarts must be at least 1")
        if self.spectral_neighbors < 1:
            raise ValueError("spectral_neighbors must be at least 1")

    # -- derivation --------------------------------------------------------

    def replace(self, **changes: Any) -> "ClusteringConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def merged(self, payload: Dict[str, Any]) -> "ClusteringConfig":
        """A copy updated from a (possibly partial) :meth:`to_dict`-style dict.

        Unlike :meth:`from_dict`, fields absent from ``payload`` keep *this*
        config's values rather than the dataclass defaults — the CLI uses
        this so a hand-written partial ``--config`` file overlays the
        subcommand's defaults instead of silently reverting them.
        """
        field_names = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(payload) - field_names)
        if unknown:
            raise ValueError(
                f"unknown ClusteringConfig keys {unknown}; valid keys: {sorted(field_names)}"
            )
        return dataclasses.replace(self, **payload)

    def open_backend(self) -> Optional[ParallelBackend]:
        """Construct the configured pool, or ``None`` for the serial default.

        The caller owns (and must ``close()``) the returned backend; the
        config itself never holds live resources.
        """
        if self.backend in (None, "serial"):
            return None
        return make_backend(self.backend, num_workers=self.workers)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict holding every field (lossless)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusteringConfig":
        """Rebuild a config from :meth:`to_dict` output (rejects unknown keys).

        Missing fields take the dataclass defaults; to overlay a partial
        payload onto an existing config, use :meth:`merged`.
        """
        return cls().merged(payload)

    def to_json(self, indent: Optional[int] = None) -> str:
        """The config as a JSON document (inverse of :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusteringConfig":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a ClusteringConfig JSON document must be an object")
        return cls.from_dict(payload)

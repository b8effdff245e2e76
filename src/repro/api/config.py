"""The one typed, serializable configuration surface of the library.

Every run — a CLI invocation, a harness method, a streaming tick, a served
request — is described by a frozen :class:`ClusteringConfig`.  The dataclass
consolidates the knobs that previously lived as positional/keyword
arguments of ``tmfg_dbht``, hand-rolled CLI plumbing, and the streaming
runner's parameter copies:

* ``method`` — a registry id resolved by
  :func:`repro.api.estimators.make_estimator` (``"tmfg-dbht"``,
  ``"pmfg-dbht"``, ``"hac"``, ``"kmeans"``, ...);
* the TMFG knob ``prefix`` (the DBHT has one APSP path, exact Dijkstra
  distances from the serial frontier kernel, and no knob);
* the input and cache knobs ``precomputed``, ``cache`` and ``cache_dir``;
* baseline-specific knobs (``linkage``, ``seed``, ``num_restarts``,
  ``spectral_neighbors``) that are ignored by methods that do not use them.

Configs validate eagerly in ``__post_init__`` and round-trip losslessly
through ``to_dict``/``from_dict`` (and the JSON convenience wrappers), which
is what the ``repro cluster --config cfg.json`` path and the server's
request ``config`` overlays rely on.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from typing import Any, Dict, Optional

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
    precomputed:
        Treat the fitted matrix as a precomputed similarity matrix instead
        of raw series (one object per row).
    cache:
        Consult the content-addressed result cache (:mod:`repro.cache`)
        before fitting, keyed by this config's computation-relevant fields
        plus the input matrix's dtype/shape/bytes.  Hits return the stored
        cold fit's answer verbatim (labels, timings, dendrogram; ``raw`` is
        the dendrogram alone, on a miss as on a hit), so enabling the cache
        never changes results.  The streaming runner uses the same
        fingerprints to skip ticks whose windowed correlation is unchanged.
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
    precomputed: bool = False
    cache: bool = False
    cache_dir: Optional[str] = None
    linkage: str = "complete"
    seed: int = 0
    num_restarts: int = 3
    spectral_neighbors: int = 10

    # The DBHT's one APSP method, for callers that name it (e.g.
    # ``all_pairs_shortest_paths(graph, method=config.apsp_method)``).  A
    # class constant, not a field: it is not serialized, not part of the
    # cache key and not settable.
    apsp_method = "dijkstra"

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method:
            raise ValueError("method must be a non-empty string id")
        # Type checks first, so a request overlay such as {"seed": [1]} or
        # {"num_clusters": true} fails here, not as a crash inside a fit.
        for name in ("num_clusters", "prefix", "seed", "num_restarts", "spectral_neighbors"):
            value = getattr(self, name)
            if name == "num_clusters" and value is None:
                continue
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("precomputed", "cache"):
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise TypeError(f"cache_dir must be a string or None, got {self.cache_dir!r}")
        if self.num_clusters is not None and self.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1 (or None)")
        if self.prefix < 1:
            raise ValueError("prefix must be at least 1")
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

"""The unified result type of the estimator layer.

:class:`ClusterResult` subsumes what previously came back in three shapes —
``PipelineResult`` from ``tmfg_dbht``, ``ClassicDBHTResult`` from the
baselines, and the streaming runner's per-tick payloads: flat labels, the
per-step wall-clock decomposition, and lazy access to the artefacts
(dendrogram, bubble tree, filtered graph) through the ``raw`` result
object, which an uncached fit keeps verbatim.

``to_dict``/``to_json`` emit the JSON-safe serving payload (labels,
timings, the originating :class:`~repro.api.config.ClusteringConfig`),
which is what the server and the CLI report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.api.config import ClusteringConfig
from repro.dendrogram.node import Dendrogram


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of an extras value to JSON-safe types."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    # numpy scalars are not Python-number instances: np.bool_ is not a bool
    # subclass, np.int64/np.float32 are not int/float subclasses.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return None


@dataclass
class ClusterResult:
    """Output of one estimator fit (or one streaming tick).

    ``labels`` is ``None`` when the config deferred the flat cut
    (``num_clusters=None`` on a hierarchical method); :meth:`cut` produces
    cuts on demand.  An uncached fit's ``raw`` holds the method's native
    result object (``PipelineResult``, ``KMeansResult``, ...) so every
    intermediate artefact stays reachable without widening this class per
    method; a cached fit's (``config.cache``, hit or miss) is the answer's
    bare :class:`~repro.dendrogram.node.Dendrogram`, or ``None``.
    """

    method: str
    config: ClusteringConfig
    labels: Optional[np.ndarray]
    step_seconds: Dict[str, float] = field(default_factory=dict)
    raw: Optional[object] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    # -- lazy artefacts ----------------------------------------------------

    @property
    def num_clusters(self) -> Optional[int]:
        """Distinct labels in the flat clustering (``None`` before a cut)."""
        if self.labels is None:
            return None
        return int(len(np.unique(self.labels)))

    @property
    def dendrogram(self) -> Optional[Dendrogram]:
        """The method's dendrogram, if it builds one (lazy, from ``raw``)."""
        if isinstance(self.raw, Dendrogram):
            return self.raw
        dendrogram = getattr(self.raw, "dendrogram", None)
        return dendrogram if isinstance(dendrogram, Dendrogram) else None

    @property
    def bubble_tree(self) -> Optional[object]:
        """The DBHT bubble tree, for the methods that construct one."""
        tmfg = getattr(self.raw, "tmfg", None)
        if tmfg is not None and getattr(tmfg, "bubble_tree", None) is not None:
            return tmfg.bubble_tree
        return getattr(self.raw, "bubble_tree", None)

    @property
    def seconds(self) -> float:
        """Total wall-clock of the fit (``step_seconds["total"]``, else 0.0)."""
        return self.step_seconds.get("total", 0.0)

    def cut(self, num_clusters: int) -> np.ndarray:
        """Flat clustering with ``num_clusters`` clusters (hierarchical methods)."""
        dendrogram = self.dendrogram
        if dendrogram is None:
            raise ValueError(
                f"method {self.method!r} produced no dendrogram; only its fitted "
                "labels are available"
            )
        from repro.dendrogram.cut import cut_k

        return cut_k(dendrogram, num_clusters)

    def clone(self) -> "ClusterResult":
        """A copy safe to hand to an independent caller.

        The labels array and the mutable dicts are copied so no caller can
        corrupt another's (or the cache's) view; ``raw`` — the read-only
        artefacts — and the frozen config are shared.  Clones
        serialize byte-identically to their source.
        """
        return ClusterResult(
            method=self.method,
            config=self.config,
            labels=None if self.labels is None else self.labels.copy(),
            step_seconds=dict(self.step_seconds),
            raw=self.raw,
            extras=dict(self.extras),
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload: labels, timings, config, scalar extras.

        This is the dict behind :meth:`to_json` — every value is a plain
        JSON type, so callers (the serving layer in particular) can embed
        it directly inside a larger response envelope without a
        stringify-then-reparse round trip, and
        ``json.dumps(result.to_dict())`` is byte-identical to
        ``result.to_json()``.
        """
        return {
            "method": self.method,
            "config": self.config.to_dict(),
            "labels": None if self.labels is None else [int(l) for l in self.labels],
            "num_clusters": self.num_clusters,
            "step_seconds": {k: float(v) for k, v in self.step_seconds.items()},
            "extras": {
                key: safe
                for key, safe in (
                    (key, _json_safe(value)) for key, value in self.extras.items()
                )
                if safe is not None
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

"""Running the paper's methods on labelled data sets.

``run_method`` is the single entry point the figure reproductions use: give
it a method name (the same names the paper uses: ``PAR-TDBHT-10``, ``COMP``,
``AVG``, ``K-MEANS``, ...), a labelled data set, and it returns the flat
clustering, its quality, the wall-clock time, and — for the TMFG+DBHT
pipeline — the per-step timing decomposition used by Fig. 5.

Each paper name is translated into a :class:`~repro.api.ClusteringConfig`
plus a registry id and executed through
:func:`~repro.api.estimators.make_estimator`, so the harness runs the same
estimator layer as the CLI and the server.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api.config import ClusteringConfig
from repro.api.estimators import make_estimator
from repro.baselines.pmfg import construct_pmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import LabelledDataset
from repro.metrics.ami import adjusted_mutual_information
from repro.metrics.ari import adjusted_rand_index
from repro.streaming.runner import StreamingPipeline


@dataclass
class MethodRun:
    """Result of running one clustering method on one data set."""

    method: str
    dataset: str
    labels: np.ndarray
    seconds: float
    ari: float
    ami: Optional[float] = None
    step_seconds: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)
    #: The estimator's native result (a ``PipelineResult`` for
    #: ``PAR-TDBHT-<prefix>``); ``None`` for the stream and PMFG runs.
    raw: object = None


_PAR_TDBHT_PATTERN = re.compile(r"^PAR-TDBHT-(\d+)$", re.IGNORECASE)
_STREAM_TDBHT_PATTERN = re.compile(r"^STREAM-TDBHT-(\d+)$", re.IGNORECASE)

# Paper name -> estimator-registry id for the fixed (non-parameterised) names.
_METHOD_IDS = {
    "SEQ-TDBHT": "classic-dbht",
    "PMFG-DBHT": "pmfg-dbht",
    "COMP": "hac-complete",
    "AVG": "hac-average",
    "K-MEANS": "kmeans",
    "K-MEANS-S": "spectral",
}


def available_methods() -> List[str]:
    """Names accepted by :func:`run_method` (prefix sizes are free-form)."""
    return [
        "PAR-TDBHT-1",
        "PAR-TDBHT-10",
        "PAR-TDBHT-<prefix>",
        "SEQ-TDBHT",
        "STREAM-TDBHT-<prefix>",
        "PMFG-DBHT",
        "COMP",
        "AVG",
        "K-MEANS",
        "K-MEANS-S",
    ]


def run_method(
    method: str,
    dataset: LabelledDataset,
    num_clusters: Optional[int] = None,
    seed: int = 0,
    compute_ami: bool = False,
    spectral_neighbors: int = 10,
    stream_window: Optional[int] = None,
    stream_hop: Optional[int] = None,
) -> MethodRun:
    """Run ``method`` on ``dataset`` and evaluate against its labels.

    ``num_clusters`` defaults to the number of ground-truth classes, which
    is how the paper cuts every dendrogram.

    The ``STREAM-TDBHT-<prefix>`` family treats the data set as a return
    stream (one series per object), slides a ``stream_window``-wide
    correlation window in steps of ``stream_hop`` through
    :class:`~repro.streaming.StreamingPipeline`, scores the final tick's
    cut against the ground truth, and reports the mean per-tick timing
    decomposition in ``step_seconds`` (keys ``"similarity"``, ``"tmfg"``,
    ``"apsp"``, ``"bubble-tree"``, ``"hierarchy"``, ``"total"``).  The
    window defaults to half the series length and the hop to an eighth of
    the remainder.
    """
    num_clusters = dataset.num_classes if num_clusters is None else num_clusters
    name = method.upper()
    start = time.perf_counter()
    step_seconds: Dict[str, float] = {}
    extras: Dict[str, object] = {}
    raw: object = None

    stream_match = _STREAM_TDBHT_PATTERN.match(name)
    par_match = _PAR_TDBHT_PATTERN.match(name)
    method_id: Optional[str] = None
    prefix = 1
    if stream_match:
        prefix = int(stream_match.group(1))
        length = dataset.data.shape[1]
        window = (
            stream_window
            if stream_window is not None
            else min(length, max(8, length // 2))
        )
        hop = stream_hop if stream_hop is not None else max(1, (length - window) // 8)
        stream_config = ClusteringConfig(
            method="tmfg-dbht", num_clusters=num_clusters, prefix=prefix
        )
        pipeline = StreamingPipeline(dataset.data, window=window, hop=hop, config=stream_config)
        stream_result = pipeline.run()
        labels = stream_result.labels
        step_seconds = stream_result.mean_step_seconds()
        extras["stream"] = stream_result
        extras["ticks"] = stream_result.num_ticks
        extras["window"] = window
        extras["hop"] = hop
        extras["mean_drift_ari"] = stream_result.mean_drift_ari()
        extras["mean_drift_ami"] = stream_result.mean_drift_ami()
    elif par_match:
        method_id = "tmfg-dbht"
        prefix = int(par_match.group(1))
    elif name == "PMFG":
        # Graph-quality reference only (Fig. 7); no estimator, no clustering.
        similarity, _ = similarity_and_dissimilarity(dataset.data)
        pmfg = construct_pmfg(similarity)
        extras["edge_weight_sum"] = pmfg.edge_weight_sum()
        labels = np.zeros(dataset.num_objects, dtype=int)
    elif name in _METHOD_IDS:
        method_id = _METHOD_IDS[name]
    else:
        raise ValueError(
            f"unknown method {method!r}; available methods: {available_methods()}"
        )

    if method_id is not None:
        config = ClusteringConfig(
            method=method_id,
            num_clusters=num_clusters,
            prefix=prefix,
            seed=seed,
            spectral_neighbors=spectral_neighbors,
        )
        estimator = make_estimator(method_id, config)
        result = estimator.fit(dataset.data).result_
        labels = result.labels
        step_seconds = {k: v for k, v in result.step_seconds.items() if k != "total"}
        extras.update(result.extras)
        raw = result.raw

    seconds = time.perf_counter() - start
    ari = adjusted_rand_index(dataset.labels, labels)
    ami = adjusted_mutual_information(dataset.labels, labels) if compute_ami else None
    return MethodRun(
        method=name,
        dataset=dataset.name,
        labels=np.asarray(labels),
        seconds=seconds,
        ari=ari,
        ami=ami,
        step_seconds=step_seconds,
        extras=extras,
        raw=raw,
    )


def subsample(dataset: LabelledDataset, max_objects: int, seed: int = 0) -> LabelledDataset:
    """Random subsample of a data set (used for the slow baselines)."""
    if dataset.num_objects <= max_objects:
        return dataset
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(dataset.num_objects, size=max_objects, replace=False))
    return LabelledDataset(
        data=dataset.data[indices],
        labels=dataset.labels[indices],
        name=f"{dataset.name}[{max_objects}]",
    )

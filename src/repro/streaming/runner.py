"""Streaming TMFG+DBHT pipeline over a rolling correlation window.

:class:`StreamingPipeline` slides a window of ``window`` observations over
a return stream in steps of ``hop``, and per tick

1. pushes ``hop`` observations into a plain ring buffer
   (:class:`~repro.streaming.rolling.RollingCorrelation`) and takes the
   window's correlation matrix from scratch
   (:func:`~repro.datasets.similarity.correlation_matrix`),
2. fits a :class:`~repro.api.estimators.TMFGClusterer` (driven by one
   :class:`~repro.api.config.ClusteringConfig`) on that matrix — the same
   fit a batch call makes, and
3. cuts the dendrogram and scores cluster drift against the previous tick
   (ARI/AMI from :mod:`repro.metrics`).

No state is carried from one tick's fit to the next, so every tick's flat
cut is byte-identical to ``TMFGClusterer(config).fit(correlation_matrix(
window))`` on that tick's window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.api.config import ClusteringConfig
from repro.api.estimators import TMFGClusterer
from repro.api.result import ClusterResult
from repro.cache import matrix_fingerprint
from repro.metrics.ami import adjusted_mutual_information
from repro.metrics.ari import adjusted_rand_index
from repro.obs.tracer import collect_steps, trace_span
from repro.streaming.rolling import RollingCorrelation


@dataclass
class TickResult:
    """One streaming tick: the window, its clustering, and its timings.

    ``step_seconds`` holds the per-phase wall-clock decomposition, read off
    the tick's spans: ``"similarity"`` (``stream.similarity``: rolling
    update + matrix emission) plus the fit's ``"tmfg"``/``"apsp"``/
    ``"bubble-tree"``/``"hierarchy"`` phases and the ``"total"``
    (``stream.tick``).  ``drift_ari``/``drift_ami`` compare this tick's flat cut
    with the previous tick's (``None`` on the first tick).

    ``reused`` marks a short-circuited tick: the window's raw bytes
    matched the previous tick's exactly (a flat market / repeated
    window), so the previous clustering was reused without a fit — an
    exact reuse, since the correlation is a pure function of the window.
    Reused ticks carry the originating fit's ``rounds`` and their own
    wall-clock.
    """

    tick: int
    start: int
    stop: int
    labels: np.ndarray
    num_clusters: int
    rounds: int
    step_seconds: Dict[str, float]
    drift_ari: Optional[float] = None
    drift_ami: Optional[float] = None
    reused: bool = False

    @property
    def seconds(self) -> float:
        return self.step_seconds["total"]

    def to_cluster_result(self, config: ClusteringConfig) -> ClusterResult:
        """This tick as a unified :class:`~repro.api.result.ClusterResult`.

        Carries the labels, timings, and tick telemetry; the heavy
        per-tick artefacts (graph, shortest paths) are deliberately not
        retained across ticks, so ``raw`` is ``None``.
        """
        return ClusterResult(
            method=config.method,
            config=config,
            labels=self.labels,
            step_seconds=dict(self.step_seconds),
            extras={
                "tick": self.tick,
                "start": self.start,
                "stop": self.stop,
                "rounds": self.rounds,
                "drift_ari": self.drift_ari,
                "drift_ami": self.drift_ami,
                "reused": self.reused,
            },
        )


@dataclass
class StreamingResult:
    """All ticks of one streaming run plus aggregate statistics."""

    ticks: List[TickResult]
    window: int
    hop: int
    num_clusters: int

    @property
    def num_ticks(self) -> int:
        return len(self.ticks)

    @property
    def reused_ticks(self) -> int:
        """Ticks short-circuited because the window's bytes were unchanged."""
        return sum(1 for tick in self.ticks if tick.reused)

    @property
    def labels(self) -> Optional[np.ndarray]:
        """The final tick's flat labels (``None`` when no tick ran)."""
        return self.ticks[-1].labels if self.ticks else None

    def mean_step_seconds(self) -> Dict[str, float]:
        """Per-phase wall-clock means over all ticks.

        Reused (short-circuited) ticks have no fit phases; they contribute
        0 to those phases' means, which keeps the means honest about the
        actual per-tick cost of the stream.
        """
        keys = dict.fromkeys(key for tick in self.ticks for key in tick.step_seconds)
        return {
            key: float(np.mean([tick.step_seconds.get(key, 0.0) for tick in self.ticks]))
            for key in keys
        }

    def mean_tick_seconds(self) -> float:
        return self.mean_step_seconds().get("total", 0.0)

    def mean_drift_ari(self) -> Optional[float]:
        values = [tick.drift_ari for tick in self.ticks if tick.drift_ari is not None]
        return float(np.mean(values)) if values else None

    def mean_drift_ami(self) -> Optional[float]:
        values = [tick.drift_ami for tick in self.ticks if tick.drift_ami is not None]
        return float(np.mean(values)) if values else None


class StreamingPipeline:
    """Rolling-window TMFG+DBHT clustering of a return stream.

    Parameters
    ----------
    returns:
        ``(num_assets, num_steps)`` matrix, one time series per row (e.g.
        detrended log-returns).  Columns are consumed in order.
    window:
        Observations per correlation window (must fit in the stream).
    hop:
        Observations the window advances per tick.
    num_clusters:
        Flat clusters cut from each tick's dendrogram.
    prefix:
        TMFG prefix size (``1`` = exact sequential TMFG, the default).
    max_ticks:
        Optional cap on the number of ticks to run.
    config:
        Optional :class:`~repro.api.config.ClusteringConfig` supplying
        ``num_clusters``/``prefix`` in one serializable object (the CLI's
        path).  When given, those individual keyword arguments are
        ignored.
    """

    def __init__(
        self,
        returns: np.ndarray,
        window: int,
        hop: int = 1,
        num_clusters: int = 4,
        prefix: int = 1,
        max_ticks: Optional[int] = None,
        config: Optional[ClusteringConfig] = None,
    ) -> None:
        returns = np.asarray(returns, dtype=float)
        if returns.ndim != 2:
            raise ValueError("returns must be a 2-D (assets x time) matrix")
        num_assets, num_steps = returns.shape
        if num_assets < 4:
            raise ValueError("streaming clustering needs at least 4 assets")
        if window < 2:
            raise ValueError("window must hold at least 2 observations")
        if window > num_steps:
            raise ValueError(
                f"window ({window}) exceeds the stream length ({num_steps})"
            )
        if hop < 1:
            raise ValueError("hop must be at least 1")
        if config is None:
            config = ClusteringConfig(
                method="tmfg-dbht",
                num_clusters=num_clusters,
                prefix=prefix,
            )
        # Ticks cluster the window's correlation matrix directly.
        self.config = config.replace(method="tmfg-dbht", precomputed=True)
        if self.config.num_clusters is None or self.config.num_clusters < 1:
            raise ValueError("num_clusters must be at least 1")
        if max_ticks is not None and max_ticks < 1:
            raise ValueError("max_ticks must be at least 1 (or None)")
        self.returns = returns
        self.window = window
        self.hop = hop
        self.max_ticks = max_ticks

    @property
    def num_clusters(self) -> int:
        return self.config.num_clusters

    @property
    def prefix(self) -> int:
        return self.config.prefix

    @property
    def num_ticks(self) -> int:
        """Ticks the stream supports (before any ``max_ticks`` cap)."""
        num_steps = self.returns.shape[1]
        available = 1 + (num_steps - self.window) // self.hop
        if self.max_ticks is not None:
            return min(available, self.max_ticks)
        return available

    def iter_ticks(self) -> Iterator[TickResult]:
        """Run the stream, yielding one :class:`TickResult` per tick."""
        num_assets, num_steps = self.returns.shape
        rolling = RollingCorrelation(num_assets, self.window)
        estimator = TMFGClusterer(self.config)
        # Tick short-circuit (behind config.cache): when the window's raw
        # bytes did not change since the previous tick — a flat market, a
        # repeated window — the previous clustering is reused without a
        # fit.  The fingerprint is taken over the window *data*, so a
        # reused tick also skips the correlation; the reuse is exact
        # because the correlation is a pure function of the window.
        short_circuit = self.config.cache
        previous_fingerprint: Optional[str] = None
        previous_tick: Optional[TickResult] = None
        tick_index = 0
        consumed = 0
        while consumed < num_steps:
            if tick_index == 0:
                take = self.window
            else:
                take = self.hop
                if consumed + take > num_steps:
                    break
            if self.max_ticks is not None and tick_index >= self.max_ticks:
                break
            # The tick's spans close before it is yielded.
            with collect_steps() as step_seconds, trace_span("stream.tick", tick=tick_index):
                with trace_span("stream.similarity"):
                    rolling.push(self.returns[:, consumed : consumed + take])
                    consumed += take
                    fingerprint = (
                        matrix_fingerprint(rolling.window_data()) if short_circuit else None
                    )
                    reused = (
                        short_circuit
                        and previous_tick is not None
                        and fingerprint == previous_fingerprint
                    )
                    similarity = None if reused else rolling.correlation()
                if reused:
                    labels = previous_tick.labels.copy()
                    rounds = previous_tick.rounds
                else:
                    result = estimator.fit(similarity).result_
                    labels = result.labels
                    rounds = result.extras["rounds"]
                    step_seconds.update(
                        {k: v for k, v in result.step_seconds.items() if k != "total"}
                    )
            drift_ari = drift_ami = None
            if previous_tick is not None:
                drift_ari = adjusted_rand_index(previous_tick.labels, labels)
                drift_ami = adjusted_mutual_information(previous_tick.labels, labels)
            tick = TickResult(
                tick=tick_index,
                start=consumed - self.window,
                stop=consumed,
                labels=labels,
                num_clusters=int(len(np.unique(labels))),
                rounds=rounds,
                step_seconds=step_seconds,
                drift_ari=drift_ari,
                drift_ami=drift_ami,
                reused=reused,
            )
            yield tick
            previous_fingerprint = fingerprint
            previous_tick = tick
            tick_index += 1

    def run(self) -> StreamingResult:
        """Run every tick and return the collected :class:`StreamingResult`."""
        return StreamingResult(
            ticks=list(self.iter_ticks()),
            window=self.window,
            hop=self.hop,
            num_clusters=self.num_clusters,
        )

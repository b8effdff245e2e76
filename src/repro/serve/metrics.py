"""Live observability for the clustering service.

Two pieces:

* :class:`LatencyHistogram` — fixed-bucket latency accounting with
  interpolated quantiles (p50/p95/p99), cheap enough to update on every
  request from both the event loop and the worker threads;
* :class:`ServerMetrics` — the request/error/served counters plus the
  histograms, rendered as one JSON document for ``GET /metrics`` and a
  compact liveness payload for ``GET /healthz``.

The cache hit-rate in the ``/metrics`` document is sourced live from the
result cache's :class:`~repro.cache.store.CacheStats` (snapshotted under
the store lock, so a scrape during a burst sees consistent counters).
The ``batching`` block counts served requests, each a batch of one:
``deduped_requests`` are the ones that joined a fit already in flight for
their key instead of paying for their own.

Everything here is guarded by one lock and touched from multiple threads;
nothing ever blocks on I/O.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional, Sequence

#: Upper bucket bounds in milliseconds (the last bucket is open-ended).
DEFAULT_BUCKET_BOUNDS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, 10000.0, 30000.0,
)


class LatencyHistogram:
    """Fixed-bucket histogram of durations, recorded in seconds.

    Quantiles are estimated by linear interpolation within the bucket the
    quantile falls into (the standard fixed-bucket estimator): exact
    enough for dashboards, constant memory no matter the request volume.
    Not internally locked — :class:`ServerMetrics` serializes access.
    """

    def __init__(self, bounds_ms: Sequence[float] = DEFAULT_BUCKET_BOUNDS_MS) -> None:
        if list(bounds_ms) != sorted(bounds_ms) or len(set(bounds_ms)) != len(bounds_ms):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds_ms = tuple(float(b) for b in bounds_ms)
        self.counts = [0] * (len(self.bounds_ms) + 1)
        self.total = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = max(0.0, seconds * 1000.0)
        index = len(self.bounds_ms)
        for i, bound in enumerate(self.bounds_ms):
            if ms <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum_ms += ms
        self.max_ms = max(self.max_ms, ms)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in milliseconds (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        cumulative = 0
        for i, count in enumerate(self.counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= rank:
                lower = 0.0 if i == 0 else self.bounds_ms[i - 1]
                upper = self.bounds_ms[i] if i < len(self.bounds_ms) else self.max_ms
                upper = max(upper, lower)
                fraction = (rank - previous) / count
                return lower + (upper - lower) * fraction
        return self.max_ms

    def as_dict(self) -> Dict[str, Any]:
        mean = self.sum_ms / self.total if self.total else 0.0
        # Raw bucket state rides along with the derived quantiles so a
        # fleet aggregator can merge replica histograms exactly
        # bucket-wise (obs.prometheus.merge_histogram_dicts) instead of
        # approximating fleet quantiles from per-replica quantiles.
        return {
            "count": self.total,
            "mean_ms": round(mean, 3),
            "p50_ms": round(self.quantile(0.50), 3),
            "p95_ms": round(self.quantile(0.95), 3),
            "p99_ms": round(self.quantile(0.99), 3),
            "max_ms": round(self.max_ms, 3),
            "sum_ms": round(self.sum_ms, 6),
            "bucket_bounds_ms": list(self.bounds_ms),
            "bucket_counts": list(self.counts),
        }


class ServerMetrics:
    """Counters + histograms behind ``/metrics`` and ``/healthz``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.time()
        self._started_clock = time.perf_counter()
        self.requests_total: Dict[str, int] = {}
        self.responses_total: Dict[int, int] = {}
        self.errors_total = 0
        self.rejected_total = 0
        self.served_total = 0
        self.shared_total = 0
        self.request_latency = LatencyHistogram()
        self.queue_latency = LatencyHistogram()
        self.fit_latency = LatencyHistogram()
        self.span_latency: Dict[str, LatencyHistogram] = {}

    # -- recording ---------------------------------------------------------

    def record_request(self, route: str) -> None:
        with self._lock:
            self.requests_total[route] = self.requests_total.get(route, 0) + 1

    def record_response(self, status: int, seconds: Optional[float] = None) -> None:
        with self._lock:
            self.responses_total[status] = self.responses_total.get(status, 0) + 1
            if status == 429:
                self.rejected_total += 1
            elif status >= 500:
                self.errors_total += 1
            if seconds is not None:
                self.request_latency.observe(seconds)

    def record_served(self, queue_seconds: float, fit_seconds: float, shared: bool) -> None:
        """One answered request; ``shared`` when it joined an in-flight fit."""
        with self._lock:
            self.served_total += 1
            self.shared_total += shared
            self.queue_latency.observe(queue_seconds)
            self.fit_latency.observe(fit_seconds)

    def fit_p50_ms(self) -> float:
        """Median executor time of a served request (the ``batch_fit`` p50)."""
        with self._lock:
            return self.fit_latency.quantile(0.5)

    #: span_latency never grows past this many kinds: the taxonomy is
    #: small and fixed, so hitting the cap means a bug (or a hostile
    #: header) is minting kinds — drop rather than let /metrics balloon.
    MAX_SPAN_KINDS = 64

    def record_span(self, kind: str, seconds: float) -> None:
        """Tracer sink: one duration observation per closed span."""
        with self._lock:
            histogram = self.span_latency.get(kind)
            if histogram is None:
                if len(self.span_latency) >= self.MAX_SPAN_KINDS:
                    return
                histogram = self.span_latency[kind] = LatencyHistogram()
            histogram.observe(seconds)

    # -- rendering ---------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        return time.perf_counter() - self._started_clock

    def healthz(
        self, *, queue_depth: int, draining: bool, version: str
    ) -> Dict[str, Any]:
        # pid/version/uptime make fleet replicas distinguishable: a
        # rolling-restart check watches pid change and uptime reset.
        return {
            "status": "draining" if draining else "ok",
            "version": version,
            "pid": os.getpid(),
            "uptime_seconds": round(self.uptime_seconds, 3),
            "queue_depth": queue_depth,
        }

    def render(
        self,
        *,
        queue_depth: int,
        cache_stats: Optional[Dict[str, Any]],
        draining: bool,
        version: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The full ``/metrics`` JSON document."""
        with self._lock:
            requests = dict(self.requests_total)
            responses = {str(k): v for k, v in sorted(self.responses_total.items())}
            payload: Dict[str, Any] = {
                "pid": os.getpid(),
                "version": version,
                "uptime_seconds": round(self.uptime_seconds, 3),
                "draining": draining,
                "queue_depth": queue_depth,
                "requests_total": requests,
                "responses_total": responses,
                "errors_total": self.errors_total,
                "rejected_total": self.rejected_total,
                "latency": {
                    "request": self.request_latency.as_dict(),
                    "queue_wait": self.queue_latency.as_dict(),
                    "batch_fit": self.fit_latency.as_dict(),
                },
                "spans": {
                    kind: histogram.as_dict()
                    for kind, histogram in sorted(self.span_latency.items())
                },
                "batching": {
                    "batches": self.served_total,
                    "batched_requests": self.served_total,
                    "distinct_jobs": self.served_total - self.shared_total,
                    "deduped_requests": self.shared_total,
                    "rejected": self.rejected_total,
                },
            }
        served = requests.get("POST /cluster", 0)
        uptime = payload["uptime_seconds"]
        payload["requests_per_second"] = round(served / uptime, 3) if uptime > 0 else 0.0
        payload["cache"] = cache_stats  # None when the default config disables it
        return payload

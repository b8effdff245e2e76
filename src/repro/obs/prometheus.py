"""Prometheus text exposition for the ``/metrics`` JSON documents.

The JSON document stays the canonical wire format (the fleet router
scrapes replicas as JSON and tests diff it); this module is a pure
renderer from that document to the Prometheus text format, version
0.0.4 — ``# TYPE`` per metric, cumulative ``_bucket{le="…"}`` histogram
series in **seconds**, and a stable sort so scrapes diff cleanly.

Fleet aggregation is exact, not approximated: replica
:class:`LatencyHistogram` dicts expose their raw per-bucket counts
(``bucket_bounds_ms`` / ``bucket_counts``), so
:func:`merge_metrics_documents` sums replica histograms bucket-wise and
quantiles computed downstream are the true fleet quantiles.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional
from urllib.parse import parse_qs

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "merge_histogram_dicts",
    "merge_metrics_documents",
    "render_prometheus",
    "wants_prometheus",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: payload["latency"] sub-key -> exported histogram metric name.
_LATENCY_METRICS = {
    "request": "repro_request_latency_seconds",
    "queue_wait": "repro_queue_wait_latency_seconds",
    "batch_fit": "repro_batch_fit_latency_seconds",
}

#: payload["batching"] counters (monotone across a process lifetime).
_BATCHING_COUNTERS = (
    "batches",
    "batched_requests",
    "distinct_jobs",
    "deduped_requests",
    "rejected",
)

#: payload["cache"] counters, exported as repro_cache_<name>_total.
_CACHE_COUNTERS = ("hits", "misses", "stores", "evictions", "disk_hits", "disk_errors")


def wants_prometheus(raw_path: str, accept: Optional[str]) -> bool:
    """Content negotiation for ``/metrics``.

    ``?format=prometheus`` (or ``format=openmetrics``) wins outright;
    otherwise an ``Accept`` header asking for ``text/plain`` without
    also asking for JSON selects the text exposition.  The default stays
    JSON so existing scrapers and the fleet's replica scrape never
    change behaviour.
    """
    query = raw_path.partition("?")[2]
    if query:
        values = parse_qs(query).get("format", [])
        if any(value in ("prometheus", "openmetrics") for value in values):
            return True
        if values:
            return False
    if not accept:
        return False
    accept = accept.lower()
    return "text/plain" in accept and "application/json" not in accept


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _is_histogram_dict(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and "bucket_counts" in value
        and "bucket_bounds_ms" in value
    )


def merge_histogram_dicts(histograms: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Bucket-wise sum of :meth:`LatencyHistogram.as_dict` payloads.

    All inputs must share bucket bounds (they do: every process uses
    ``DEFAULT_BUCKET_BOUNDS_MS``); mismatched bounds raise rather than
    silently mis-merge.
    """
    merged: Optional[Dict[str, Any]] = None
    for histogram in histograms:
        if merged is None:
            merged = {
                "count": int(histogram.get("count", 0)),
                "sum_ms": float(histogram.get("sum_ms", 0.0)),
                "max_ms": float(histogram.get("max_ms", 0.0)),
                "bucket_bounds_ms": list(histogram["bucket_bounds_ms"]),
                "bucket_counts": list(histogram["bucket_counts"]),
            }
            continue
        if list(histogram["bucket_bounds_ms"]) != merged["bucket_bounds_ms"]:
            raise ValueError("cannot merge histograms with different bucket bounds")
        merged["count"] += int(histogram.get("count", 0))
        merged["sum_ms"] += float(histogram.get("sum_ms", 0.0))
        merged["max_ms"] = max(merged["max_ms"], float(histogram.get("max_ms", 0.0)))
        merged["bucket_counts"] = [
            a + b for a, b in zip(merged["bucket_counts"], histogram["bucket_counts"])
        ]
    if merged is None:
        merged = {
            "count": 0,
            "sum_ms": 0.0,
            "max_ms": 0.0,
            "bucket_bounds_ms": [],
            "bucket_counts": [],
        }
    return merged


def _sum_counter_dicts(dicts: Iterable[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for mapping in dicts:
        if not mapping:
            continue
        for key, value in mapping.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


def merge_metrics_documents(documents: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One fleet-wide ``/metrics`` document from N replica documents.

    Counters sum; histograms merge bucket-wise; gauges that only make
    sense per process (pid, uptime, version) are dropped.  Cache stats
    sum too, which over-counts when replicas share one disk tier's
    entries — the per-replica JSON document remains the place to read
    unaggregated numbers.
    """
    latency_names = sorted({name for doc in documents for name in doc.get("latency", {})})
    span_kinds = sorted({kind for doc in documents for kind in doc.get("spans", {})})
    cache_docs = [doc.get("cache") for doc in documents if doc.get("cache")]
    return {
        "replica_count": len(documents),
        "queue_depth": sum(int(doc.get("queue_depth", 0)) for doc in documents),
        "requests_total": _sum_counter_dicts(doc.get("requests_total") for doc in documents),
        "responses_total": _sum_counter_dicts(doc.get("responses_total") for doc in documents),
        "errors_total": sum(int(doc.get("errors_total", 0)) for doc in documents),
        "rejected_total": sum(int(doc.get("rejected_total", 0)) for doc in documents),
        "latency": {
            name: merge_histogram_dicts(
                doc["latency"][name]
                for doc in documents
                if name in doc.get("latency", {})
            )
            for name in latency_names
        },
        "spans": {
            kind: merge_histogram_dicts(
                doc["spans"][kind] for doc in documents if kind in doc.get("spans", {})
            )
            for kind in span_kinds
        },
        "batching": _sum_counter_dicts(doc.get("batching") for doc in documents),
        "cache": _sum_counter_dicts(cache_docs) if cache_docs else None,
    }


def _histogram_lines(
    lines: List[str],
    typed: set,
    metric: str,
    histogram: Dict[str, Any],
    labels: str = "",
) -> None:
    if metric not in typed:
        typed.add(metric)
        lines.append(f"# TYPE {metric} histogram")
    bounds = histogram.get("bucket_bounds_ms") or []
    counts = histogram.get("bucket_counts") or []
    cumulative = 0
    label_prefix = f"{labels}," if labels else ""
    for bound_ms, count in zip(bounds, counts):
        cumulative += int(count)
        le = _format_number(bound_ms / 1000.0)
        lines.append(
            f'{metric}_bucket{{{label_prefix}le="{le}"}} {cumulative}'
        )
    total = int(histogram.get("count", 0))
    lines.append(f'{metric}_bucket{{{label_prefix}le="+Inf"}} {total}')
    sum_seconds = float(histogram.get("sum_ms", 0.0)) / 1000.0
    suffix = f"{{{labels}}}" if labels else ""
    lines.append(f"{metric}_sum{suffix} {_format_number(round(sum_seconds, 9))}")
    lines.append(f"{metric}_count{suffix} {total}")


def _scalar(
    lines: List[str],
    typed: set,
    metric: str,
    metric_type: str,
    value: Any,
    labels: str = "",
) -> None:
    if metric not in typed:
        typed.add(metric)
        lines.append(f"# TYPE {metric} {metric_type}")
    suffix = f"{{{labels}}}" if labels else ""
    lines.append(f"{metric}{suffix} {_format_number(value)}")


def render_prometheus(
    payload: Dict[str, Any],
    *,
    fleet: Optional[Dict[str, Any]] = None,
    routed_per_replica: Optional[Dict[str, int]] = None,
) -> str:
    """The text exposition of one ``/metrics`` JSON document.

    ``fleet`` adds the router's own series (``repro_fleet_*``) when
    rendering the aggregated fleet endpoint; ``routed_per_replica`` adds
    the per-replica routing counter with a ``replica`` label.
    """
    lines: List[str] = []
    typed: set = set()

    if "uptime_seconds" in payload:
        _scalar(lines, typed, "repro_uptime_seconds", "gauge", payload["uptime_seconds"])
    if "draining" in payload:
        _scalar(lines, typed, "repro_draining", "gauge", 1 if payload["draining"] else 0)
    if "queue_depth" in payload:
        _scalar(lines, typed, "repro_queue_depth", "gauge", payload["queue_depth"])
    if "replica_count" in payload:
        _scalar(lines, typed, "repro_replica_count", "gauge", payload["replica_count"])

    for route, count in sorted((payload.get("requests_total") or {}).items()):
        _scalar(
            lines, typed, "repro_requests_total", "counter", count,
            f'route="{_escape_label(route)}"',
        )
    for status, count in sorted((payload.get("responses_total") or {}).items()):
        _scalar(
            lines, typed, "repro_responses_total", "counter", count,
            f'status="{_escape_label(status)}"',
        )
    if "errors_total" in payload:
        _scalar(lines, typed, "repro_errors_total", "counter", payload["errors_total"])
    if "rejected_total" in payload:
        _scalar(lines, typed, "repro_rejected_total", "counter", payload["rejected_total"])

    for name, histogram in sorted((payload.get("latency") or {}).items()):
        metric = _LATENCY_METRICS.get(name, f"repro_{name}_latency_seconds")
        if _is_histogram_dict(histogram):
            _histogram_lines(lines, typed, metric, histogram)
    for kind, histogram in sorted((payload.get("spans") or {}).items()):
        if _is_histogram_dict(histogram):
            _histogram_lines(
                lines, typed, "repro_span_duration_seconds", histogram,
                f'kind="{_escape_label(kind)}"',
            )

    batching = payload.get("batching") or {}
    for name in _BATCHING_COUNTERS:
        if name in batching:
            _scalar(lines, typed, f"repro_batch_{name}_total", "counter", batching[name])

    cache = payload.get("cache")
    if cache:
        for name in _CACHE_COUNTERS:
            if name in cache:
                _scalar(lines, typed, f"repro_cache_{name}_total", "counter", cache[name])
        if "hit_rate" in cache:
            _scalar(lines, typed, "repro_cache_hit_rate", "gauge", round(cache["hit_rate"], 6))

    if fleet:
        _scalar(lines, typed, "repro_fleet_uptime_seconds", "gauge", fleet.get("uptime_seconds", 0.0))
        _scalar(lines, typed, "repro_fleet_draining", "gauge", 1 if fleet.get("draining") else 0)
        _scalar(lines, typed, "repro_fleet_workers", "gauge", fleet.get("workers", 0))
        _scalar(lines, typed, "repro_fleet_ready_replicas", "gauge", fleet.get("ready_replicas", 0))
        for name in ("restarts_total", "failovers_total", "proxy_errors_total", "unrouted_total"):
            _scalar(lines, typed, f"repro_fleet_{name}", "counter", fleet.get(name, 0))
        for status, count in sorted((fleet.get("responses_total") or {}).items()):
            _scalar(
                lines, typed, "repro_fleet_responses_total", "counter", count,
                f'status="{_escape_label(status)}"',
            )
    if routed_per_replica:
        for replica_id, count in sorted(routed_per_replica.items()):
            _scalar(
                lines, typed, "repro_fleet_routed_total", "counter", count,
                f'replica="{_escape_label(replica_id)}"',
            )

    return "\n".join(lines) + "\n"

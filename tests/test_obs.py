"""Tests for the observability layer: tracing, the event log, Prometheus
exposition, and trace reconstruction.

Coverage runs bottom-up: tracer/span mechanics in isolation, the
JSON-lines event log and its schema validation, the Prometheus renderer
and fleet merge, then integration through a live single server (echo
block, byte-identity, text exposition), the ``repro trace`` CLI, a real
traced two-replica fleet, and trace propagation across a failover.
"""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.api import ClusteringConfig
from repro.cache import clear_result_caches
from repro.cli import main as cli_main
from repro.obs.events import (
    TraceEventLog,
    iter_trace_events,
    load_trace_events,
    validate_event,
)
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    merge_histogram_dicts,
    merge_metrics_documents,
    render_prometheus,
    wants_prometheus,
)
from repro.obs.tracer import (
    NOOP_SPAN,
    PARENT_SPAN_HEADER,
    TRACE_ECHO_HEADER,
    TRACE_ID_HEADER,
    Tracer,
    current_span,
    new_span_id,
    new_trace_id,
    trace_span,
    valid_trace_id,
)
from repro.obs.traceview import (
    format_kind_table,
    format_waterfall,
    group_traces,
    kind_breakdown,
    trace_summary,
)
from repro.serve import ServeClient, ServerError, build_fleet
from repro.serve.fleet.ring import rendezvous_rank, request_affinity_key
from repro.serve.fleet.router import FleetRouter
from repro.serve.fleet.supervisor import ReplicaInfo
from repro.serve.server import ClusteringServer


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_caches()
    yield
    clear_result_caches()


def _matrix(seed: int = 0, n: int = 16):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 40))


def _collecting_tracer():
    """A tracer whose closed spans land in the returned list."""
    tracer = Tracer()
    closed = []
    tracer.add_sink(lambda span: closed.append(span.to_dict()))
    return tracer, closed


# ---------------------------------------------------------------------------
# Tracer / span mechanics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_ids_are_well_formed(self):
        assert valid_trace_id(new_trace_id()) is not None
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        assert new_trace_id() != new_trace_id()

    def test_valid_trace_id_rejects_garbage(self):
        assert valid_trace_id(None) is None
        assert valid_trace_id("") is None
        assert valid_trace_id("has space") is None
        assert valid_trace_id("x" * 10) is None
        assert valid_trace_id("\r\ninjected") is None
        assert valid_trace_id("DEADBEEF") == "deadbeef"
        assert valid_trace_id("a-b-c") == "a-b-c"

    def test_trace_span_is_noop_without_ambient_trace(self):
        assert current_span() is None
        span = trace_span("anything", key="value")
        assert span is NOOP_SPAN
        # Every operation is swallowed without error.
        with span:
            span.set_attribute("k", 1)
            span.set_error("nope")
            assert span.child("c") is span

    def test_ambient_nesting_builds_a_tree(self):
        tracer, closed = _collecting_tracer()
        with tracer.start_span("root") as root:
            assert current_span() is root
            with trace_span("child", depth=1) as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                with trace_span("grandchild") as grandchild:
                    assert grandchild.parent_id == child.span_id
        assert current_span() is None
        assert [event["kind"] for event in closed] == ["grandchild", "child", "root"]
        assert len({event["trace_id"] for event in closed}) == 1

    def test_exception_flags_error_and_still_closes(self):
        tracer, closed = _collecting_tracer()
        with pytest.raises(RuntimeError):
            with tracer.start_span("boom"):
                raise RuntimeError("kaput")
        assert current_span() is None
        (event,) = closed
        assert event["error"] is True
        assert event["attributes"]["exception"] == "RuntimeError"

    def test_end_is_idempotent(self):
        tracer, closed = _collecting_tracer()
        span = tracer.start_span("once")
        span.end()
        span.end()
        assert len(closed) == 1

    def test_emit_records_premeasured_span(self):
        tracer, closed = _collecting_tracer()
        tracer.emit(
            "synthesized",
            trace_id="feedface00000001",
            parent_id="aabbccdd",
            duration_seconds=0.25,
            started_at=1000.0,
            batch_size=4,
        )
        (event,) = closed
        assert event["kind"] == "synthesized"
        assert event["duration_ms"] == pytest.approx(250.0)
        assert event["start_unix"] == pytest.approx(1000.0)
        assert event["attributes"]["batch_size"] == 4

    def test_collect_drain_discard(self):
        tracer, _ = _collecting_tracer()
        tracer.collect("aaaa")
        with tracer.start_span("kept", trace_id="aaaa"):
            pass
        with tracer.start_span("uncollected", trace_id="bbbb"):
            pass
        drained = tracer.drain("aaaa")
        assert [event["kind"] for event in drained] == ["kept"]
        assert tracer.drain("aaaa") == []  # drained once, gone
        tracer.collect("cccc")
        tracer.discard("cccc")
        with tracer.start_span("late", trace_id="cccc"):
            pass
        assert tracer.drain("cccc") == []

    def test_sample_rate_validation_and_decisions(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        assert Tracer(sample_rate=1.0).should_sample() is True
        assert Tracer(sample_rate=0.0).should_sample() is False


class TestInstrumentationSites:
    def test_estimator_fit_emits_library_spans(self):
        from repro.api.estimators import make_estimator

        tracer, closed = _collecting_tracer()
        with tracer.start_span("root"):
            estimator = make_estimator(
                "tmfg-dbht", ClusteringConfig(num_clusters=2, cache=True)
            )
            estimator.fit(_matrix(n=12))
        kinds = {event["kind"] for event in closed}
        assert "estimator.fit" in kinds
        assert "kernel.apsp" in kinds
        assert "cache.get" in kinds and "cache.put" in kinds
        # Everything shares the root's trace.
        assert len({event["trace_id"] for event in closed}) == 1

    def test_untraced_fit_emits_nothing(self, monkeypatch):
        from repro.api.estimators import make_estimator
        from repro.cache.store import ResultCache

        _tracer, closed = _collecting_tracer()
        make_estimator("tmfg-dbht", ClusteringConfig(num_clusters=2)).fit(_matrix(n=12))
        assert closed == []
        # The lookup runs outside the fit's step collector, so on a miss
        # and on a hit its cache.get site gets the no-op span.
        lookups = []
        original_get = ResultCache.get

        def probing_get(cache, key):
            lookups.append(trace_span("probe") is NOOP_SPAN)
            return original_get(cache, key)

        monkeypatch.setattr(ResultCache, "get", probing_get)
        estimator = make_estimator("tmfg-dbht", ClusteringConfig(num_clusters=2, cache=True))
        miss = estimator.fit(_matrix(n=12)).result_
        hit = estimator.fit(_matrix(n=12)).result_
        assert lookups == [True, True]
        assert list(miss.step_seconds) == ["tmfg", "apsp", "bubble-tree", "hierarchy", "total"]
        assert hit.step_seconds == miss.step_seconds
        assert current_span() is None and trace_span("after") is NOOP_SPAN
        assert closed == []

    def test_traced_fit_emits_phase_spans_as_children(self):
        from repro.api.estimators import make_estimator

        series = _matrix(n=14)
        config = ClusteringConfig(num_clusters=3)
        untraced = make_estimator("tmfg-dbht", config).fit(series).result_
        tracer, closed = _collecting_tracer()
        with tracer.start_span("root"):
            traced = make_estimator("tmfg-dbht", config).fit(series).result_
        by_kind = {event["kind"]: event for event in closed}
        fit_span = by_kind["estimator.fit"]["span_id"]
        for kind in ("fit.prepare", "fit.tmfg", "fit.apsp", "fit.bubble_tree", "fit.hierarchy"):
            assert by_kind[kind]["parent_id"] == fit_span, kind
        assert by_kind["kernel.apsp"]["parent_id"] == by_kind["fit.apsp"]["span_id"]
        for kind in ("fit.direction", "fit.assignment"):
            assert by_kind[kind]["parent_id"] == by_kind["fit.bubble_tree"]["span_id"], kind
        assert [event["kind"] for event in closed].count("fit.assignment") == 1
        # Tracing changes no output byte (the timings differ by nature).
        def payload(result):
            document = result.to_dict()
            document.pop("step_seconds")
            return json.dumps(document)

        assert payload(traced) == payload(untraced)
        assert traced.labels.tobytes() == untraced.labels.tobytes()
        heights = [
            [node.height for node in result.raw.dendrogram.internal_nodes()]
            for result in (traced, untraced)
        ]
        assert heights[0] == heights[1]
        for field in ("group", "bubble", "assigned_directly"):
            arrays = [getattr(result.raw.dbht.assignment, field) for result in (traced, untraced)]
            assert arrays[0].tobytes() == arrays[1].tobytes(), field
        # Prepare, direction and assignment have spans but no step_seconds
        # key of their own: "total" and "bubble-tree" cover them.
        assert set(traced.step_seconds) == set(untraced.step_seconds)
        assert {"tmfg", "apsp", "bubble-tree", "hierarchy"} <= set(untraced.step_seconds)
        assert not {"prepare", "direction", "assignment"} & set(untraced.step_seconds)


class TestOneClock:
    """``step_seconds`` are read off the fit's spans: on a traced fit each
    key equals its span's ``duration_seconds`` exactly."""

    @staticmethod
    def _traced(run):
        tracer = Tracer()
        spans = []
        tracer.add_sink(spans.append)
        with tracer.start_span("root"):
            value = run()
        by_kind = {span.kind: span for span in spans}
        assert len(by_kind) == len(spans)  # one span per kind in one fit or tick
        return value, by_kind

    @pytest.mark.parametrize(
        "method, keys",
        [
            ("tmfg-dbht", {"tmfg": "fit.tmfg", "apsp": "fit.apsp",
                           "bubble-tree": "fit.bubble_tree",
                           "hierarchy": "fit.hierarchy", "total": "estimator.fit"}),
            ("classic-dbht", {"tmfg": "fit.tmfg", "dbht": "fit.dbht",
                              "total": "estimator.fit"}),
        ],
    )
    def test_fit_step_seconds_are_span_durations(self, method, keys):
        from repro.api.estimators import make_estimator

        def fit():
            config = ClusteringConfig(num_clusters=3)
            return make_estimator(method, config).fit(_matrix(n=14)).result_

        traced, spans = self._traced(fit)
        assert list(traced.step_seconds) == list(keys)
        for key, kind in keys.items():
            assert traced.step_seconds[key] == spans[kind].duration_seconds, key
        assert list(fit().step_seconds) == list(keys)

    def test_tick_step_seconds_are_span_durations(self):
        from repro.streaming import StreamingPipeline

        def tick():
            returns = _matrix(n=14)
            return next(StreamingPipeline(returns, window=30, num_clusters=3).iter_ticks())

        keys = {"similarity": "stream.similarity", "tmfg": "fit.tmfg", "apsp": "fit.apsp",
                "bubble-tree": "fit.bubble_tree", "hierarchy": "fit.hierarchy",
                "total": "stream.tick"}
        traced, spans = self._traced(tick)
        assert list(traced.step_seconds) == list(keys)
        for key, kind in keys.items():
            assert traced.step_seconds[key] == spans[kind].duration_seconds, key
        assert spans["estimator.fit"].parent_id == spans["stream.tick"].span_id
        assert list(tick().step_seconds) == list(keys)

    def test_untraced_scope_hides_its_spans_from_user_tracers(self, monkeypatch):
        from repro.api import estimators
        from repro.api.estimators import ClusteringEstimator, make_estimator, register_method
        from repro.api.result import ClusterResult
        from repro.obs.tracer import collect_steps

        user_tracer, user_spans = Tracer(), []
        user_tracer.add_sink(user_spans.append)

        class TracingCustom(ClusteringEstimator):
            method_id = "tracing-custom"

            def _fit(self, data, similarity, dissimilarity):
                assert current_span() is None
                with trace_span("fit.tmfg"):
                    with user_tracer.start_span("user.step"):
                        pass
                return ClusterResult(method=self.method_id, config=self.config,
                                     labels=np.zeros(len(similarity), dtype=int),
                                     step_seconds={"custom": 1.0})

        monkeypatch.setattr(estimators, "_REGISTRY", dict(estimators._REGISTRY))
        register_method("tracing-custom", TracingCustom)
        result = make_estimator("tracing-custom", ClusteringConfig(precomputed=True)).fit(
            np.eye(4)).result_
        # The custom fit's own timings are replaced by its spans'.
        assert list(result.step_seconds) == ["tmfg", "total"]
        assert result.seconds == result.step_seconds["total"] > 0.0
        # A user's span roots its own trace; it does not hang from the
        # fit's hidden, never-recorded step spans.
        assert len(user_spans) == 1 and user_spans[0].parent_id is None
        with collect_steps() as steps:
            assert current_span() is None
            with trace_span("fit.apsp") as span:
                assert span is not NOOP_SPAN
        assert steps == {"apsp": span.duration_seconds}
        assert current_span() is None and trace_span("after") is NOOP_SPAN
        assert ClusterResult(method="x", config=ClusteringConfig(), labels=None).seconds == 0.0


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = TraceEventLog(path)
        tracer = Tracer()
        tracer.add_sink(log.record)
        with tracer.start_span("outer", n=3):
            with trace_span("inner"):
                pass
        log.close()
        events = load_trace_events(path)
        assert [event["kind"] for event in events] == ["inner", "outer"]
        assert events[1]["attributes"] == {"n": 3}
        assert log.written == 2 and log.dropped == 0

    def test_validate_event_names_the_breach(self):
        good = {
            "schema": 1, "trace_id": "a", "span_id": "b", "parent_id": None,
            "kind": "k", "start_unix": 0.0, "duration_ms": 1.0, "error": False,
            "pid": 1, "attributes": {},
        }
        assert validate_event(dict(good)) == good
        with pytest.raises(ValueError, match="missing field 'kind'"):
            validate_event({k: v for k, v in good.items() if k != "kind"})
        with pytest.raises(ValueError, match="field 'duration_ms' has type"):
            validate_event({**good, "duration_ms": "fast"})
        with pytest.raises(ValueError, match="schema 99 unsupported"):
            validate_event({**good, "schema": 99})
        with pytest.raises(ValueError, match="empty kind"):
            validate_event({**good, "kind": ""})
        with pytest.raises(ValueError, match="must be an object"):
            validate_event([good])

    def test_reader_reports_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "k"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: .*missing field"):
            list(iter_trace_events(str(path)))

    def test_rate_limit_drops_beyond_budget(self, tmp_path):
        path = str(tmp_path / "capped.jsonl")
        log = TraceEventLog(path, rate_limit=3)
        tracer = Tracer()
        tracer.add_sink(log.record)
        for _ in range(10):
            with tracer.start_span("tick"):
                pass
        log.close()
        # All 10 land in the same wall-clock second in practice; allow the
        # window to roll once without weakening the bound.
        assert log.dropped >= 4
        assert log.written + log.dropped == 10
        assert len(load_trace_events(path)) == log.written

    def test_unwritable_path_degrades_to_dropped_counter(self, tmp_path):
        log = TraceEventLog(str(tmp_path / "no" / "such" / "dir" / "x.jsonl"))
        tracer = Tracer()
        tracer.add_sink(log.record)
        with tracer.start_span("tick"):
            pass  # must not raise
        assert log.dropped == 1 and log.written == 0


# ---------------------------------------------------------------------------
# Prometheus rendering and merging
# ---------------------------------------------------------------------------


class TestPrometheus:
    def test_wants_prometheus_negotiation(self):
        assert wants_prometheus("/metrics?format=prometheus", None)
        assert wants_prometheus("/metrics?format=openmetrics", "application/json")
        assert not wants_prometheus("/metrics?format=json", "text/plain")
        assert not wants_prometheus("/metrics", None)
        assert wants_prometheus("/metrics", "text/plain")
        assert not wants_prometheus("/metrics", "application/json, text/plain")

    def test_merge_histograms_is_bucketwise_exact(self):
        a = {"count": 2, "sum_ms": 30.0, "max_ms": 20.0,
             "bucket_bounds_ms": [10.0, 100.0], "bucket_counts": [1, 1]}
        b = {"count": 1, "sum_ms": 5.0, "max_ms": 5.0,
             "bucket_bounds_ms": [10.0, 100.0], "bucket_counts": [1, 0]}
        merged = merge_histogram_dicts([a, b])
        assert merged["count"] == 3
        assert merged["sum_ms"] == pytest.approx(35.0)
        assert merged["max_ms"] == pytest.approx(20.0)
        assert merged["bucket_counts"] == [2, 1]
        with pytest.raises(ValueError, match="different bucket bounds"):
            merge_histogram_dicts([a, {**b, "bucket_bounds_ms": [1.0]}])

    def test_render_has_one_type_line_per_family(self):
        payload = {
            "uptime_seconds": 1.5,
            "draining": False,
            "queue_depth": 0,
            "requests_total": {"POST /cluster": 4, "GET /metrics": 1},
            "responses_total": {"200": 5},
            "errors_total": 0,
            "rejected_total": 0,
            "latency": {
                "request": {"count": 4, "sum_ms": 40.0, "max_ms": 15.0,
                            "bucket_bounds_ms": [10.0, 100.0],
                            "bucket_counts": [2, 2]},
            },
            "spans": {
                "estimator.fit": {"count": 2, "sum_ms": 20.0, "max_ms": 12.0,
                                  "bucket_bounds_ms": [10.0, 100.0],
                                  "bucket_counts": [1, 1]},
            },
            "batching": {"batches": 3, "largest_batch": 2},
            "cache": {"hits": 2, "misses": 2, "hit_rate": 0.5},
        }
        text = render_prometheus(payload)
        assert text.endswith("\n")
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families))
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_requests_total{route="POST /cluster"} 4' in text
        # Cumulative buckets in seconds, closed with +Inf == count.
        assert 'repro_request_latency_seconds_bucket{le="0.01"} 2' in text
        assert 'repro_request_latency_seconds_bucket{le="+Inf"} 4' in text
        assert 'repro_span_duration_seconds_bucket{kind="estimator.fit",le="+Inf"} 2' in text
        assert "repro_cache_hits_total 2" in text

    def test_merge_metrics_documents_sums_replicas(self):
        histogram = {"count": 1, "sum_ms": 10.0, "max_ms": 10.0,
                     "bucket_bounds_ms": [100.0], "bucket_counts": [1]}
        doc = {
            "queue_depth": 1,
            "requests_total": {"POST /cluster": 2},
            "responses_total": {"200": 2},
            "errors_total": 1,
            "rejected_total": 0,
            "latency": {"request": dict(histogram)},
            "spans": {"serve.queue": dict(histogram)},
            "batching": {"batches": 1},
            "cache": {"hits": 1},
        }
        merged = merge_metrics_documents([doc, json.loads(json.dumps(doc))])
        assert merged["replica_count"] == 2
        assert merged["requests_total"]["POST /cluster"] == 4
        assert merged["errors_total"] == 2
        assert merged["latency"]["request"]["count"] == 2
        assert merged["spans"]["serve.queue"]["bucket_counts"] == [2]
        assert merged["cache"]["hits"] == 2
        assert merge_metrics_documents([{}])["cache"] is None


# ---------------------------------------------------------------------------
# Trace reconstruction / rendering
# ---------------------------------------------------------------------------


def _event(kind, trace_id, span_id, parent_id=None, start=0.0, dur=1.0,
           error=False, pid=1):
    return {
        "schema": 1, "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "kind": kind, "start_unix": start,
        "duration_ms": dur, "error": error, "pid": pid, "attributes": {},
    }


class TestTraceview:
    def test_group_and_summarize(self):
        events = [
            _event("request", "t1", "a", start=100.0, dur=10.0),
            _event("fit", "t1", "b", parent_id="a", start=100.002, dur=6.0, pid=2),
            _event("request", "t2", "c", start=50.0, dur=2.0, error=True),
        ]
        traces = group_traces(events)
        assert list(traces) == ["t2", "t1"]  # oldest first
        summary = trace_summary("t1", traces["t1"])
        assert summary["spans"] == 2
        assert summary["root_kinds"] == ["request"]
        assert summary["pids"] == [1, 2]
        assert summary["duration_ms"] == pytest.approx(10.0)
        assert trace_summary("t2", traces["t2"])["errors"] == 1

    def test_waterfall_indents_children_and_flags_errors(self):
        events = [
            _event("server.request", "t1", "a", start=100.0, dur=10.0),
            _event("serve.batch_fit", "t1", "b", parent_id="a",
                   start=100.001, dur=8.0),
            _event("estimator.fit", "t1", "c", parent_id="b",
                   start=100.002, dur=7.0, error=True),
            _event("orphan.kind", "t1", "d", parent_id="gone",
                   start=100.003, dur=1.0),
        ]
        text = format_waterfall("t1", events)
        lines = text.splitlines()
        assert "trace t1" in lines[0] and "spans=4" in lines[0]
        assert any(line.lstrip().startswith("server.request") for line in lines)
        assert any("    estimator.fit" in line and line.rstrip().endswith("!")
                   for line in lines)
        assert any(line.lstrip().startswith("orphan.kind") for line in lines)
        assert all("|" in line for line in lines[1:])  # every row has a bar

    def test_kind_breakdown_sorted_by_total(self):
        events = [
            _event("fast", "t", "a", dur=1.0),
            _event("slow", "t", "b", dur=100.0),
            _event("fast", "t", "c", dur=2.0, error=True),
        ]
        rows = kind_breakdown(events)
        assert [row["kind"] for row in rows] == ["slow", "fast"]
        fast = rows[1]
        assert fast["count"] == 2 and fast["errors"] == 1
        assert fast["mean_ms"] == pytest.approx(1.5)
        table = format_kind_table(rows)
        assert "slow" in table and "fast" in table
        assert format_kind_table([]) == "no spans"


# ---------------------------------------------------------------------------
# Single-server integration
# ---------------------------------------------------------------------------


class TestServerTracing:
    def _start(self, **kwargs):
        server = ClusteringServer(
            port=0,
            default_config=ClusteringConfig(cache=True, num_clusters=3, prefix=2),
            **kwargs,
        )
        return server, server.start_in_background()

    def test_echoed_trace_covers_the_request_path(self, tmp_path):
        log_path = str(tmp_path / "trace.jsonl")
        _server, handle = self._start(trace_log=log_path)
        series = _matrix()
        try:
            with ServeClient(handle.host, handle.port) as client:
                traced = client.cluster(series, trace=True)
                untraced = client.cluster(_matrix(seed=1))
        finally:
            handle.stop()
        assert "trace" not in untraced
        block = traced["trace"]
        assert valid_trace_id(block["trace_id"])
        kinds = [span["kind"] for span in block["spans"]]
        for kind in ("serve.queue", "serve.batch_fit", "fit.prepare", "fit.tmfg",
                     "estimator.fit", "cache.get", "cache.put"):
            assert kind in kinds, f"missing {kind} in {kinds}"
        assert kinds.count("cache.get") == 1  # one lookup per request
        by_kind = {span["kind"]: span for span in block["spans"]}
        # The leader's compute half runs inside its flight's span.
        assert by_kind["estimator.fit"]["parent_id"] == by_kind["serve.batch_fit"]["span_id"]
        assert by_kind["estimator.fit"]["attributes"]["cache"] == "miss"
        # The store runs after the fit's span closes, so "total" excludes it.
        assert by_kind["cache.put"]["parent_id"] == by_kind["serve.batch_fit"]["span_id"]
        assert all(span["trace_id"] == block["trace_id"] for span in block["spans"])
        # The log additionally holds the server.request root (it closes
        # after the envelope is rendered, so it is log-only).
        events = load_trace_events(log_path)
        log_kinds = {e["kind"] for e in events if e["trace_id"] == block["trace_id"]}
        assert "server.request" in log_kinds
        root = next(e for e in events if e["kind"] == "server.request"
                    and e["trace_id"] == block["trace_id"])
        assert root["span_id"] == block["root_span_id"]
        assert root["attributes"]["status"] == 200
        # Child work is contained in the request observation (epsilon for
        # rounding; queue+fit are sequential within the request).
        queue = next(s for s in block["spans"] if s["kind"] == "serve.queue")
        fit = next(s for s in block["spans"] if s["kind"] == "serve.batch_fit")
        assert queue["duration_ms"] + fit["duration_ms"] <= root["duration_ms"] + 50.0

    def test_responses_byte_identical_with_tracing_off_vs_on(self, tmp_path):
        series = _matrix()
        _server, handle = self._start()  # tracing off entirely
        try:
            with ServeClient(handle.host, handle.port) as client:
                plain = client.cluster(series)
        finally:
            handle.stop()
        # Both servers share the process-wide result cache, so the traced
        # server serves the exact stored result: any byte difference below
        # could only come from the tracing layer touching the payload.
        _server2, handle2 = self._start(trace_log=str(tmp_path / "t.jsonl"))
        try:
            with ServeClient(handle2.host, handle2.port) as client:
                on_but_unasked = client.cluster(series)
        finally:
            handle2.stop()
        assert "trace" not in on_but_unasked
        assert json.dumps(plain["result"]) == json.dumps(on_but_unasked["result"])

    def test_prometheus_endpoint_and_span_histograms(self, tmp_path):
        _server, handle = self._start(trace_log=str(tmp_path / "t.jsonl"))
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(_matrix(), trace=True)
                json_metrics = client.metrics()
                text = client.metrics_prometheus()
        finally:
            handle.stop()
        assert "estimator.fit" in json_metrics["spans"]
        assert json_metrics["spans"]["estimator.fit"]["count"] >= 1
        assert "bucket_counts" in json_metrics["latency"]["request"]
        assert "# TYPE repro_span_duration_seconds histogram" in text
        assert 'repro_span_duration_seconds_bucket{kind="estimator.fit"' in text
        assert "# TYPE repro_request_latency_seconds histogram" in text
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families))

    def test_client_trace_flag_off_sends_no_headers(self, tmp_path):
        # With no trace log and no client trace id the request must ride
        # the zero-cost path: no span kinds accumulate in the metrics.
        _server, handle = self._start()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(_matrix())
                metrics = client.metrics()
        finally:
            handle.stop()
        assert metrics["spans"] == {}

    def test_untraced_miss_and_hit_record_no_span(self, tmp_path, monkeypatch):
        # Tracing is on (a log and the metrics sink) but no request is
        # sampled: the miss's fit times itself on private spans, which
        # reach neither sink, and the lookups run on the no-op span.
        from repro.cache.store import ResultCache

        lookups = []
        original_get = ResultCache.get

        def probing_get(cache, key):
            lookups.append(trace_span("probe") is NOOP_SPAN)
            return original_get(cache, key)

        monkeypatch.setattr(ResultCache, "get", probing_get)
        log_path = tmp_path / "trace.jsonl"
        _server, handle = self._start(trace_log=str(log_path), trace_sample=0.0)
        try:
            with ServeClient(handle.host, handle.port) as client:
                miss = client.cluster(_matrix())
                hit = client.cluster(_matrix())
                metrics = client.metrics()
        finally:
            handle.stop()
        assert lookups == [True, True]
        assert metrics["cache"]["hits"] == 1 and metrics["cache"]["stores"] == 1
        assert metrics["spans"] == {}
        assert not log_path.exists() or load_trace_events(str(log_path)) == []
        assert hit["result"] == miss["result"]
        assert list(miss["result"]["step_seconds"]) == [
            "tmfg", "apsp", "bubble-tree", "hierarchy", "total"
        ]

    def test_body_decode_is_timed_on_the_request_span(self, tmp_path):
        log_path = str(tmp_path / "trace.jsonl")
        _server, handle = self._start(trace_log=log_path)
        series = _matrix()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(series)
                sizes = {
                    "json": len(client.encode_cluster_body(series)),
                    "binary": len(client.encode_cluster_body_binary(series)),
                }
                client.cluster(series, trace=True)
                client.cluster(series, binary=True, trace=True)
                with pytest.raises(ServerError) as excinfo:
                    client.request("POST", "/cluster", b"{", {"Content-Type": "application/json"})
        finally:
            handle.stop()
        assert excinfo.value.status == 400
        events = load_trace_events(log_path)
        roots = [e for e in events if e["kind"] == "server.request"]
        # The decode opens no span of its own: its time is the request
        # span's self time, and these attributes say how much of it.
        assert not [e for e in events if "decode" in e["kind"]]
        for transport, size in sizes.items():
            served = [
                e["attributes"] for e in roots
                if e["attributes"].get("transport") == transport and e["attributes"]["status"] == 200
            ]
            assert served and all(a["bytes"] == size for a in served), transport
            assert all(a["decode_ms"] >= 0 for a in served)
        # A bad body still answers 400, and its request span shows the decode.
        bad = [e["attributes"] for e in roots if e["attributes"]["status"] == 400]
        assert len(bad) == 1
        assert bad[0]["transport"] == "json" and bad[0]["bytes"] == 1 and "n" not in bad[0]


# ---------------------------------------------------------------------------
# `repro trace` CLI
# ---------------------------------------------------------------------------


class TestTraceCli:
    def _write_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        events = [
            _event("server.request", "t1", "a", start=100.0, dur=10.0),
            _event("estimator.fit", "t1", "b", parent_id="a",
                   start=100.001, dur=8.0),
            _event("server.request", "t2", "c", start=200.0, dur=3.0),
        ]
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events), encoding="utf-8"
        )
        return str(path)

    def test_text_output(self, tmp_path, capsys):
        assert cli_main(["trace", self._write_log(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace t1" in out and "trace t2" in out
        assert "estimator.fit" in out
        assert "3 event(s), 2 trace(s)" in out

    def test_single_trace_and_limit(self, tmp_path, capsys):
        log = self._write_log(tmp_path)
        assert cli_main(["trace", log, "--trace", "t2"]) == 0
        out = capsys.readouterr().out
        assert "trace t2" in out and "trace t1" not in out
        assert cli_main(["trace", log, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        # Most recent trace wins the limit slot.
        assert "trace t2" in out and "trace t1" not in out

    def test_json_output(self, tmp_path, capsys):
        assert cli_main(["trace", self._write_log(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["events"] == 3
        assert {t["trace_id"] for t in document["traces"]} == {"t1", "t2"}
        t1 = next(t for t in document["traces"] if t["trace_id"] == "t1")
        assert t1["spans"] == 2 and len(t1["spans_detail"]) == 2
        assert any(row["kind"] == "estimator.fit" for row in document["kinds"])

    def test_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.jsonl")
        assert cli_main(["trace", missing]) == 2
        log = self._write_log(tmp_path)
        assert cli_main(["trace", log, "--trace", "nope"]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["trace", str(empty)]) == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n", encoding="utf-8")
        assert cli_main(["trace", str(bad)]) == 2


# ---------------------------------------------------------------------------
# Fleet integration: a traced request spans router and replica processes
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_fleet(tmp_path_factory):
    """A 2-replica fleet writing all spans to one shared trace log."""
    log_path = str(tmp_path_factory.mktemp("fleet-obs") / "trace.jsonl")
    router = build_fleet(
        2,
        ["--clusters", "2", "--method", "kmeans", "--trace-log", log_path],
        port=0,
        stagger_seconds=0.05,
        backoff_base_seconds=0.2,
        trace_log=log_path,
    )
    handle = router.start_in_background()
    yield router, log_path
    handle.stop()


class TestFleetTracing:
    def test_one_trace_spans_router_and_replica(self, traced_fleet):
        router, log_path = traced_fleet
        with ServeClient("127.0.0.1", router.port) as client:
            client.wait_healthy(60)
            envelope = client.cluster(_matrix(), trace=True)
        block = envelope["trace"]
        trace_id = block["trace_id"]
        events = [e for e in load_trace_events(log_path)
                  if e["trace_id"] == trace_id]
        kinds = {event["kind"] for event in events}
        for kind in ("router.request", "router.attempt", "server.request",
                     "serve.queue", "serve.batch_fit", "estimator.fit",
                     "cache.put"):
            assert kind in kinds, f"missing {kind} in {sorted(kinds)}"
        # Two processes contributed to the one trace.
        assert len({event["pid"] for event in events}) >= 2
        # The replica's request hangs off the router's attempt span.
        attempt = next(e for e in events if e["kind"] == "router.attempt")
        request = next(e for e in events if e["kind"] == "server.request")
        assert request["parent_id"] == attempt["span_id"]
        root = next(e for e in events if e["kind"] == "router.request")
        assert attempt["parent_id"] == root["span_id"]
        # The hop is contained in the router's observation.
        assert request["duration_ms"] <= root["duration_ms"] + 50.0
        # And `repro trace` can reconstruct the whole thing as one tree.
        waterfall = format_waterfall(trace_id, sorted(
            events, key=lambda event: event["start_unix"]))
        assert "router.request" in waterfall
        assert "  router.attempt" in waterfall

    def test_fleet_prometheus_merges_replicas(self, traced_fleet):
        router, _log_path = traced_fleet
        with ServeClient("127.0.0.1", router.port) as client:
            client.wait_healthy(60)
            client.cluster(_matrix(seed=3))
            # Give the router a scrape cycle to pick up fresh replica stats.
            json_metrics = client.metrics()
            text = client.metrics_prometheus()
        assert json_metrics["fleet"]["workers"] == 2
        assert "# TYPE repro_fleet_workers gauge" in text
        assert "repro_fleet_workers 2" in text
        assert "# TYPE repro_replica_count gauge" in text
        assert "repro_fleet_routed_total{replica=" in text
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert len(families) == len(set(families))


# ---------------------------------------------------------------------------
# Failover: one trace, two attempts, two replicas
# ---------------------------------------------------------------------------


_CANNED = (
    b"HTTP/1.1 200 OK\r\n"
    b"content-type: application/json\r\n"
    b"content-length: 17\r\n"
    b"connection: close\r\n"
    b"\r\n"
    b'{"canned": true}\n'
)


class _FakeSupervisor:
    """The supervisor surface the router needs, with no real processes."""

    def __init__(self, replicas):
        self.workers = len(replicas)
        self._replicas = list(replicas)

    async def start(self):
        pass

    async def wait_ready(self, count=None, timeout=120.0):
        pass

    async def stop(self):
        pass

    def ready_replicas(self):
        return list(self._replicas)

    @property
    def restarts_total(self):
        return 0

    def status(self):
        return [
            {"id": r.replica_id, "state": "ready", "port": r.port, "pid": r.pid,
             "spawns": 1, "restarts": 0, "last_exit_code": None}
            for r in self._replicas
        ]


class _CannedReplica:
    """A TCP server answering every request with fixed raw HTTP bytes."""

    def __init__(self, raw_response: bytes):
        self.raw_response = raw_response
        self.requests = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                chunks = b""
                conn.settimeout(5.0)
                while b"\r\n\r\n" not in chunks:
                    chunks += conn.recv(65536)
                head, _, rest = chunks.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":", 1)[1])
                while len(rest) < length:
                    rest += conn.recv(65536)
                self.requests.append((head, rest))
                conn.sendall(self.raw_response)

    def close(self):
        self._server.close()


class _DyingReplica:
    """Accepts a connection and slams it shut mid-exchange."""

    def __init__(self):
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            self.connections += 1
            conn.close()  # the router sees a reset/EOF mid-exchange

    def close(self):
        self._server.close()


def _raw_post(port: int, body: bytes, headers: dict) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as conn:
        head = f"POST /cluster HTTP/1.1\r\nhost: x\r\ncontent-length: {len(body)}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        conn.sendall(head.encode() + b"\r\n" + body)
        conn.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return raw
            raw += chunk


class TestFailoverTracePropagation:
    def test_failover_keeps_one_trace_with_two_attempts(self, tmp_path):
        log_path = str(tmp_path / "failover.jsonl")
        survivor = _CannedReplica(_CANNED)
        dying = _DyingReplica()
        body = b'{"matrix": [[0.0, 1.0], [1.0, 0.0]]}'
        key = request_affinity_key(body, "application/json")
        # Name the dying replica so the ring routes this body to it first.
        first = rendezvous_rank(key, ["r-a", "r-b"])[0]
        replicas = [
            ReplicaInfo(first, dying.port, None),
            ReplicaInfo("r-b" if first == "r-a" else "r-a", survivor.port, None),
        ]
        trace_id = "feedface00000001"
        router = FleetRouter(
            _FakeSupervisor(replicas), port=0, trace_log=log_path
        )
        handle = router.start_in_background()
        try:
            raw = _raw_post(
                handle.port, body,
                {"content-type": "application/json", TRACE_ID_HEADER: trace_id},
            )
            assert raw == _CANNED
            assert router.failovers_total == 1
        finally:
            handle.stop()
            survivor.close()
            dying.close()
        events = load_trace_events(log_path)
        assert events, "router wrote no trace events"
        assert {event["trace_id"] for event in events} == {trace_id}
        attempts = [e for e in events if e["kind"] == "router.attempt"]
        assert len(attempts) == 2
        assert sorted(a["error"] for a in attempts) == [False, True]
        failed = next(a for a in attempts if a["error"])
        succeeded = next(a for a in attempts if not a["error"])
        assert failed["attributes"]["replica"] == first
        assert failed["attributes"]["attempt"] == 1
        assert succeeded["attributes"]["attempt"] == 2
        root = next(e for e in events if e["kind"] == "router.request")
        assert {a["parent_id"] for a in attempts} == {root["span_id"]}
        assert dying.connections == 1
        # The surviving replica saw the continued context: same trace id,
        # re-parented to the second attempt's span.
        head, _body = survivor.requests[0]
        header_text = head.decode().lower()
        assert f"{TRACE_ID_HEADER}: {trace_id}" in header_text
        assert f"{PARENT_SPAN_HEADER}: {succeeded['span_id']}" in header_text

    def test_untraced_failover_writes_nothing(self, tmp_path):
        log_path = str(tmp_path / "silent.jsonl")
        survivor = _CannedReplica(_CANNED)
        router = FleetRouter(
            _FakeSupervisor([ReplicaInfo("only", survivor.port, None)]),
            port=0, trace_log=log_path, trace_sample=0.0,
        )
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, b'{"matrix": [[0]]}',
                            {"content-type": "application/json"})
            assert raw == _CANNED
        finally:
            handle.stop()
            survivor.close()
        import os
        assert not os.path.exists(log_path) or load_trace_events(log_path) == []

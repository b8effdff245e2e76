"""Tests for the clustering service (`repro.serve`).

Unit-level: latency histograms, retry hints, request parsing.
Integration-level: a real server on an ephemeral port, concurrent
identical misses sharing one in-flight fit (asserted through the
``/metrics`` counters), byte-identity with direct estimator fits, 429
under saturation, and clean graceful shutdown, in process and on SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import ClusteringConfig, ClusteringEstimator, TMFGClusterer
from repro.cache import clear_result_caches, get_result_cache
from repro.datasets.synthetic import make_time_series_dataset
from repro.serve import (
    ClusteringServer,
    LatencyHistogram,
    ServeClient,
    ServerBusy,
    ServerError,
)
from repro.serve import wire
from repro.serve.httpio import HEADER_LIMIT, BadRequest, Request, read_request
from repro.serve.wire import WIRE_CONTENT_TYPE


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_result_caches()
    yield
    clear_result_caches()


@pytest.fixture(scope="module")
def series():
    """Raw series small enough for sub-100ms fits."""
    return make_time_series_dataset(
        num_objects=36, length=32, num_classes=3, noise=1.0, seed=19
    ).data


def _other_series(seed: int) -> np.ndarray:
    return make_time_series_dataset(
        num_objects=36, length=32, num_classes=3, noise=1.0, seed=seed
    ).data


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestLatencyHistogram:
    def test_quantiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for ms in [1, 2, 3, 4, 5, 6, 7, 8, 9, 100]:
            histogram.observe(ms / 1000.0)
        summary = histogram.as_dict()
        assert summary["count"] == 10
        assert 1.0 <= summary["p50_ms"] <= 10.0
        assert summary["p99_ms"] <= summary["max_ms"] == 100.0
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

    def test_empty_histogram_is_all_zero(self):
        histogram = LatencyHistogram()
        summary = histogram.as_dict()
        assert summary == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0,
            "sum_ms": 0.0,
            "bucket_bounds_ms": list(histogram.bounds_ms),
            "bucket_counts": [0] * (len(histogram.bounds_ms) + 1),
        }

    def test_raw_buckets_support_exact_merging(self):
        histogram = LatencyHistogram(bounds_ms=[10.0, 100.0])
        histogram.observe(0.005)
        histogram.observe(0.05)
        histogram.observe(0.5)  # overflow bucket
        summary = histogram.as_dict()
        assert summary["bucket_counts"] == [1, 1, 1]
        assert summary["sum_ms"] == pytest.approx(555.0)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds_ms=[5.0, 1.0])


# ---------------------------------------------------------------------------
# Server integration (real sockets, ephemeral ports)
# ---------------------------------------------------------------------------


def _start_server(**kwargs) -> "tuple":
    defaults = dict(
        port=0,
        default_config=ClusteringConfig(cache=True, num_clusters=3, prefix=2),
        fit_workers=2,
    )
    defaults.update(kwargs)
    server = ClusteringServer(**defaults)
    handle = server.start_in_background()
    return server, handle


def _wait_for(predicate, timeout: float = 30.0, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.005)


def _in_flight(port: int) -> int:
    """Admitted-but-unanswered requests, from ``/healthz``."""
    with ServeClient(port=port) as client:
        return client.healthz()["queue_depth"]


class _HeldFits:
    """Test double around the server's fit and lookup.

    Every flight's ``estimator.compute`` waits on :attr:`release` (then
    sleeps :attr:`delay`, raises :attr:`error` if set, or fits for real),
    and :attr:`calls`/:attr:`lookups` count fits started and keys looked
    up — so a test can hold fits in flight while it lines requests up
    behind them.
    """

    def __init__(self, monkeypatch, *, released: bool = False):
        self.release = threading.Event()
        if released:
            self.release.set()
        self.delay = 0.0
        self.error = None
        self.calls = 0
        self.lookups = 0
        self._lock = threading.Lock()
        real_compute = ClusteringEstimator.compute
        real_lookup = ClusteringServer._lookup

        def held_compute(estimator, *args, **kwargs):
            with self._lock:
                self.calls += 1
            assert self.release.wait(timeout=60), "held fit never released"
            time.sleep(self.delay)
            if self.error is not None:
                raise self.error
            return real_compute(estimator, *args, **kwargs)

        def counted_lookup(matrix, config):
            try:
                return real_lookup(matrix, config)
            finally:
                with self._lock:
                    self.lookups += 1

        monkeypatch.setattr(ClusteringEstimator, "compute", held_compute)
        monkeypatch.setattr(ClusteringServer, "_lookup", staticmethod(counted_lookup))

    def release_after_lookups(self, count: int) -> None:
        """Open the gate once ``count`` requests have been keyed (so every
        identical one has joined the held flight)."""
        _wait_for(lambda: self.lookups >= count, what=f"{count} lookups")
        time.sleep(0.05)  # let the loop file the last lookup as a join
        self.release.set()


def _post_concurrently(handle, jobs):
    """POST each ``(matrix, config)`` from its own thread; returns the
    thread list and the outcome list (envelope or error, in job order)."""
    outcomes = [None] * len(jobs)

    def post(index, matrix, config):
        with ServeClient(handle.host, handle.port, timeout=120) as client:
            try:
                outcomes[index] = client.cluster(matrix, config=config)
            except ServerError as error:
                outcomes[index] = error

    threads = [
        threading.Thread(target=post, args=(index, matrix, config))
        for index, (matrix, config) in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    return threads, outcomes


def _join(threads) -> None:
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()


class TestServerIntegration:
    def test_health_metrics_and_basic_request(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["version"]
                envelope = client.cluster(series)
                assert envelope["result"]["num_clusters"] == 3
                assert len(envelope["result"]["labels"]) == series.shape[0]
                assert envelope["serving"]["batch_size"] >= 1
                metrics = client.metrics()
                assert metrics["requests_total"]["POST /cluster"] == 1
                assert metrics["responses_total"]["200"] >= 1
                assert metrics["latency"]["request"]["count"] >= 1
        finally:
            handle.stop()

    def test_served_result_byte_identical_to_direct_fit(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                envelope = client.cluster(series)
        finally:
            handle.stop()
        # The server process == this process, so the direct fit hits the
        # entry the served fit stored: identical bytes, timings included.
        direct = (
            TMFGClusterer(ClusteringConfig(cache=True, num_clusters=3, prefix=2))
            .fit(series)
            .result_
        )
        assert json.dumps(envelope["result"]) == direct.to_json()

    def test_concurrent_identical_requests_dedupe(self, series):
        _server, handle = _start_server()
        num_clients = 8
        try:
            barrier = threading.Barrier(num_clients)
            envelopes, errors = [], []

            def one_request():
                try:
                    with ServeClient(handle.host, handle.port) as client:
                        barrier.wait(timeout=30)
                        envelopes.append(client.cluster(series))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=one_request) for _ in range(num_clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert len(envelopes) == num_clients
            payloads = {json.dumps(e["result"]) for e in envelopes}
            assert len(payloads) == 1  # every client saw the same bytes
            with ServeClient(handle.host, handle.port) as client:
                metrics = client.metrics()
            # Dedupe is visible in the metrics: the batch of identical jobs
            # collapsed before dispatch and/or repeat requests hit the
            # cache — either way, far fewer fits than requests.
            batching = metrics["batching"]
            cache = metrics["cache"]
            fits_saved = batching["deduped_requests"] + cache["hits"]
            assert fits_saved >= num_clients - batching["batches"]
            assert cache["stores"] == 1  # exactly one distinct fit computed
            assert metrics["requests_total"]["POST /cluster"] == num_clients
        finally:
            handle.stop()

    def test_repeat_request_is_a_cache_hit_in_metrics(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(series)
                before = client.metrics()["cache"]["hits"]
                client.cluster(series)
                after = client.metrics()["cache"]["hits"]
                assert after > before
        finally:
            handle.stop()

    def test_distinct_requests_all_fit(self, series):
        _server, handle = _start_server()
        try:
            inputs = [series, _other_series(29), _other_series(31)]
            expected = []
            for matrix in inputs:
                expected.append(
                    TMFGClusterer(
                        ClusteringConfig(num_clusters=3, prefix=2)
                    ).fit(matrix).result_.labels.tolist()
                )
            with ServeClient(handle.host, handle.port) as client:
                for matrix, labels in zip(inputs, expected):
                    assert client.cluster_labels(matrix).tolist() == labels
                assert client.metrics()["cache"]["stores"] == len(inputs)
        finally:
            handle.stop()

    def test_request_config_overlays_server_default(self, series):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                envelope = client.cluster(series, config={"num_clusters": 2})
                assert envelope["result"]["num_clusters"] == 2
                assert envelope["result"]["config"]["prefix"] == 2  # default kept
                # Overlays naming anything but a request field are client errors.
                from repro.serve import ServerError

                for stale in (
                    {"warm_start": True}, {"apsp_method": "incremental"},
                    {"kernel": "numpy"}, {"landmarks": 8}, {"apsp_method": "dijkstra"},
                ):
                    with pytest.raises(ServerError) as excinfo:
                        client.cluster(series, config=stale)
                    assert excinfo.value.status == 400
                # Ill-typed values of request fields are client errors too,
                # on both transports, not a crash inside the fit.
                for ill_typed in (
                    {"seed": [1]}, {"precomputed": {"a": 1}}, {"num_clusters": 1.5},
                    {"num_clusters": True}, {"prefix": 2.0},
                ):
                    for binary in (False, True):
                        with pytest.raises(ServerError, match="bad 'config'") as excinfo:
                            client.cluster(series, config=ill_typed, binary=binary)
                        assert excinfo.value.status == 400, (ill_typed, binary)
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_bad_requests_answer_400(self, series):
        from repro.serve import ServerError

        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError, match="400") as excinfo:
                    client.cluster(np.arange(8.0).reshape(1, -1).ravel())
                assert excinfo.value.status == 400
                with pytest.raises(ServerError, match="unknown"):
                    client._request(
                        "POST", "/cluster",
                        json.dumps({"matrix": [[1.0]], "bogus": 1}).encode(),
                    )
                with pytest.raises(ServerError, match="config"):
                    client.cluster(series, config={"no_such_knob": 3})
                with pytest.raises(ServerError) as notfound:
                    client._request("GET", "/nope")
                assert notfound.value.status == 404
        finally:
            handle.stop()

    def test_hostile_json_bodies_answer_400(self):
        # Invalid UTF-8 raises UnicodeDecodeError and a 100 000-deep array
        # RecursionError, not JSONDecodeError; both must still be a 400,
        # never a dropped connection.
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for body in (b"\x80abc", b"[" * 100_000):
                    with pytest.raises(ServerError, match="not valid JSON") as excinfo:
                        client.request(
                            "POST", "/cluster", body, {"Content-Type": "application/json"}
                        )
                    assert excinfo.value.status == 400
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_config_too_deep_to_describe_answers_400(self):
        # The body parses (nesting 1022 of 1024), but the repr in the type
        # error that names the value overruns the recursion limit.
        body = b'{"matrix": [[1.0]], "config": {"prefix": ' + b"[" * 1020 + b"]" * 1020 + b"}}"
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(ServerError, match="bad 'config'") as excinfo:
                    client.request("POST", "/cluster", body, {"Content-Type": "application/json"})
                assert excinfo.value.status == 400
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_saturated_queue_answers_429_with_retry_after(self, series, monkeypatch):
        # One fit thread and held fits: the first two distinct misses stay
        # in flight, so with max_queue_depth=2 every later request is 429.
        held = _HeldFits(monkeypatch)
        server, handle = _start_server(max_queue_depth=2, fit_workers=1)
        try:
            jobs = [(_other_series(40 + i)[:12], {}) for i in range(6)]
            threads, outcomes = _post_concurrently(handle, jobs[:2])
            _wait_for(lambda: _in_flight(handle.port) == 2, what="two admitted requests")
            more, rejected = _post_concurrently(handle, jobs[2:])
            _join(more)
            held.release.set()
            _join(threads)
            assert all(isinstance(error, ServerBusy) for error in rejected)
            # Nothing has been served yet, so the hint is the 50 ms floor.
            assert all(error.retry_after == 0.05 for error in rejected)
            assert all(envelope["result"]["num_clusters"] == 3 for envelope in outcomes)
            with ServeClient(handle.host, handle.port) as client:
                metrics = client.metrics()
            assert metrics["rejected_total"] == 4
            assert metrics["responses_total"]["429"] == 4
            assert metrics["batching"]["rejected"] == 4
            assert metrics["queue_depth"] == 0
            assert server._flights == {}
        finally:
            held.release.set()
            handle.stop()

    def test_graceful_shutdown_drains_inflight_requests(self, series, monkeypatch):
        held = _HeldFits(monkeypatch)
        server, handle = _start_server(fit_workers=1)
        jobs = [(_other_series(50 + i), {}) for i in range(3)]
        threads, outcomes = _post_concurrently(handle, jobs)
        _wait_for(lambda: _in_flight(handle.port) == 3, what="three admitted requests")
        server.request_stop()  # what SIGTERM does: the drain begins mid-fit
        time.sleep(0.1)
        held.release.set()
        handle.stop()  # joins the drained server thread
        _join(threads)
        # Every admitted request was still answered.
        assert [envelope["result"]["num_clusters"] for envelope in outcomes] == [3, 3, 3]
        # The port is actually released.
        with pytest.raises(OSError):
            import socket

            probe = socket.create_connection((handle.host, handle.port), timeout=0.5)
            probe.close()
        assert not handle.thread.is_alive()

    def test_server_rejects_bad_fit_workers(self):
        with pytest.raises(ValueError):
            ClusteringServer(fit_workers=0)


class TestOneLookupPerRequest:
    """A served request fingerprints its matrix once and looks the key up
    once; only a fitted request counts a miss."""

    @staticmethod
    def _count_fingerprints(monkeypatch):
        from repro.cache import fingerprint

        calls = []
        real = fingerprint.matrix_fingerprint

        def counting(matrix):
            calls.append(1)
            return real(matrix)

        monkeypatch.setattr(fingerprint, "matrix_fingerprint", counting)
        return calls

    @staticmethod
    def _traced_post(client, matrix):
        """``(cache.get spans, cache stats delta)`` of one traced POST."""
        before = get_result_cache().stats.snapshot()
        envelope = client.cluster(matrix, trace=True)
        after = get_result_cache().stats.snapshot()
        kinds = [span["kind"] for span in envelope["trace"]["spans"]]
        delta = {name: getattr(after, name) - getattr(before, name)
                 for name in ("hits", "misses", "stores")}
        return kinds.count("cache.get"), delta

    def test_a_served_miss_keys_once_and_looks_up_once(self, series, monkeypatch):
        fingerprints = self._count_fingerprints(monkeypatch)
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                gets, delta = self._traced_post(client, series)
        finally:
            handle.stop()
        assert len(fingerprints) == 1  # one result_cache_key
        assert gets == 1
        assert delta == {"hits": 0, "misses": 1, "stores": 1}

    def test_a_served_hit_counts_one_hit_and_no_miss(self, series, monkeypatch):
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.cluster(series)
                fingerprints = self._count_fingerprints(monkeypatch)
                gets, delta = self._traced_post(client, series)
        finally:
            handle.stop()
        assert len(fingerprints) == 1
        assert gets == 1
        assert delta == {"hits": 1, "misses": 0, "stores": 0}


class TestSingleFlight:
    """Concurrent identical misses share one in-flight fit; a hit never
    waits for it; a failed fit leaves nothing behind."""

    def test_concurrent_identical_misses_share_one_fit(self, series, monkeypatch):
        held = _HeldFits(monkeypatch)
        server, handle = _start_server()
        num_clients = 8
        try:
            threads, outcomes = _post_concurrently(handle, [(series, {})] * num_clients)
            held.release_after_lookups(num_clients)
            _join(threads)
            with ServeClient(handle.host, handle.port) as client:
                metrics = client.metrics()
        finally:
            held.release.set()
            handle.stop()
        assert held.calls == 1
        assert len({json.dumps(envelope["result"]) for envelope in outcomes}) == 1
        assert metrics["cache"]["stores"] == 1
        assert metrics["batching"]["deduped_requests"] == num_clients - 1
        assert metrics["batching"]["distinct_jobs"] == 1
        assert all(envelope["serving"]["batch_size"] == 1 for envelope in outcomes)
        assert server._flights == {}
        direct = TMFGClusterer(ClusteringConfig(cache=True, num_clusters=3, prefix=2)).fit(series)
        assert json.dumps(outcomes[0]["result"]) == direct.result_.to_json()

    def test_failed_fit_fails_every_waiter_and_leaves_no_entry(self, series, monkeypatch):
        held = _HeldFits(monkeypatch)
        held.error = RuntimeError("fit exploded")
        server, handle = _start_server()
        try:
            threads, outcomes = _post_concurrently(handle, [(series, {})] * 4)
            held.release_after_lookups(4)
            _join(threads)
            assert held.calls == 1
            assert all(isinstance(error, ServerError) for error in outcomes)
            assert {(error.status, str(error)) for error in outcomes} == {
                (500, "HTTP 500: RuntimeError: fit exploded")
            }
            assert server._flights == {}
            # The next identical request starts a fresh fit, which succeeds.
            held.error = None
            with ServeClient(handle.host, handle.port) as client:
                envelope = client.cluster(series)
            assert held.calls == 2
            assert envelope["result"]["num_clusters"] == 3
        finally:
            held.release.set()
            handle.stop()

    def test_aliased_configs_share_one_flight(self, series, monkeypatch):
        # par-tdbht is an alias of the default tmfg-dbht: the key is taken
        # on the registry-normalised config, so both join one flight.
        held = _HeldFits(monkeypatch)
        _server, handle = _start_server()
        try:
            jobs = [(series, {"method": "par-tdbht"}), (series, {})] * 2
            threads, outcomes = _post_concurrently(handle, jobs)
            held.release_after_lookups(len(jobs))
            _join(threads)
        finally:
            held.release.set()
            handle.stop()
        assert held.calls == 1
        assert len({json.dumps(envelope["result"]) for envelope in outcomes}) == 1
        assert outcomes[0]["result"]["method"] == "tmfg-dbht"

    def test_distinct_keys_fit_separately_with_their_own_timings(self, series, monkeypatch):
        real_compute = ClusteringEstimator.compute

        def slow_for_prefix_one(estimator, *args, **kwargs):
            time.sleep(0.3 if estimator.config.prefix == 1 else 0.0)
            return real_compute(estimator, *args, **kwargs)

        monkeypatch.setattr(ClusteringEstimator, "compute", slow_for_prefix_one)
        _server, handle = _start_server()
        try:
            threads, outcomes = _post_concurrently(
                handle, [(series, {"prefix": 1}), (series, {"prefix": 2})]
            )
            _join(threads)
        finally:
            handle.stop()
        slow, fast = outcomes
        assert slow["serving"]["fit_seconds"] >= 0.3
        # The other key's fit does not inherit the slow one's time.
        assert fast["serving"]["fit_seconds"] < 0.3

    def test_cache_hit_is_not_held_behind_a_running_fit(self, series, monkeypatch):
        held = _HeldFits(monkeypatch, released=True)
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                warm = client.cluster(series)
                held.release.clear()
                threads, outcomes = _post_concurrently(handle, [(_other_series(61), {})])
                _wait_for(lambda: held.calls == 2, what="the held fit to start")
                hit = client.cluster(series)
                assert threads[0].is_alive()  # the miss is still fitting
            held.release.set()
            _join(threads)
        finally:
            held.release.set()
            handle.stop()
        assert hit["result"] == warm["result"]
        assert hit["serving"]["fit_seconds"] < 1.0
        assert outcomes[0]["result"]["num_clusters"] == 3

    def test_sigterm_mid_fit_answers_admitted_and_refuses_late(self):
        """`repro serve` on SIGTERM with fits in flight: every admitted
        request gets its 200, and a request that arrives on an open
        keep-alive connection after the drain began gets 503."""
        import os
        import signal
        import socket
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--clusters", "3", "--fit-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            port = int(banner.split("127.0.0.1:")[1].split()[0].rstrip("/"))
            with ServeClient(port=port) as client:
                client.wait_healthy(30)
            # Distinct ~0.15 s misses on one fit thread: the drain takes
            # a while, and each one stays admitted until it is answered.
            slow = [
                make_time_series_dataset(400, 60, 3, noise=1.0, seed=70 + i).data
                for i in range(4)
            ]
            outcomes = [None] * len(slow)

            def post(index):
                with ServeClient(port=port, timeout=120) as client:
                    outcomes[index] = client.cluster(slow[index], binary=True)

            threads = [threading.Thread(target=post, args=(i,)) for i in range(len(slow))]
            for thread in threads:
                thread.start()
            _wait_for(
                lambda: _in_flight(port) == len(slow), what="every slow request admitted"
            )

            def accept_loop_closed():
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                except ConnectionRefusedError:
                    return True
                return False

            # Opened before the signal: a keep-alive connection the drain
            # leaves open until the admitted requests are answered.
            with socket.create_connection(("127.0.0.1", port), timeout=30) as late:
                process.send_signal(signal.SIGTERM)
                _wait_for(accept_loop_closed, what="the drain to start")
                body = json.dumps({"matrix": slow[0][:8].tolist()}).encode()
                late.sendall(
                    b"POST /cluster HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
                )
                response = late.recv(1 << 16)
            _join(threads)
            assert response.startswith(b"HTTP/1.1 503"), response[:80]
            assert b"shutting down" in response
            assert [envelope["result"]["num_clusters"] for envelope in outcomes] == [3] * 4
            assert process.wait(timeout=60) == 0
            assert "drained and stopped" in process.stdout.read()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()


class TestReviewHardening:
    """Regression tests for the serving-path review findings."""

    def test_server_isolates_bad_matrix_from_batchmates(self, series):
        _server, handle = _start_server()
        try:
            too_small = np.ones((3, 5))  # parses fine, fails at fit (<4 rows)
            outcomes = {}

            def post(name, matrix):
                from repro.serve import ServerError

                with ServeClient(handle.host, handle.port) as client:
                    try:
                        outcomes[name] = client.cluster(matrix)
                    except ServerError as error:
                        outcomes[name] = error

            threads = [
                threading.Thread(target=post, args=("good", series)),
                threading.Thread(target=post, args=("bad", too_small)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert outcomes["good"]["result"]["num_clusters"] == 3
            assert getattr(outcomes["bad"], "status", None) == 400
            assert "at least 4 rows" in str(outcomes["bad"])
        finally:
            handle.stop()

    def test_reserved_config_fields_rejected(self, series, tmp_path):
        from repro.serve import ServerError

        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for payload in (
                    {"backend": "process", "workers": 64},
                    {"cache": True, "cache_dir": str(tmp_path / "evil")},
                ):
                    with pytest.raises(ServerError, match="operator-controlled") as excinfo:
                        client.cluster(series, config=payload)
                    assert excinfo.value.status == 400
        finally:
            handle.stop()

    def test_oversized_header_line_answers_400(self):
        import socket

        _server, handle = _start_server()
        try:
            with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
                raw.sendall(b"GET /healthz HTTP/1.1\r\n")
                raw.sendall(b"X-Huge: " + b"a" * (80 * 1024) + b"\r\n\r\n")
                raw.settimeout(10)
                response = raw.recv(65536)
            assert response.startswith(b"HTTP/1.1 400")
        finally:
            handle.stop()

    def test_unknown_routes_bucketed_in_metrics(self):
        from repro.serve import ServerError

        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for path in ("/nope", "/scan1", "/scan2"):
                    with pytest.raises(ServerError):
                        client.request("GET", path)
                requests_total = client.metrics()["requests_total"]
            assert requests_total.get("GET <other>") == 3
            assert not any("/nope" in key or "/scan" in key for key in requests_total)
        finally:
            handle.stop()

    def test_bad_admission_knobs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ClusteringServer(max_queue_depth=0)
        with pytest.raises(ValueError, match="fit_workers"):
            ClusteringServer(fit_workers=0)
        # The batching knobs are gone, not ignored.
        for deleted in ("max_batch_size", "max_wait_ms"):
            with pytest.raises(TypeError, match=deleted):
                ClusteringServer(**{deleted: 1})


# ---------------------------------------------------------------------------
# JSON body parsing (orjson, with stdlib json as the oracle)
# ---------------------------------------------------------------------------


def _json_number(bits: int) -> str:
    """``repr`` of the double with these 64 bits (non-finite ones dropped)."""
    value = struct.unpack("<d", bits.to_bytes(8, "little"))[0]
    return repr(value) if math.isfinite(value) else "0.5"


def _decimal_number(sign: bool, digits: str, exponent: int) -> str:
    """A JSON number with a long mantissa and a wide exponent."""
    head, tail = str(int(digits[0]) or 1), digits[1:]
    text = f"{'-' if sign else ''}{head}{'.' + tail if tail else ''}e{exponent}"
    return text if math.isfinite(float(text)) else "0.25"


_JSON_NUMBERS = st.one_of(
    st.integers(0, 2**64 - 1).map(_json_number),
    st.builds(
        _decimal_number,
        st.booleans(),
        st.text("0123456789", min_size=1, max_size=40),
        st.integers(-340, 320),
    ),
    # Subnormals: the biased exponent is zero.
    st.integers(0, 2**52 - 1).map(_json_number),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["-0.0", "-0", "0", "0e-400", "-0E+5", "4.9e-324", "2.2250738585072014e-308"]),
)


def _frame(header: bytes, payload: bytes) -> bytes:
    """A wire frame around raw header bytes."""
    return struct.pack("<4sB3xI", wire.MAGIC, wire.WIRE_VERSION, len(header)) + header + payload


class TestJsonBodyParsing:
    """The server parses JSON with orjson: the matrix it fingerprints must
    be the very float64 bytes the stdlib parser gives, and a body outside
    RFC 8259 (or nested past 1024 levels) answers 400 "not valid JSON"."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(_JSON_NUMBERS, min_size=3, max_size=3), min_size=1, max_size=8))
    @example(rows=[["18446744073709551616", "-9223372036854775809", "1e-400"]])
    @example(rows=[["2.4703282292062328e-324", "1.7976931348623157e308", "-0.0"]])
    def test_matrix_bytes_equal_the_stdlib_parse(self, rows):
        body = ("{\"matrix\": [" + ", ".join(f"[{', '.join(row)}]" for row in rows) + "]}").encode()
        matrix, _config = wire.decode_cluster_request(body, "application/json")
        oracle = np.asarray(json.loads(body)["matrix"], dtype=float)
        assert matrix.dtype == oracle.dtype and matrix.shape == oracle.shape
        assert matrix.tobytes() == oracle.tobytes()

    def test_rejected_bodies_answer_400_not_valid_json(self):
        deep = 1023  # the config object is level 2: these lists reach 1025
        very_deep = 100_000  # well-formed; orjson alone would overflow the C stack
        bodies = {
            "NaN": b'{"matrix": [[NaN, 1.0], [1.0, 0.0]]}',
            "Infinity": b'{"matrix": [[Infinity, 1.0], [1.0, 0.0]]}',
            "-Infinity": b'{"matrix": [[-Infinity, 1.0], [1.0, 0.0]]}',
            "1e400": b'{"matrix": [[1e400, 1.0], [1.0, 0.0]]}',
            "400-digit int": b'{"matrix": [[1' + b"0" * 400 + b', 1], [1, 0]]}',
            "lone surrogate": b'{"matrix": [[1.0]], "config": {"linkage": "\\ud800"}}',
            "UTF-16 with BOM": json.dumps({"matrix": [[1.0, 0.5], [0.5, 1.0]]}).encode("utf-16"),
            "UTF-8 BOM": b"\xef\xbb\xbf" + json.dumps({"matrix": [[1.0]]}).encode(),
            "nested in config": b'{"matrix": [[1.0]], "config": {"precomputed": '
            + b"[" * deep + b"]" * deep + b"}}",
            "nested matrix": b'{"matrix": ' + b"[" * 1024 + b"]" * 1024 + b"}",
            "nested array": b"[" * 1025 + b"]" * 1025,
            "very deep array": b"[" * very_deep + b"]" * very_deep,
            "very deep objects": b'{"a":' * very_deep + b"1" + b"}" * very_deep,
            "very deep in config": b'{"matrix": [[1.0]], "config": {"precomputed": '
            + b'{"a":' * very_deep + b"1" + b"}" * very_deep + b"}}",
            "very deep matrix": b'{"matrix": ' + b"[" * very_deep + b"]" * very_deep + b"}",
        }
        # A frame header goes through the same parser as a JSON body.
        frames = {
            "NaN config": wire.encode_request(np.eye(4), {"num_clusters": float("nan")}),
            "Infinity config": wire.encode_request(np.eye(4), {"num_clusters": float("inf")}),
            "very deep config": _frame(
                b'{"dtype": "<f8", "shape": [2, 2], "config": {"precomputed": '
                + b"[" * very_deep + b"]" * very_deep + b"}}",
                bytes(32),
            ),
        }
        # 1024 levels are still JSON: these are refused for their shape.
        deepest = (b"[" * 1024 + b"]" * 1024, b'{"matrix": ' + b"[" * 1023 + b"]" * 1023 + b"}")
        headers = {"Content-Type": "application/json"}
        _server, handle = _start_server()
        try:
            with ServeClient(handle.host, handle.port) as client:
                for name, body in bodies.items():
                    with pytest.raises(ServerError, match="not valid JSON") as excinfo:
                        client.request("POST", "/cluster", body, headers)
                    assert excinfo.value.status == 400, name
                for name, body in frames.items():
                    with pytest.raises(ServerError, match="not valid JSON") as excinfo:
                        client.request("POST", "/cluster", body, {"Content-Type": WIRE_CONTENT_TYPE})
                    assert excinfo.value.status == 400, name
                for body in deepest:
                    with pytest.raises(ServerError) as excinfo:
                        client.request("POST", "/cluster", body, headers)
                    assert excinfo.value.status == 400
                    assert "not valid JSON" not in str(excinfo.value)
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()


# ---------------------------------------------------------------------------
# Transport hardening (client retry semantics, 429 hints, header parsing)
# ---------------------------------------------------------------------------


class _ScriptedSocketServer:
    """A raw TCP double for transport-failure tests.

    Reads one full HTTP request per connection and then consults
    ``script``: ``"kill"`` closes the connection without answering
    (simulating a server that died post-admission), any other entry is
    sent verbatim as the response.  Connections beyond the script replay
    its last entry.  ``requests_seen`` counts requests actually read —
    the double-submit assertions hang off it.
    """

    def __init__(self, script):
        import socket as socketlib

        self.script = list(script)
        self.requests_seen = 0
        self.requests = []
        self._listener = socketlib.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        import socket as socketlib

        while not self._stopping.is_set():
            try:
                connection, _peer = self._listener.accept()
            except (socketlib.timeout, OSError):
                continue
            with connection:
                connection.settimeout(5.0)
                try:
                    request = self._read_request(connection)
                except (socketlib.timeout, OSError):
                    continue
                if not request:
                    continue
                self.requests.append(request)
                action = self.script[min(self.requests_seen, len(self.script) - 1)]
                self.requests_seen += 1
                if action != "kill":
                    try:
                        connection.sendall(action)
                    except OSError:
                        pass
                # falling out of the with-block closes the socket; for
                # "kill" that is the whole response.

    @staticmethod
    def _read_request(connection) -> bytes:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return data
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        content_length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                content_length = int(value.strip())
        while len(rest) < content_length:
            chunk = connection.recv(65536)
            if not chunk:
                break
            rest += chunk
        return data

    def stop(self):
        self._stopping.set()
        self._thread.join(timeout=5)
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


def _canned_response(status_line: str, body: dict, extra_headers: str = "") -> bytes:
    payload = json.dumps(body).encode("utf-8")
    return (
        f"HTTP/1.1 {status_line}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{extra_headers}"
        f"Connection: keep-alive\r\n\r\n"
    ).encode("latin-1") + payload


class TestClientRetrySemantics:
    """The stale-socket retry is restricted to idempotent methods: a POST
    whose connection dies after the request was read may already have been
    admitted (even fitted) server-side, so replaying it would double-submit."""

    def test_post_is_never_transparently_retried(self):
        from repro.serve import ServeClient

        with _ScriptedSocketServer(["kill"]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                with pytest.raises((ConnectionError, OSError, Exception)) as excinfo:
                    client.request("POST", "/cluster", b'{"matrix": [[1.0, 2.0]]}')
                import http.client as http_client

                assert isinstance(
                    excinfo.value,
                    (http_client.HTTPException, ConnectionError, OSError),
                )
            time.sleep(0.05)
            # Exactly one request reached the wire: no silent replay.
            assert fake.requests_seen == 1

    def test_get_is_transparently_retried_once(self):
        from repro.serve import ServeClient

        ok = _canned_response("200 OK", {"status": "ok"})
        with _ScriptedSocketServer(["kill", ok]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                assert client.healthz() == {"status": "ok"}
            assert fake.requests_seen == 2
            assert all(req.startswith(b"GET /healthz") for req in fake.requests)

    def test_cluster_propagates_connection_death(self, series):
        from repro.serve import ServeClient

        with _ScriptedSocketServer(["kill"]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                import http.client as http_client

                with pytest.raises(
                    (http_client.HTTPException, ConnectionError, OSError)
                ):
                    client.cluster(series[:8])
            time.sleep(0.05)
            assert fake.requests_seen == 1


class TestRetryAfterHints:
    def test_retry_after_hint_is_fractional_with_a_floor(self):
        from repro.serve.server import retry_after_hint

        assert retry_after_hint(3_000.0) == 3.0
        assert retry_after_hint(250.0) == 0.25
        assert retry_after_hint(10.0) == 0.05  # floored: never advertise ~0
        assert retry_after_hint(333.3) == 0.333

    def test_client_prefers_fractional_body_hint_over_header(self):
        from repro.serve import ServeClient

        busy = _canned_response(
            "429 Too Many Requests",
            {"error": "admission queue full", "retry_after_seconds": 0.25},
            extra_headers="Retry-After: 1\r\n",
        )
        with _ScriptedSocketServer([busy]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                with pytest.raises(ServerBusy) as excinfo:
                    client.cluster(np.ones((4, 4)))
        assert excinfo.value.retry_after == 0.25

    def test_client_falls_back_to_header_without_body_hint(self):
        from repro.serve import ServeClient

        busy = _canned_response(
            "429 Too Many Requests",
            {"error": "admission queue full"},
            extra_headers="Retry-After: 2\r\n",
        )
        with _ScriptedSocketServer([busy]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                with pytest.raises(ServerBusy) as excinfo:
                    client.cluster(np.ones((4, 4)))
        assert excinfo.value.retry_after == 2.0

    def test_hostile_body_hint_is_ignored(self):
        from repro.serve import ServeClient

        busy = _canned_response(
            "429 Too Many Requests",
            {"error": "busy", "retry_after_seconds": "soon"},
            extra_headers="Retry-After: 1\r\n",
        )
        with _ScriptedSocketServer([busy]) as fake:
            with ServeClient(fake.host, fake.port, timeout=5) as client:
                with pytest.raises(ServerBusy) as excinfo:
                    client.cluster(np.ones((4, 4)))
        assert excinfo.value.retry_after == 1.0

    def test_live_429_carries_fractional_body_and_integer_header(self, series, monkeypatch):
        import socket

        from repro.serve.server import retry_after_hint

        held = _HeldFits(monkeypatch, released=True)
        server, handle = _start_server(max_queue_depth=1, fit_workers=1)
        small = series[:12]
        try:
            # One served request that spent ~1.2 s on the executor: the
            # batch_fit histogram's p50 is then its bucket's midpoint, 1.5 s.
            held.delay = 1.2
            with ServeClient(handle.host, handle.port, timeout=60) as client:
                client.cluster(_other_series(60)[:12])
            p50_ms = server.metrics.fit_p50_ms()
            assert 1000.0 < p50_ms <= 2000.0
            # Saturate with a held miss, then inspect the raw 429 bytes.
            held.delay = 0.0
            held.release.clear()
            holders, _outcomes = _post_concurrently(handle, [(small, {})])
            _wait_for(lambda: _in_flight(handle.port) == 1, what="one admitted request")
            body = json.dumps({"matrix": small.tolist(), "config": {}}).encode()
            with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
                raw.sendall(
                    b"POST /cluster HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
                )
                raw.settimeout(10)
                raw_response = raw.recv(1 << 20)
            held.release.set()
            _join(holders)
            assert raw_response.startswith(b"HTTP/1.1 429"), raw_response[:80]
            head, _, payload = raw_response.partition(b"\r\n\r\n")
            headers = {
                line.split(b":", 1)[0].strip().lower(): line.split(b":", 1)[1].strip()
                for line in head.split(b"\r\n")[1:]
            }
            # RFC-valid header: a non-negative integer, rounded UP from the hint.
            assert headers[b"retry-after"].isdigit()
            hint = json.loads(payload)["retry_after_seconds"]
            assert isinstance(hint, float)
            assert hint == retry_after_hint(p50_ms) == round(p50_ms / 1000.0, 3)
            assert int(headers[b"retry-after"]) == math.ceil(hint) == 2
        finally:
            held.release.set()
            handle.stop()


class TestHeaderParsingHardening:
    """Request-smuggling-adjacent parsing fixes: duplicate Content-Length
    and colon-less header lines must be refused, not guessed at."""

    def _raw_exchange(self, handle, request: bytes) -> bytes:
        import socket

        with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
            raw.sendall(request)
            raw.settimeout(10)
            return raw.recv(65536)

    def test_duplicate_content_length_answers_400(self):
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"POST /cluster HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 4\r\nContent-Length: 11\r\n\r\n"
                b"{}",
            )
            assert response.startswith(b"HTTP/1.1 400")
            assert b"duplicate Content-Length" in response
        finally:
            handle.stop()

    def test_colonless_header_line_answers_400(self):
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\nBogusHeaderNoColon\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 400")
            assert b"no colon" in response
        finally:
            handle.stop()

    def test_empty_header_name_answers_400(self):
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n: stray-value\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 400")
        finally:
            handle.stop()

    @pytest.mark.parametrize("length", [b"1_0", b"+3", b"-0", b"\xb2"])
    def test_non_digit_content_length_answers_400(self, length):
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"POST /cluster HTTP/1.1\r\nHost: x\r\nContent-Length: " + length
                + b"\r\n\r\n{}{}{}{}{}",
            )
            assert response.startswith(b"HTTP/1.1 400")
            assert b"bad Content-Length" in response
        finally:
            handle.stop()

    def test_transfer_encoding_answers_400(self):
        # Ignoring the header would read an empty body and then parse the
        # chunk bytes as a second request.
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"POST /cluster HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"4\r\nGET \r\n0\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 400")
            assert b"Transfer-Encoding" in response
            assert response.count(b"HTTP/1.1") == 1
        finally:
            handle.stop()

    def test_duplicate_benign_headers_still_accepted(self):
        _server, handle = _start_server()
        try:
            response = self._raw_exchange(
                handle,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"X-Trace: a\r\nX-Trace: b\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 200")
        finally:
            handle.stop()


class TestReadRequestFuzz:
    """``httpio.read_request`` on arbitrary bytes then EOF: every parse
    ends in a :class:`Request`, ``None`` or :class:`BadRequest` — never
    another exception and never a hang."""

    _REQUEST_LINES = st.sampled_from(
        [b"", b"GET /healthz HTTP/1.1\r\n", b"POST /cluster HTTP/1.1\r\n"]
    ) | st.binary(max_size=32)
    _HEADER_LINES = st.lists(
        st.sampled_from(
            [b"Host: x", b"Content-Length: 3", b"Content-Length: 99", b"content-length:0",
             b"Content-Length: 1_0", b"Content-Length: +3", b"Transfer-Encoding: chunked",
             b"Connection: close", b"NoColon", b": v", b"X: \xff\x00"]
        ) | st.binary(max_size=24),
        max_size=6,
    ).map(lambda lines: b"".join(line + b"\r\n" for line in lines))

    @settings(max_examples=300, deadline=None)
    @given(line=_REQUEST_LINES, headers=_HEADER_LINES, tail=st.binary(max_size=64))
    @example(line=b"POST /cluster HTTP/1.1\r\n", headers=b"Content-Length: " + b"9" * 5000 + b"\r\n",
             tail=b"\r\n")
    @example(line=b"GET / HTTP/1.1\r\n", headers=b"Transfer-Encoding: chunked\r\n",
             tail=b"\r\n4\r\nGET \r\n0\r\n\r\n")
    def test_any_bytes_parse_or_raise_bad_request(self, line, headers, tail):
        data = line + headers + tail

        async def _parse_all() -> list:
            reader = asyncio.StreamReader(limit=HEADER_LIMIT)
            reader.feed_data(data)
            reader.feed_eof()
            outcomes = []
            # Keep-alive: parse request after request until EOF or an error;
            # each parse consumes bytes, so the loop is bounded by the input.
            for _ in range(len(data) + 1):
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    outcomes.append(error)
                    break
                assert request is None or isinstance(request, Request)
                outcomes.append(request)
                if request is None:
                    break
            return outcomes

        outcomes = asyncio.run(asyncio.wait_for(_parse_all(), timeout=10.0))
        # The stream ends at clean EOF or at the first framing error.
        assert outcomes[-1] is None or isinstance(outcomes[-1], BadRequest)


class TestJitteredBackoff:
    def test_jitter_stays_within_twenty_percent(self):
        import random

        from repro.serve.client import RETRY_JITTER_FRACTION, jittered_backoff

        rng = random.Random(42)
        draws = [jittered_backoff(2.0, rng) for _ in range(500)]
        low, high = 2.0 * (1 - RETRY_JITTER_FRACTION), 2.0 * (1 + RETRY_JITTER_FRACTION)
        assert all(low <= draw <= high for draw in draws)
        # It actually jitters: a lockstep client herd must decorrelate.
        assert len({round(draw, 6) for draw in draws}) > 100
        assert min(draws) < 2.0 < max(draws)

    def test_zero_and_negative_backoffs_stay_zero(self):
        from repro.serve.client import jittered_backoff

        assert jittered_backoff(0.0) == 0.0
        assert jittered_backoff(-5.0) == 0.0


class TestIdentityFields:
    """pid/version/uptime in healthz + metrics: what makes one replica
    distinguishable from another inside a fleet."""

    def test_healthz_carries_process_identity(self):
        import os

        from repro.serve.metrics import ServerMetrics

        payload = ServerMetrics().healthz(queue_depth=0, draining=False, version="9.9")
        assert payload["pid"] == os.getpid()
        assert payload["version"] == "9.9"
        assert payload["uptime_seconds"] >= 0.0

    def test_metrics_carries_process_identity(self):
        import os

        from repro.serve.metrics import ServerMetrics

        payload = ServerMetrics().render(
            queue_depth=0, cache_stats=None, draining=False, version="9.9",
        )
        assert payload["pid"] == os.getpid()
        assert payload["version"] == "9.9"
        assert payload["uptime_seconds"] >= 0.0

    def test_served_healthz_and_metrics_expose_identity(self):
        _server, handle = _start_server()
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                health = client.healthz()
                metrics = client.metrics()
            assert health["pid"] == metrics["pid"]
            assert health["version"] == metrics["version"]
            assert health["uptime_seconds"] >= 0.0
            assert metrics["uptime_seconds"] >= health["uptime_seconds"] >= 0.0
        finally:
            handle.stop()

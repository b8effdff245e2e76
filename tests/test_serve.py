"""Tests for the micro-batching clustering service (`repro.serve`).

Unit-level: the size-or-deadline batcher, admission control, latency
histograms.  Integration-level: a real server on an ephemeral port,
concurrent identical + distinct POSTs deduping (asserted through the
``/metrics`` counters), byte-identity with direct estimator fits, 429
under saturation, and clean graceful shutdown.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import ClusteringConfig, TMFGClusterer
from repro.cache import clear_result_caches, get_result_cache
from repro.datasets.synthetic import make_time_series_dataset
from repro.serve import (
    ClusteringServer,
    LatencyHistogram,
    MicroBatcher,
    QueueFull,
    ServeClient,
    ServerBusy,
    ServerError,
    ServiceStopping,
)
from repro.serve.httpio import HEADER_LIMIT, BadRequest, Request, read_request


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
# MicroBatcher
# ---------------------------------------------------------------------------


def _run(coroutine):
    return asyncio.run(coroutine)


class _RecordingRunner:
    """Runner double: records each (config, matrices) call it serves."""

    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.calls = []
        self.delay = delay
        self.fail = fail

    async def __call__(self, config, matrices):
        self.calls.append((config, [np.asarray(m) for m in matrices]))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            raise RuntimeError("runner exploded")
        return [("fit", config.method, int(np.asarray(m).sum())) for m in matrices]


class TestMicroBatcher:
    def test_flushes_on_max_batch_size(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(runner, max_batch_size=3, max_wait_ms=10_000)
            batcher.start()
            config = ClusteringConfig()
            futures = [batcher.submit(np.full((2, 2), i), config) for i in range(3)]
            results = await asyncio.wait_for(asyncio.gather(*futures), timeout=5)
            await batcher.stop()
            return runner.calls, results

        calls, results = _run(scenario())
        # One flush, one runner call, well before the (huge) deadline.
        assert len(calls) == 1
        assert len(calls[0][1]) == 3
        for i, (result, info) in enumerate(results):
            assert result == ("fit", "tmfg-dbht", i * 4)
            assert info["batch_size"] == 3
            assert info["batch_distinct"] == 3

    def test_flushes_on_deadline_with_partial_batch(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(runner, max_batch_size=64, max_wait_ms=30)
            batcher.start()
            start = asyncio.get_running_loop().time()
            future = batcher.submit(np.ones((2, 2)), ClusteringConfig())
            await asyncio.wait_for(future, timeout=5)
            elapsed = asyncio.get_running_loop().time() - start
            await batcher.stop()
            return runner.calls, elapsed

        calls, elapsed = _run(scenario())
        assert len(calls) == 1 and len(calls[0][1]) == 1
        assert elapsed >= 0.02  # waited for (most of) the 30ms deadline

    def test_mixed_configs_split_into_one_runner_call_each(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(runner, max_batch_size=4, max_wait_ms=10_000)
            batcher.start()
            a, b = ClusteringConfig(prefix=1), ClusteringConfig(prefix=2)
            futures = [
                batcher.submit(np.ones((2, 2)), a),
                batcher.submit(np.ones((2, 2)), b),
                batcher.submit(np.ones((2, 2)), a),
                batcher.submit(np.ones((2, 2)), b),
            ]
            results = await asyncio.wait_for(asyncio.gather(*futures), timeout=5)
            await batcher.stop()
            return runner.calls, results

        calls, results = _run(scenario())
        assert [len(matrices) for _config, matrices in calls] == [2, 2]
        assert {config.prefix for config, _m in calls} == {1, 2}
        # The batch is still accounted as one: 4 requests, 2 distinct jobs.
        assert all(info["batch_size"] == 4 for _r, info in results)
        assert all(info["batch_distinct"] == 2 for _r, info in results)

    def test_queue_full_rejects_and_counts(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(
                runner, max_batch_size=64, max_wait_ms=10_000, max_queue_depth=2
            )
            batcher.start()
            config = ClusteringConfig()
            kept = [batcher.submit(np.ones((2, 2)), config) for _ in range(2)]
            with pytest.raises(QueueFull):
                batcher.submit(np.ones((2, 2)), config)
            rejected = batcher.stats.rejected
            await batcher.stop()  # drain answers the two admitted jobs
            results = await asyncio.gather(*kept)
            return rejected, results

        rejected, results = _run(scenario())
        assert rejected == 1
        assert len(results) == 2

    def test_stop_drains_admitted_work_then_refuses(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(runner, max_batch_size=64, max_wait_ms=10_000)
            batcher.start()
            future = batcher.submit(np.ones((2, 2)), ClusteringConfig())
            await batcher.stop(drain=True)
            result, _info = future.result()
            with pytest.raises(ServiceStopping):
                batcher.submit(np.ones((2, 2)), ClusteringConfig())
            return result

        assert _run(scenario())[0] == "fit"

    def test_stop_without_drain_fails_queued_requests(self):
        async def scenario():
            runner = _RecordingRunner()
            batcher = MicroBatcher(runner, max_batch_size=64, max_wait_ms=10_000)
            batcher.start()
            future = batcher.submit(np.ones((2, 2)), ClusteringConfig())
            await batcher.stop(drain=False)
            return future

        future = _run(scenario())
        with pytest.raises(ServiceStopping):
            future.result()

    def test_runner_failure_propagates_to_every_request(self):
        async def scenario():
            runner = _RecordingRunner(fail=True)
            batcher = MicroBatcher(runner, max_batch_size=2, max_wait_ms=10_000)
            batcher.start()
            futures = [
                batcher.submit(np.ones((2, 2)), ClusteringConfig()) for _ in range(2)
            ]
            gathered = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.stop()
            return gathered

        gathered = _run(scenario())
        assert all(isinstance(g, RuntimeError) for g in gathered)

    def test_knob_validation(self):
        runner = _RecordingRunner()
        with pytest.raises(ValueError):
            MicroBatcher(runner, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(runner, max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatcher(runner, max_queue_depth=0)


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
        max_batch_size=16,
        max_wait_ms=20.0,
        fit_workers=2,
    )
    defaults.update(kwargs)
    server = ClusteringServer(**defaults)
    handle = server.start_in_background()
    return server, handle


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
        _server, handle = _start_server(max_wait_ms=60.0)
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
        _server, handle = _start_server(max_wait_ms=40.0)
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

    def test_saturated_queue_answers_429_with_retry_after(self, series):
        # max_wait_ms is huge and the batch never fills, so admitted
        # requests sit in the queue; depth 2 makes the third request 429.
        _server, handle = _start_server(
            max_wait_ms=3_000.0, max_batch_size=64, max_queue_depth=2, fit_workers=1
        )
        small = series[:12]
        try:
            results, busy = [], []

            def fire():
                with ServeClient(handle.host, handle.port) as client:
                    try:
                        results.append(client.cluster(small))
                    except ServerBusy as error:
                        busy.append(error)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
                time.sleep(0.05)  # admit strictly one at a time
            for thread in threads:
                thread.join(timeout=120)
            assert busy, "no request was rejected despite a saturated queue"
            assert all(error.retry_after >= 1 for error in busy)
            assert len(results) == 6 - len(busy)
            with ServeClient(handle.host, handle.port) as client:
                metrics = client.metrics()
            assert metrics["rejected_total"] == len(busy)
            assert metrics["responses_total"]["429"] == len(busy)
        finally:
            handle.stop()

    def test_graceful_shutdown_drains_inflight_requests(self, series):
        server, handle = _start_server(max_wait_ms=200.0)
        envelopes = []

        def slow_request():
            with ServeClient(handle.host, handle.port) as client:
                envelopes.append(client.cluster(series))

        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.05)  # let the request reach the queue
        handle.stop()  # drain: the queued request must still be answered
        thread.join(timeout=30)
        assert len(envelopes) == 1
        assert envelopes[0]["result"]["num_clusters"] == 3
        # The port is actually released.
        with pytest.raises(OSError):
            import socket

            probe = socket.create_connection((handle.host, handle.port), timeout=0.5)
            probe.close()
        assert not handle.thread.is_alive()

    def test_server_rejects_bad_fit_workers(self):
        with pytest.raises(ValueError):
            ClusteringServer(fit_workers=0)


class TestReviewHardening:
    """Regression tests for the serving-path review findings."""

    def test_group_failure_is_isolated_per_request(self):
        poison = np.full((2, 2), -1.0)

        async def runner(config, matrices):
            if any(np.all(m == -1.0) for m in matrices):
                raise ValueError("poison matrix")
            await asyncio.sleep(0)
            return ["ok" for _ in matrices]

        async def scenario():
            batcher = MicroBatcher(runner, max_batch_size=3, max_wait_ms=10_000)
            batcher.start()
            config = ClusteringConfig()
            good_a = batcher.submit(np.ones((2, 2)), config)
            bad = batcher.submit(poison, config)
            good_b = batcher.submit(np.full((2, 2), 2.0), config)
            gathered = await asyncio.gather(
                good_a, bad, good_b, return_exceptions=True
            )
            await batcher.stop()
            return gathered

        result_a, bad_error, result_b = _run(scenario())
        # The co-batched good requests still get answers; only the poison
        # request observes its own error.
        assert result_a[0] == "ok" and result_b[0] == "ok"
        assert isinstance(bad_error, ValueError)
        assert "poison" in str(bad_error)

    def test_server_isolates_bad_matrix_from_batchmates(self, series):
        _server, handle = _start_server(max_wait_ms=150.0)
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

    def test_bad_batching_knobs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ClusteringServer(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ClusteringServer(max_wait_ms=-1.0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            ClusteringServer(max_queue_depth=0)


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

    def test_live_429_carries_fractional_body_and_integer_header(self, series):
        import socket

        _server, handle = _start_server(
            max_wait_ms=2_500.0, max_batch_size=64, max_queue_depth=1, fit_workers=1
        )
        small = series[:12]
        try:
            def hold():
                try:
                    ServeClient(handle.host, handle.port).cluster(small)
                except ServerBusy:
                    pass  # late holders may be rejected too; irrelevant here

            holders = [threading.Thread(target=hold) for _ in range(3)]
            for thread in holders:
                thread.start()
                time.sleep(0.05)
            # Saturate, then inspect the raw 429 bytes.
            body = json.dumps({"matrix": small.tolist(), "config": {}}).encode()
            deadline = time.time() + 10
            raw_response = b""
            while time.time() < deadline:
                with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
                    raw.sendall(
                        b"POST /cluster HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
                    )
                    raw.settimeout(10)
                    raw_response = raw.recv(1 << 20)
                if raw_response.startswith(b"HTTP/1.1 429"):
                    break
            for thread in holders:
                thread.join(timeout=120)
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
            assert hint == 2.5  # max_wait_ms / 1000, fractional
            assert int(headers[b"retry-after"]) == 3  # ceil(2.5)
        finally:
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

    def test_mixed_config_groups_time_fits_separately(self):
        async def runner(config, matrices):
            await asyncio.sleep(0.1 if config.prefix == 1 else 0.0)
            return ["ok" for _ in matrices]

        async def scenario():
            batcher = MicroBatcher(runner, max_batch_size=2, max_wait_ms=10_000)
            batcher.start()
            slow = batcher.submit(np.ones((2, 2)), ClusteringConfig(prefix=1))
            fast = batcher.submit(np.ones((2, 2)), ClusteringConfig(prefix=2))
            (_, slow_info), (_, fast_info) = await asyncio.gather(slow, fast)
            await batcher.stop()
            return slow_info, fast_info

        slow_info, fast_info = _run(scenario())
        assert slow_info["fit_seconds"] >= 0.1
        # The second group's fit time does not inherit the first group's.
        assert fast_info["fit_seconds"] < 0.1


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
            queue_depth=0, batcher_stats={}, cache_stats=None, draining=False,
            version="9.9",
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

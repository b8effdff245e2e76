"""Tests for repro.serve.fleet: ring, supervisor, and router.

Three layers:

* pure ring/affinity-key unit tests (no processes);
* proxy-mechanics tests against a canned-response fake replica, which is
  the one place true *byte* identity is assertable (real fits carry
  per-request timings, so two responses never match byte-for-byte even
  from a single process);
* full-fleet integration: real ``repro serve`` replica subprocesses
  behind the router — affinity, cache locality, crash failover, restart
  supervision, drain.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api.config import ClusteringConfig
from repro.api.estimators import make_estimator
from repro.cache.fingerprint import config_fingerprint, matrix_fingerprint
from repro.serve import ServeClient, ServerError, build_fleet
from repro.serve.fleet.ring import rendezvous_rank, request_affinity_key, spread
from repro.serve.fleet.router import FleetRouter
from repro.serve.fleet.supervisor import ReplicaInfo, ReplicaSupervisor
from repro.serve.httpio import http_fetch
from repro.serve.server import ClusteringServer, merged_request_config
from repro.serve.wire import (
    WIRE_CONTENT_TYPE,
    decode_cluster_request,
    encode_frame,
    encode_request,
)
from tests.conftest import tie_heavy_series

MEMBERS = [f"replica-{i}" for i in range(4)]


def _matrix(seed: int = 0, n: int = 24):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 8))


KMEANS = {"num_clusters": 2, "method": "kmeans", "seed": 0}

#: Fleet defaults the ring-vs-cache property keys bodies under.
FLEET_DEFAULTS = (
    ClusteringConfig(cache=True),
    ClusteringConfig(num_clusters=11, cache=True),
    ClusteringConfig(method="par-tdbht", prefix=2, cache=True),
    ClusteringConfig(method="hac", linkage="average"),
)

#: ``(config overlay, spelling)`` pairs drawn from a small alphabet, so two
#: draws often name one cache entry in different words.
SPELLED_JOBS = st.tuples(
    st.fixed_dictionaries(
        {},
        optional={
            "method": st.sampled_from(["tmfg-dbht", "par-tdbht", "hac", "comp"]),
            "num_clusters": st.sampled_from([None, 3, 11]),
            "prefix": st.sampled_from([1, 2]),
            "linkage": st.sampled_from(["complete", "average"]),
        },
    ),
    st.sampled_from(["json", "<f8", "<i8"]),
)


def _request_body(ints, config, spelling):
    """``(body, media_type)`` of one job: JSON, or a ``<f8``/``<i8`` frame."""
    if spelling == "json":
        return json.dumps({"matrix": ints.tolist(), "config": config}).encode(), "application/json"
    return encode_request(ints.astype(spelling), config), WIRE_CONTENT_TYPE


def _replica_cache_key(request, default):
    """The result-cache key a replica started with ``default`` looks up."""
    matrix, payload = decode_cluster_request(*request)
    return ClusteringServer._lookup(matrix, merged_request_config(default, payload))[2]


class TestRendezvousRing:
    def test_rank_is_deterministic_and_total(self):
        ranked = rendezvous_rank("key-1", MEMBERS)
        assert ranked == rendezvous_rank("key-1", list(reversed(MEMBERS)))
        assert sorted(ranked) == sorted(MEMBERS)

    def test_removing_home_promotes_second_choice(self):
        # The heart of consistent failover: dropping a key's home replica
        # must hand the key to its *old second choice*, and keys homed
        # elsewhere must not move at all.
        for key in (f"key-{i}" for i in range(50)):
            full = rendezvous_rank(key, MEMBERS)
            survivors = [m for m in MEMBERS if m != full[0]]
            assert rendezvous_rank(key, survivors) == full[1:]

    def test_unrelated_keys_stay_put_when_member_leaves(self):
        keys = [f"key-{i}" for i in range(200)]
        gone = MEMBERS[0]
        survivors = MEMBERS[1:]
        for key in keys:
            before = rendezvous_rank(key, MEMBERS)[0]
            after = rendezvous_rank(key, survivors)[0]
            if before != gone:
                assert after == before

    def test_spread_is_roughly_balanced(self):
        keys = [f"key-{i}" for i in range(400)]
        counts = spread(keys, MEMBERS)
        assert sum(counts.values()) == len(keys)
        # 400 keys over 4 members: each should land well away from 0.
        assert min(counts.values()) > 40

    def test_restarted_member_gets_its_keys_back(self):
        keys = [f"key-{i}" for i in range(100)]
        before = {key: rendezvous_rank(key, MEMBERS)[0] for key in keys}
        after = {key: rendezvous_rank(key, list(MEMBERS))[0] for key in keys}
        assert before == after


class TestAffinityKey:
    def test_json_bodies_key_on_content(self):
        body = b'{"matrix": [[0, 1], [1, 0]], "config": {}}'
        key = request_affinity_key(body, "application/json")
        assert key.startswith("content:")
        assert key == request_affinity_key(body, "application/json")
        # Whitespace and number spelling do not change the job, so neither
        # changes the key; a missing config is the empty overlay.
        assert request_affinity_key(body + b" ") == key
        assert request_affinity_key(b'{"config":{},"matrix":[[0.0,1.0],[1.0,0.0]]}') == key
        assert request_affinity_key(b'{"matrix": [[0, 1], [1, 0]]}') == key
        other = b'{"matrix": [[0, 1], [1, 0]], "config": {"prefix": 2}}'
        assert request_affinity_key(other) != key

    @pytest.mark.parametrize(
        "body",
        [
            b"\x80abc",
            b'{"matrix": [[0, 1], [1, 0]',
            b"[1, 2]",
            b'{"config": {}}',
            b'{"matrix": [[0, 1], [1, 0]], "config": [1]}',
            b'{"matrix": [[0, 1], [1]]}',
            b'{"matrix": [["a"]]}',
            b"[" * 2000 + b"]" * 2000,
            # Decodable, but the replica refuses the config.
            b'{"matrix": [[1.0, 2.0]], "config": {"cache": true}}',
            b'{"matrix": [[1.0, 2.0]], "config": {"method": "no-such-method"}}',
            b'{"matrix": [[1.0, 2.0]], "config": {"prefix": 0}}',
        ],
    )
    def test_undecodable_json_bodies_key_on_raw_bytes(self, body):
        assert request_affinity_key(body, "application/json").startswith("raw:")

    def test_config_too_deep_to_fingerprint_keys_on_raw_bytes(self):
        # The body parses (nesting 1022 of 1024), but describing its
        # ill-typed config overruns the interpreter's recursion limit; any
        # replica answers it with a 400 "bad 'config'".
        body = b'{"matrix": [[1.0]], "config": {"prefix": ' + b"[" * 1020 + b"]" * 1020 + b"}}"
        assert request_affinity_key(body, "application/json").startswith("raw:")

    @settings(max_examples=60, deadline=None)
    @given(
        ints=hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.integers(-(2**40), 2**40),
        ),
        config=st.fixed_dictionaries(
            {},
            optional={
                "num_clusters": st.integers(1, 5),
                "prefix": st.integers(1, 4),
                "method": st.sampled_from(["tmfg-dbht", "kmeans"]),
            },
        ),
    )
    def test_json_and_binary_spellings_of_one_job_share_a_key(self, ints, config):
        floats = ints.astype("<f8")
        keys = {
            request_affinity_key(json.dumps({"matrix": ints.tolist(), "config": config}).encode()),
            request_affinity_key(
                json.dumps({"config": config, "matrix": floats.tolist()}, indent=1).encode(),
                "application/json",
            ),
            request_affinity_key(encode_request(floats, config), WIRE_CONTENT_TYPE),
            request_affinity_key(encode_request(ints.astype("<i8"), config), WIRE_CONTENT_TYPE),
        }
        assert len(keys) == 1, keys
        assert keys.pop().startswith("content:")

    @settings(max_examples=60, deadline=None)
    @given(
        matrix=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        config=st.fixed_dictionaries(
            {},
            optional={
                "method": st.sampled_from(["tmfg-dbht", "par-tdbht", "kmeans", "spectral"]),
                "num_clusters": st.one_of(st.none(), st.integers(1, 20)),
                "prefix": st.integers(1, 30),
                "precomputed": st.booleans(),
                "linkage": st.sampled_from(["complete", "average", "single"]),
                "seed": st.integers(0, 2**31),
                "num_restarts": st.integers(1, 5),
                "spectral_neighbors": st.integers(1, 20),
            },
        ),
    )
    def test_accepted_bodies_key_on_matrix_and_config_fingerprints(self, matrix, config):
        # The routing key of every body a replica accepts, pinned to its
        # formula: the float64 matrix fingerprint plus the fields of the
        # registry-normalised merged config that differ from the default.
        # perfbench predicts the router's replica choice with it.
        merged = ClusteringConfig().merged(config)
        fitted = make_estimator(merged.method, merged).config.to_dict()
        default = ClusteringConfig().to_dict()
        overlay = {name: value for name, value in fitted.items() if value != default[name]}
        expected = (
            "content:" + matrix_fingerprint(matrix) + ":" + config_fingerprint(overlay)
        )
        json_body = json.dumps({"matrix": matrix.tolist(), "config": config}).encode()
        assert request_affinity_key(json_body, "application/json") == expected
        frame = encode_request(matrix, config)
        assert request_affinity_key(frame, WIRE_CONTENT_TYPE) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        ints=hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.integers(-3, 3),
        ),
        default=st.sampled_from(FLEET_DEFAULTS),
        job_a=SPELLED_JOBS,
        job_b=SPELLED_JOBS,
    )
    def test_bodies_sharing_a_cache_entry_share_a_ring_key(self, ints, default, job_a, job_b):
        body_a = _request_body(ints, *job_a)
        body_b = _request_body(ints, *job_b)
        if _replica_cache_key(body_a, default) == _replica_cache_key(body_b, default):
            assert request_affinity_key(*body_a, default) == request_affinity_key(*body_b, default)

    @pytest.mark.parametrize(
        "default, config_a, spelling_a, config_b, spelling_b",
        [
            (ClusteringConfig(cache=True), {}, "json", {"prefix": 1}, "json"),
            (ClusteringConfig(cache=True), {"method": "par-tdbht"}, "<f8",
             {"method": "tmfg-dbht"}, "<f8"),
            (ClusteringConfig(num_clusters=11, cache=True), {"num_clusters": 11}, "<f8",
             {}, "<f8"),
            (ClusteringConfig(cache=True), {"prefix": 2}, "json", {"prefix": 2}, "<f8"),
            (ClusteringConfig(cache=True), {}, "<i8", {}, "<f8"),
        ],
    )
    def test_one_cache_entry_one_ring_key(
        self, default, config_a, spelling_a, config_b, spelling_b
    ):
        ints = np.arange(12, dtype=np.int64).reshape(3, 4) % 5
        body_a = _request_body(ints, config_a, spelling_a)
        body_b = _request_body(ints, config_b, spelling_b)
        assert _replica_cache_key(body_a, default) == _replica_cache_key(body_b, default)
        key = request_affinity_key(*body_a, default)
        assert key == request_affinity_key(*body_b, default)
        assert key.startswith("content:")

    def test_empty_overlay_keys_alike_under_every_default(self):
        # perfbench's hot set omits the default yet predicts the router's
        # placement of its {} bodies, whatever the fleet's flags.
        body = encode_request(_matrix(5), {})
        keys = {
            request_affinity_key(body, WIRE_CONTENT_TYPE),
            request_affinity_key(body, WIRE_CONTENT_TYPE, ClusteringConfig()),
            request_affinity_key(
                body, WIRE_CONTENT_TYPE, ClusteringConfig(num_clusters=11, cache=True)
            ),
        }
        assert len(keys) == 1

    def test_binary_bodies_key_on_content(self):
        matrix = np.asarray(_matrix(3), dtype=float, order="C")
        frame_a = encode_request(matrix, {"num_clusters": 3})
        frame_b = encode_request(np.asarray(matrix, order="F"), {"num_clusters": 3})
        key_a = request_affinity_key(frame_a, WIRE_CONTENT_TYPE)
        key_b = request_affinity_key(frame_b, WIRE_CONTENT_TYPE)
        assert key_a.startswith("content:")
        # Same matrix content + config -> same key even if the frames were
        # encoded from differently-laid-out arrays.
        assert key_a == key_b
        different = encode_request(matrix, {"num_clusters": 4})
        assert request_affinity_key(different, WIRE_CONTENT_TYPE) != key_a

    def test_malformed_binary_falls_back_to_raw(self):
        assert request_affinity_key(b"not a frame", WIRE_CONTENT_TYPE).startswith("raw:")
        # Zero-size but unindexable shape: passes the byte check, not numpy.
        zero_size = encode_frame({"dtype": "<f8", "shape": [0, 10**19]})
        assert request_affinity_key(zero_size, WIRE_CONTENT_TYPE).startswith("raw:")


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
    """A TCP server that answers every request with fixed raw HTTP bytes."""

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


def _raw_post(port: int, body: bytes, headers: dict) -> bytes:
    """One raw POST /cluster; returns the raw response bytes."""
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


class TestRouterProxyMechanics:
    CANNED = (
        b"HTTP/1.1 200 OK\r\n"
        b"content-type: application/json\r\n"
        b"server: repro-serve/0.0-canned\r\n"
        b"x-weird-header: kept \r\n"
        b"content-length: 17\r\n"
        b"connection: close\r\n"
        b"\r\n"
        b'{"canned": true}\n'
    )

    def test_routed_response_is_the_replica_bytes_verbatim(self):
        replica = _CannedReplica(self.CANNED)
        router = FleetRouter(
            _FakeSupervisor([ReplicaInfo("replica-0", replica.port, None)]), port=0
        )
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, b'{"matrix": [[0]]}',
                            {"content-type": "application/json"})
            # Byte-for-byte: status line, header order, casing, trailing
            # spaces, body — nothing re-rendered by the router.
            assert raw == self.CANNED
            head, body = replica.requests[0]
            assert body == b'{"matrix": [[0]]}'
            assert b"content-type: application/json" in head
        finally:
            handle.stop()
            replica.close()

    def test_failover_retries_next_ring_node_once(self):
        replica = _CannedReplica(self.CANNED)
        # A port that refuses connections: bind-and-close.
        probe = socket.create_server(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        body = b'{"matrix": [[0]]}'
        key = request_affinity_key(body, "application/json")
        live = ReplicaInfo("live", replica.port, None)
        dead = ReplicaInfo("dead", dead_port, None)
        # Name the dead replica so the ring ranks it first for this body.
        first = rendezvous_rank(key, ["live", "dead"])[0]
        if first == "live":
            live, dead = (ReplicaInfo("dead", replica.port, None),
                          ReplicaInfo("live", dead_port, None))
        router = FleetRouter(_FakeSupervisor([live, dead]), port=0)
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, body, {"content-type": "application/json"})
            assert raw == self.CANNED
            assert router.failovers_total == 1
        finally:
            handle.stop()
            replica.close()

    def test_no_ready_replica_answers_503_after_grace(self):
        router = FleetRouter(_FakeSupervisor([]), port=0, no_replica_grace=0.2)
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, b"{}", {"content-type": "application/json"})
            assert raw.startswith(b"HTTP/1.1 503")
            assert b"Retry-After" in raw or b"retry-after" in raw
            assert router.unrouted_total == 1
        finally:
            handle.stop()

    def test_unknown_route_is_answered_by_the_router(self):
        router = FleetRouter(_FakeSupervisor([]), port=0)
        handle = router.start_in_background()
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                from repro.serve import ServerError

                with pytest.raises(ServerError) as excinfo:
                    client.request("GET", "/nope")
                assert excinfo.value.status == 404
        finally:
            handle.stop()


class _LiveProcess:
    """The process surface the health probe reads: alive until terminated."""

    returncode = None
    terminated = False

    def terminate(self):
        self.terminated = True


#: Replies a broken replica might send; the first two are badly framed.
_TRUNCATED = (
    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 64\r\n\r\n"
    b'{"status": "ok"}'
)
_BAD_LENGTH = (
    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: abc\r\n\r\n"
    b'{"status": "ok"}'
)
_NOT_AN_OBJECT = (
    b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 6\r\n\r\n"
    b"[1, 2]"
)
_HOSTILE = pytest.mark.parametrize(
    "reply",
    [_TRUNCATED, _BAD_LENGTH, _NOT_AN_OBJECT],
    ids=["truncated", "bad-content-length", "not-an-object"],
)
_BADLY_FRAMED = pytest.mark.parametrize(
    "reply", [_TRUNCATED, _BAD_LENGTH], ids=["truncated", "bad-content-length"]
)


class TestHostileReplicaReplies:
    """Malformed replica responses at every client of the loopback
    exchange: the health probe, the metrics scrape and the proxy hop."""

    @_HOSTILE
    def test_fetch_raises_connection_error(self, reply):
        replica = _CannedReplica(reply)
        try:
            with pytest.raises(ConnectionError):
                asyncio.run(http_fetch("127.0.0.1", replica.port, "/healthz", timeout=5.0))
        finally:
            replica.close()

    @_HOSTILE
    def test_health_probe_reads_the_reply_as_not_ready(self, reply):
        replica = _CannedReplica(reply)
        supervisor = ReplicaSupervisor(1, startup_timeout=0.5)
        slot = supervisor._slots[0]
        slot.process, slot.port = _LiveProcess(), replica.port

        async def scenario():
            probe = asyncio.create_task(supervisor._await_healthy(slot))
            return await asyncio.wait_for(probe, 10.0)

        try:
            # The probe task ends on its deadline, not on the reply: it
            # kept probing, then gave the replica up.
            assert asyncio.run(scenario()) is False
            assert len(replica.requests) >= 2
            assert slot.process.terminated
        finally:
            replica.close()

    @_HOSTILE
    def test_router_metrics_report_the_replica_as_unscraped(self, reply):
        replica = _CannedReplica(reply)
        router = FleetRouter(
            _FakeSupervisor([ReplicaInfo("replica-0", replica.port, None)]), port=0
        )
        handle = router.start_in_background()
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                metrics = client.metrics()
                text = client.metrics_prometheus()
            assert metrics["replicas"]["replica-0"]["metrics"] is None
            assert metrics["fleet"]["ready_replicas"] == 1
            assert "repro_fleet_workers" in text
        finally:
            handle.stop()
            replica.close()

    @_BADLY_FRAMED
    def test_proxy_fails_over_once_then_answers_502(self, reply):
        replicas = [_CannedReplica(reply) for _ in range(2)]
        router = FleetRouter(
            _FakeSupervisor(
                [ReplicaInfo(f"replica-{i}", r.port, None) for i, r in enumerate(replicas)]
            ),
            port=0,
        )
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, b'{"matrix": [[0]]}',
                            {"content-type": "application/json"})
            assert raw.startswith(b"HTTP/1.1 502"), raw
            assert b"ConnectionError" in raw
            assert [len(replica.requests) for replica in replicas] == [1, 1]
            assert router.failovers_total == 2
            assert router.proxy_errors_total == 1
        finally:
            handle.stop()
            for replica in replicas:
                replica.close()

    @pytest.mark.parametrize(
        "reply",
        [_NOT_AN_OBJECT, b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\r\n{}"],
        ids=["not-an-object", "framed-by-eof"],
    )
    def test_proxy_forwards_a_well_framed_reply_unchanged(self, reply):
        replica = _CannedReplica(reply)
        router = FleetRouter(
            _FakeSupervisor([ReplicaInfo("replica-0", replica.port, None)]), port=0
        )
        handle = router.start_in_background()
        try:
            raw = _raw_post(handle.port, b'{"matrix": [[0]]}',
                            {"content-type": "application/json"})
            assert raw == reply
            assert router.failovers_total == 0
        finally:
            handle.stop()
            replica.close()


def _normalized(envelope: dict) -> dict:
    """A served envelope with its per-request timing fields removed.

    Everything else — labels, config echo, extras, batch shape — must be
    identical between a routed and a direct response.
    """
    doc = json.loads(json.dumps(envelope))
    doc.get("result", {}).pop("step_seconds", None)
    serving = doc.get("serving", {})
    serving.pop("queue_seconds", None)
    serving.pop("fit_seconds", None)
    return doc


@pytest.fixture(scope="module")
def fleet():
    """One 2-replica fleet shared by the integration tests."""
    router = build_fleet(
        2,
        ["--clusters", "2", "--method", "kmeans"],
        port=0,
        stagger_seconds=0.05,
        backoff_base_seconds=0.2,
    )
    handle = router.start_in_background()
    yield router
    handle.stop()


class TestFleetIntegration:
    def test_healthz_reports_fleet_shape(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            payload = client.wait_healthy(30)
        assert payload["status"] == "ok"
        assert payload["role"] == "fleet-router"
        assert payload["workers"] == 2
        assert payload["ready_replicas"] == 2
        assert isinstance(payload["pid"], int)
        assert payload["version"]
        assert payload["uptime_seconds"] >= 0
        states = {entry["state"] for entry in payload["replicas"]}
        assert states == {"ready"}

    def test_routed_fit_matches_direct_fit(self, fleet):
        matrix = _matrix(7)
        with ClusteringServer(port=0).start_in_background() as direct:
            with ServeClient("127.0.0.1", direct.port) as client:
                direct_json = client.cluster(matrix, KMEANS)
                direct_binary = client.cluster(matrix, KMEANS, binary=True)
        with ServeClient("127.0.0.1", fleet.port) as client:
            routed_json = client.cluster(matrix, KMEANS)
            routed_binary = client.cluster(matrix, KMEANS, binary=True)
        assert _normalized(routed_json) == _normalized(direct_json)
        assert _normalized(routed_binary) == _normalized(direct_binary)

    def test_tie_heavy_tmfg_dbht_fits_match_direct_fits(self, fleet):
        """The default ``tmfg-dbht`` method on tie-heavy matrices serves the
        same ``result`` bytes direct and through the fleet, on both
        transports (the fleet's replicas default to kmeans, so the request
        names the method)."""
        config = {"method": "tmfg-dbht", "num_clusters": 2}
        served = {}
        with ClusteringServer(port=0).start_in_background() as direct:
            for name, port in (("direct", direct.port), ("fleet", fleet.port)):
                with ServeClient("127.0.0.1", port) as client:
                    for case, matrix in tie_heavy_series().items():
                        # tolist() keeps an int matrix's JSON numbers integral,
                        # and the binary frame carries it as <i8.
                        body = json.dumps({"matrix": matrix.tolist(), "config": config})
                        as_json = client.request(
                            "POST", "/cluster", body.encode(), {"Content-Type": "application/json"}
                        )
                        as_binary = client.request(
                            "POST",
                            "/cluster",
                            encode_request(matrix, config),
                            {"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE},
                        )
                        for transport, envelope in (("json", as_json), ("binary", as_binary)):
                            result = _normalized(envelope)["result"]
                            assert result["method"] == "tmfg-dbht", result
                            served[name, case, transport] = json.dumps(result)
        for (name, case, transport), payload in served.items():
            if name == "fleet":
                assert payload == served["direct", case, transport], (case, transport)
                assert payload == served["fleet", case, "json"], (case, transport)

    def test_identical_requests_share_a_replica_and_hit_cache(self, fleet):
        matrix = _matrix(11)
        with ServeClient("127.0.0.1", fleet.port) as client:
            for _ in range(3):
                client.cluster(matrix, KMEANS, binary=True)
            metrics = client.metrics()
        routed = {name: doc["routed_total"] for name, doc in metrics["replicas"].items()}
        # All three identical bodies must have landed on one replica...
        homes = [name for name, count in routed.items() if count >= 3]
        assert homes, f"no single replica saw all 3 identical requests: {routed}"
        # ...whose result cache served the repeats.
        home = metrics["replicas"][homes[0]]["metrics"]
        assert home["cache"]["hits"] >= 2

    def test_json_and_binary_posts_of_one_job_share_a_replica(self, fleet):
        """A JSON POST and a binary POST of one matrix land on one replica,
        whose result cache serves the second."""
        matrix = _matrix(10)
        with ServeClient("127.0.0.1", fleet.port) as client:
            client.wait_healthy(30)
            before = client.metrics()["replicas"]
            routed_json = client.cluster(matrix, KMEANS)
            routed_binary = client.cluster(matrix, KMEANS, binary=True)
            after = client.metrics()["replicas"]
        gained = {
            name: after[name]["routed_total"] - before[name]["routed_total"]
            for name in after
        }
        assert sorted(gained.values()) == [0, 2], gained
        home = max(gained, key=gained.get)
        hits = (after[home]["metrics"]["cache"]["hits"]
                - before[home]["metrics"]["cache"]["hits"])
        assert hits == 1
        assert routed_binary["result"] == routed_json["result"]

    def test_distinct_requests_use_both_replicas(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            before = client.metrics()
            for seed in range(8):
                client.cluster(_matrix(100 + seed, n=12), KMEANS, binary=True)
            after = client.metrics()
        gained = {
            name: after["replicas"][name]["routed_total"]
            - before["replicas"][name]["routed_total"]
            for name in after["replicas"]
        }
        assert sum(gained.values()) == 8
        assert all(count > 0 for count in gained.values()), gained

    def test_hostile_json_body_answers_400_without_failover(self, fleet):
        # The replica answers 400 and the router forwards it: a bad body is
        # the client's fault, not a dead replica worth a failover.
        with ServeClient("127.0.0.1", fleet.port) as client:
            client.wait_healthy(30)
            before = client.metrics()["fleet"]["failovers_total"]
            for body in (b"\x80abc", b"[" * 100_000):
                with pytest.raises(ServerError) as excinfo:
                    client.request(
                        "POST", "/cluster", body, {"Content-Type": "application/json"}
                    )
                assert excinfo.value.status == 400
            assert client.metrics()["fleet"]["failovers_total"] == before

    def test_replica_kill_fails_over_and_restarts(self, fleet):
        with ServeClient("127.0.0.1", fleet.port) as client:
            client.wait_healthy(30)
            restarts_before = fleet.supervisor.restarts_total
            victim = fleet.supervisor.ready_replicas()[0]
            os.kill(victim.pid, signal.SIGKILL)
            # Every request during the outage must still be answered: the
            # ring fails the victim's keys over to the survivor, so no
            # accepted request is lost.
            for seed in range(6):
                envelope = client.cluster(_matrix(200 + seed, n=12), KMEANS)
                assert envelope["result"]["labels"] is not None
            deadline = time.time() + 30
            while time.time() < deadline:
                if (
                    fleet.supervisor.restarts_total > restarts_before
                    and len(fleet.supervisor.ready_replicas()) == 2
                ):
                    break
                time.sleep(0.1)
            assert fleet.supervisor.restarts_total > restarts_before
            assert len(fleet.supervisor.ready_replicas()) == 2
            metrics = client.metrics()
            assert metrics["fleet"]["restarts_total"] >= 1


class TestSupervisorUnit:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ReplicaSupervisor(0)

    def test_replica_command_pins_host_and_ephemeral_port(self):
        supervisor = ReplicaSupervisor(1, ["--clusters", "3"])
        command = supervisor._replica_command(supervisor._slots[0])
        assert command[1:5] == ["-m", "repro", "serve", "--host"]
        assert "--port" in command and command[command.index("--port") + 1] == "0"
        assert command[-2:] == ["--clusters", "3"]

    def test_replica_command_substitutes_replica_id_placeholder(self):
        supervisor = ReplicaSupervisor(
            2, ["--trace-log", "traces-{replica_id}.jsonl"]
        )
        commands = [
            supervisor._replica_command(slot) for slot in supervisor._slots
        ]
        assert commands[0][-1] == "traces-replica-0.jsonl"
        assert commands[1][-1] == "traces-replica-1.jsonl"

    def test_crash_looping_replica_backs_off(self):
        async def scenario():
            # A replica argv that makes `repro serve` exit 2 immediately
            # (invalid flag): the babysitter must keep backing off, never
            # report ready, and record its spawn attempts.
            supervisor = ReplicaSupervisor(
                1,
                ["--definitely-not-a-flag"],
                stagger_seconds=0.0,
                backoff_base_seconds=0.05,
                backoff_cap_seconds=0.1,
                startup_timeout=10.0,
            )
            await supervisor.start()
            with pytest.raises(TimeoutError):
                await supervisor.wait_ready(timeout=2.0)
            assert supervisor.ready_replicas() == []
            assert supervisor.restarts_total >= 2
            status = supervisor.status()[0]
            assert status["state"] in ("starting", "restarting")
            assert status["last_exit_code"] == 2
            await supervisor.stop()

        asyncio.run(scenario())

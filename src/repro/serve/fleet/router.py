"""The fleet front door: one port, N replicas, consistent-hash routing.

:class:`FleetRouter` is an asyncio HTTP proxy that makes a supervised
replica pool look exactly like one ``repro serve`` daemon:

* ``POST /cluster`` — the router reads the body, derives its affinity key
  off the event loop (:func:`~repro.serve.fleet.ring.request_affinity_key`
  — the content fingerprint of the float64 matrix plus the config
  payload, decoded by the replica's own decoder), ranks the *ready*
  replicas with rendezvous hashing, and proxies the request bytes through
  unmodified.  Identical jobs therefore always land on the same replica,
  whatever their transport, which keeps that replica's in-memory result
  cache hot — the fleet-level analogue of the cache-locality the single
  process gets for free.
* **failover** — if the chosen replica fails mid-exchange (crashed, being
  restarted), the router retries once on the next ring node.  The retry
  is safe because a clustering POST is a deterministic pure computation
  against a content-addressed cache: re-dispatching a request whose
  first attempt may already have been fitted can only recompute (or
  cache-hit) the same bytes, never corrupt state — which is what makes
  this POST idempotent-safe where a generic write would not be.
* ``GET /healthz`` / ``GET /metrics`` — answered by the router itself:
  fleet health is the ready-replica count, fleet metrics aggregate the
  router's own counters (routed-per-replica, failovers, proxy errors)
  with a live ``/metrics`` scrape of every ready replica (requests,
  429s, cache hit-rate) plus the supervisor's restart counters.

Responses are forwarded byte-for-byte: what a client receives through
the router is exactly what the replica produced, so routed and direct
responses are byte-identical for both transports.

The proxy hop, the ``/metrics`` scrapes and the supervisor's health
probes are all :func:`~repro.serve.httpio.http_exchange`, which raises a
malformed or truncated replica response as ``ConnectionError``: the
proxy fails over as for a dead replica, and a scrape reports that
replica's ``metrics`` as ``null``.

Shutdown drains outside-in: SIGTERM stops the accept loop, in-flight
proxied requests finish, and only then are the replicas SIGTERMed (each
drains its own admitted requests before exiting).

The lifecycle, keep-alive loop, request framing and ``/healthz``,
``/metrics`` and 404 routing are the :class:`~repro.serve.httpio.FrontDoor`
the single-process server shares; this module holds only the fleet's own
parts.
"""

from __future__ import annotations

import asyncio
import os
from http import HTTPStatus
from typing import Any, Dict, Optional, Sequence, Set

from repro import __version__
from repro.obs.prometheus import merge_metrics_documents, render_prometheus
from repro.obs.tracer import NOOP_SPAN, PARENT_SPAN_HEADER, TRACE_ID_HEADER
from repro.serve.fleet.ring import rendezvous_rank, request_affinity_key
from repro.serve.fleet.supervisor import ReplicaInfo, ReplicaSupervisor
from repro.serve.httpio import FrontDoor, Reply, Request, http_exchange, http_fetch

#: Connection-scoped headers the proxy must not forward verbatim.
_HOP_HEADERS = frozenset({"host", "connection", "content-length", "expect", "keep-alive"})


class FleetRouter(FrontDoor):
    """Consistent-hash router over a :class:`ReplicaSupervisor` pool.

    The lifecycle, connection loop and route table are
    :class:`~repro.serve.httpio.FrontDoor`'s; this class adds the replica
    pool, the proxying ``/cluster`` handler and the fleet documents.

    Parameters
    ----------
    supervisor:
        The replica pool; started/stopped by this router's lifecycle.
    host / port:
        Public bind address; port ``0`` picks an ephemeral port,
        published on :attr:`port` once listening.
    proxy_timeout:
        Bound on one router->replica exchange (covers the fit).
    failover_attempts:
        Ring nodes tried per request (2 = home replica + one retry).
    no_replica_grace:
        How long a request waits for *any* ready replica (e.g. the whole
        pool mid-restart) before the router answers 503.
    ready_timeout:
        Startup bound: how long :meth:`serve` waits for the full pool to
        become ready before failing.
    trace_log:
        Append one JSON line per closed router span to this file and
        turn on router-originated tracing (see
        :class:`~repro.serve.server.ClusteringServer`).  Point it at the
        same file the replicas inherit and ``repro trace`` reconstructs
        the whole router->replica waterfall from one log.
    trace_sample:
        Per-trace sampling rate for router-originated traces (client
        trace ids are always continued).
    """

    server_token = "repro-serve-fleet"
    span_kind = "router.request"
    start_timeout = 180.0

    def __init__(
        self,
        supervisor: ReplicaSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        proxy_timeout: float = 300.0,
        failover_attempts: int = 2,
        no_replica_grace: float = 5.0,
        ready_timeout: float = 180.0,
        trace_log: Optional[str] = None,
        trace_sample: float = 1.0,
    ) -> None:
        if failover_attempts < 1:
            raise ValueError("failover_attempts must be at least 1")
        super().__init__(host, port, trace_log=trace_log, trace_sample=trace_sample)
        self.supervisor = supervisor
        self.proxy_timeout = proxy_timeout
        # In-flight proxied requests (replica fits included) must finish
        # before the pool is torn down: every admitted request is answered.
        self.drain_grace = proxy_timeout
        self.failover_attempts = failover_attempts
        self.no_replica_grace = no_replica_grace
        self.ready_timeout = ready_timeout
        self._started_clock: Optional[float] = None
        # Router-level counters; event-loop confined, so no locks.
        self.routed_total: Dict[str, int] = {}
        self.responses_total: Dict[int, int] = {}
        self.failovers_total = 0
        self.proxy_errors_total = 0
        self.unrouted_total = 0

    # -- lifecycle -----------------------------------------------------------

    async def _start(self) -> None:
        assert self._loop is not None
        self._started_clock = self._loop.time()
        await self.supervisor.start()

    async def _wait_ready(self) -> None:
        await self.supervisor.wait_ready(timeout=self.ready_timeout)

    async def _stop(self) -> None:
        await self.supervisor.stop()

    def _record_response(self, status: int, seconds: Optional[float]) -> None:
        self.responses_total[status] = self.responses_total.get(status, 0) + 1

    # -- control plane -----------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        if self._loop is None or self._started_clock is None:
            return 0.0
        return self._loop.time() - self._started_clock

    def _fleet_status(self, ready_count: int) -> str:
        if self._draining:
            return "draining"
        if ready_count >= self.supervisor.workers:
            return "ok"
        return "degraded" if ready_count else "down"

    def _healthz_payload(self) -> Dict[str, Any]:
        ready = self.supervisor.ready_replicas()
        return {
            "status": self._fleet_status(len(ready)),
            "role": "fleet-router",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": round(self.uptime_seconds, 3),
            "workers": self.supervisor.workers,
            "ready_replicas": len(ready),
            "replicas": self.supervisor.status(),
        }

    async def _metrics_payload(self) -> Dict[str, Any]:
        ready = self.supervisor.ready_replicas()
        scrapes = await asyncio.gather(
            *(self._scrape_replica(replica) for replica in ready)
        )
        replicas: Dict[str, Any] = {}
        for status in self.supervisor.status():
            replicas[status["id"]] = {
                **{k: v for k, v in status.items() if k != "id"},
                "routed_total": self.routed_total.get(status["id"], 0),
                "metrics": None,
            }
        for replica, scraped in zip(ready, scrapes):
            replicas[replica.replica_id]["metrics"] = scraped
        return {
            "fleet": {
                "role": "fleet-router",
                "version": __version__,
                "pid": os.getpid(),
                "uptime_seconds": round(self.uptime_seconds, 3),
                "draining": self._draining,
                "workers": self.supervisor.workers,
                "ready_replicas": len(ready),
                "restarts_total": self.supervisor.restarts_total,
                "failovers_total": self.failovers_total,
                "proxy_errors_total": self.proxy_errors_total,
                "unrouted_total": self.unrouted_total,
                "responses_total": {
                    str(k): v for k, v in sorted(self.responses_total.items())
                },
            },
            "replicas": replicas,
        }

    def _prometheus_text(self, document: Dict[str, Any]) -> str:
        """The fleet-wide text exposition: replica documents merged
        bucket-wise plus the router's own ``repro_fleet_*`` series."""
        replica_docs = [
            entry["metrics"]
            for entry in document["replicas"].values()
            if entry.get("metrics")
        ]
        routed = {
            replica_id: entry.get("routed_total", 0)
            for replica_id, entry in document["replicas"].items()
        }
        return render_prometheus(
            merge_metrics_documents(replica_docs),
            fleet=document["fleet"],
            routed_per_replica=routed,
        )

    async def _scrape_replica(self, replica: ReplicaInfo) -> Optional[Dict[str, Any]]:
        try:
            status, payload = await http_fetch(
                self.host, replica.port, "/metrics", timeout=5.0
            )
        except (OSError, asyncio.TimeoutError):
            return None
        return payload if status == 200 else None

    # -- data plane --------------------------------------------------------

    async def _handle_cluster(self, request: Request) -> Reply:
        """Affinity-route one /cluster request with ring-order failover."""
        assert self._loop is not None
        tried: Set[str] = set()
        last_error: Optional[BaseException] = None
        with self._root_span(request) as root:
            # The key parses and fingerprints the whole matrix: off the loop.
            key = await self._loop.run_in_executor(
                None, request_affinity_key, request.body, request.media_type
            )
            grace_deadline = self._loop.time() + self.no_replica_grace
            for _attempt in range(self.failover_attempts):
                target = await self._pick_replica(key, tried, grace_deadline)
                if target is None:
                    break
                attempt_span = root.child(
                    "router.attempt", replica=target.replica_id, attempt=_attempt + 1
                )
                override: Dict[str, str] = {}
                if attempt_span is not NOOP_SPAN:
                    # Re-parent the hop under *this* attempt: the replica's
                    # server.request span hangs off the attempt span, so a
                    # failover renders as two sibling attempt subtrees —
                    # the dead one error-flagged, the retry carrying the
                    # replica's spans — under one trace id.
                    override = {
                        TRACE_ID_HEADER: root.trace_id,
                        PARENT_SPAN_HEADER: attempt_span.span_id,
                    }
                headers = [
                    (name, value)
                    for name, value in request.headers.items()
                    if name not in _HOP_HEADERS and name not in override
                ]
                headers.extend(override.items())
                try:
                    with attempt_span:
                        status, raw, _body_start = await http_exchange(
                            self.host,
                            target.port,
                            request.method,
                            request.path,
                            headers,
                            request.body,
                            timeout=self.proxy_timeout,
                        )
                except (OSError, asyncio.TimeoutError) as error:
                    # Replica died mid-exchange (crash or restart) or sent a
                    # malformed response: count the failover and move to
                    # the next ring node.  Safe to
                    # re-dispatch — see the module docstring.  (The attempt
                    # span's context-manager exit already error-flagged it.)
                    tried.add(target.replica_id)
                    self.failovers_total += 1
                    last_error = error
                    continue
                self.routed_total[target.replica_id] = (
                    self.routed_total.get(target.replica_id, 0) + 1
                )
                root.set_attribute("replica", target.replica_id)
                root.set_attribute("status", status)
                return status, raw, None
            if last_error is None:
                self.unrouted_total += 1
                root.set_error("no ready replica")
                return (
                    HTTPStatus.SERVICE_UNAVAILABLE,
                    {"error": "no ready replica in the fleet; retry shortly"},
                    {"Retry-After": "1"},
                )
            self.proxy_errors_total += 1
            root.set_error(f"{type(last_error).__name__}: {last_error}")
            return (
                HTTPStatus.BAD_GATEWAY,
                {"error": f"all routed replicas failed: {type(last_error).__name__}: {last_error}"},
                None,
            )

    async def _pick_replica(
        self, key: str, tried: Set[str], grace_deadline: float
    ) -> Optional[ReplicaInfo]:
        """The highest-ranked ready replica not yet tried, waiting out a
        whole-pool restart up to the grace deadline."""
        assert self._loop is not None
        while True:
            ready = {
                replica.replica_id: replica
                for replica in self.supervisor.ready_replicas()
                if replica.replica_id not in tried
            }
            if ready:
                ranked = rendezvous_rank(key, list(ready))
                return ready[ranked[0]]
            if self._loop.time() >= grace_deadline or self._draining:
                return None
            await asyncio.sleep(0.05)


def build_fleet(
    workers: int,
    replica_argv: Sequence[str] = (),
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    stagger_seconds: float = 0.25,
    backoff_base_seconds: float = 0.5,
    backoff_cap_seconds: float = 10.0,
    startup_timeout: float = 60.0,
    drain_timeout: float = 30.0,
    proxy_timeout: float = 300.0,
    no_replica_grace: float = 5.0,
    ready_timeout: float = 180.0,
    trace_log: Optional[str] = None,
    trace_sample: float = 1.0,
) -> FleetRouter:
    """A :class:`FleetRouter` wired to a fresh :class:`ReplicaSupervisor`.

    This is the one-stop constructor the CLI, the benchmark, and the
    tests use: ``build_fleet(4, ["--clusters", "3"]).run()`` is a whole
    fleet behind one port.
    """
    supervisor = ReplicaSupervisor(
        workers,
        replica_argv,
        host,
        stagger_seconds=stagger_seconds,
        backoff_base_seconds=backoff_base_seconds,
        backoff_cap_seconds=backoff_cap_seconds,
        startup_timeout=startup_timeout,
        drain_timeout=drain_timeout,
    )
    return FleetRouter(
        supervisor,
        host,
        port,
        proxy_timeout=proxy_timeout,
        no_replica_grace=no_replica_grace,
        ready_timeout=ready_timeout,
        trace_log=trace_log,
        trace_sample=trace_sample,
    )

"""The asyncio HTTP/JSON clustering daemon.

:class:`ClusteringServer` is the long-running front of the library: an
HTTP/1.1 server on asyncio streams and :mod:`http` that accepts
clustering requests and answers each from the result cache or from one
fit, running all numerical work on a thread pool so the event loop never
blocks on it.

Routes
------
``POST /cluster``
    JSON body ``{"matrix": [[...]], "config": {...}}``, or — with
    ``Content-Type: application/x-repro-matrix`` — the binary wire frame
    of :mod:`repro.serve.wire` (raw C-order buffer, config carried in the
    frame header), which decodes zero-copy straight into the fingerprint.
    ``config`` is a (possibly partial)
    :meth:`ClusteringConfig.to_dict` payload overlaid onto the server's
    default config — the same ``from_dict``/``merged`` machinery as
    ``repro cluster --config``.  Responds 200 with
    ``{"result": ClusterResult.to_dict(), "serving": {...}}`` (as a binary
    envelope frame when the client sent ``Accept:
    application/x-repro-matrix``); 400 on a malformed body or a bad
    frame; 405 for any other method; 429 + ``Retry-After`` when
    ``--max-queue`` requests are already in flight; 503 while draining.
    Both transports are decoded by
    :func:`repro.serve.wire.decode_cluster_request`, the decoder the
    fleet router keys bodies with.  A JSON body and a frame's header are
    parsed by :func:`repro.serve.wire.loads_request_json` (orjson, RFC 8259):
    ``NaN``/``Infinity`` literals, a number that overflows a double
    (``1e400``), a lone surrogate escape, a body that is not UTF-8
    (UTF-16, or any byte-order mark) and nesting deeper than 1024 all get
    a 400 saying "not valid JSON".
``GET /healthz``
    Liveness: status, version, uptime, in-flight request count.
``GET /metrics``
    The full observability document (request/error counters, latency
    histograms, shared-fit counts, cache hit-rate).

A request takes one trip to the fit executor, where its estimator's
``lookup`` half computes the result-cache key and looks it up once; a hit
is answered at once.  A miss joins the fit already in flight for its key
or starts one (a single-flight map, cf. Go's ``singleflight``) that runs
the leader's ``compute`` half, so concurrent identical misses pay for one
fit and one cache miss.  Either way the served payload is byte-identical
to the same fit made directly through an estimator.

Shutdown is graceful: SIGTERM/SIGINT stop the accept loop, every already
admitted request is answered, later ones get 503, then the pool is torn
down.

The HTTP side — lifecycle, keep-alive loop, request framing, ``/healthz``,
``/metrics`` and 404 routing, the root ``server.request`` span — is the
:class:`~repro.serve.httpio.FrontDoor` the fleet router shares; this
module holds only what is the server's own.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro import __version__
from repro.api.config import ClusteringConfig
from repro.api.estimators import ClusteringEstimator, make_estimator
from repro.api.result import ClusterResult
from repro.cache import get_result_cache
from repro.obs.tracer import NOOP_SPAN, TRACE_ECHO_HEADER, Span, Tracer, trace_span
from repro.serve.httpio import (
    BadRequest as _BadRequest,
    BinaryBody,
    FrontDoor,
    Reply,
    Request as _Request,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.wire import WIRE_CONTENT_TYPE, decode_cluster_request, encode_envelope

#: Config fields a request payload may overlay.  These are the algorithmic
#: knobs; the server-owned ``cache``/``cache_dir`` (server-side filesystem)
#: are set by the operator via CLI flags and rejected with a 400 when a
#: client sends them, as is any name that is not a config field.
REQUEST_CONFIG_FIELDS = frozenset(
    {
        "method",
        "num_clusters",
        "prefix",
        "precomputed",
        "linkage",
        "seed",
        "num_restarts",
        "spectral_neighbors",
    }
)


def retry_after_hint(fit_p50_ms: float) -> float:
    """Fractional backoff (seconds) for a 429'd client.

    A full server frees an admission slot when an in-flight request is
    answered, so the median executor time of a request (the ``batch_fit``
    histogram's p50) is the honest hint — floored at 50ms so clients never
    busy-spin.  The fraction travels in the JSON body, while the
    ``Retry-After`` *header* stays an RFC-valid integer.
    """
    return round(max(0.05, fit_p50_ms / 1000.0), 3)


def _accepts_binary(request: _Request) -> bool:
    return WIRE_CONTENT_TYPE in request.headers.get("accept", "").lower()


@dataclass
class _Flight:
    """One in-flight fit, shared by every concurrent miss on its key."""

    task: "asyncio.Task[ClusterResult]"
    #: The leader's live ``serve.batch_fit`` span (:data:`NOOP_SPAN` when
    #: untraced); joiners cite its id as ``shared_span``.
    span: Any


class ClusteringServer(FrontDoor):
    """Single-flight clustering service over HTTP/JSON.

    The lifecycle, connection loop and route table are
    :class:`~repro.serve.httpio.FrontDoor`'s; this class adds the fit
    executor, the single-flight map, the ``/cluster`` handler and its
    metrics.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port, published on
        :attr:`port` once the server is listening.
    default_config:
        The :class:`ClusteringConfig` requests overlay their (partial)
        ``config`` payloads onto.  Defaults to ``ClusteringConfig(cache=
        True)`` so repeat traffic hits the result cache.
    max_queue_depth:
        Admission bound: a request arriving while this many admitted
        requests are still unanswered gets 429 + ``Retry-After``.
    fit_workers:
        Executor threads (default 2).  Every request's cache-key lookup
        and every fit runs on them, so with two a hit or a joining miss
        is not stuck behind a running fit.
    trace_log:
        Append one JSON line per closed span to this file (the
        ``--trace-log`` flag).  Setting it also turns on server-initiated
        tracing: requests without an ``X-Repro-Trace-Id`` header are
        traced at ``trace_sample``.  Client-carried trace ids are always
        honoured, log or no log.
    trace_sample:
        Fraction of server-initiated traces to record when ``trace_log``
        is set (default 1.0).  Sampling is per trace, not per span, so a
        sampled request's waterfall is always complete.
    tracer:
        Inject a preconfigured :class:`~repro.obs.tracer.Tracer`
        (tests; embedding).  When given, its sinks are kept and the
        ``trace_log``/``trace_sample`` knobs only add to it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        default_config: Optional[ClusteringConfig] = None,
        max_queue_depth: int = 256,
        fit_workers: int = 2,
        trace_log: Optional[str] = None,
        trace_sample: float = 1.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        # Fail on bad knobs here, not inside the event loop, so the CLI
        # reports them like any other flag error.
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        if fit_workers < 1:
            raise ValueError("fit_workers must be at least 1")
        super().__init__(
            host, port, trace_log=trace_log, trace_sample=trace_sample, tracer=tracer
        )
        self.default_config = (
            default_config if default_config is not None else ClusteringConfig(cache=True)
        )
        self.max_queue_depth = max_queue_depth
        self.fit_workers = fit_workers
        self.metrics = ServerMetrics()
        # Per-span-kind histograms in /metrics, beside any other sink.
        self.tracer.add_sink(self._record_span_metric)
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Result-cache key -> the fit in flight for it (event-loop only).
        self._flights: Dict[str, _Flight] = {}
        #: Admitted requests not yet answered; ``_idle`` is set at zero.
        self._admitted = 0
        self._idle: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    async def _start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.fit_workers, thread_name_prefix="repro-serve-fit"
        )
        self._idle = asyncio.Event()
        self._idle.set()

    async def _drain(self) -> None:
        # New requests already get 503 (_draining); answer every admitted one.
        assert self._idle is not None
        await self._idle.wait()

    async def _stop(self) -> None:
        assert self._executor is not None
        self._executor.shutdown(wait=True)

    # -- lookup and single flight ------------------------------------------

    async def _in_executor(self, function: Callable[..., Any], *args: Any) -> Any:
        """``function(*args)`` on the fit executor, off the event loop.

        It runs inside a snapshot of this task's contextvars, so the spans
        it opens on the executor thread (cache, fit, kernel) attach to the
        request's trace without any plumbing.
        """
        assert self._loop is not None and self._executor is not None
        context = contextvars.copy_context()
        return await self._loop.run_in_executor(self._executor, context.run, function, *args)

    @staticmethod
    def _lookup(
        matrix: np.ndarray, config: ClusteringConfig
    ) -> Tuple[float, ClusteringEstimator, str, Optional[ClusterResult]]:
        """Key one request and look it up in the result cache (executor side).

        Returns ``(started, estimator, key, hit)``: the ``perf_counter`` at
        executor start, the request's estimator (its config is the
        registry-normalised one, so aliases such as ``par-tdbht`` share a
        cache entry and a flight with their canonical id), the key from
        its :meth:`~repro.api.estimators.ClusteringEstimator.lookup`, and
        the cached result or ``None``.
        """
        started = time.perf_counter()
        estimator = make_estimator(config.method, config)
        key, hit = estimator.lookup(matrix)
        return started, estimator, key, hit

    async def _fit(
        self, key: str, estimator: ClusteringEstimator, matrix: np.ndarray, span: Any
    ) -> ClusterResult:
        """A flight's fit: the leader's ``estimator.compute`` on the executor.

        The flight leaves the map before its result (or error) reaches any
        waiter, so a failed fit leaves nothing behind and the next
        identical request starts afresh.
        """
        try:
            with span:
                return (await self._in_executor(estimator.compute, matrix, key)).result_
        finally:
            del self._flights[key]

    async def _solve(
        self, matrix: np.ndarray, config: ClusteringConfig, request_span: Any
    ) -> Tuple[ClusterResult, Dict[str, Any]]:
        """Answer one admitted request: a cache hit, or the in-flight fit
        for its key (joined or started); resolves to ``(result, info)``."""
        assert self._loop is not None
        admitted = time.perf_counter()
        started, estimator, key, result = await self._in_executor(self._lookup, matrix, config)
        flight = None
        leader = False
        if result is None:
            flight = self._flights.get(key)
            if flight is None:
                leader = True
                # Opened here, in the leader's context: the leader's trace
                # hosts the live span its fit's cache/kernel spans nest in.
                span = trace_span("serve.batch_fit")
                flight = self._flights[key] = _Flight(
                    self._loop.create_task(self._fit(key, estimator, matrix, span)), span
                )
            # shield: a waiter that goes away must not cancel a fit that
            # other requests share.
            result = await asyncio.shield(flight.task)
        info = {
            "queue_seconds": max(0.0, started - admitted),
            "fit_seconds": time.perf_counter() - started,
        }
        self.metrics.record_served(
            info["queue_seconds"], info["fit_seconds"], shared=flight is not None and not leader
        )
        if request_span is not NOOP_SPAN:
            self._emit_serving_spans(request_span, info, flight, leader)
        return result, info

    @staticmethod
    def _emit_serving_spans(
        request_span: Span, info: Dict[str, Any], flight: Optional[_Flight], leader: bool
    ) -> None:
        """Synthesise the request's queue wait and, unless it led a fit
        (whose live span is already in its trace), its executor time."""
        tracer = request_span.tracer
        now = time.time()
        fit_seconds = info["fit_seconds"]
        tracer.emit(
            "serve.queue",
            trace_id=request_span.trace_id,
            parent_id=request_span.span_id,
            started_at=now - fit_seconds - info["queue_seconds"],
            duration_seconds=info["queue_seconds"],
            batch_size=1,
        )
        if not leader:
            tracer.emit(
                "serve.batch_fit",
                trace_id=request_span.trace_id,
                parent_id=request_span.span_id,
                started_at=now - fit_seconds,
                duration_seconds=fit_seconds,
                shared_span=(flight.span.span_id or None) if flight is not None else None,
            )

    def _record_span_metric(self, span: Span) -> None:
        self.metrics.record_span(span.kind, span.duration_seconds)

    def _record_request(self, route: str) -> None:
        self.metrics.record_request(route)

    def _record_response(self, status: int, seconds: Optional[float]) -> None:
        self.metrics.record_response(status, seconds)

    # -- routes --------------------------------------------------------------

    def _healthz_payload(self) -> Dict[str, Any]:
        return self.metrics.healthz(
            queue_depth=self._admitted, draining=self._draining, version=__version__
        )

    async def _metrics_payload(self) -> Dict[str, Any]:
        cache_stats = None
        if self.default_config.cache:
            cache_stats = get_result_cache(self.default_config.cache_dir).stats.as_dict()
        return self.metrics.render(
            queue_depth=self._admitted,
            cache_stats=cache_stats,
            draining=self._draining,
            version=__version__,
        )

    async def _handle_cluster(self, request: _Request) -> Reply:
        if request.method != "POST":
            return HTTPStatus.METHOD_NOT_ALLOWED, {"error": "use POST /cluster"}, {"Allow": "POST"}
        span = self._root_span(request)
        echo = span is not NOOP_SPAN and request.headers.get(TRACE_ECHO_HEADER) == "1"
        if echo:
            self.tracer.collect(span.trace_id)
        try:
            with span:
                status, payload, headers = await self._cluster_response(request, span, echo)
                if span is not NOOP_SPAN:
                    span.set_attribute("status", int(status))
                    if int(status) >= 500:
                        span.set_error()
                return status, payload, headers
        finally:
            # drain() in the success path empties the collector; this
            # covers every error path so unechoed buffers never pile up.
            if echo:
                self.tracer.discard(span.trace_id)

    async def _cluster_response(self, request: _Request, span: Any, echo: bool) -> Reply:
        assert self._idle is not None
        decode_started = time.perf_counter()
        try:
            matrix, config_payload = decode_cluster_request(request.body, request.media_type)
            config = self._merged_request_config(config_payload)
        except _BadRequest as error:
            return HTTPStatus.BAD_REQUEST, {"error": str(error)}, None
        finally:
            if span is not NOOP_SPAN:
                # The body decode is root-span self time; these say how much.
                binary = request.media_type == WIRE_CONTENT_TYPE
                span.set_attribute("transport", "binary" if binary else "json")
                span.set_attribute("bytes", len(request.body))
                span.set_attribute(
                    "decode_ms", round((time.perf_counter() - decode_started) * 1e3, 3)
                )
        span.set_attribute("n", int(matrix.shape[0]))
        if self._draining:
            return (
                HTTPStatus.SERVICE_UNAVAILABLE,
                {"error": "the clustering service is shutting down"},
                {"Connection": "close"},
            )
        if self._admitted >= self.max_queue_depth:
            # The body carries the honest fractional backoff; the header
            # stays an RFC-valid integer (rounded up, at least 1s).
            retry_after_seconds = retry_after_hint(self.metrics.fit_p50_ms())
            return (
                HTTPStatus.TOO_MANY_REQUESTS,
                {
                    "error": f"admission queue is full ({self.max_queue_depth} "
                    "requests in flight)",
                    "retry_after_seconds": retry_after_seconds,
                },
                {"Retry-After": str(max(1, math.ceil(retry_after_seconds)))},
            )
        self._admitted += 1
        self._idle.clear()
        try:
            result, info = await self._solve(matrix, config, span)
        except ValueError as error:
            # Config/data rejected at fit time (e.g. kmeans without
            # num_clusters): the client's fault, not the server's.
            return HTTPStatus.BAD_REQUEST, {"error": str(error)}, None
        except Exception as error:  # noqa: BLE001 - any fit crash -> 500
            return (
                HTTPStatus.INTERNAL_SERVER_ERROR,
                {"error": f"{type(error).__name__}: {error}"},
                None,
            )
        finally:
            self._admitted -= 1
            if not self._admitted:
                self._idle.set()
        envelope = {
            # to_dict() is the JSON-safe dict behind to_json(), embedded
            # directly — no stringify/reparse, so re-serializing it is
            # byte-identical to a direct estimator fit's to_json().
            "result": result.to_dict(),
            "serving": {
                # Every request is a batch of one job.
                "batch_size": 1,
                "batch_distinct": 1,
                "queue_seconds": round(info["queue_seconds"], 6),
                "fit_seconds": round(info["fit_seconds"], 6),
            },
        }
        if echo:
            # The opt-in trace block: every span of this trace that has
            # already closed (queue, batch fit, cache, kernel...).  The
            # request span itself is still open, so its ids ride along
            # for the client to stitch the tree.
            envelope["trace"] = {
                "trace_id": span.trace_id,
                "root_span_id": span.span_id,
                "spans": self.tracer.drain(span.trace_id),
            }
        if _accepts_binary(request):
            # Same envelope, lifted into a wire frame: the labels travel as
            # a raw int64 buffer, everything else in the frame header, and
            # decoding reproduces the JSON envelope byte for byte.
            return HTTPStatus.OK, BinaryBody(encode_envelope(envelope), WIRE_CONTENT_TYPE), None
        return HTTPStatus.OK, envelope, None

    def _merged_request_config(self, config_payload: Dict[str, Any]) -> ClusteringConfig:
        """Overlay a request's (partial) config onto the server default."""
        reserved = sorted(set(config_payload) - REQUEST_CONFIG_FIELDS)
        if reserved:
            raise _BadRequest(
                f"config fields {reserved} are operator-controlled (or unknown) and "
                f"cannot be set per request; allowed: {sorted(REQUEST_CONFIG_FIELDS)}"
            )
        try:
            return self.default_config.merged(config_payload)
        except (TypeError, ValueError, RecursionError) as error:
            # RecursionError: a value nested too deep for the type error's repr.
            raise _BadRequest(f"bad 'config': {error}") from error

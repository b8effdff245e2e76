"""Shared asyncio HTTP/1.1 plumbing for the serving tier.

One hardened implementation of the boring parts, used by both the
single-process :class:`~repro.serve.server.ClusteringServer` and the
fleet :class:`~repro.serve.fleet.router.FleetRouter`:

* :class:`FrontDoor` — the one front door both subclass: bind, signal
  handlers, the graceful drain, :meth:`~FrontDoor.start_in_background`,
  the keep-alive connection loop, ``Content-Length``-framed JSON (or
  pre-encoded binary) responses, the ``/healthz``/``/metrics``/
  ``/cluster``/404 route table, and tracer plus ``--trace-log`` set-up;
* :func:`read_request` — parse one request (line, headers, body) off a
  stream with the same smuggling-hardening rules everywhere (duplicate
  ``Content-Length`` rejected, ``Content-Length`` only ASCII digits, any
  ``Transfer-Encoding`` refused, colon-less and empty-name header lines
  rejected, bounded header count and body size);
* :func:`http_exchange` — the one loopback HTTP client: one request per
  fresh connection, the response returned as received, and any malformed
  or truncated response raised as ``ConnectionError``.  The router
  forwards its bytes to clients; :func:`http_fetch`, a JSON-decoding
  wrapper, serves the supervisor's health probes and the router's
  ``/metrics`` scrapes.

Keeping the parser in one module means a request is judged by identical
rules whether it hits a replica directly or arrives through the router.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import __version__
from repro.obs.events import TraceEventLog
from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus, wants_prometheus
from repro.obs.tracer import (
    NOOP_SPAN,
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    Tracer,
    new_trace_id,
    valid_trace_id,
)

#: Hard cap on request bodies (a 2000x2000 float matrix in JSON is ~90 MB;
#: this bound exists to fail fast on garbage, not to size real inputs).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: StreamReader limit: bounds a single request/header line.
HEADER_LIMIT = 64 * 1024


class BadRequest(ValueError):
    """Client-side error; rendered as HTTP 400 with the message."""


@dataclass
class BinaryBody:
    """A pre-encoded non-JSON response body plus its media type."""

    data: bytes
    content_type: str


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    @property
    def media_type(self) -> str:
        """The ``Content-Type`` media type, lowercased, parameters stripped."""
        return self.headers.get("content-type", "").split(";", 1)[0].strip().lower()


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`BadRequest` on anything malformed — oversized lines,
    bad Content-Length, any Transfer-Encoding, smuggling-shaped headers,
    truncated bodies.
    """
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as error:
        raise BadRequest(f"oversized request line: {error}") from error
    if not request_line:
        return None  # clean EOF between requests
    try:
        method, path, _version = request_line.decode("latin-1").split()
    except ValueError as error:
        raise BadRequest("malformed HTTP request line") from error
    headers: Dict[str, str] = {}
    while True:
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise BadRequest(f"oversized header line: {error}") from error
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) > 100:
            raise BadRequest("too many headers")
        text = line.decode("latin-1").rstrip("\r\n")
        name, colon, value = text.partition(":")
        # A colon-less line must not silently become an empty-value
        # header (last-wins would then let it mask a real one).
        if not colon:
            raise BadRequest(f"malformed header line (no colon): {text[:80]!r}")
        name = name.strip().lower()
        if not name:
            raise BadRequest("malformed header line (empty header name)")
        # Conflicting Content-Length values are a classic smuggling
        # vector; last-wins parsing would read the wrong body length.
        if name == "content-length" and name in headers:
            raise BadRequest("duplicate Content-Length header")
        headers[name] = value.strip()
    # Bodies are framed by Content-Length alone.  Chunked (or any other)
    # transfer coding is refused: ignoring it would read an empty body
    # and then parse the chunk bytes as the next request.
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported; send a Content-Length body")
    length_text = headers.get("content-length", "0")
    # RFC 9110 allows only 1*DIGIT; int() would also take "+3", "1_0" and
    # non-ASCII digits, and raises past 4300 digits.
    if not (length_text.isascii() and length_text.isdigit()) or len(length_text) > 12:
        raise BadRequest(f"bad Content-Length {length_text[:80]!r}")
    content_length = int(length_text)
    if content_length > MAX_BODY_BYTES:
        raise BadRequest(f"Content-Length {content_length} outside [0, {MAX_BODY_BYTES}]")
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError as error:
            raise BadRequest("request body shorter than Content-Length") from error
    return Request(method=method.upper(), path=path, headers=headers, body=body)


#: A routed answer: ``(status, payload, extra headers)``.  ``payload`` is
#: JSON-safe, a :class:`BinaryBody`, or ``bytes`` — a complete response
#: produced elsewhere (a fleet replica) and forwarded verbatim.
Reply = Tuple[int, Any, Optional[Dict[str, str]]]

#: Paths with a route; every other path is bucketed as ``<other>``.
ROUTES = ("/cluster", "/healthz", "/metrics")


class FrontDoor:
    """The HTTP front door shared by the server and the fleet router.

    It owns the lifecycle (bind, signal handlers, ``on_ready``, the stop
    event and the drain), :meth:`start_in_background`, the keep-alive
    connection loop, response rendering, the route table and the root
    request span.  A subclass supplies what differs:

    * ``_start``/``_wait_ready``/``_drain``/``_stop`` — what runs with
      the door (before bind, after bind, once the accept loop closed,
      after the connections drained);
    * :attr:`drain_grace` — how long in-flight connections may finish;
    * ``_handle_cluster`` — the ``/cluster`` handler;
    * ``_healthz_payload``/``_metrics_payload``/``_prometheus_text`` —
      the health and metrics documents;
    * ``_record_request``/``_record_response`` — response accounting.
    """

    #: ``Server`` header product (sent as ``<token>/<version>``), also the
    #: name of the :meth:`start_in_background` thread.
    server_token = "repro-serve"
    #: Kind of the root span a traced request opens.
    span_kind = "server.request"
    #: Seconds in-flight connections get to finish once the accept loop closed.
    drain_grace = 0.5
    #: Default bound on :meth:`start_in_background`.
    start_timeout = 30.0

    def __init__(
        self,
        host: str,
        port: int,
        *,
        trace_log: Optional[str] = None,
        trace_sample: float = 1.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.host = host
        self.port = port  # replaced by the bound port once listening
        self.trace_log = trace_log
        self.trace_sample = trace_sample
        # An injected tracer (tests/embedding) keeps its sinks; otherwise
        # a private one is built, plus the event log when --trace-log asks.
        self.tracer = tracer if tracer is not None else Tracer(sample_rate=trace_sample)
        self._trace_enabled = trace_log is not None or tracer is not None
        self._event_log: Optional[TraceEventLog] = None
        if trace_log is not None:
            self._event_log = TraceEventLog(trace_log)
            self.tracer.add_sink(self._event_log.record)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._draining = False
        self._connections: set = set()

    # -- lifecycle ---------------------------------------------------------

    def run(self, *, install_signal_handlers: bool = True, on_ready=None) -> None:
        """Serve until SIGTERM/SIGINT (blocking; owns its event loop)."""
        asyncio.run(
            self.serve(install_signal_handlers=install_signal_handlers, on_ready=on_ready)
        )

    async def serve(self, *, install_signal_handlers: bool = False, on_ready=None) -> None:
        """Start, bind, serve and drain inside the caller's event loop.

        A failed start (port in use, a pool that never became ready) runs
        the same teardown as a drain before the error propagates.
        """
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self._start()
        server = None
        try:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=HEADER_LIMIT
            )
            self.port = server.sockets[0].getsockname()[1]
            await self._wait_ready()
            if install_signal_handlers:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        self._loop.add_signal_handler(signum, self.request_stop)
                    except (NotImplementedError, RuntimeError):  # pragma: no cover
                        pass  # non-main thread or platform without signal support
            if on_ready is not None:
                on_ready(self)
            await self._stop_event.wait()
        finally:
            self._draining = True
            if server is not None:
                server.close()
                await server.wait_closed()
            await self._drain()
            if self._connections:
                # Handlers mid-response finish within the grace period;
                # connections idle in readline() (keep-alive clients that
                # never closed) are cancelled — their requests were all
                # answered, so nothing is lost.
                _done, pending = await asyncio.wait(
                    list(self._connections), timeout=self.drain_grace
                )
                for connection in pending:
                    connection.cancel()
                if pending:
                    await asyncio.wait(pending, timeout=1.0)
            await self._stop()

    def request_stop(self) -> None:
        """Begin a graceful drain (signal handler / cross-thread safe)."""
        if self._loop is None or self._stop_event is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)

    def start_in_background(self, timeout: Optional[float] = None) -> "ServerHandle":
        """Run on a daemon thread; returns once listening (and ready).

        The tests, the benchmark, and notebook users want a live service
        without giving up their thread; production deployments should run
        :meth:`run` as the process's main job instead.  ``timeout``
        defaults to :attr:`start_timeout`.
        """
        ready = threading.Event()
        errors: List[BaseException] = []

        def _main() -> None:
            try:
                self.run(install_signal_handlers=False, on_ready=lambda _s: ready.set())
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)
                ready.set()

        thread = threading.Thread(target=_main, name=self.server_token, daemon=True)
        thread.start()
        if not ready.wait(self.start_timeout if timeout is None else timeout):
            raise RuntimeError(f"{self.server_token} did not come up within the timeout")
        if errors:
            raise RuntimeError(
                f"{self.server_token} failed to start: {errors[0]!r}"
            ) from errors[0]
        return ServerHandle(self, thread)

    async def _start(self) -> None:
        """Bring up what serves requests; runs before the bind."""

    async def _wait_ready(self) -> None:
        """Block until routable; runs after the bind, before ``on_ready``."""

    async def _drain(self) -> None:
        """Finish admitted work; runs once the accept loop has closed."""

    async def _stop(self) -> None:
        """Tear down; runs last, after the connections drained."""

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    self._record_response(400, None)
                    writer.write(self._render(HTTPStatus.BAD_REQUEST, {"error": str(error)}))
                    await writer.drain()
                    break
                if request is None:
                    break
                writer.write(await self._respond(request))
                await writer.drain()
                if not request.keep_alive or self._draining:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(self, request: Request) -> bytes:
        """Route one request and return the response bytes, accounted."""
        assert self._loop is not None
        start = self._loop.time()
        status, payload, extra_headers = await self._route(request)
        self._record_response(int(status), self._loop.time() - start)
        if isinstance(payload, bytes):
            return payload  # a replica's response, forwarded verbatim
        return self._render(status, payload, extra_headers, head_only=request.method == "HEAD")

    def _render(
        self,
        status: HTTPStatus,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
        *,
        head_only: bool = False,
    ) -> bytes:
        """Serialize one response; ``payload`` is JSON-safe or a :class:`BinaryBody`."""
        if isinstance(payload, BinaryBody):
            body = payload.data
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {int(status)} {status.phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Server: {self.server_token}/{__version__}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if head_only else head + body

    async def _route(self, request: Request) -> Reply:
        path = request.path.split("?", 1)[0]
        # Bucket unknown methods/paths so hostile or misdirected traffic
        # cannot grow a per-route counter (and /metrics) unboundedly.
        method = request.method if request.method in ("GET", "HEAD", "POST") else "<other>"
        self._record_request(f"{method} {path if path in ROUTES else '<other>'}")
        if path == "/cluster":
            return await self._handle_cluster(request)
        if request.method in ("GET", "HEAD"):
            if path == "/healthz":
                return HTTPStatus.OK, self._healthz_payload(), None
            if path == "/metrics":
                document = await self._metrics_payload()
                if wants_prometheus(request.path, request.headers.get("accept")):
                    text = self._prometheus_text(document)
                    return (
                        HTTPStatus.OK,
                        BinaryBody(text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE),
                        None,
                    )
                return HTTPStatus.OK, document, None
        return HTTPStatus.NOT_FOUND, {
            "error": f"no route {request.method} {path[:80]}; "
            "routes: POST /cluster, GET /healthz, GET /metrics"
        }, None

    def _root_span(self, request: Request) -> Any:
        """The root :attr:`span_kind` span of a request, or :data:`NOOP_SPAN`.

        A client-carried ``X-Repro-Trace-Id`` always continues that trace
        (the caller is already paying for it upstream); without one a
        trace is originated only when tracing is enabled (``trace_log``
        or an injected tracer) and the per-trace sampler accepts, so the
        default-off path allocates nothing.
        """
        trace_id = valid_trace_id(request.headers.get(TRACE_ID_HEADER))
        if trace_id is None:
            if not self._trace_enabled or not self.tracer.should_sample():
                return NOOP_SPAN
            trace_id = new_trace_id()
        return self.tracer.start_span(
            self.span_kind,
            trace_id=trace_id,
            parent_id=valid_trace_id(request.headers.get(PARENT_SPAN_HEADER)),
        )

    # -- what a subclass supplies --------------------------------------------

    async def _handle_cluster(self, request: Request) -> Reply:
        raise NotImplementedError

    def _healthz_payload(self) -> Dict[str, Any]:
        raise NotImplementedError

    async def _metrics_payload(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _prometheus_text(self, document: Dict[str, Any]) -> str:
        """The text exposition of a ``/metrics`` document."""
        return render_prometheus(document)

    def _record_request(self, route: str) -> None:
        """Count one routed request (``"<METHOD> <path>"``, bucketed)."""

    def _record_response(self, status: int, seconds: Optional[float]) -> None:
        """Count one response; ``seconds`` is ``None`` for a framing 400."""


@dataclass
class ServerHandle:
    """A background :class:`FrontDoor` plus the thread running it."""

    server: FrontDoor
    thread: threading.Thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Drain gracefully and join the serving thread."""
        self.server.request_stop()
        self.thread.join(timeout)
        if self.thread.is_alive():  # pragma: no cover - drain stuck
            raise RuntimeError(f"{self.server.server_token} did not drain within the timeout")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


async def http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    headers: Iterable[Tuple[str, str]] = (),
    body: bytes = b"",
    *,
    timeout: float,
) -> Tuple[int, bytes, int]:
    """One HTTP/1.1 exchange over a fresh loopback connection.

    Sends ``method path`` with ``host``, ``content-length`` and
    ``connection: close`` headers, then ``headers`` and ``body``, and
    reads the response, framed by its ``Content-Length`` (or, without
    one, by EOF).  Returns ``(status, response, body_start)``: the
    response exactly as received (status line, headers, body) and the
    offset of its body.

    The whole exchange runs under ``timeout``.  A dead peer raises
    ``OSError`` or ``asyncio.TimeoutError``, and so does a malformed or
    truncated response: a bad status line, headers cut off by EOF, a
    line longer than :data:`HEADER_LIMIT`, a duplicate or non-numeric
    ``Content-Length``, or a body shorter than it each raise
    ``ConnectionError``.  Callers catch those two and nothing else.
    """

    async def _exchange() -> Tuple[int, bytes, int]:
        reader, writer = await asyncio.open_connection(host, port, limit=HEADER_LIMIT)
        try:
            lines = [
                f"{method} {path} HTTP/1.1",
                f"host: {host}:{port}",
                f"content-length: {len(body)}",
                "connection: close",
            ]
            lines.extend(f"{name}: {value}" for name, value in headers)
            writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            writer.write(body)
            await writer.drain()
            try:
                return await _read_response(reader)
            except asyncio.IncompleteReadError as error:
                raise ConnectionError(
                    f"response body ended after {len(error.partial)} of "
                    f"{error.expected} bytes"
                ) from error
            except ValueError as error:  # a line past the reader's limit
                raise ConnectionError(f"oversized response line: {error}") from error
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    return await asyncio.wait_for(_exchange(), timeout)


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes, int]:
    """Read one response off ``reader``: ``(status, response, body_start)``."""
    status_line = await reader.readline()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/") or not parts[1].isdigit():
        raise ConnectionError(f"malformed status line {status_line[:80]!r}")
    response = bytearray(status_line)
    content_length: Optional[int] = None
    while True:
        line = await reader.readline()
        if not line.endswith(b"\n"):
            raise ConnectionError("response ended inside its headers")
        response += line
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            value = value.strip()
            if content_length is not None or not value.isdigit() or len(value) > 12:
                raise ConnectionError(f"bad or repeated Content-Length {value[:80]!r}")
            content_length = int(value)
    body_start = len(response)
    if content_length is None:
        response += await reader.read()
    else:
        response += await reader.readexactly(content_length)
    return int(parts[1]), bytes(response), body_start


async def http_fetch(
    host: str, port: int, path: str, *, timeout: float = 5.0
) -> Tuple[int, Dict[str, Any]]:
    """``GET path`` through :func:`http_exchange`, JSON-decoded: ``(status, payload)``.

    Control-plane only (health probes, metrics scrapes).  A body that is
    not a JSON object raises ``ConnectionError`` like a malformed
    response, so callers catch only ``OSError`` and
    ``asyncio.TimeoutError`` and treat either as "replica not ready".
    """
    status, response, body_start = await http_exchange(host, port, "GET", path, timeout=timeout)
    try:
        payload = json.loads(response[body_start:])
    except (ValueError, RecursionError) as error:
        raise ConnectionError(f"GET {path} answered a body that is not JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ConnectionError(f"GET {path} answered JSON that is not an object")
    return status, payload

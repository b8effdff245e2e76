"""A small blocking client for the clustering service.

:class:`ServeClient` wraps one keep-alive :class:`http.client.HTTPConnection`
to a running ``repro serve`` daemon.  It exists for the test suite, the
load benchmark, and scripts — anything that wants typed errors
(:class:`ServerBusy` carries the ``Retry-After`` hint) instead of raw
HTTP plumbing::

    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", 8752) as client:
        envelope = client.cluster(matrix, config={"num_clusters": 4})
        labels = envelope["result"]["labels"]

Large matrices should travel as raw bytes instead of JSON float lists:
``cluster(..., binary=True)`` POSTs the :mod:`repro.serve.wire` frame and
asks for a binary response envelope, decoding it back into the exact dict
the JSON route returns.  Every server and fleet speaks both transports.

The client is blocking by design (one request in flight per connection)
and not thread-safe: give each closed-loop load-generator thread its own
instance.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from typing import Any, Dict, Optional

import numpy as np

from repro.obs.tracer import TRACE_ECHO_HEADER, TRACE_ID_HEADER, new_trace_id
from repro.serve.wire import WIRE_CONTENT_TYPE, WireFormatError, decode_envelope, encode_request

#: Fractional spread applied to every 429 retry sleep.  A saturated
#: replica rejects a whole burst of closed-loop clients at once and hands
#: each the same ``retry_after_seconds``; without jitter they all come
#: back in lockstep and re-stampede the queue on the same tick.
RETRY_JITTER_FRACTION = 0.2


def jittered_backoff(seconds: float, rng: Optional[random.Random] = None) -> float:
    """``seconds`` scaled by a uniform factor in ``[0.8, 1.2]`` (±20%)."""
    generator = rng if rng is not None else random
    return max(0.0, seconds) * generator.uniform(
        1.0 - RETRY_JITTER_FRACTION, 1.0 + RETRY_JITTER_FRACTION
    )

#: Methods a stale keep-alive socket may transparently retry: safe to
#: replay because the server performs no work on their behalf.  A POST is
#: NOT among them — its first attempt may have been admitted (and fitted!)
#: before the connection died, and silently re-sending it would
#: double-submit the job; POST failures surface to the caller instead.
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})


class ServerError(RuntimeError):
    """A non-2xx response; carries the HTTP status and decoded payload."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        message = payload.get("error", "") if isinstance(payload, dict) else ""
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload


class ServerBusy(ServerError):
    """HTTP 429: the admission queue is full; honor :attr:`retry_after`."""

    def __init__(self, status: int, payload: Dict[str, Any], retry_after: float) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class ServeClient:
    """Blocking client for one ``repro serve`` endpoint (JSON or binary)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8752, timeout: float = 60.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._connection

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        if headers is None:
            headers = {"Content-Type": "application/json"} if body else {}
        last_error: Optional[Exception] = None
        # One transparent retry for idempotent methods only: a keep-alive
        # connection the server closed (drain, restart) surfaces as a
        # stale-socket error on first use, and replaying a GET/HEAD is
        # free.  POST raises immediately — see _IDEMPOTENT_METHODS.
        attempts = 2 if method in _IDEMPOTENT_METHODS else 1
        for attempt in range(attempts):
            connection = self._connect()
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
                break
            except (
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ) as error:
                self.close()
                last_error = error
                if attempt == attempts - 1 or isinstance(error, socket.timeout):
                    raise
        else:  # pragma: no cover - loop always breaks or raises
            raise last_error  # type: ignore[misc]
        status = response.status
        content_type = (response.getheader("Content-Type") or "").split(";", 1)[0].strip().lower()
        if content_type == WIRE_CONTENT_TYPE and status < 400:
            try:
                payload = decode_envelope(raw)
            except WireFormatError as error:
                raise ServerError(status, {"error": f"undecodable binary envelope: {error}"})
        else:
            try:
                payload = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                payload = {"error": raw.decode("utf-8", "replace")}
        if status == 429:
            raise ServerBusy(status, payload, self._retry_after(response, payload))
        if status >= 400:
            raise ServerError(status, payload)
        return payload

    @staticmethod
    def _retry_after(response: http.client.HTTPResponse, payload: Any) -> float:
        """The backoff hint of a 429: fractional body value over the
        integer (RFC-rounded-up) ``Retry-After`` header."""
        if isinstance(payload, dict):
            body_value = payload.get("retry_after_seconds")
            if isinstance(body_value, (int, float)) and not isinstance(body_value, bool):
                if body_value >= 0:
                    return float(body_value)
        retry_header = response.getheader("Retry-After")
        try:
            return float(retry_header) if retry_header else 1.0
        except ValueError:
            return 1.0

    # -- endpoints ---------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """One raw exchange (typed errors included).

        The load benchmark pre-encodes its request body once and replays
        it through this method — re-serializing a large matrix on every
        closed-loop iteration would measure the encoder, not the server.
        Pass ``headers`` to replay binary bodies
        (``{"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE}``).
        """
        return self._request(method, path, body, headers)

    def encode_cluster_body(
        self, matrix: Any, config: Optional[Dict[str, Any]] = None
    ) -> bytes:
        """The JSON ``POST /cluster`` body for ``matrix`` — reusable across calls."""
        return json.dumps(
            {
                "matrix": np.asarray(matrix, dtype=float).tolist(),
                "config": config or {},
            }
        ).encode("utf-8")

    def encode_cluster_body_binary(
        self, matrix: Any, config: Optional[Dict[str, Any]] = None
    ) -> bytes:
        """The binary ``POST /cluster`` body: a raw float64 wire frame.

        3-4x smaller than :meth:`encode_cluster_body` at large n and
        decoded by the server with zero intermediate copies.  Send it with
        ``Content-Type: application/x-repro-matrix``.
        """
        return encode_request(np.asarray(matrix, dtype=float), config)

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus`` — the text exposition."""
        connection = self._connect()
        try:
            connection.request("GET", "/metrics?format=prometheus")
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, socket.timeout, OSError):
            self.close()
            raise
        if response.status != 200:
            raise ServerError(response.status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def cluster(
        self,
        matrix: Any,
        config: Optional[Dict[str, Any]] = None,
        *,
        retries: int = 0,
        retry_backoff: float = 0.0,
        binary: bool = False,
        trace: bool = False,
    ) -> Dict[str, Any]:
        """POST one clustering job; returns the response envelope.

        ``config`` is a partial :meth:`ClusteringConfig.to_dict` payload
        overlaid onto the server's default config.  With ``retries``, a
        429 is retried after the server's ``retry_after_seconds`` hint (or
        ``retry_backoff`` if larger) scaled by ±20% random jitter — a
        burst of clients rejected together must not re-stampede the queue
        in lockstep — which is how a polite closed-loop client behaves
        under admission control.  Connection failures are
        never transparently retried on this path — the first attempt may
        already have been admitted server-side, and replaying it would
        double-submit the job; they propagate to the caller.

        ``binary=True`` ships the matrix as a raw wire frame and asks for
        a binary response envelope; the returned dict is identical either
        way.

        ``trace=True`` originates a distributed trace: the request
        carries a fresh ``X-Repro-Trace-Id`` (the fleet router and the
        replica continue it) plus the echo header, and the returned
        envelope gains a ``trace`` block with every server-side span.
        429 retries reuse the same trace id, so one logical job stays one
        trace across admission retries.
        """
        if binary:
            body = self.encode_cluster_body_binary(matrix, config)
            headers: Optional[Dict[str, str]] = {
                "Content-Type": WIRE_CONTENT_TYPE,
                "Accept": WIRE_CONTENT_TYPE,
            }
        else:
            body = self.encode_cluster_body(matrix, config)
            headers = None
        if trace:
            headers = dict(headers or {"Content-Type": "application/json"})
            headers[TRACE_ID_HEADER] = new_trace_id()
            headers[TRACE_ECHO_HEADER] = "1"
        attempts = max(0, int(retries)) + 1
        for attempt in range(attempts):
            try:
                return self._request("POST", "/cluster", body, headers)
            except ServerBusy as busy:
                if attempt == attempts - 1:
                    raise
                time.sleep(jittered_backoff(max(busy.retry_after, retry_backoff)))
        raise AssertionError("unreachable")  # pragma: no cover

    def cluster_labels(
        self, matrix: Any, config: Optional[Dict[str, Any]] = None, **kwargs: Any
    ) -> np.ndarray:
        """The flat labels of one served fit, as an integer array."""
        envelope = self.cluster(matrix, config, **kwargs)
        labels = envelope["result"]["labels"]
        if labels is None:
            raise ServerError(200, {"error": "the served result carries no flat labels"})
        return np.asarray(labels, dtype=int)

    def wait_healthy(self, timeout: float = 30.0, interval: float = 0.05) -> Dict[str, Any]:
        """Poll ``/healthz`` until the service answers ``ok`` (startup races)."""
        deadline = time.perf_counter() + timeout
        last_error: Optional[Exception] = None
        while time.perf_counter() < deadline:
            try:
                payload = self.healthz()
                if payload.get("status") == "ok":
                    return payload
            except (ServerError, OSError, http.client.HTTPException) as error:
                last_error = error
                self.close()
            time.sleep(interval)
        raise TimeoutError(
            f"no healthy repro serve at {self.host}:{self.port} within {timeout}s "
            f"(last error: {last_error!r})"
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Spans, tracers, and ambient context propagation.

The tracing model is deliberately small: a :class:`Span` is one timed
operation (monotonic-clock duration, wall-clock start for waterfall
ordering) carrying a ``trace_id`` shared by every span in one request, a
unique ``span_id``, an optional ``parent_id``, free-form attributes, and
an error flag.  A :class:`Tracer` creates spans and fans each closed
span out to its sinks (the JSON-lines event log, the per-kind latency
histograms, per-trace collectors for the response ``trace`` block).

Propagation is ambient: entering a span as a context manager installs it
in a :mod:`contextvars` variable, so library code deep in the stack —
``estimator.fit``, the result cache, the fit phases, the APSP kernel
— opens children via :func:`trace_span` without any signature
churn.  Crossing a thread hop (``loop.run_in_executor``) works by
running the callable inside ``contextvars.copy_context()``; see
``ClusteringServer._in_executor``.

Zero-cost-when-off is load-bearing: with no ambient span active,
:func:`trace_span` returns the shared :data:`NOOP_SPAN` singleton — no
object is allocated, every method on it is a no-op — so untraced
requests pay only a ``ContextVar.get`` per instrumentation site and
responses stay byte-identical.  A fit times itself with these spans:
:func:`collect_steps` sums them into its ``step_seconds`` (on hidden,
sink-less spans when untraced).

Across HTTP hops the trace context rides in two headers
(:data:`TRACE_ID_HEADER` / :data:`PARENT_SPAN_HEADER`); a client adds
:data:`TRACE_ECHO_HEADER` to ask the server to return the collected
spans in the response envelope.
"""

from __future__ import annotations

import contextvars
import os
import random
import re
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "NOOP_SPAN",
    "PARENT_SPAN_HEADER",
    "STEP_KEYS",
    "Span",
    "TRACE_ECHO_HEADER",
    "TRACE_ID_HEADER",
    "Tracer",
    "collect_steps",
    "current_span",
    "new_span_id",
    "new_trace_id",
    "trace_span",
    "valid_trace_id",
]

#: Version stamped into every emitted event line; bump on breaking
#: changes to the event shape so `repro trace` can reject mixed logs.
EVENT_SCHEMA_VERSION = 1

#: Canonical (lowercase) header names; `httpio.Request` lowercases
#: incoming header keys, so lookups use these directly.
TRACE_ID_HEADER = "x-repro-trace-id"
PARENT_SPAN_HEADER = "x-repro-parent-span"
TRACE_ECHO_HEADER = "x-repro-trace-echo"

_ID_PATTERN = re.compile(r"[0-9a-fA-F][0-9a-fA-F-]{0,63}")

#: The ambient span for the current execution context (task or thread).
_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None
)

#: Span kind -> ``step_seconds`` key: Fig. 5's four fit phases, the classic
#: DBHT's one phase, the streaming similarity, and each scope's outer span.
STEP_KEYS = {
    "fit.tmfg": "tmfg", "fit.apsp": "apsp", "fit.bubble_tree": "bubble-tree",
    "fit.hierarchy": "hierarchy", "fit.dbht": "dbht", "estimator.fit": "total",
    "stream.similarity": "similarity", "stream.tick": "total",
}

#: The ``step_seconds`` dict of the innermost :func:`collect_steps` scope.
_step_seconds: contextvars.ContextVar = contextvars.ContextVar("repro_steps", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-digit span id (unique within a trace)."""
    return os.urandom(4).hex()


def valid_trace_id(value: Optional[str]) -> Optional[str]:
    """``value`` if it is a plausible wire-carried id, else ``None``.

    Accepts 1–64 hex-or-dash characters so foreign tracers' ids survive
    the hop; anything else (empty, spaces, control bytes) is dropped
    rather than propagated into log lines.
    """
    if not value:
        return None
    if _ID_PATTERN.fullmatch(value) is None:
        return None
    return value.lower()


def current_span() -> Optional["Span"]:
    """The ambient span for this context, or ``None`` when untraced."""
    span = _current_span.get()
    return None if span is None or span.tracer is _STEP_TRACER else span


def trace_span(kind: str, **attributes: Any) -> "Span":
    """A child of the ambient span, or :data:`NOOP_SPAN` when untraced.

    This is the one call library code makes.  The fast path — no active
    trace — is a ``ContextVar.get`` and a ``None`` check; no span object
    is allocated and the returned singleton swallows every method call.
    """
    parent = _current_span.get()
    if parent is None:
        return NOOP_SPAN
    return parent.tracer.start_span(
        kind,
        trace_id=parent.trace_id,
        parent_id=parent.span_id,
        **attributes,
    )


class Span:
    """One timed operation within a trace.

    Use as a context manager (installs itself as the ambient span so
    nested :func:`trace_span` calls become children), or call
    :meth:`end` explicitly.  ``duration_seconds`` comes from the
    monotonic clock; ``started_at`` is wall-clock and only orders the
    waterfall.
    """

    __slots__ = (
        "tracer",
        "kind",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "started_at",
        "duration_seconds",
        "error",
        "_start_clock",
        "_token",
        "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        kind: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.started_at = time.time()
        self.duration_seconds = 0.0
        self.error = False
        self._start_clock = time.perf_counter()
        self._token: Optional[contextvars.Token] = None
        self._ended = False

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_error(self, message: Optional[str] = None) -> None:
        self.error = True
        if message is not None:
            self.attributes["error_message"] = message

    def child(self, kind: str, **attributes: Any) -> "Span":
        """A new span in this trace parented to this one."""
        return self.tracer.start_span(
            kind, trace_id=self.trace_id, parent_id=self.span_id, **attributes
        )

    def end(self) -> None:
        """Close the span (idempotent) and hand it to the tracer's sinks."""
        if self._ended:
            return
        self._ended = True
        self.duration_seconds = time.perf_counter() - self._start_clock
        steps = _step_seconds.get() if self.kind in STEP_KEYS else None
        if steps is not None:
            key = STEP_KEYS[self.kind]
            steps[key] = steps.get(key, 0.0) + self.duration_seconds
        self.tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned event form of this span (one log line)."""
        return {
            "schema": EVENT_SCHEMA_VERSION,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "start_unix": round(self.started_at, 6),
            "duration_ms": round(self.duration_seconds * 1000.0, 6),
            "error": self.error,
            "pid": os.getpid(),
            "attributes": self.attributes,
        }

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.error = True
            self.attributes.setdefault("exception", exc_type.__name__)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(kind={self.kind!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class _NoopSpan:
    """The do-nothing span returned when no trace is active.

    A single shared instance (:data:`NOOP_SPAN`): identity-comparable,
    never installed in the context variable, accepts and discards every
    span operation so instrumentation sites need no ``if traced:``
    branches.
    """

    __slots__ = ()

    kind = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    error = False
    duration_seconds = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_error(self, message: Optional[str] = None) -> None:
        pass

    def child(self, kind: str, **attributes: Any) -> "_NoopSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NOOP_SPAN"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans and fans closed spans out to sinks.

    Sinks are callables taking the closed :class:`Span`; they run on
    whichever thread closed the span, so each sink handles its own
    locking (the event log and the metrics registry both do).  Per-trace
    collectors back the opt-in response ``trace`` block: a trace id is
    registered with :meth:`collect` before the request runs and drained
    (or discarded) afterwards, so unechoed traffic never accumulates.
    """

    def __init__(self, sample_rate: float = 1.0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self._sinks: List[Callable[[Span], None]] = []
        self._collectors: Dict[str, List[Dict[str, Any]]] = {}
        self._random = random.Random()

    def add_sink(self, sink: Callable[[Span], None]) -> None:
        self._sinks.append(sink)

    def should_sample(self) -> bool:
        """One sampling decision for a server-initiated trace."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._random.random() < self.sample_rate

    def start_span(
        self,
        kind: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        **attributes: Any,
    ) -> Span:
        """A live span; close it with ``with``, ``.end()``, or return it.

        With no explicit ids the span continues the ambient trace when
        one is active, else roots a fresh trace.
        """
        if trace_id is None:
            ambient = current_span()
            if ambient is not None:
                trace_id = ambient.trace_id
                if parent_id is None:
                    parent_id = ambient.span_id
            else:
                trace_id = new_trace_id()
        return Span(self, kind, trace_id, parent_id, dict(attributes))

    def emit(
        self,
        kind: str,
        *,
        trace_id: str,
        parent_id: Optional[str] = None,
        duration_seconds: float = 0.0,
        started_at: Optional[float] = None,
        error: bool = False,
        **attributes: Any,
    ) -> None:
        """Record an already-measured span in one shot.

        Used where the timing exists before the trace structure does —
        e.g. the server synthesises a request's queue-wait span from its
        admission timestamp once the request resolves.
        """
        span = Span(self, kind, trace_id, parent_id, dict(attributes))
        if started_at is not None:
            span.started_at = started_at
        span.duration_seconds = float(duration_seconds)
        span.error = error
        span._ended = True
        self._finish(span)

    # -- per-trace collection (the response `trace` block) --------------

    def collect(self, trace_id: str) -> None:
        """Start buffering closed spans for ``trace_id``."""
        self._collectors.setdefault(trace_id, [])

    def drain(self, trace_id: str) -> List[Dict[str, Any]]:
        """Remove and return the buffered spans for ``trace_id``."""
        return self._collectors.pop(trace_id, [])

    def discard(self, trace_id: str) -> None:
        """Drop a collector without reading it (error-path cleanup)."""
        self._collectors.pop(trace_id, None)

    def _finish(self, span: Span) -> None:
        if self._collectors:
            bucket = self._collectors.get(span.trace_id)
            if bucket is not None:
                bucket.append(span.to_dict())
        for sink in self._sinks:
            sink(span)


#: The sink-less tracer of an untraced :func:`collect_steps` scope's spans,
#: and the never-closed root those spans hang from.
_STEP_TRACER = Tracer()
_STEP_ROOT = Span(_STEP_TRACER, "steps", "0" * 16, None, {})


@contextmanager
def collect_steps() -> Iterator[Dict[str, float]]:
    """Yield a ``step_seconds`` dict to which each :data:`STEP_KEYS` span
    closed in this scope adds its duration (an inner scope hides its own);
    untraced, they hang from a hidden root that :func:`current_span` skips."""
    steps: Dict[str, float] = {}
    token = _step_seconds.set(steps)
    root = _current_span.set(_current_span.get() or _STEP_ROOT)
    try:
        yield steps
    finally:
        _current_span.reset(root)
        _step_seconds.reset(token)

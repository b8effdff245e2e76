"""Dynamic micro-batching queue for the clustering service.

Independent network requests arrive one at a time; the batch front door
(:func:`repro.api.cluster_many`) is at its best when handed many jobs at
once — duplicates dedupe and cache lookups amortize.
:class:`MicroBatcher` bridges the two: requests are
appended to a bounded queue, and a single flusher coroutine cuts a batch
when either

* ``max_batch_size`` requests are waiting, or
* the *oldest* waiting request has been queued for ``max_wait_ms``

— whichever comes first, so an idle service adds at most ``max_wait_ms``
of latency while a busy one naturally serves full batches.

Admission control is synchronous: :meth:`MicroBatcher.submit` raises
:class:`QueueFull` the moment the queue is at ``max_queue_depth`` (the
server turns that into HTTP 429 + ``Retry-After``) and
:class:`ServiceStopping` once a drain has begun (HTTP 503).  Stopping with
``drain=True`` flushes everything already admitted before returning, so a
SIGTERM never drops an accepted request.

The batcher is event-loop-confined: ``submit`` must be called from the
loop that ``start`` ran on.  The fits themselves happen in whatever
executor the injected ``runner`` coroutine uses, so batches overlap — the
flusher keeps cutting new batches while earlier ones are still fitting.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.api.config import ClusteringConfig
from repro.cache import matrix_fingerprint
from repro.obs.tracer import NOOP_SPAN, Span, current_span

#: runner(config, matrices) -> list of results, one per matrix, in order.
BatchRunner = Callable[[ClusteringConfig, List[np.ndarray]], Awaitable[List[Any]]]


def validate_batching_knobs(
    max_batch_size: int, max_wait_ms: float, max_queue_depth: int
) -> None:
    """Reject bad batching knobs (shared by the batcher and the server, so
    the CLI fails fast with a clean message instead of inside the loop)."""
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be at least 1")
    if max_wait_ms < 0:
        raise ValueError("max_wait_ms must be non-negative")
    if max_queue_depth < 1:
        raise ValueError("max_queue_depth must be at least 1")


class QueueFull(RuntimeError):
    """The admission queue is at ``max_queue_depth``; retry later."""


class ServiceStopping(RuntimeError):
    """The batcher is draining and admits no new work."""


@dataclass
class BatchItem:
    """One admitted request waiting for (or receiving) its result."""

    matrix: np.ndarray
    config: ClusteringConfig
    future: "asyncio.Future[Tuple[Any, Dict[str, Any]]]"
    enqueued_at: float
    #: The request's ambient server.request span (None when untraced),
    #: captured at submit() so the batcher can attribute queue wait and
    #: batch fit back to every member request's trace.
    span: Optional[Span] = None
    #: Wall-clock twin of enqueued_at, only stamped for traced requests
    #: (span start times are wall-clock for cross-process ordering).
    enqueued_wall: float = 0.0


@dataclass
class BatcherStats:
    """Flush accounting, read by the metrics endpoint."""

    batches: int = 0
    batched_requests: int = 0
    distinct_jobs: int = 0
    deduped_requests: int = 0
    largest_batch: int = 0
    rejected: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "distinct_jobs": self.distinct_jobs,
            "deduped_requests": self.deduped_requests,
            "largest_batch": self.largest_batch,
            "rejected": self.rejected,
            "mean_batch_size": (
                self.batched_requests / self.batches if self.batches else 0.0
            ),
        }


@dataclass
class _Flush:
    """Bookkeeping for one cut batch while its groups are fitting."""

    items: List[BatchItem]
    started_at: float
    observers: List[Callable[["_Flush"], None]] = field(default_factory=list)


class MicroBatcher:
    """Size-or-deadline batching of clustering jobs onto ``runner``.

    Parameters
    ----------
    runner:
        ``async runner(config, matrices)`` performing the actual fits
        (the server wraps :func:`repro.api.cluster_many` in an executor).
        Called once per distinct config within a cut batch.
    max_batch_size:
        Flush as soon as this many requests are waiting.
    max_wait_ms:
        Flush when the oldest waiting request has been queued this long,
        even if the batch is not full.  ``0`` flushes immediately, but
        whatever is *already* queued at wake-up is still cut as one batch
        (up to ``max_batch_size``) — true batch-size-1 serving needs
        ``max_batch_size=1`` as well, which is what the bench baseline
        sets.
    max_queue_depth:
        Admission bound: ``submit`` raises :class:`QueueFull` beyond it.
        Requests leave the queue the moment their batch is cut, so depth
        measures *waiting* work, not in-flight fits.
    """

    def __init__(
        self,
        runner: BatchRunner,
        *,
        max_batch_size: int = 16,
        max_wait_ms: float = 10.0,
        max_queue_depth: int = 256,
    ) -> None:
        validate_batching_knobs(max_batch_size, max_wait_ms, max_queue_depth)
        self._runner = runner
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue_depth = max_queue_depth
        self.stats = BatcherStats()
        self._queue: Deque[BatchItem] = deque()
        self._wake = asyncio.Event()
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flusher: Optional[asyncio.Task] = None
        self._inflight: Set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind to the running loop and start the flusher coroutine."""
        if self._flusher is not None:
            raise RuntimeError("MicroBatcher.start() called twice")
        self._loop = asyncio.get_running_loop()
        self._flusher = self._loop.create_task(self._flush_loop())

    async def stop(self, drain: bool = True) -> None:
        """Refuse new work; with ``drain``, finish everything admitted.

        Without ``drain``, still-queued requests fail with
        :class:`ServiceStopping` (their HTTP handlers answer 503); batches
        already cut always run to completion either way.
        """
        self._stopping = True
        if not drain:
            while self._queue:
                item = self._queue.popleft()
                if not item.future.done():
                    item.future.set_exception(
                        ServiceStopping("the clustering service is shutting down")
                    )
        self._wake.set()
        if self._flusher is not None:
            await self._flusher
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def stopping(self) -> bool:
        return self._stopping

    # -- admission ---------------------------------------------------------

    def submit(
        self, matrix: np.ndarray, config: ClusteringConfig
    ) -> "asyncio.Future[Tuple[Any, Dict[str, Any]]]":
        """Admit one job; resolves to ``(result, serving_info)``.

        ``serving_info`` reports how the job was served: the size and
        distinct-job count of its batch, its queue wait, and the group fit
        time — the numbers a client needs to see micro-batching working.
        """
        if self._loop is None:
            raise RuntimeError("MicroBatcher.start() has not been called")
        if self._stopping:
            raise ServiceStopping("the clustering service is shutting down")
        if len(self._queue) >= self.max_queue_depth:
            self.stats.rejected += 1
            raise QueueFull(
                f"admission queue is full ({self.max_queue_depth} waiting requests)"
            )
        span = current_span()
        item = BatchItem(
            matrix=matrix,
            config=config,
            future=self._loop.create_future(),
            enqueued_at=self._loop.time(),
            span=span,
            enqueued_wall=time.time() if span is not None else 0.0,
        )
        self._queue.append(item)
        self._wake.set()
        return item.future

    # -- flushing ----------------------------------------------------------

    async def _flush_loop(self) -> None:
        assert self._loop is not None
        while True:
            while not self._queue and not self._stopping:
                self._wake.clear()
                await self._wake.wait()
            if not self._queue:
                break  # stopping and fully drained
            deadline = self._queue[0].enqueued_at + self.max_wait_ms / 1000.0
            while (
                len(self._queue) < self.max_batch_size
                and not self._stopping
                and (remaining := deadline - self._loop.time()) > 0
            ):
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch_size, len(self._queue)))
            ]
            task = self._loop.create_task(self._process(batch))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    async def _process(self, batch: List[BatchItem]) -> None:
        assert self._loop is not None
        started = self._loop.time()
        # One runner call per distinct config: cluster_many takes one
        # config for the whole batch, and mixed-config batches are the
        # norm once clients send their own knobs.
        groups: "OrderedDict[str, List[BatchItem]]" = OrderedDict()
        for item in batch:
            groups.setdefault(item.config.to_json(), []).append(item)
        # Content hashing is a full pass over every matrix's bytes, so it
        # runs on the default thread pool, not the event loop.
        distinct = await self._loop.run_in_executor(None, self._count_distinct, batch)
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        self.stats.distinct_jobs += distinct
        self.stats.deduped_requests += len(batch) - distinct
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        for items in groups.values():
            await self._run_group(items, batch_size=len(batch), distinct=distinct,
                                  batch_started=started)

    async def _run_group(
        self,
        items: List[BatchItem],
        *,
        batch_size: int,
        distinct: int,
        batch_started: float,
    ) -> None:
        """Fit one same-config group, isolating per-request failures.

        A fit error anywhere in the group fails the *whole* ``cluster_many``
        call, so on failure each request is retried alone — one client's
        malformed matrix must not poison the answers of the requests it
        happened to be batched with.
        """
        assert self._loop is not None
        config = items[0].config
        group_started = self._loop.time()
        # One member's trace hosts the *live* batch-fit span: entering it
        # as the ambient span here is what lets the executor-side
        # cluster_many -> cache -> kernel spans (carried across the
        # thread hop by contextvars.copy_context in the runner) attach to
        # a real request trace.  Other traced members get an equal-length
        # synthesized copy in _resolve, cross-linked by shared_span.
        exemplar = next((item for item in items if item.span is not None), None)
        fit_span = (
            exemplar.span.child("serve.batch_fit", group_size=len(items))
            if exemplar is not None
            else NOOP_SPAN
        )
        live_fit = fit_span if exemplar is not None else None
        try:
            with fit_span:
                results = await self._runner(config, [item.matrix for item in items])
        except Exception as group_error:  # noqa: BLE001 - re-tried per request
            for item in items:
                if item.future.done():
                    continue
                if len(items) == 1:
                    item.future.set_exception(group_error)
                    continue
                try:
                    solo = await self._runner(config, [item.matrix])
                except Exception as solo_error:  # noqa: BLE001 - per request
                    item.future.set_exception(solo_error)
                else:
                    self._resolve(item, solo[0], batch_size, distinct,
                                  batch_started, group_started, None)
            return
        for item, result in zip(items, results):
            self._resolve(item, result, batch_size, distinct, batch_started,
                          group_started, live_fit)

    def _resolve(
        self,
        item: BatchItem,
        result: Any,
        batch_size: int,
        distinct: int,
        batch_started: float,
        group_started: float,
        fit_span: Optional[Span] = None,
    ) -> None:
        assert self._loop is not None
        info = {
            "batch_size": batch_size,
            "batch_distinct": distinct,
            "queue_seconds": max(0.0, batch_started - item.enqueued_at),
            "fit_seconds": self._loop.time() - group_started,
        }
        span = item.span
        if span is not None:
            # Queue wait happened before any span could run; synthesize
            # it now that the numbers exist, parented to the request span.
            tracer = span.tracer
            tracer.emit(
                "serve.queue",
                trace_id=span.trace_id,
                parent_id=span.span_id,
                started_at=item.enqueued_wall,
                duration_seconds=info["queue_seconds"],
                batch_size=batch_size,
            )
            if fit_span is None or fit_span.trace_id != span.trace_id:
                # The live batch-fit span landed in the exemplar's trace;
                # every other traced member gets a copy covering the same
                # window so its own waterfall accounts for the fit time.
                tracer.emit(
                    "serve.batch_fit",
                    trace_id=span.trace_id,
                    parent_id=span.span_id,
                    started_at=time.time() - info["fit_seconds"],
                    duration_seconds=info["fit_seconds"],
                    shared_span=fit_span.span_id if fit_span is not None else None,
                )
        if not item.future.done():
            item.future.set_result((result, info))

    @staticmethod
    def _count_distinct(batch: List[BatchItem]) -> int:
        """Distinct (config, matrix) jobs in a batch — the fits actually paid
        for after ``cluster_many`` dedupes (content keys computed for
        observability; the front door fingerprints independently).

        Uses :func:`~repro.cache.fingerprint.matrix_fingerprint`, which
        hashes contiguous arrays through the buffer protocol — the binary
        transport's decoded ``frombuffer`` views are counted without the
        ``tobytes`` copy the old ad-hoc key paid."""
        seen = set()
        for item in batch:
            seen.add((item.config.to_json(), matrix_fingerprint(item.matrix)))
        return len(seen)

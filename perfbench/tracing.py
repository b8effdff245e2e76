"""The traced run's span store: spans in memory, written when the run ends.

A span is ``(trace, id, parent, name, layer, start, end)`` on the wall
clock, so spans recorded here and spans echoed back by a server process
(``x-repro-trace-echo``) share one time base.  A layer's self time is
the time its spans cover minus the part of each span's interval that its
child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

#: Program span kinds (``repro.obs``) and the layer each belongs to.
SPAN_KIND_LAYERS = {
    "server.request": "serve",
    "serve.queue": "serve",
    "serve.batch_fit": "serve",
    "batch.cluster_many": "api",
    "estimator.fit": "api",
    "cache.get": "cache",
    "cache.put": "cache",
    "kernel.apsp": "graph",
}


@dataclass
class SpanRecord:
    trace: str
    span_id: str
    parent: Optional[str]
    name: str
    layer: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanStore:
    """Thread-safe in-memory span list for one traced benchmark run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[SpanRecord] = []

    def new_id(self) -> str:
        with self._lock:
            return f"b{next(self._ids)}"

    def add(self, record: SpanRecord) -> SpanRecord:
        with self._lock:
            self.spans.append(record)
        return record

    @contextmanager
    def span(
        self, trace: str, name: str, layer: str, parent: Optional[str] = None
    ) -> Iterator[SpanRecord]:
        """Time the block; the record's ``span_id`` parents nested spans."""
        record = SpanRecord(trace, self.new_id(), parent, name, layer, 0.0, 0.0)
        wall = time.time()
        clock = time.perf_counter()
        try:
            yield record
        finally:
            record.start = wall
            record.end = wall + (time.perf_counter() - clock)
            self.add(record)

    def add_echoed(self, trace: str, parent: str, echo: Dict[str, Any]) -> None:
        """Attach a server's echoed spans below the client span ``parent``.

        The echo omits the still-open ``server.request`` root, so spans
        whose parent is that root hang off the client span instead.
        """
        root = echo["root_span_id"]
        for span in echo["spans"]:
            start = float(span["start_unix"])
            self.add(
                SpanRecord(
                    trace=trace,
                    span_id=span["span_id"],
                    parent=parent if span["parent_id"] == root else span["parent_id"],
                    name=span["kind"],
                    layer=SPAN_KIND_LAYERS.get(span["kind"], "other"),
                    start=start,
                    end=start + float(span["duration_ms"]) / 1000.0,
                    attrs={"pid": span.get("pid")},
                )
            )

    def roots(self) -> int:
        """Traced operations: spans without a parent."""
        return sum(span.parent is None for span in self.spans)

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per layer over every stored span."""
        children: Dict[tuple, List[SpanRecord]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[(span.trace, span.parent)].append(span)
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _covered(span, children.get((span.trace, span.span_id), []))
            totals[span.layer] += max(span.seconds - covered, 0.0)
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock, open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(parent: SpanRecord, kids: List[SpanRecord]) -> float:
    """Length of the union of the children's intervals inside ``parent``."""
    intervals = sorted(
        (max(kid.start, parent.start), min(kid.end, parent.end)) for kid in kids
    )
    covered = 0.0
    reach = parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered

"""Work–span cost model.

The paper analyses its algorithms in the work–span model and reports
self-relative speedups on a 48-core machine (Fig. 4).  Because CPython's GIL
prevents genuine shared-memory scaling of fine-grained loops, the
reproduction computes each algorithm phase's *work* (total number of
primitive operations) and *span* (longest dependency chain) after the fit,
from the sizes its result holds (:func:`fit_cost`), and predicts the
running time on ``P`` processors with the standard work-stealing bound

    T_P = W / P + c * S

where ``c`` is a scheduling-overhead constant.  Self-relative speedup is then
``T_1 / T_P``.  This preserves the shape of the scalability results: larger
prefixes produce fewer rounds (smaller span relative to work) and therefore
scale better, exactly as in the paper.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np


@dataclass
class PhaseCost:
    """Work and span accumulated for one named phase of an algorithm."""

    name: str
    work: float = 0.0
    span: float = 0.0

    def add(self, work: float, span: float) -> None:
        """Accumulate ``work`` and add ``span`` to the critical path."""
        self.work += work
        self.span += span

    def predicted_time(self, num_workers: int, span_overhead: float = 1.0) -> float:
        """Predicted running time on ``num_workers`` processors."""
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        return self.work / num_workers + span_overhead * self.span


class WorkSpanTracker:
    """Accumulates per-phase work/span counters for a run of an algorithm.

    Phases are created lazily by name.  A round-based algorithm (e.g. the
    prefix-batched TMFG) calls :meth:`add` once per round with that round's
    work and span; the tracker sums work and sums span (the rounds are
    sequentially dependent, so spans add).
    """

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseCost] = {}

    def add(self, phase: str, work: float, span: float) -> None:
        """Add ``work``/``span`` to ``phase`` (creating it if necessary)."""
        if phase not in self._phases:
            self._phases[phase] = PhaseCost(phase)
        self._phases[phase].add(work, span)

    def phase(self, name: str) -> PhaseCost:
        """Return the cost record for ``name`` (zero if never recorded)."""
        return self._phases.get(name, PhaseCost(name))

    @property
    def phases(self) -> List[PhaseCost]:
        """All recorded phases, in insertion order."""
        return list(self._phases.values())

    # Totals are left folds from 0.0, not the builtin ``sum``: Python 3.12
    # compensates ``sum`` over floats, which changes the last bits.
    @property
    def total_work(self) -> float:
        return reduce(operator.add, (phase.work for phase in self._phases.values()), 0.0)

    @property
    def total_span(self) -> float:
        return reduce(operator.add, (phase.span for phase in self._phases.values()), 0.0)

    def predicted_time(self, num_workers: int, span_overhead: float = 1.0) -> float:
        """Predicted total running time on ``num_workers`` processors."""
        times = (phase.predicted_time(num_workers, span_overhead) for phase in self._phases.values())
        return reduce(operator.add, times, 0.0)

    def merge(self, other: "WorkSpanTracker") -> None:
        """Fold another tracker's phases into this one."""
        for phase in other.phases:
            self.add(phase.name, phase.work, phase.span)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict view used by the reporting code."""
        return {
            phase.name: {"work": phase.work, "span": phase.span}
            for phase in self._phases.values()
        }


def predicted_speedup(
    tracker: WorkSpanTracker,
    num_workers: int,
    span_overhead: float = 1.0,
    hyperthreading_efficiency: float = 1.0,
) -> float:
    """Self-relative speedup ``T_1 / T_P`` predicted by the cost model.

    ``hyperthreading_efficiency`` < 1 models the paper's observation that
    two-way hyper-threading adds less than 2x capacity; Fig. 4's "48h" point
    uses 96 workers with efficiency ~0.6.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    effective = max(1.0, num_workers * hyperthreading_efficiency)
    t1 = tracker.predicted_time(1, span_overhead)
    tp = tracker.total_work / effective + span_overhead * tracker.total_span
    if tp <= 0:
        return 1.0
    return t1 / tp


def speedup_curve(
    tracker: WorkSpanTracker,
    thread_counts: Iterable[int],
    span_overhead: float = 1.0,
    hyperthreaded_last: bool = False,
) -> List[float]:
    """Speedups for a list of thread counts (mirrors Fig. 4's x-axis).

    If ``hyperthreaded_last`` is true, the final entry is treated as a
    hyper-threaded configuration with reduced per-thread efficiency.
    """
    counts = list(thread_counts)
    curve = []
    for i, count in enumerate(counts):
        efficiency = 0.6 if (hyperthreaded_last and i == len(counts) - 1) else 1.0
        curve.append(predicted_speedup(tracker, count, span_overhead, efficiency))
    return curve


def _round_cost(num_faces: int, num_remaining: int, batch: int) -> Tuple[float, float]:
    """Work and span of one TMFG round: sorting the per-face gains plus
    recomputing gains for the affected and newly created faces (each a
    vectorised O(|V|) scan)."""
    work = float(
        num_faces * max(1.0, math.log2(max(num_faces, 2)))
        + 3 * batch * max(1, num_remaining)
    )
    span = math.log2(max(num_faces, 2)) + math.log2(max(batch, 2)) + 1.0
    return work, span


def fit_cost(tmfg: Any, dbht: Optional[Any] = None) -> WorkSpanTracker:
    """Per-phase work and span of a fit, from its ``TMFGResult`` and
    (optionally) its ``DBHTResult``.

    The phases, in order: ``"tmfg"`` (the initialisation, then one add per
    round), and with ``dbht`` also ``"apsp"``, ``"bubble-tree"`` (the
    direction half, then the assignment half) and ``"hierarchy"``.  A
    round's live faces and remaining vertices follow from the vertices
    inserted before it, because ``GainTable.split`` kills one face and
    registers three per insertion.
    """
    n = tmfg.num_vertices
    tracker = WorkSpanTracker()
    # Initialisation: O(n^2) work for the row sums, O(n) for the gains.
    tracker.add("tmfg", work=float(n * n + 4 * n), span=math.log2(n) + 1 if n > 1 else 1.0)
    inserted = 0
    for batch in tmfg.round_sizes:
        work, span = _round_cost(4 + 2 * inserted, n - 4 - inserted, batch)
        tracker.add("tmfg", work=work, span=span)
        inserted += batch
    if dbht is None:
        return tracker

    tracker.add(
        "apsp",
        work=float(n * n * np.log2(max(n, 2))),
        span=float(np.log2(max(n, 2)) ** 2),
    )

    # Directions: one unit per non-root bubble, along the tree's height.
    tree = tmfg.bubble_tree
    tracker.add("bubble-tree", work=float(tree.num_bubbles - 1), span=float(tree.height() + 1))
    # Assignment: both attachment levels score four members per bubble
    # (converging bubbles, then all), between them the mean distances.
    assignment = dbht.assignment
    work = (
        float(4 * len(assignment.converging_bubbles))
        + float(assignment.distance_terms)
        + float(4 * tree.num_bubbles)
    )
    tracker.add("bubble-tree", work=work, span=float(np.log2(max(n, 2))))

    # Hierarchy: a quadratic linkage per subgroup, per group over its
    # subgroups and over the groups, in the order the levels run.
    groups, subgroups = assignment.groups(), assignment.subgroups()
    work = 0.0
    for group_id in sorted(groups):
        bubbles = sorted(bubble for group, bubble in subgroups if group == group_id)
        for bubble_id in bubbles:
            work += float(len(subgroups[(group_id, bubble_id)]) ** 2)
        work += float(len(bubbles) ** 2)
    work += float(len(groups) ** 2)
    tracker.add("hierarchy", work=work, span=float(np.log2(max(n, 2)) ** 2))
    return tracker

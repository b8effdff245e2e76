"""Tests for the work-span cost model."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import tmfg_dbht
from repro.parallel.cost_model import (
    PhaseCost,
    WorkSpanTracker,
    fit_cost,
    predicted_speedup,
    speedup_curve,
)
from tests.conftest import random_similarity_matrix

#: Work and span (hex floats) of fixed-seed fits and the Fig. 4 curves, as
#: recorded by the tracker the fit functions used to carry; ``fit_cost``
#: must reproduce them bit for bit, phase order included.
WORK_SPAN_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "work_span_model.json").read_text(encoding="utf-8")
)


class TestPhaseCost:
    def test_accumulates_work_and_span(self):
        phase = PhaseCost("tmfg")
        phase.add(100.0, 5.0)
        phase.add(50.0, 2.0)
        assert phase.work == 150.0
        assert phase.span == 7.0

    def test_predicted_time_single_worker_equals_work_plus_span(self):
        phase = PhaseCost("x", work=100.0, span=10.0)
        assert phase.predicted_time(1) == pytest.approx(110.0)

    def test_predicted_time_decreases_with_workers(self):
        phase = PhaseCost("x", work=1000.0, span=10.0)
        assert phase.predicted_time(10) < phase.predicted_time(2)

    def test_predicted_time_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            PhaseCost("x", work=1.0, span=1.0).predicted_time(0)


class TestWorkSpanTracker:
    def test_phases_created_lazily(self):
        tracker = WorkSpanTracker()
        tracker.add("a", 10, 1)
        tracker.add("b", 20, 2)
        tracker.add("a", 5, 1)
        assert tracker.phase("a").work == 15
        assert tracker.phase("b").span == 2
        assert {phase.name for phase in tracker.phases} == {"a", "b"}

    def test_unknown_phase_is_zero(self):
        tracker = WorkSpanTracker()
        assert tracker.phase("missing").work == 0.0

    def test_totals(self):
        tracker = WorkSpanTracker()
        tracker.add("a", 10, 1)
        tracker.add("b", 30, 4)
        assert tracker.total_work == 40
        assert tracker.total_span == 5

    def test_totals_are_left_folds_from_zero(self):
        # 1e16 + 1.0 rounds back to 1e16, so a left fold gives 0.0 where a
        # compensated sum (the builtin sum on Python 3.12+) gives 1.0.
        tracker = WorkSpanTracker()
        for name, value in (("a", 1e16), ("b", 1.0), ("c", -1e16)):
            tracker.add(name, value, value)
        assert tracker.total_work == 0.0
        assert tracker.total_span == 0.0
        assert tracker.predicted_time(1, span_overhead=0.0) == 0.0

    def test_merge_combines_phases(self):
        first = WorkSpanTracker()
        first.add("a", 10, 1)
        second = WorkSpanTracker()
        second.add("a", 5, 2)
        second.add("b", 7, 3)
        first.merge(second)
        assert first.phase("a").work == 15
        assert first.phase("b").work == 7

    def test_as_dict_round_trip(self):
        tracker = WorkSpanTracker()
        tracker.add("apsp", 12.0, 3.0)
        assert tracker.as_dict() == {"apsp": {"work": 12.0, "span": 3.0}}


class TestSpeedupModel:
    def _tracker(self, work: float, span: float) -> WorkSpanTracker:
        tracker = WorkSpanTracker()
        tracker.add("phase", work, span)
        return tracker

    def test_speedup_is_one_for_single_worker(self):
        tracker = self._tracker(1000, 10)
        assert predicted_speedup(tracker, 1) == pytest.approx(1.0)

    def test_speedup_bounded_by_work_over_span(self):
        tracker = self._tracker(1000, 10)
        # T_P >= span, so speedup <= (W + S) / S.
        assert predicted_speedup(tracker, 10 ** 6) <= (1000 + 10) / 10 + 1e-9

    def test_more_span_means_less_speedup(self):
        parallel_friendly = self._tracker(10000, 10)
        sequential_heavy = self._tracker(10000, 1000)
        assert predicted_speedup(parallel_friendly, 48) > predicted_speedup(
            sequential_heavy, 48
        )

    def test_speedup_monotone_in_workers(self):
        tracker = self._tracker(50000, 100)
        speedups = [predicted_speedup(tracker, p) for p in (1, 2, 4, 8, 16)]
        assert speedups == sorted(speedups)

    def test_hyperthreading_efficiency_reduces_speedup(self):
        tracker = self._tracker(50000, 100)
        full = predicted_speedup(tracker, 96, hyperthreading_efficiency=1.0)
        reduced = predicted_speedup(tracker, 96, hyperthreading_efficiency=0.5)
        assert reduced < full

    def test_speedup_curve_length_matches_thread_counts(self):
        tracker = self._tracker(1000, 10)
        curve = speedup_curve(tracker, [1, 2, 4], hyperthreaded_last=True)
        assert len(curve) == 3
        assert curve[0] == pytest.approx(1.0)

    def test_invalid_worker_count_rejected(self):
        tracker = self._tracker(10, 1)
        with pytest.raises(ValueError):
            predicted_speedup(tracker, 0)


class TestFitCostGolden:
    @staticmethod
    def _pinned(cost: WorkSpanTracker) -> list:
        return [[phase.name, phase.work.hex(), phase.span.hex()] for phase in cost.phases]

    @pytest.mark.parametrize(
        "case",
        WORK_SPAN_GOLDEN["fits"],
        ids=lambda case: f"n{case['n']}-prefix{case['prefix']}",
    )
    def test_reproduces_the_pinned_phases(self, case):
        similarity = random_similarity_matrix(case["n"], seed=case["seed"])
        pipeline = tmfg_dbht(similarity, prefix=case["prefix"])
        assert self._pinned(fit_cost(pipeline.tmfg, pipeline.dbht)) == case["phases"]
        # Without the DBHT result only the TMFG phase is modelled.
        assert self._pinned(fit_cost(pipeline.tmfg)) == case["phases"][:1]

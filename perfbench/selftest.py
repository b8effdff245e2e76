"""Tiny-size smoke test of every workload and of the output checks.

Run from the repository root (it is not part of the tier-1 suite, since it
starts real servers)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]

from perfbench import checks  # noqa: E402
from perfbench.report import build_result  # noqa: E402
from perfbench.tracing import SpanRecord, SpanStore  # noqa: E402
from perfbench.hostspeed import REFERENCE_PROBE_MS, Probes  # noqa: E402
from perfbench.load import Phase  # noqa: E402
from perfbench.workloads import TINY, WORKLOADS, Context, Outcome, Replies  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {spec["name"] for spec in DECLARED["end_to_end"]}
PER_LAYER = {spec["name"] for spec in DECLARED["per_layer"]}


def test_declared_workloads_match_the_code():
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload, trace, tmp_path):
    ctx = Context(root=ROOT, out=tmp_path, seed=3, seconds=1.0, trace=trace, sizes=TINY)
    outcome = WORKLOADS[workload](ctx)
    assert outcome.failures == []
    assert all(phase.failed == 0 and phase.sent > 0 for phase in outcome.phases)
    assert set(outcome.metrics) <= END_TO_END | PER_LAYER
    result = build_result(outcome, DECLARED, trace)
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    if trace:
        assert set(result["metrics"]) == PER_LAYER
        assert outcome.spans is not None and outcome.spans.roots() > 0
    else:
        assert set(result["metrics"]) == END_TO_END
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_result_needs_every_end_to_end_metric():
    outcome = Outcome(metrics={"setup_s": 1.0}, phases=[Phase("x", sent=1, succeeded=1)])
    with pytest.raises(RuntimeError, match="op_p50_ms"):
        build_result(outcome, DECLARED, trace=False)


def test_rescaling_uses_the_probes_around_each_stretch_and_spares_timer_waits():
    probes = Probes()
    probes.samples = [10.0, 30.0, 30.0]
    scales = [REFERENCE_PROBE_MS / 20.0, REFERENCE_PROBE_MS / 30.0]
    assert probes.rescale([2.0, 3.0]) == pytest.approx([2.0 * scales[0], 3.0 * scales[1]])
    replies = Replies()
    replies.seconds = [0.05, 0.03]
    replies.serving = [{"queue_seconds": 0.0}, {"queue_seconds": 0.01}]
    assert replies.rescaled(1, 0.5) == pytest.approx([0.01 + 0.02 * 0.5])


def test_label_check_catches_a_moved_vertex():
    labels = np.array([0, 0, 1, 1])
    assert checks.same_labels("x", labels, labels.copy()) == []
    assert checks.same_labels("x", labels, np.array([0, 1, 1, 1])) != []


def test_served_check_separates_timings_from_outputs():
    reference = {"labels": [0, 1], "step_seconds": {"tmfg": 1.0}, "extras": {"rounds": 2}}
    retimed = {**reference, "step_seconds": {"tmfg": 2.0}}
    relabelled = {**reference, "labels": [1, 1]}
    assert checks.served_matches("x", reference, [retimed]) == []
    assert checks.served_matches("x", reference, [retimed], identical_to=reference) != []
    assert checks.served_matches("x", reference, [relabelled]) != []
    assert checks.served_matches("x", reference, [None]) != []


def test_hit_rate_check_fails_on_any_miss():
    assert checks.full_hit_rate("x", {"cache.hits": 5, "cache.misses": 0}) == []
    assert checks.full_hit_rate("x", {"cache.hits": 5, "cache.misses": 1}) != []
    assert checks.full_hit_rate("x", {"cache.hits": 0, "cache.misses": 0}) != []


def test_self_time_subtracts_the_union_of_children():
    store = SpanStore()
    store.add(SpanRecord("t", "root", None, "client.request", "serve", 0.0, 10.0))
    store.add(SpanRecord("t", "a", "root", "serve.queue", "cache", 2.0, 4.0))
    store.add(SpanRecord("t", "b", "root", "serve.batch_fit", "cache", 3.0, 6.0))
    self_seconds = store.self_seconds()
    assert self_seconds["serve"] == pytest.approx(6.0)
    assert self_seconds["cache"] == pytest.approx(5.0)
    assert store.roots() == 1


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, a run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout

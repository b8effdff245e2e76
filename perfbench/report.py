"""The result line the benchmark prints and the report file it keeps."""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import numpy as np
import scipy

from perfbench.workloads import Context, Outcome


def build_result(outcome: Outcome, declared: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """``{"correct", "attempted", "failed", "metrics"}``.

    Untraced runs report every declared end-to-end metric, which every
    workload measures; traced runs report every declared per-layer metric,
    0 for a layer the workload does not exercise.
    """
    attempted = sum(phase.sent for phase in outcome.phases)
    if attempted == 0:
        outcome.failures.append("no operation was attempted")
    if trace:
        metrics = {
            spec["name"]: {"value": float(outcome.metrics.get(spec["name"], 0.0)), "unit": spec["unit"]}
            for spec in declared["per_layer"]
        }
    else:
        missing = [s["name"] for s in declared["end_to_end"] if s["name"] not in outcome.metrics]
        if missing:
            raise RuntimeError(f"the workload measured no {', '.join(missing)}")
        metrics = {
            spec["name"]: {"value": float(outcome.metrics[spec["name"]]), "unit": spec["unit"]}
            for spec in declared["end_to_end"]
        }
    return {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": sum(phase.failed for phase in outcome.phases),
        "metrics": metrics,
    }


def provenance(ctx: Context, workload: str) -> Dict[str, Any]:
    from benchlib import provenance as host_provenance

    return {
        **host_provenance(),
        "workload": workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def write_report(
    ctx: Context, workload: str, outcome: Outcome, result: Dict[str, Any], probes: List[float]
) -> None:
    """Keep the full record under ``out/`` and print the per-phase
    operation accounting and any failed check to stderr."""
    failures = outcome.failures
    attempted = result["attempted"]
    phases = [phase.accounting() for phase in outcome.phases]
    report = {
        "provenance": {**provenance(ctx, workload), "host_probe_ms_before_after": probes},
        "result": result,
        "error_rate": result["failed"] / attempted if attempted else None,
        "phases": phases,
        "failures": failures,
        "all_metrics": outcome.metrics,
        "notes": outcome.notes,
        "latencies_ms": {
            phase.name: [round(1000.0 * seconds, 3) for seconds in phase.latencies]
            for phase in outcome.phases
        },
    }
    tag = f"{workload}-seed{ctx.seed}-trace{int(ctx.trace)}"
    ctx.out.mkdir(parents=True, exist_ok=True)
    (ctx.out / f"{tag}.json").write_text(json.dumps(report, indent=2, default=float) + "\n")
    if outcome.spans is not None:
        outcome.spans.write(ctx.out / f"{tag}.spans.jsonl")
    for phase in phases:
        print(
            f"{phase['phase']:>20}: sent {phase['sent']}, succeeded {phase['succeeded']}, "
            f"failed {phase['failed']} (429: {phase['rejected_429']})",
            file=sys.stderr,
        )
    print(f"{'error_rate':>20}: {report['error_rate']}", file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

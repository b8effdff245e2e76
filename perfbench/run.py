"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` runs the workload's traced variant and reports the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line is ``{"correct", "attempted", "failed", "metrics"}``; a full
report (provenance, per-phase operation accounting, check failures) and,
for traced runs, the span log go to ``perfbench/out/``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Every run must end well inside the three minutes a run is allowed.
WATCHDOG_SECONDS = 170


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]


def _declared() -> Dict[str, List[Dict[str, Any]]]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _on_watchdog(signum, frame) -> None:
    raise TimeoutError(f"benchmark run exceeded {WATCHDOG_SECONDS}s")


def _on_terminate(signum, frame) -> None:
    # Unwinding runs the workloads' cleanup, which stops their servers.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from perfbench.hostspeed import probe_ms
    from perfbench.report import build_result, write_report
    from perfbench.workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    ctx = Context(root=ROOT, out=OUT, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        probes = [probe_ms()]
        outcome = WORKLOADS[args.workload](ctx)
        probes.append(probe_ms())
    finally:
        signal.alarm(0)
    result = build_result(outcome, _declared(), bool(args.trace))
    write_report(ctx, args.workload, outcome, result, probes)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

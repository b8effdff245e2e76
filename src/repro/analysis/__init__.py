"""Static analysis: the repo's correctness discipline as executable rules.

The codebase's value rests on invariants that code review alone cannot
keep enforcing across refactors:

* **byte-identity** across cache hits and transports;
* **cache-key coherence** — every :class:`~repro.api.config.ClusteringConfig`
  knob participates in the result-cache fingerprint or is explicitly
  excluded (and every knob is reachable from the CLI);
* **zero-copy** on the wire -> cache hot path;
* a **never-block** asyncio serving loop (fits go through the executor);
* **no silently swallowed exceptions** on the supervisor/router restart
  paths.

This package is a small stdlib-``ast`` analysis engine
(:mod:`repro.analysis.engine`) plus a rule pack
(:mod:`repro.analysis.rules`) that mechanically checks those invariants.
It is wired into the CLI as ``repro lint`` (:mod:`repro.analysis.cli`)
and gated in CI, so a refactor that breaks an invariant fails the build
instead of waiting for a reviewer to notice.

Design constraints:

* **stdlib-only** — importing :mod:`repro.analysis` (and running
  ``python -m repro lint``) must never import numpy/scipy, so the CI
  lint job runs on a bare interpreter;
* **suppressable** — a deliberate violation carries an inline
  ``# repro: allow[rule-id]`` pragma with a justification next to it;
* **baselinable** — ``--baseline`` accepts a JSON file of known
  findings so a new rule can land before its last fixes do.

Quickstart::

    python -m repro lint                 # lint the installed package
    python -m repro lint src/repro --json report.json
    python -m repro lint --list-rules
"""

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.engine import LintResult, ModuleInfo, Project, run_lint
from repro.analysis.findings import Finding
from repro.analysis.pragmas import PRAGMA_SYNTAX, allowed_rules_by_line
from repro.analysis.report import REPORT_VERSION, render_json, render_text
from repro.analysis.rules import Rule, available_rules, default_rules, register_rule

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "PRAGMA_SYNTAX",
    "Project",
    "REPORT_VERSION",
    "Rule",
    "allowed_rules_by_line",
    "available_rules",
    "default_rules",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]

"""Shared output plumbing for the ``bench_*.py`` scripts.

Every benchmark that emits machine-readable output writes it under
``benchmarks/results/`` through :func:`write_report`, so the sweep/report
tooling has exactly one directory to look in.  A script's ``--json PATH``
flag still overrides the destination (pass it as ``override``).

Every report is stamped with run provenance (git commit, hostname, CPU
count) so a number in ``results/`` can always be traced back to the code
and machine that produced it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
from pathlib import Path
from typing import Optional

RESULTS_DIR = Path(__file__).parent / "results"


def results_path(name: str) -> Path:
    """``benchmarks/results/<name>`` (creating the directory if needed)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR / name


def _git(*args: str) -> Optional[subprocess.CompletedProcess]:
    try:
        return subprocess.run(
            ["git", *args], capture_output=True, text=True, timeout=10, cwd=Path(__file__).parent
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


def _git_sha() -> Optional[str]:
    """The repo's HEAD commit, suffixed ``-dirty`` when tracked files differ
    from it (the numbers then belong to no commit); ``None`` outside a
    checkout or without git."""
    head = _git("rev-parse", "HEAD")
    if head is None or head.returncode != 0 or not head.stdout.strip():
        return None
    diff = _git("diff", "--quiet", "HEAD")
    dirty = diff is not None and diff.returncode == 1
    return head.stdout.strip() + ("-dirty" if dirty else "")


def provenance() -> dict:
    """Where and on what this benchmark ran: commit, host, CPU budget."""
    return {
        "git_sha": _git_sha(),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
    }


def write_report(name: str, report: dict, override: Optional[str] = None) -> Path:
    """Write ``report`` as JSON to the results dir (or ``override``).

    The document is stamped with a ``provenance`` block (git SHA,
    hostname, cpu_count) unless the report already carries one.  Prints
    the document to stdout as well — the scripts' historical behaviour —
    and returns the path written.
    """
    if "provenance" not in report:
        report = {**report, "provenance": provenance()}
    path = Path(override) if override else results_path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, indent=2)
    path.write_text(text + "\n", encoding="utf-8")
    print(text)
    return path

"""Import-graph guard for the serving stack, and fresh-interpreter CLI runs.

Every ``repro serve`` process (direct server, fleet router, each replica)
starts as ``python -m repro``, so whatever :mod:`repro.cli` imports at module
scope is paid on every cold start.  The guard below pins the modules the
serving stack must not load; the CLI runs below prove the commands whose
helpers ``repro.cli`` now imports inside the command still work when the
command itself is the first thing to import them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import FIGURE_ENTRY_POINTS
from repro.datasets.synthetic import make_time_series_dataset

SRC_DIR = Path(repro.__file__).resolve().parent.parent

#: Modules no serving process needs: the figure harness, the baselines, the
#: streaming runner, the AMI metric (which drags in scipy.special and,
#: through it, numpy.f2py) and the lint engine.
SERVING_MUST_NOT_IMPORT = (
    "repro.analysis",
    "scipy",
    "numpy.f2py",
    "repro.experiments",
    "repro.baselines",
    "repro.streaming",
    "repro.metrics.ami",
)


def _fresh_python(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def _repro(args, cwd=None):
    completed = _fresh_python(["-m", "repro", *args], cwd=cwd)
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestServingImportGraph:
    def test_serving_stack_imports_no_offline_modules(self):
        probe = (
            "import json, sys\n"
            "import repro.cli, repro.serve.server, repro.serve.fleet\n"
            # `lint` is a help-only subparser: building the parser must not
            # import the lint engine.
            "repro.cli.build_parser()\n"
            f"banned = {list(SERVING_MUST_NOT_IMPORT)!r}\n"
            "print(json.dumps([name for name in banned if name in sys.modules]))\n"
        )
        completed = _fresh_python(["-c", probe])
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == []


@pytest.fixture
def series_csv(tmp_path):
    dataset = make_time_series_dataset(24, 32, 3, noise=0.8, seed=2)
    path = tmp_path / "series.csv"
    np.savetxt(path, dataset.data, delimiter=",")
    return path


class TestFreshInterpreterCommands:
    """Each command runs in a new interpreter, so the helper it imports
    lazily is resolved by the command itself."""

    def test_list_figures_keeps_its_order_and_every_name_resolves(self):
        from repro.experiments import figures

        assert _repro(["list-figures"]).split() == list(FIGURE_ENTRY_POINTS)
        for function_name in FIGURE_ENTRY_POINTS.values():
            assert callable(getattr(figures, function_name))

    def test_figure_appendix(self):
        out = _repro(["figure", "appendix"])
        assert "Appendix" in out and "ARI" in out

    def test_stream(self, series_csv):
        out = _repro(
            ["stream", str(series_csv), "--clusters", "3", "--window", "20",
             "--hop", "6", "--max-ticks", "2"]
        )
        assert "Streaming TMFG+DBHT (window=20, hop=6)" in out
        assert "ticks: 2" in out

    def test_cluster_newick(self, series_csv, tmp_path):
        newick = tmp_path / "tree.nwk"
        out = _repro(
            ["cluster", str(series_csv), "--clusters", "3", "--prefix", "2",
             "--newick", str(newick)]
        )
        assert f"wrote Newick tree to {newick}" in out
        assert newick.read_text().strip().endswith(";")

    def test_trace(self, tmp_path):
        event = {
            "schema": 1, "trace_id": "t1", "span_id": "a", "parent_id": None,
            "kind": "server.request", "start_unix": 100.0, "duration_ms": 2.0,
            "error": False, "pid": 1, "attributes": {},
        }
        log = tmp_path / "trace.jsonl"
        log.write_text(json.dumps(event) + "\n", encoding="utf-8")
        out = _repro(["trace", str(log)])
        assert "trace t1" in out and "1 event(s), 1 trace(s)" in out

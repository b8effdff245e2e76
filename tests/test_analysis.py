"""Tests for the repro.analysis invariant checker (`repro lint`).

Each rule is exercised three ways against fixture snippets: a seeded
violation is detected, an inline ``# repro: allow[rule-id]`` pragma
suppresses it, and a clean variant passes.  On top of the per-rule
matrix: CLI exit codes (0 clean / 1 findings / 2 usage error), JSON
report round-trips, baseline files, the config-fingerprint regression
(a dummy field added to a fixture copy of the real config is caught),
the numpy-free import guarantee, and the meta-test that HEAD lints
clean.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Finding,
    available_rules,
    default_rules,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import iter_python_files

SRC_DIR = Path(repro.__file__).resolve().parent.parent
PACKAGE_DIR = SRC_DIR / "repro"


def lint_source(tmp_path, source, *, relpath="fixture.py", rules=None):
    """Write ``source`` into the tmp tree and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([str(tmp_path)], rule_ids=rules)


class TestRulePack:
    def test_rule_catalogue_is_the_documented_pack(self):
        assert available_rules() == (
            "async-blocking",
            "config-fingerprint",
            "hot-path-copy",
            "lock-across-await",
            "span-unclosed",
            "swallowed-exception",
        )
        assert [rule.id for rule in default_rules()] == list(available_rules())


class TestAsyncBlocking:
    def test_time_sleep_in_async_def_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)
            """,
            rules=["async-blocking"],
        )
        assert [f.rule for f in result.reported] == ["async-blocking"]
        assert "time.sleep" in result.reported[0].message

    def test_subprocess_open_and_fit_are_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import subprocess

            async def handler(estimator, payload):
                subprocess.run(["ls"])
                with open("x") as fh:
                    fh.read()
                estimator.fit(payload)
            """,
            rules=["async-blocking"],
        )
        messages = " / ".join(f.message for f in result.reported)
        assert len(result.reported) == 3
        assert "subprocess.run" in messages
        assert "open" in messages
        assert ".fit" in messages

    def test_estimator_halves_on_the_loop_are_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            async def handler(estimator, matrix):
                key, cached = estimator.lookup(matrix)
                if cached is None:
                    cached = estimator.compute(matrix, key).result_
                return cached
            """,
            rules=["async-blocking"],
        )
        messages = [f.message for f in result.reported]
        assert len(messages) == 2, messages
        assert any(".lookup()" in message for message in messages)
        assert any(".compute()" in message for message in messages)

    def test_fingerprinting_on_the_loop_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            from repro.cache import fingerprint
            from repro.cache import result_cache_key

            async def handler(config, matrix):
                key = result_cache_key(config, matrix)
                return key, fingerprint.matrix_fingerprint(matrix)
            """,
            rules=["async-blocking"],
        )
        messages = [f.message for f in result.reported]
        assert len(messages) == 2, messages
        assert any("result_cache_key()" in message for message in messages)
        assert any("matrix_fingerprint()" in message for message in messages)
        assert all("event loop" in message for message in messages)

    def test_fingerprinting_in_an_executor_lambda_passes(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import asyncio

            from repro.cache import matrix_fingerprint, result_cache_key

            async def handler(config, matrix):
                loop = asyncio.get_running_loop()
                key = await loop.run_in_executor(
                    None, lambda: result_cache_key(config, matrix)
                )
                digest = await loop.run_in_executor(None, lambda: matrix_fingerprint(matrix))
                return key, digest
            """,
            rules=["async-blocking"],
        )
        assert result.ok, [f.message for f in result.findings]

    def test_pragma_suppresses(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)  # repro: allow[async-blocking]
            """,
            rules=["async-blocking"],
        )
        assert result.ok
        assert len(result.suppressed) == 1

    def test_clean_async_and_sync_variants_pass(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import asyncio
            import time

            async def handler():
                await asyncio.sleep(0.1)
                proc = await asyncio.subprocess.create_subprocess_exec("ls")
                reader, writer = await asyncio.open_connection("h", 1)

                def executor_job():
                    # A sync closure shipped to run_in_executor may block.
                    time.sleep(0.1)

                return executor_job

            def plain():
                time.sleep(0.1)
            """,
            rules=["async-blocking"],
        )
        assert result.ok, [f.message for f in result.findings]


class TestLockAcrossAwait:
    def test_sync_lock_with_block_spanning_await_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import threading

            _lock = threading.Lock()

            async def handler(queue):
                with _lock:
                    await queue.get()
            """,
            rules=["lock-across-await"],
        )
        assert [f.rule for f in result.reported] == ["lock-across-await"]

    def test_acquire_release_spanning_await_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            async def handler(self, queue):
                self.lock.acquire()
                await queue.get()
                self.lock.release()
            """,
            rules=["lock-across-await"],
        )
        assert len(result.reported) == 1

    def test_pragma_suppresses(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import threading

            _lock = threading.Lock()

            async def handler(queue):
                with _lock:  # repro: allow[lock-across-await]
                    await queue.get()
            """,
            rules=["lock-across-await"],
        )
        assert result.ok and len(result.suppressed) == 1

    def test_async_lock_and_released_before_await_pass(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import asyncio

            _alock = asyncio.Lock()

            async def handler(self, queue):
                async with _alock:
                    await queue.get()
                self.lock.acquire()
                self.counter += 1
                self.lock.release()
                await queue.get()
            """,
            rules=["lock-across-await"],
        )
        assert result.ok, [f.message for f in result.findings]


class TestHotPathCopy:
    def test_copies_in_hot_files_are_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import numpy as np

            def encode(array):
                contiguous = np.ascontiguousarray(array)
                duplicate = np.array(array)
                raw = array.tobytes()
                return contiguous, duplicate, raw
            """,
            relpath="serve/wire.py",
            rules=["hot-path-copy"],
        )
        assert len(result.reported) == 3
        assert {f.rule for f in result.reported} == {"hot-path-copy"}

    def test_same_code_outside_hot_paths_passes(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import numpy as np

            def encode(array):
                return np.ascontiguousarray(array), array.tobytes()
            """,
            relpath="experiments/figures.py",
            rules=["hot-path-copy"],
        )
        assert result.ok

    def test_pragma_and_copy_false_pass(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import numpy as np

            def fingerprint(array):
                view = np.array(array, copy=False)
                raw = array.tobytes()  # repro: allow[hot-path-copy]
                return view, raw
            """,
            relpath="cache/fingerprint.py",
            rules=["hot-path-copy"],
        )
        assert result.ok and len(result.suppressed) == 1

    def test_every_hot_path_suffix_names_an_existing_module(self):
        from repro.analysis.rules.hot_path import HOT_PATH_SUFFIXES

        missing = [s for s in HOT_PATH_SUFFIXES if not (PACKAGE_DIR / s).is_file()]
        assert not missing, f"hot-path-copy watches deleted modules: {missing}"


class TestSwallowedException:
    def test_silent_broad_handler_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def probe(task):
                try:
                    task()
                except Exception:
                    pass
                try:
                    task()
                except:
                    return None
            """,
            rules=["swallowed-exception"],
        )
        assert len(result.reported) == 2
        assert "bare except" in result.reported[1].message

    def test_handlers_that_surface_the_error_pass(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import logging

            def probe(task, stats):
                try:
                    task()
                except Exception:
                    logging.exception("task failed")
                try:
                    task()
                except Exception:
                    stats.errors += 1
                try:
                    task()
                except Exception as error:
                    return {"error": str(error)}
                try:
                    task()
                except Exception:
                    raise
                try:
                    task()
                except OSError:
                    pass
            """,
            rules=["swallowed-exception"],
        )
        assert result.ok, [f.message for f in result.findings]

    def test_pragma_suppresses(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def probe(task):
                try:
                    task()
                except Exception:  # repro: allow[swallowed-exception] - availability probe
                    return False
                return True
            """,
            rules=["swallowed-exception"],
        )
        assert result.ok and len(result.suppressed) == 1


class TestSpanUnclosed:
    def test_assigned_span_never_closed_is_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def leak(tracer):
                span = tracer.start_span("work")
                span.set_attribute("k", 1)
            """,
            rules=["span-unclosed"],
        )
        assert [f.rule for f in result.reported] == ["span-unclosed"]
        assert "'span'" in result.reported[0].message

    def test_bare_expression_and_argument_position_are_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def fire_and_forget(tracer, registry):
                tracer.start_span("a")
                registry.append(tracer.start_span("b"))
            """,
            rules=["span-unclosed"],
        )
        assert len(result.reported) == 2

    def test_cross_function_handoff_is_flagged(self, tmp_path):
        # The rule tracks one function at a time: a span assigned here but
        # ended elsewhere must be spelled as a return or pragma'd.
        result = lint_source(
            tmp_path,
            """\
            def start(tracer, box):
                box.span = tracer.start_span("work")

            def finish(box):
                box.span.end()
            """,
            rules=["span-unclosed"],
        )
        assert len(result.reported) == 1

    def test_pragma_suppresses(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def handoff(tracer, registry):
                registry.append(tracer.start_span("a"))  # repro: allow[span-unclosed]
            """,
            rules=["span-unclosed"],
        )
        assert result.ok
        assert len(result.suppressed) == 1

    def test_closed_spellings_pass(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def context_manager(tracer):
                with tracer.start_span("a"):
                    pass

            async def async_context_manager(tracer):
                async with tracer.start_span("b"):
                    pass

            def explicit_end(tracer):
                span = tracer.start_span("c")
                try:
                    pass
                finally:
                    span.end()

            def returned_directly(tracer):
                return tracer.start_span("d")

            def returned_by_name(tracer):
                span = tracer.start_span("e")
                span.set_attribute("k", 1)
                return span

            def entered_by_name(tracer):
                span = tracer.start_span("f")
                with span:
                    pass
            """,
            rules=["span-unclosed"],
        )
        assert result.ok
        assert not result.reported


COHERENT_CONFIG = """\
class ClusteringConfig:
    method: str = "tmfg-dbht"
    prefix: int = 1
    cache: bool = False
    seed: int = 0
"""

COHERENT_FINGERPRINT = """\
CACHE_KNOB_FIELDS = ("cache",)
FINGERPRINT_FIELDS = ("method", "prefix", "seed")
"""

COHERENT_CLI = """\
_FLAG_SPELLINGS = (
    ("method", "--method"),
    ("prefix", "--prefix"),
)

_CONFIG_FILE_ONLY_FIELDS = ("seed",)


def _config_from_args(args, base):
    changes = {}
    if args.method is not None:
        changes["method"] = args.method
    if args.prefix is not None:
        changes["prefix"] = args.prefix
    if args.no_cache:
        changes["cache"] = False
    return base.replace(**changes)
"""


def write_coherence_tree(tmp_path, config=COHERENT_CONFIG, fingerprint=COHERENT_FINGERPRINT, cli=COHERENT_CLI):
    (tmp_path / "config.py").write_text(config, encoding="utf-8")
    (tmp_path / "fingerprint.py").write_text(fingerprint, encoding="utf-8")
    (tmp_path / "cli.py").write_text(cli, encoding="utf-8")


class TestConfigFingerprintCoherence:
    def test_coherent_fixture_tree_passes(self, tmp_path):
        write_coherence_tree(tmp_path)
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert result.ok, [f.message for f in result.findings]

    def test_field_missing_from_fingerprint_and_cli_is_flagged(self, tmp_path):
        write_coherence_tree(
            tmp_path, config=COHERENT_CONFIG + "    new_knob: float = 0.5\n"
        )
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        messages = [f.message for f in result.reported]
        assert len(messages) == 2
        assert any("neither consumed by the cache fingerprint" in m for m in messages)
        assert any("no CLI wiring" in m for m in messages)
        assert all("new_knob" in m for m in messages)

    def test_stale_fingerprint_entry_is_flagged(self, tmp_path):
        write_coherence_tree(
            tmp_path,
            fingerprint='CACHE_KNOB_FIELDS = ("cache",)\nFINGERPRINT_FIELDS = ("method", "prefix", "seed", "retired")\n',
        )
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert [f.rule for f in result.reported] == ["config-fingerprint"]
        assert "retired" in result.reported[0].message

    def test_field_in_both_tuples_is_flagged(self, tmp_path):
        write_coherence_tree(
            tmp_path,
            fingerprint='CACHE_KNOB_FIELDS = ("cache",)\nFINGERPRINT_FIELDS = ("method", "prefix", "seed", "cache")\n',
        )
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert any("never both" in f.message for f in result.reported)

    def test_missing_fingerprint_fields_tuple_is_flagged(self, tmp_path):
        write_coherence_tree(tmp_path, fingerprint='CACHE_KNOB_FIELDS = ("cache",)\n')
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert any("FINGERPRINT_FIELDS is missing" in f.message for f in result.reported)

    def test_config_file_only_overlap_with_flag_is_flagged(self, tmp_path):
        write_coherence_tree(
            tmp_path,
            cli=COHERENT_CLI.replace(
                '_CONFIG_FILE_ONLY_FIELDS = ("seed",)',
                '_CONFIG_FILE_ONLY_FIELDS = ("seed", "method")',
            ).replace(
                'FINGERPRINT_FIELDS', 'FINGERPRINT_FIELDS'
            ),
        )
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert any("drop the exclusion" in f.message for f in result.reported)

    def test_dummy_field_in_copy_of_real_tree_is_caught(self, tmp_path):
        """The acceptance regression: copy the real config/fingerprint/cli
        modules, add one dataclass field to the copy, and the rule must
        flag both the fingerprint gap and the missing CLI wiring."""
        for relpath in ("api/config.py", "cache/fingerprint.py", "cli.py"):
            source = (PACKAGE_DIR / relpath).read_text(encoding="utf-8")
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        config_copy = tmp_path / "api/config.py"
        source = config_copy.read_text(encoding="utf-8")
        marker = "    method: str = DEFAULT_METHOD\n"
        assert marker in source, "config.py's first dataclass field moved; update the test"
        patched = source.replace(marker, marker + "    dummy_knob: float = 0.125\n", 1)
        config_copy.write_text(patched, encoding="utf-8")
        clean = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        messages = [f.message for f in clean.reported]
        assert len(messages) == 2, messages
        assert all("dummy_knob" in m for m in messages)

    def test_unpatched_copy_of_real_tree_passes(self, tmp_path):
        for relpath in ("api/config.py", "cache/fingerprint.py", "cli.py"):
            source = (PACKAGE_DIR / relpath).read_text(encoding="utf-8")
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source, encoding="utf-8")
        result = run_lint([str(tmp_path)], rule_ids=["config-fingerprint"])
        assert result.ok, [f.message for f in result.findings]


class TestPragmas:
    def test_wildcard_pragma_suppresses_any_rule(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)  # repro: allow[*]
            """,
            rules=["async-blocking"],
        )
        assert result.ok and len(result.suppressed) == 1

    def test_pragma_inside_string_literal_does_not_suppress(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1); note = "# repro: allow[async-blocking]"
                return note
            """,
            rules=["async-blocking"],
        )
        assert not result.ok
        assert len(result.reported) == 1

    def test_pragma_for_a_different_rule_does_not_suppress(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)  # repro: allow[hot-path-copy]
            """,
            rules=["async-blocking"],
        )
        assert not result.ok


class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n    pass\n")
        assert [f.rule for f in result.reported] == ["parse-error"]
        assert not result.ok

    def test_pycache_and_non_python_files_are_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("def broken(:", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not python", encoding="utf-8")
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        files = list(iter_python_files([str(tmp_path)]))
        assert files == [str(tmp_path / "ok.py")]

    def test_unknown_rule_and_missing_path_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint([str(tmp_path)], rule_ids=["no-such-rule"])
        with pytest.raises(ValueError, match="no such file"):
            run_lint([str(tmp_path / "missing")])

    def test_finding_json_round_trip(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)
            """,
        )
        document = json.loads(json.dumps(render_json(result)))
        assert document["version"] == 1
        assert document["ok"] is False
        assert document["counts"]["reported"] == 1
        restored = [Finding.from_dict(payload) for payload in document["findings"]]
        assert restored == result.findings
        with pytest.raises(ValueError, match="unknown Finding keys"):
            Finding.from_dict({**document["findings"][0], "surprise": 1})

    def test_render_text_includes_location_and_summary(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)
            """,
        )
        text = render_text(result)
        assert "fixture.py:4:" in text
        assert "[async-blocking]" in text
        assert "1 finding(s)" in text


class TestBaseline:
    def test_baseline_tolerates_known_findings(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)
            """,
        )
        assert not result.ok
        baseline_path = tmp_path / "baseline.json"
        assert write_baseline(str(baseline_path), result.findings) == 1
        rerun = run_lint([str(tmp_path)], baseline=load_baseline(str(baseline_path)))
        assert rerun.ok
        assert len(rerun.baselined) == 1

    def test_baseline_keys_survive_line_shifts(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(0.1)
            """,
        )
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), result.findings)
        shifted = "# a new comment line\n" + (tmp_path / "fixture.py").read_text(
            encoding="utf-8"
        )
        (tmp_path / "fixture.py").write_text(shifted, encoding="utf-8")
        rerun = run_lint([str(tmp_path)], baseline=load_baseline(str(baseline_path)))
        assert rerun.ok

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(ValueError, match="bad baseline file"):
            load_baseline(str(bad))


class TestLintCli:
    def seed_violation(self, tmp_path, rule):
        snippets = {
            "async-blocking": "import time\n\nasync def handler():\n    time.sleep(0.1)\n",
            "lock-across-await": (
                "import threading\n\n_lock = threading.Lock()\n\n"
                "async def handler(queue):\n    with _lock:\n        await queue.get()\n"
            ),
            "hot-path-copy": "def encode(array):\n    return array.tobytes()\n",
            "swallowed-exception": (
                "def probe(task):\n    try:\n        task()\n"
                "    except Exception:\n        pass\n"
            ),
            "config-fingerprint": (
                COHERENT_CONFIG + "    unwired: int = 3\n"
            ),
            "span-unclosed": (
                "def leak(tracer):\n"
                "    span = tracer.start_span('work')\n"
                "    span.set_attribute('k', 1)\n"
            ),
        }
        relpath = "serve/wire.py" if rule == "hot-path-copy" else "fixture.py"
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(snippets[rule], encoding="utf-8")
        if rule == "config-fingerprint":
            write_coherence_tree(tmp_path, config=snippets[rule])

    @pytest.mark.parametrize("rule", sorted(available_rules()))
    def test_exits_nonzero_on_each_seeded_rule_violation(self, tmp_path, rule, capsys):
        self.seed_violation(tmp_path, rule)
        exit_code = lint_main([str(tmp_path), "--rules", rule])
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert f"[{rule}]" in captured

    def test_exits_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2
        assert lint_main([str(tmp_path), "--rules", "bogus"]) == 2
        bad = tmp_path / "bad-baseline.json"
        bad.write_text("[]", encoding="utf-8")
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--baseline", str(bad)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in available_rules():
            assert rule in out

    def test_json_report_to_stdout_and_file(self, tmp_path, capsys):
        (tmp_path / "fixture.py").write_text(
            "import time\n\nasync def handler():\n    time.sleep(0.1)\n",
            encoding="utf-8",
        )
        assert lint_main([str(tmp_path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts"]["reported"] == 1
        report_path = tmp_path / "report.json"
        assert lint_main([str(tmp_path), "--json", str(report_path)]) == 1
        on_disk = json.loads(report_path.read_text(encoding="utf-8"))
        assert on_disk["findings"] == document["findings"]

    def test_write_baseline_then_lint_with_it(self, tmp_path, capsys):
        (tmp_path / "fixture.py").write_text(
            "import time\n\nasync def handler():\n    time.sleep(0.1)\n",
            encoding="utf-8",
        )
        baseline_path = tmp_path / "baseline.json"
        assert lint_main([str(tmp_path), "--write-baseline", str(baseline_path)]) == 0
        assert lint_main([str(tmp_path), "--baseline", str(baseline_path)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out


class TestHeadIsClean:
    def test_repro_lint_is_clean_on_head(self):
        """The meta-test: the shipped tree must pass its own checker."""
        result = run_lint([str(PACKAGE_DIR)])
        assert result.ok, "\n" + render_text(result)
        assert result.files_checked > 80
        # The deliberate, justified suppressions on HEAD stay accounted:
        # growing this number needs a reason in review.
        assert len(result.suppressed) == 3

    def test_lint_runs_without_numpy(self, tmp_path):
        """`python -m repro lint` must work on a bare interpreter: the CI
        lint job installs no numpy, and this subprocess proves importing
        repro + the analysis engine never touches it."""
        stub_dir = tmp_path / "stubs"
        stub_dir.mkdir()
        (stub_dir / "numpy.py").write_text(
            'raise ImportError("numpy must not be imported by repro lint")\n',
            encoding="utf-8",
        )
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(stub_dir), str(SRC_DIR)])
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "0 finding(s)" in completed.stdout

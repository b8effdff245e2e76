"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import FIGURE_ENTRY_POINTS, build_parser, main
from repro.datasets.stocks import generate_regime_switching_stream
from repro.datasets.synthetic import make_time_series_dataset


@pytest.fixture
def data_csv(tmp_path):
    dataset = make_time_series_dataset(30, 40, 3, noise=0.8, seed=2)
    path = tmp_path / "series.csv"
    np.savetxt(path, dataset.data, delimiter=",")
    return path, dataset


class TestClusterCommand:
    def test_writes_labels_file(self, data_csv, tmp_path, capsys):
        path, dataset = data_csv
        out = tmp_path / "labels.txt"
        exit_code = main(
            ["cluster", str(path), "--clusters", "3", "--prefix", "2", "--out", str(out)]
        )
        assert exit_code == 0
        labels = np.loadtxt(out, dtype=int)
        assert labels.shape == (30,)
        assert len(np.unique(labels)) == 3

    def test_prints_labels_without_out(self, data_csv, capsys):
        path, _ = data_csv
        assert main(["cluster", str(path), "--clusters", "2"]) == 0
        captured = capsys.readouterr().out
        assert "clusters: 2" in captured

    def test_newick_export(self, data_csv, tmp_path):
        path, _ = data_csv
        newick_path = tmp_path / "tree.nwk"
        main(
            [
                "cluster",
                str(path),
                "--clusters",
                "3",
                "--newick",
                str(newick_path),
            ]
        )
        text = newick_path.read_text()
        assert text.strip().endswith(";")
        assert text.count("(") == text.count(")")

    def test_npy_input_and_precomputed_similarity(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0, 1, size=(12, 12))
        similarity = (raw + raw.T) / 2
        np.fill_diagonal(similarity, 1.0)
        path = tmp_path / "similarity.npy"
        np.save(path, similarity)
        assert main(["cluster", str(path), "--clusters", "2", "--precomputed"]) == 0

    def test_invalid_input_shape_rejected(self, tmp_path):
        path = tmp_path / "one_dim.csv"
        np.savetxt(path, np.arange(5.0), delimiter=",")
        with pytest.raises(ValueError):
            main(["cluster", str(path), "--clusters", "2"])


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestDeletedExecutionFlags:
    """No subcommand takes a per-fit APSP, kernel or pool flag."""

    @pytest.mark.parametrize(
        "flag, value",
        [("--kernel", "numpy"), ("--apsp-method", "dijkstra"), ("--landmarks", "8"),
         ("--backend", "thread"), ("--workers", "2")],
    )
    def test_rejected_by_cluster_and_stream(self, data_csv, flag, value, capsys):
        path, _ = data_csv
        for command in (["cluster", str(path), "--clusters", "2"],
                        ["stream", str(path), "--clusters", "2", "--window", "20"]):
            with pytest.raises(SystemExit) as excinfo:
                main(command + [flag, value])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--kernel", "--apsp-method", "--landmarks", "--backend", "--max-batch-size",
         "--max-wait-ms"],
    )
    def test_rejected_by_serve(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", flag, "1"])
        assert excinfo.value.code == 2


class TestCacheFlags:
    def test_cache_dir_round_trip_is_byte_identical(self, data_csv, tmp_path):
        from repro.cache import clear_result_caches

        path, _ = data_csv
        cache_dir = tmp_path / "cache"
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        args = ["cluster", str(path), "--clusters", "3", "--prefix", "2",
                "--cache-dir", str(cache_dir)]
        assert main(args + ["--json", str(cold_json)]) == 0
        # Forget the in-process tiers so the second run must hit the disk.
        clear_result_caches()
        assert main(args + ["--json", str(warm_json)]) == 0
        assert cold_json.read_bytes() == warm_json.read_bytes()
        assert any(cache_dir.glob("*.json"))

    def test_no_cache_disables_lookups(self, data_csv, tmp_path):
        from repro.cache import clear_result_caches, get_result_cache

        path, _ = data_csv
        clear_result_caches()
        args = ["cluster", str(path), "--clusters", "3", "--prefix", "2",
                "--no-cache", "--out", str(tmp_path / "labels.txt")]
        assert main(args) == 0
        assert get_result_cache().stats.lookups == 0

    def test_no_cache_with_cache_dir_rejected(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        args = ["cluster", str(path), "--clusters", "3", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_stream_reports_reused_ticks(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        block = rng.normal(size=(16, 30))
        data_path = tmp_path / "returns.csv"
        np.savetxt(data_path, np.tile(block, (1, 3)), delimiter=",")
        report = tmp_path / "ticks.json"
        args = ["stream", str(data_path), "--clusters", "3", "--window", "30",
                "--hop", "30", "--json", str(report)]
        assert main(args) == 0
        assert "reused (unchanged window): 2" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert [tick["reused"] for tick in payload["ticks"]] == [False, True, True]


class TestConfigFile:
    def test_save_and_reload_round_trip(self, data_csv, tmp_path, capsys):
        from repro.api import ClusteringConfig

        path, _ = data_csv
        cfg_path = tmp_path / "cfg.json"
        out_a = tmp_path / "labels_a.txt"
        out_b = tmp_path / "labels_b.txt"
        # First run resolves the flags into a config and saves it ...
        assert (
            main(
                [
                    "cluster",
                    str(path),
                    "--clusters",
                    "3",
                    "--prefix",
                    "2",
                    "--save-config",
                    str(cfg_path),
                    "--out",
                    str(out_a),
                ]
            )
            == 0
        )
        saved = ClusteringConfig.from_json(cfg_path.read_text())
        assert saved.num_clusters == 3 and saved.prefix == 2
        # ... and the second run reproduces it from the config alone.
        assert main(["cluster", str(path), "--config", str(cfg_path), "--out", str(out_b)]) == 0
        np.testing.assert_array_equal(
            np.loadtxt(out_a, dtype=int), np.loadtxt(out_b, dtype=int)
        )

    def test_flags_override_config_file(self, data_csv, tmp_path, capsys):
        from repro.api import ClusteringConfig

        path, _ = data_csv
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(ClusteringConfig(num_clusters=3, prefix=2).to_json())
        assert (
            main(["cluster", str(path), "--config", str(cfg_path), "--clusters", "2"]) == 0
        )
        assert "clusters: 2" in capsys.readouterr().out

    def test_missing_clusters_everywhere_rejected(self, data_csv, capsys):
        path, _ = data_csv
        assert main(["cluster", str(path)]) == 2
        assert "--clusters" in capsys.readouterr().err

    def test_partial_config_keeps_subcommand_defaults(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        cfg_path = tmp_path / "partial.json"
        cfg_path.write_text('{"num_clusters": 3}')
        saved = tmp_path / "resolved.json"
        assert (
            main(
                [
                    "cluster",
                    str(path),
                    "--config",
                    str(cfg_path),
                    "--save-config",
                    str(saved),
                ]
            )
            == 0
        )
        resolved = json.loads(saved.read_text())
        # cluster's default prefix (10) survives a partial config file
        assert resolved["prefix"] == 10 and resolved["num_clusters"] == 3

    def test_save_config_not_written_on_failed_run(self, data_csv, tmp_path):
        path, _ = data_csv
        saved = tmp_path / "cfg.json"
        exit_code = main(
            [
                "cluster",
                str(path),
                "--clusters",
                "3",
                "--method",
                "kmeans",
                "--newick",
                str(tmp_path / "t.nwk"),
                "--save-config",
                str(saved),
            ]
        )
        assert exit_code == 2
        assert not saved.exists()

    def test_invalid_config_file_rejected(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"warp_drive": true}')
        assert main(["cluster", str(path), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err
        # config-file errors keep the JSON field names, not CLI flag spellings
        assert "num_clusters" in err and "--clusters" not in err
        # A key that is no longer a config field is the same error.
        cfg_path.write_text('{"num_clusters": 3, "warm_start": true}')
        assert main(["cluster", str(path), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "bad --config file" in err and "warm_start" in err
        # So are the deleted per-fit execution knobs.
        for stale in ('"backend": "thread"', '"kernel": "numpy"'):
            cfg_path.write_text('{"num_clusters": 3, %s}' % stale)
            assert main(["cluster", str(path), "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "bad --config file" in err and "unknown ClusteringConfig keys" in err
            assert stale.split(":")[0].strip('"') in err

    def test_config_field_error_keeps_json_spelling(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"num_clusters": 3, "cache_dir": "/tmp/x", "cache": false}')
        assert main(["cluster", str(path), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "cache_dir" in err and "--cache-dir" not in err


class TestMethodFlag:
    def test_hac_method(self, data_csv, capsys):
        path, _ = data_csv
        assert main(["cluster", str(path), "--clusters", "3", "--method", "hac-average"]) == 0
        assert "clusters: 3" in capsys.readouterr().out

    def test_kmeans_method_rejects_newick(self, data_csv, tmp_path, capsys):
        path, _ = data_csv
        newick = tmp_path / "tree.nwk"
        out = tmp_path / "labels.txt"
        exit_code = main(
            [
                "cluster",
                str(path),
                "--clusters",
                "3",
                "--method",
                "kmeans",
                "--newick",
                str(newick),
                "--out",
                str(out),
            ]
        )
        assert exit_code == 2
        assert "dendrogram" in capsys.readouterr().err
        # the failing run must not leave partial output behind
        assert not out.exists() and not newick.exists()

    def test_list_methods(self, capsys):
        from repro.api import available_estimators

        assert main(["list-methods"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(available_estimators())

    def test_result_json_export(self, data_csv, tmp_path):
        path, _ = data_csv
        report = tmp_path / "result.json"
        assert (
            main(["cluster", str(path), "--clusters", "3", "--json", str(report)]) == 0
        )
        payload = json.loads(report.read_text())
        assert payload["method"] == "tmfg-dbht"
        assert payload["num_clusters"] == 3
        assert len(payload["labels"]) == 30


@pytest.fixture
def returns_csv(tmp_path):
    stream = generate_regime_switching_stream(num_stocks=48, num_days=150, seed=9)
    path = tmp_path / "returns.csv"
    np.savetxt(path, stream.returns, delimiter=",")
    return path, stream


class TestStreamCommand:
    def test_stream_prints_ticks_and_summary(self, returns_csv, capsys):
        path, _ = returns_csv
        exit_code = main(
            ["stream", str(path), "--clusters", "4", "--window", "80", "--hop", "20"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Streaming TMFG+DBHT (window=80, hop=20)" in out
        assert "drift-ARI" in out
        assert "mean consecutive-tick drift" in out

    def test_stream_writes_labels_and_json(self, returns_csv, tmp_path):
        path, stream = returns_csv
        out = tmp_path / "labels.txt"
        report = tmp_path / "ticks.json"
        exit_code = main(
            [
                "stream",
                str(path),
                "--clusters",
                "4",
                "--window",
                "100",
                "--hop",
                "25",
                "--out",
                str(out),
                "--json",
                str(report),
            ]
        )
        assert exit_code == 0
        labels = np.loadtxt(out, dtype=int)
        assert labels.shape == (stream.num_stocks,)
        payload = json.loads(report.read_text())
        assert payload["window"] == 100 and "warm" not in payload
        assert len(payload["ticks"]) == 1 + (150 - 100) // 25
        assert {"similarity", "tmfg", "apsp", "total"} <= set(
            payload["mean_step_seconds"]
        )

    def test_max_ticks_caps_the_stream(self, returns_csv, capsys):
        path, _ = returns_csv
        exit_code = main(
            [
                "stream",
                str(path),
                "--clusters",
                "3",
                "--window",
                "80",
                "--hop",
                "10",
                "--max-ticks",
                "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "(window=80, hop=10)" in out
        assert out.count("\n[") == 0  # table renders, no tracebacks

    def test_window_larger_than_stream_rejected(self, returns_csv, capsys):
        path, _ = returns_csv
        exit_code = main(
            ["stream", str(path), "--clusters", "3", "--window", "500"]
        )
        assert exit_code == 2
        assert "exceeds the stream length" in capsys.readouterr().err

    def test_stream_requires_window_and_clusters(self, returns_csv, capsys):
        path, _ = returns_csv
        with pytest.raises(SystemExit):
            main(["stream", str(path), "--clusters", "3"])
        # --clusters may come from --config instead, so a missing flag is a
        # clean exit with a message rather than an argparse crash.
        assert main(["stream", str(path), "--window", "80"]) == 2
        assert "--clusters" in capsys.readouterr().err


class TestFigureCommand:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(FIGURE_ENTRY_POINTS)

    def test_appendix_figure_runs(self, capsys):
        assert main(["figure", "appendix"]) == 0
        assert "Appendix" in capsys.readouterr().out

    def test_unknown_figure_returns_error(self, capsys):
        assert main(["figure", "does-not-exist"]) == 2

    def test_parser_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeCommand:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8752
        assert not hasattr(args, "max_batch_size")
        assert not hasattr(args, "max_wait_ms")
        assert args.max_queue == 256
        assert args.fit_workers == 2
        assert args.replicas == 1
        assert args.func.__name__ == "_command_serve"

    def test_serve_workers_is_the_replica_count(self):
        # serve's --workers spells the replica count and lands on
        # `replicas`; no subcommand has a per-fit worker count.
        args = build_parser().parse_args(["serve", "--workers", "3"])
        assert args.replicas == 3
        assert getattr(args, "workers", None) is None

    def test_serve_rejects_bad_flag_combinations(self, capsys):
        # The shared config plumbing validates serve flags like any other
        # subcommand; a nonsensical replica count is refused up front.
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["serve", "--prefix", "0"]) == 2
        assert "--prefix" in capsys.readouterr().err

    def test_replica_argv_forwards_only_live_flags(self):
        from repro.cli import _serve_replica_argv

        args = build_parser().parse_args(
            ["serve", "--workers", "3", "--clusters", "4", "--prefix", "2",
             "--method", "tmfg-dbht", "--cache-dir", "/tmp/c"]
        )
        argv = _serve_replica_argv(args)
        for flag, value in (("--clusters", "4"), ("--prefix", "2"),
                            ("--method", "tmfg-dbht"), ("--cache-dir", "/tmp/c")):
            assert argv[argv.index(flag) + 1] == value
        assert "--workers" not in argv
        for deleted in ("--kernel", "--apsp-method", "--landmarks", "--backend",
                        "--binary", "--no-binary", "--max-batch-size", "--max-wait-ms"):
            assert deleted not in argv
        # The replica parses what it is handed.
        replica = build_parser().parse_args(["serve"] + argv)
        assert (replica.clusters, replica.prefix, replica.replicas) == (4, 2, 1)

    def test_serve_end_to_end_over_http(self, tmp_path):
        """`repro serve` as a subprocess: healthz, POST, drain on SIGTERM."""
        import signal
        import subprocess
        import sys as _sys

        from repro.serve import ServeClient

        dataset = make_time_series_dataset(24, 24, 2, noise=0.8, seed=4)
        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--clusters", "2", "--prefix", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://127.0.0.1:" in banner
            port = int(banner.split("127.0.0.1:")[1].split()[0].rstrip("/"))
            with ServeClient(port=port) as client:
                client.wait_healthy(30)
                labels = client.cluster_labels(dataset.data)
                assert labels.shape == (24,)
                assert len(np.unique(labels)) == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert "drained and stopped" in process.stdout.read()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait(timeout=10)


class TestLintSubcommand:
    """`repro lint` rides the main CLI (and the numpy-free __main__ shortcut)."""

    def test_lint_is_a_cli_subcommand(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_exits_nonzero_on_a_violation(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n\nasync def handler():\n    time.sleep(0.1)\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path)]) == 1
        assert "[async-blocking]" in capsys.readouterr().out

    def test_lint_appears_in_parser_help(self):
        parser = build_parser()
        assert "lint" in parser.format_help()

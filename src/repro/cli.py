"""Command-line interface.

Three subcommands cover the library's main workflows without writing Python:

``cluster``
    Cluster a CSV/NPY matrix with any registered estimator (``--method``,
    default TMFG + DBHT) and write the flat labels (and optionally a Newick
    tree).  The run is described by a :class:`~repro.api.ClusteringConfig`;
    ``--config cfg.json`` loads one (CLI flags override it) and
    ``--save-config cfg.json`` writes the resolved config back out, so a
    run can be reproduced from its serialized configuration alone.

``stream``
    Slide a rolling correlation window across a return stream (one asset
    per row), re-clustering every ``--hop`` observations with the same
    TMFG+DBHT fit ``cluster`` runs, and report per-tick timings and cluster
    drift.

``serve``
    Run the HTTP/JSON clustering daemon (``POST /cluster``,
    ``GET /healthz``, ``GET /metrics``) until SIGTERM.  The flags shared
    with ``cluster`` (``--method``, ``--prefix``, ``--config``,
    ``--cache-dir``, ...) set the *default* config that request payloads
    overlay.

``trace``
    Inspect the JSON-lines event log written by ``serve --trace-log``:
    render per-trace span waterfalls and a per-kind latency breakdown.

``figure``
    Re-run one of the paper's figure reproductions and print its rows.

Module scope imports only what argument parsing and ``serve`` need.  Every
``serve`` process (the direct server, the fleet router and each replica)
starts as ``python -m repro``, so the figure harness, the streaming runner,
the table formatters and the Newick export are imported inside the commands
that use them: a serve process never loads the baselines, the AMI metric or
scipy.

Examples
--------
::

    python -m repro cluster data.csv --clusters 5 --prefix 10 --out labels.csv
    python -m repro cluster data.csv --clusters 5 --method hac-average
    python -m repro cluster data.csv --config cfg.json
    python -m repro stream returns.csv --clusters 5 --window 250 --hop 5 --json ticks.json
    python -m repro serve --port 8752 --max-queue 256 --fit-workers 2
    python -m repro serve --port 8752 --workers 2 --trace-log traces.jsonl
    python -m repro trace traces.jsonl --limit 3
    python -m repro figure fig6 --scale 0.02
    python -m repro list-figures
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, Optional, Sequence

import numpy as np

from repro import __version__
from repro.api.config import ClusteringConfig
from repro.api.estimators import available_estimators, make_estimator

#: Figure id -> name of its function in :mod:`repro.experiments.figures`,
#: resolved by ``_command_figure`` (the module is not imported up front).
FIGURE_ENTRY_POINTS: Dict[str, str] = {
    "table2": "table2_datasets",
    "fig1": "figure1_quality_vs_time",
    "fig3": "figure3_runtime",
    "fig4": "figure4_speedup",
    "fig5": "figure5_breakdown",
    "fig6": "figure6_prefix_quality",
    "fig7": "figure7_edge_sum",
    "fig8": "figure8_quality",
    "fig9": "figure9_spectral_sensitivity",
    "fig10": "figure10_stock_clusters",
    "fig11": "figure11_market_cap",
    "appendix": "appendix_prefix_example",
    "speedup-factors": "speedup_factors",
    "scaling": "scaling_with_data_size",
}


def _load_matrix(path: str) -> np.ndarray:
    """Load a 2-D matrix from a .npy or delimited-text file."""
    if path.endswith(".npy"):
        matrix = np.load(path)
    else:
        matrix = np.loadtxt(path, delimiter=",")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix in {path}, got shape {matrix.shape}")
    return matrix


# Config-field -> CLI-flag spelling, applied to validation errors so the
# message names the flag the user typed.  Only whole field names are
# replaced (not substrings of other fields or of already-spelled flags),
# and only for errors raised from flag handling — errors from a --config
# file keep the JSON field names the file actually uses.
_FLAG_SPELLINGS = (
    ("num_clusters", "--clusters"),
    ("cache_dir", "--cache-dir"),
    ("prefix", "--prefix"),
    ("method", "--method"),
)

# ClusteringConfig fields deliberately reachable only through a --config
# file (no dedicated flag): research knobs that would clutter the CLI
# surface.  The config-fingerprint lint rule checks that every config
# field is either flag-wired above / in _config_from_args or listed here,
# so adding a field without deciding its CLI story fails `repro lint`.
_CONFIG_FILE_ONLY_FIELDS = (
    "linkage",
    "seed",
    "num_restarts",
    "spectral_neighbors",
)


def _flagged_message(error: Exception) -> str:
    message = str(error)
    for field_name, flag in _FLAG_SPELLINGS:
        message = re.sub(rf"(?<![\w-]){field_name}(?![\w-])", flag, message)
    return message


class _ConfigFileError(ValueError):
    """A --config file failed to load; message uses JSON field names."""


def _config_from_args(args: argparse.Namespace, default: ClusteringConfig) -> ClusteringConfig:
    """The one CLI path from parsed flags to a validated ClusteringConfig.

    ``--config`` (when present) replaces ``default`` as the base; explicit
    flags override the base field by field.  Validation happens in the
    frozen dataclass, so every subcommand shares the same rules (e.g.
    ``--prefix 0`` is rejected here).
    """
    base = default
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("a ClusteringConfig JSON document must be an object")
            # Overlay onto the subcommand's defaults so a partial file does
            # not silently revert them (e.g. cluster's prefix 10).
            base = base.merged(payload)
        except (ValueError, OSError) as error:
            raise _ConfigFileError(f"bad --config file {config_path}: {error}") from error
    changes = {}
    if getattr(args, "method", None) is not None:
        changes["method"] = args.method
    if getattr(args, "clusters", None) is not None:
        changes["num_clusters"] = args.clusters
    if getattr(args, "prefix", None) is not None:
        changes["prefix"] = args.prefix
    if getattr(args, "precomputed", False):
        changes["precomputed"] = True
    if getattr(args, "no_cache", False):
        changes["cache"] = False
        changes["cache_dir"] = None
    if getattr(args, "cache_dir", None) is not None:
        changes["cache_dir"] = args.cache_dir
    return base.replace(**changes)


def _print_cli_error(error: Exception) -> None:
    if isinstance(error, _ConfigFileError):
        print(str(error), file=sys.stderr)
    else:
        print(_flagged_message(error), file=sys.stderr)


def _command_cluster(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args, ClusteringConfig(prefix=10, cache=True))
    except (ValueError, OSError) as error:
        _print_cli_error(error)
        return 2
    if config.num_clusters is None:
        print("--clusters is required (as a flag or via --config)", file=sys.stderr)
        return 2
    data = _load_matrix(args.input)
    try:
        estimator = make_estimator(config.method, config)
        result = estimator.fit(data).result_
    except ValueError as error:
        # Fit-time values may come from a --config file, so keep the raw
        # field names (flag spelling applies only to flag-merge errors).
        print(str(error), file=sys.stderr)
        return 2
    if args.newick and result.dendrogram is None:
        # Fail before writing any output so a non-zero exit leaves no files.
        print(
            f"method {config.method!r} builds no dendrogram; --newick is unavailable",
            file=sys.stderr,
        )
        return 2
    if args.save_config:
        with open(args.save_config, "w", encoding="utf-8") as handle:
            handle.write(config.to_json(indent=2) + "\n")
        print(f"wrote config to {args.save_config}")
    labels = result.labels
    if args.out:
        np.savetxt(args.out, labels, fmt="%d")
        print(f"wrote {len(labels)} labels to {args.out}")
    else:
        print(",".join(str(int(label)) for label in labels))
    if args.newick:
        from repro.dendrogram.export import to_newick

        with open(args.newick, "w", encoding="utf-8") as handle:
            handle.write(to_newick(result.dendrogram) + "\n")
        print(f"wrote Newick tree to {args.newick}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json(indent=2) + "\n")
        print(f"wrote result to {args.json}")
    sizes = np.bincount(labels)
    print(f"clusters: {len(sizes)}  sizes: {sizes.tolist()}")
    timing = "  ".join(f"{k}={v:.2f}s" for k, v in result.step_seconds.items())
    print(f"timings: {timing}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import format_stream_ticks
    from repro.streaming.runner import StreamingPipeline

    try:
        config = _config_from_args(args, ClusteringConfig(cache=True))
    except (ValueError, OSError) as error:
        _print_cli_error(error)
        return 2
    if config.num_clusters is None:
        print("--clusters is required (as a flag or via --config)", file=sys.stderr)
        return 2
    returns = _load_matrix(args.input)
    try:
        pipeline = StreamingPipeline(
            returns,
            window=args.window,
            hop=args.hop,
            max_ticks=args.max_ticks,
            config=config,
        )
        result = pipeline.run()
    except ValueError as error:
        print(_flagged_message(error), file=sys.stderr)
        return 2
    print(
        format_stream_ticks(
            result.ticks,
            title=f"Streaming TMFG+DBHT (window={args.window}, hop={args.hop})",
        )
    )
    summary = f"ticks: {result.num_ticks}  mean tick: {result.mean_tick_seconds():.4f}s"
    if result.reused_ticks:
        summary += f"  reused (unchanged window): {result.reused_ticks}"
    print(summary)
    drift = result.mean_drift_ari()
    if drift is not None:
        print(f"mean consecutive-tick drift: ARI={drift:.4f}")
    if args.out and result.labels is not None:
        np.savetxt(args.out, result.labels, fmt="%d")
        print(f"wrote final-tick labels to {args.out}")
    if args.json:
        payload = {
            "window": args.window,
            "hop": args.hop,
            "clusters": config.num_clusters,
            "config": config.to_dict(),
            "ticks": [
                {
                    "tick": tick.tick,
                    "start": tick.start,
                    "stop": tick.stop,
                    "num_clusters": tick.num_clusters,
                    "rounds": tick.rounds,
                    "step_seconds": tick.step_seconds,
                    "drift_ari": tick.drift_ari,
                    "drift_ami": tick.drift_ami,
                    "reused": tick.reused,
                }
                for tick in result.ticks
            ],
            "mean_step_seconds": result.mean_step_seconds(),
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote per-tick report to {args.json}")
    return 0


def _serve_replica_argv(args: argparse.Namespace) -> list:
    """The ``repro serve`` flags one fleet replica inherits from the
    parent invocation (everything except --host/--port/--workers, which
    the supervisor owns)."""
    argv = [
        "--max-queue", str(args.max_queue),
        "--fit-workers", str(args.fit_workers),
    ]
    for flag, value in (
        ("--clusters", args.clusters),
        ("--method", args.method),
        ("--prefix", args.prefix),
        ("--config", args.config),
        ("--cache-dir", args.cache_dir),
    ):
        if value is not None:
            argv += [flag, str(value)]
    if args.no_cache:
        argv.append("--no-cache")
    if args.trace_log is not None:
        # Passed through verbatim: a {replica_id} placeholder is expanded
        # per replica by the supervisor; a plain path is shared by every
        # replica (the event log appends whole lines, so that is safe).
        argv += ["--trace-log", args.trace_log]
        if args.trace_sample != 1.0:
            argv += ["--trace-sample", str(args.trace_sample)]
    return argv


def _command_serve_fleet(args: argparse.Namespace) -> int:
    from repro.serve.fleet import build_fleet

    try:
        # Validate the shared config up front so bad flags fail fast here
        # instead of crash-looping N replicas.
        config = _config_from_args(args, ClusteringConfig(cache=True))
        router_trace_log = (
            args.trace_log.replace("{replica_id}", "router")
            if args.trace_log is not None
            else None
        )
        fleet = build_fleet(
            args.replicas,
            _serve_replica_argv(args),
            args.host,
            args.port,
            default_config=config,
            trace_log=router_trace_log,
            trace_sample=args.trace_sample,
        )
    except (ValueError, OSError) as error:
        _print_cli_error(error)
        return 2

    def _announce(ready) -> None:
        print(
            f"repro serve fleet listening on http://{ready.host}:{ready.port} "
            f"(workers={args.replicas}, method={config.method}, "
            f"cache={'on' if config.cache else 'off'})",
            flush=True,
        )

    try:
        fleet.run(on_ready=_announce)
    except OSError as error:  # e.g. port already bound
        print(f"repro serve failed to start: {error}", file=sys.stderr)
        return 1
    except (TimeoutError, RuntimeError) as error:
        print(f"repro serve fleet failed to become ready: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass  # signal handler already drained; exit quietly
    print("repro serve fleet drained and stopped", flush=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here: the serving layer pulls in asyncio machinery no other
    # subcommand needs.
    from repro.serve.server import ClusteringServer

    if args.replicas < 1:
        _print_cli_error(ValueError("--workers must be at least 1"))
        return 2
    if args.replicas > 1:
        return _command_serve_fleet(args)
    try:
        config = _config_from_args(args, ClusteringConfig(cache=True))
        server = ClusteringServer(
            host=args.host,
            port=args.port,
            default_config=config,
            max_queue_depth=args.max_queue,
            fit_workers=args.fit_workers,
            trace_log=(
                args.trace_log.replace("{replica_id}", "server")
                if args.trace_log is not None
                else None
            ),
            trace_sample=args.trace_sample,
        )
    except (ValueError, OSError) as error:
        _print_cli_error(error)
        return 2

    def _announce(ready: ClusteringServer) -> None:
        print(
            f"repro serve listening on http://{ready.host}:{ready.port} "
            f"(method={config.method}, cache={'on' if config.cache else 'off'}, "
            f"max_queue={ready.max_queue_depth}, fit_workers={ready.fit_workers})",
            flush=True,
        )

    try:
        server.run(on_ready=_announce)
    except OSError as error:  # e.g. port already bound
        print(f"repro serve failed to start: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass  # signal handler already drained; exit quietly
    print("repro serve drained and stopped", flush=True)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.events import load_trace_events
    from repro.obs.traceview import (
        format_kind_table,
        format_waterfall,
        group_traces,
        kind_breakdown,
        trace_summary,
    )

    try:
        events = load_trace_events(args.log)
    except (OSError, ValueError) as error:
        _print_cli_error(error)
        return 2
    if not events:
        print("no trace events found", file=sys.stderr)
        return 1

    traces = group_traces(events)
    if args.trace is not None:
        if args.trace not in traces:
            _print_cli_error(
                ValueError(
                    f"trace {args.trace!r} not found in the log(s); "
                    f"{len(traces)} trace(s) present"
                )
            )
            return 2
        selected = {args.trace: traces[args.trace]}
    else:
        # Most recent traces first, capped at --limit.
        ordered = sorted(
            traces.items(),
            key=lambda item: trace_summary(item[0], item[1])["started_unix"],
            reverse=True,
        )
        selected = dict(ordered[: args.limit])

    if args.json:
        payload = {
            "events": len(events),
            "traces": [
                {
                    **trace_summary(trace_id, spans),
                    "spans_detail": spans,
                }
                for trace_id, spans in selected.items()
            ],
            "kinds": kind_breakdown(events),
        }
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        return 0

    for trace_id, spans in selected.items():
        print(format_waterfall(trace_id, spans))
        print()
    print(
        f"{len(events)} event(s), {len(traces)} trace(s) "
        f"({len(selected)} shown; --limit/--trace to adjust)"
    )
    print()
    print(format_kind_table(kind_breakdown(events)))
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    if args.name not in FIGURE_ENTRY_POINTS:
        print(f"unknown figure {args.name!r}; use `list-figures`", file=sys.stderr)
        return 2
    from repro.experiments import figures
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.reporting import format_table

    entry_point = getattr(figures, FIGURE_ENTRY_POINTS[args.name])
    if args.name == "appendix":
        result = entry_point()
    else:
        config = ExperimentConfig(scale=args.scale) if args.scale else None
        result = entry_point(config)
    print(format_table(result["headers"], result["rows"], title=result["title"]))
    return 0


def _command_list_figures(_: argparse.Namespace) -> int:
    for name in FIGURE_ENTRY_POINTS:
        print(name)
    return 0


def _command_list_methods(_: argparse.Namespace) -> int:
    for name in available_estimators():
        print(name)
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The config-file and cache flags shared by cluster, stream and serve."""
    parser.add_argument(
        "--config",
        default=None,
        help="load a serialized ClusteringConfig JSON (explicit flags override it)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist the content-addressed result cache under this directory "
        "(hits across runs; corrupt/stale entries degrade to misses). Entries are "
        "unpickled on read: only trusted users may write to this directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (identical results; always recomputes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel filtered graphs (TMFG) + DBHT hierarchical clustering",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    cluster = subparsers.add_parser("cluster", help="cluster a data matrix with any registered method")
    cluster.add_argument("input", help="CSV or .npy file, one object per row")
    cluster.add_argument(
        "--clusters",
        type=int,
        default=None,
        help="number of flat clusters (required unless --config carries num_clusters)",
    )
    cluster.add_argument(
        "--method",
        choices=available_estimators(),
        default=None,
        help="estimator id from the method registry (default: tmfg-dbht)",
    )
    cluster.add_argument(
        "--prefix", type=int, default=None, help="TMFG prefix size (default 10; 1 = exact)"
    )
    cluster.add_argument(
        "--precomputed",
        action="store_true",
        help="treat the input as a precomputed similarity matrix instead of raw series",
    )
    cluster.add_argument("--out", help="write labels to this file (one per line)")
    cluster.add_argument("--newick", help="also write the dendrogram as a Newick file")
    cluster.add_argument("--json", help="write the full ClusterResult as JSON to this file")
    cluster.add_argument(
        "--save-config",
        default=None,
        help="write the resolved ClusteringConfig as JSON to this file",
    )
    _add_config_flags(cluster)
    cluster.set_defaults(func=_command_cluster)

    stream = subparsers.add_parser(
        "stream",
        help="rolling-window streaming clustering of a return stream",
    )
    stream.add_argument("input", help="CSV or .npy return matrix, one asset per row")
    stream.add_argument(
        "--clusters",
        type=int,
        default=None,
        help="flat clusters per tick (required unless --config carries num_clusters)",
    )
    stream.add_argument("--window", type=int, required=True, help="observations per window")
    stream.add_argument("--hop", type=int, default=1, help="observations per tick (default 1)")
    stream.add_argument("--prefix", type=int, default=None, help="TMFG prefix size (default 1 = exact)")
    stream.add_argument("--max-ticks", type=int, default=None, help="stop after this many ticks")
    stream.add_argument("--out", help="write the final tick's labels to this file")
    stream.add_argument("--json", help="write the per-tick report as JSON to this file")
    _add_config_flags(stream)
    stream.set_defaults(func=_command_stream)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP/JSON clustering service",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8752,
        help="bind port (default 8752; 0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--clusters",
        type=int,
        default=None,
        help="default flat-cluster count for requests that do not set num_clusters",
    )
    serve.add_argument(
        "--method",
        choices=available_estimators(),
        default=None,
        help="default estimator id for requests that do not name one (default: tmfg-dbht)",
    )
    serve.add_argument(
        "--prefix", type=int, default=None, help="default TMFG prefix size (default 1)"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="admission bound: answer 429 beyond this many in-flight requests (default 256)",
    )
    serve.add_argument(
        "--fit-workers",
        type=int,
        default=2,
        help="threads running cache lookups and fits (default 2)",
    )
    serve.add_argument(
        "--trace-log",
        default=None,
        metavar="PATH",
        help=(
            "append one JSON line per finished span to PATH and enable request "
            "tracing; the literal {replica_id} in PATH becomes the replica id "
            "under --workers N (or 'server'/'router' for the local process)"
        ),
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help=(
            "fraction of untraced requests to originate a trace for when "
            "--trace-log is set (default 1.0; client-supplied trace ids are "
            "always honored)"
        ),
    )
    serve.add_argument(
        "--workers",
        dest="replicas",
        type=int,
        default=1,
        help=(
            "replica count: 1 (default) serves in-process; N>=2 runs N supervised "
            "replica processes behind one consistent-hash router on --port"
        ),
    )
    _add_config_flags(serve)
    serve.set_defaults(func=_command_serve)

    trace = subparsers.add_parser(
        "trace",
        help="inspect a --trace-log: per-trace waterfalls and per-kind latency breakdowns",
    )
    trace.add_argument(
        "log",
        nargs="+",
        help="trace event log file(s) written by repro serve --trace-log",
    )
    trace.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_ID",
        help="show only this trace id (default: the --limit most recent traces)",
    )
    trace.add_argument(
        "--limit",
        type=int,
        default=10,
        help="maximum number of traces to render (default 10)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable summaries and span details instead of waterfalls",
    )
    trace.set_defaults(func=_command_trace)

    figure = subparsers.add_parser("figure", help="re-run one of the paper's figures")
    figure.add_argument("name", help="figure id, e.g. fig6 (see list-figures)")
    figure.add_argument("--scale", type=float, default=None, help="data-set scale factor")
    figure.set_defaults(func=_command_figure)

    list_figures = subparsers.add_parser("list-figures", help="list available figure ids")
    list_figures.set_defaults(func=_command_list_figures)

    list_methods = subparsers.add_parser(
        "list-methods", help="list the estimator ids the method registry resolves"
    )
    list_methods.set_defaults(func=_command_list_methods)

    # Help text only: main() hands a lint argv to repro.analysis.cli
    # before parsing (as repro/__main__.py does), so building this parser
    # never imports the lint engine into a serve process.
    subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checker over the source tree",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

"""Serving-throughput benchmark: single-flight serving vs sequential direct fits.

Load generation against a live in-process
:class:`~repro.serve.server.ClusteringServer` with the result cache off:
each of ``--requests`` rounds fires a burst of ``--clients`` concurrent
identical requests, so every request is a miss and the burst can only save
work by joining the fit already in flight for its key (the server's
single-flight map).  Each burst is followed by as many sequential direct
``TMFGClusterer`` fits of the same matrix — what serving each request with
its own fit would cost, without any HTTP at all; alternating the two keeps
host-speed drift out of their ratio.

Reports RPS and p50/p95/p99 latency for both as one JSON document and
asserts the acceptance bound (single-flight ≥ ``--min-speedup``x the
direct-fit throughput, default 1.5x), plus byte-identity of a served result
against the same fit made directly through ``TMFGClusterer``.

A second section compares the two matrix transports — JSON float lists vs
the raw ``application/x-repro-matrix`` wire frames — at each
``--transport-sizes`` asset count (default 200 and 1000).  The server
caches, so after one warm-up fit every request is transport-bound: what is
measured is encode + socket + decode + fingerprint, which is exactly the
tax the binary format removes.  The binary/JSON RPS ratio at the largest
size is gated by ``--min-binary-speedup`` (default 1.5x), and the two
transports' ``result`` payloads are asserted byte-identical::

A third section (``--replica-sweep 1,2,4``) measures the multi-process
fleet: aggregate RPS/p99 of a cache-hit closed loop against ``repro serve
--workers N`` at each replica count, with distinct matrices spread over
the consistent-hash ring.  Scaling bounds (2 replicas ≥ 1.7x, 4 ≥ 2.5x
the 1-replica fleet) are asserted only on hosts with at least that many
cores; the report always records the measured numbers plus ``cpu_count``.
The sweep also asserts routed-vs-direct byte identity of the ``result``
payload on both transports through a shared ``--cache-dir``::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --assets 80 --clients 8 --requests 12 --json out.json
    PYTHONPATH=src python benchmarks/bench_serve.py --binary   # single-flight loop over binary bodies
    PYTHONPATH=src python benchmarks/bench_serve.py --replica-sweep 1,2,4
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import ClusteringConfig, TMFGClusterer
from repro.cache import clear_result_caches
from repro.datasets.synthetic import make_time_series_dataset
from repro.serve import (
    WIRE_CONTENT_TYPE,
    ClusteringServer,
    ServeClient,
    ServerBusy,
    build_fleet,
)

DEFAULT_ASSETS = 120
DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS = 10  # per client
#: Single-flight RPS over sequential direct fits.  The served side pays
#: HTTP, body decode and envelope encode per request and the direct side
#: none of it; in JSON mode the body parse on the event loop caps the
#: ratio near 2x at the default 120 assets (binary frames reach ~3x).
DEFAULT_MIN_SPEEDUP = 1.5
DEFAULT_TRANSPORT_SIZES = "200,1000"
DEFAULT_MIN_BINARY_SPEEDUP = 1.5
NUM_CLUSTERS = 4
PREFIX = 10

#: Request headers that ship and request the binary transport.
BINARY_HEADERS = {"Content-Type": WIRE_CONTENT_TYPE, "Accept": WIRE_CONTENT_TYPE}

#: The transport comparison's per-request config: a cheap method, so the
#: (cached) fit never dominates what is being measured — the transport.
TRANSPORT_CONFIG = {"method": "kmeans", "num_clusters": NUM_CLUSTERS, "seed": 0}

#: Replica-sweep acceptance bounds: aggregate RPS at N replicas over the
#: 1-replica fleet.  Only asserted when the host actually has >= N cores —
#: N python replicas cannot outrun one on a single-core box, and a bench
#: that asserts otherwise just measures the machine, not the fleet.
FLEET_GATES = {2: 1.7, 4: 2.5}


def _series(num_assets: int, seed: int = 42) -> np.ndarray:
    return make_time_series_dataset(
        num_objects=num_assets, length=96, num_classes=NUM_CLUSTERS, noise=1.1, seed=seed
    ).data


def _percentile(sorted_ms: List[float], q: float) -> float:
    if not sorted_ms:
        return 0.0
    index = min(len(sorted_ms) - 1, max(0, int(round(q * (len(sorted_ms) - 1)))))
    return sorted_ms[index]


def _drive(
    host: str,
    port: int,
    bodies: List[bytes],
    headers: Optional[Dict[str, str]],
    clients: int,
    requests_per_client: int,
) -> Tuple[List[float], float]:
    """Closed-loop load: each client thread sends its next request only
    after the previous response arrives, client ``c`` walking ``bodies``
    from offset ``c``.  Bodies are pre-encoded (JSON or binary) so the
    loop measures the server, not per-iteration encoding.  Returns the
    latencies (ms) and the wall time (s)."""
    latencies_ms: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client_loop(index: int) -> None:
        local: List[float] = []
        try:
            with ServeClient(host, port, timeout=300.0) as client:
                barrier.wait(timeout=60)
                for i in range(requests_per_client):
                    body = bodies[(index + i) % len(bodies)]
                    start = time.perf_counter()
                    while True:
                        try:
                            client.request("POST", "/cluster", body, headers)
                            break
                        except ServerBusy as busy:
                            time.sleep(max(busy.retry_after, 0.05))
                    local.append((time.perf_counter() - start) * 1000.0)
        except BaseException as error:  # pragma: no cover - reported below
            with lock:
                errors.append(error)
            return
        with lock:
            latencies_ms.extend(local)

    threads = [
        threading.Thread(target=client_loop, args=(index,)) for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - wall_start
    if errors:
        raise RuntimeError(f"load generation failed: {errors[0]!r}") from errors[0]
    return latencies_ms, wall_seconds


def _summary(latencies_ms: List[float], wall_seconds: float, clients: int) -> Dict[str, Any]:
    ordered = sorted(latencies_ms)
    completed = len(ordered)
    return {
        "clients": clients,
        "requests": completed,
        "wall_seconds": round(wall_seconds, 4),
        "rps": round(completed / wall_seconds, 2) if wall_seconds > 0 else 0.0,
        "p50_ms": round(_percentile(ordered, 0.50), 2),
        "p95_ms": round(_percentile(ordered, 0.95), 2),
        "p99_ms": round(_percentile(ordered, 0.99), 2),
        "mean_ms": round(sum(ordered) / completed, 2) if completed else 0.0,
    }


def _measure_single_flight(
    matrix: np.ndarray,
    request_config: Dict[str, Any],
    clients: int,
    rounds: int,
    fit_workers: int,
    binary: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``rounds`` bursts of ``clients`` identical cache-off requests, each
    followed by ``clients`` sequential direct fits; returns both summaries."""
    direct_config = ClusteringConfig().merged(request_config)
    clear_result_caches()
    server = ClusteringServer(
        port=0, default_config=ClusteringConfig(), fit_workers=fit_workers
    )
    handle = server.start_in_background()
    try:
        with ServeClient(handle.host, handle.port) as warmup:
            warmup.wait_healthy(30)
            warmup.cluster(matrix, config=request_config, binary=binary)  # warm-up fit
            if binary:
                body = warmup.encode_cluster_body_binary(matrix, request_config)
                headers: Optional[Dict[str, str]] = dict(BINARY_HEADERS)
            else:
                body = warmup.encode_cluster_body(matrix, request_config)
                headers = None
        TMFGClusterer(direct_config).fit(matrix)  # the same warm-up, direct
        served_ms: List[float] = []
        direct_ms: List[float] = []
        served_wall = 0.0
        for _ in range(rounds):
            latencies, wall = _drive(handle.host, handle.port, [body], headers, clients, 1)
            served_ms += latencies
            served_wall += wall
            for _ in range(clients):
                start = time.perf_counter()
                TMFGClusterer(direct_config).fit(matrix)
                direct_ms.append((time.perf_counter() - start) * 1000.0)
        with ServeClient(handle.host, handle.port) as scrape:
            metrics = scrape.metrics()
    finally:
        handle.stop()
    served = _summary(served_ms, served_wall, clients)
    served["batching"] = metrics["batching"]
    served["transport"] = "binary" if binary else "json"
    return served, _summary(direct_ms, sum(direct_ms) / 1000.0, 1)


def _measure_transports(
    sizes: List[int],
    clients: int,
    requests_per_client: int,
) -> List[Dict[str, Any]]:
    """JSON-vs-binary closed-loop RPS/latency at each asset count.

    One server per size with the result cache ON: the first request per
    transport warms the cache (both transports fingerprint to the *same*
    entry), after which every request pays only encode + HTTP + decode +
    fingerprint — the path the binary format exists to shrink.
    """
    rows: List[Dict[str, Any]] = []
    for num_assets in sizes:
        matrix = _series(num_assets)
        clear_result_caches()
        server = ClusteringServer(
            port=0,
            default_config=ClusteringConfig(cache=True),
            fit_workers=2,
        )
        handle = server.start_in_background()
        try:
            with ServeClient(handle.host, handle.port) as client:
                client.wait_healthy(30)
                envelope_json = client.cluster(matrix, config=TRANSPORT_CONFIG)
                envelope_binary = client.cluster(matrix, config=TRANSPORT_CONFIG, binary=True)
                # The serving stats are per-request timings; the result
                # payload is the contract and must not depend on transport.
                result_identical = json.dumps(envelope_json["result"]) == json.dumps(
                    envelope_binary["result"]
                )
                json_body = client.encode_cluster_body(matrix, TRANSPORT_CONFIG)
                binary_body = client.encode_cluster_body_binary(matrix, TRANSPORT_CONFIG)
            json_stats = _summary(*_drive(
                handle.host, handle.port, [json_body], None, clients, requests_per_client
            ), clients)
            binary_stats = _summary(*_drive(
                handle.host, handle.port, [binary_body], dict(BINARY_HEADERS),
                clients, requests_per_client,
            ), clients)
        finally:
            handle.stop()
        rows.append(
            {
                "num_assets": num_assets,
                "request_config": TRANSPORT_CONFIG,
                "json_body_bytes": len(json_body),
                "binary_body_bytes": len(binary_body),
                "body_bloat": round(len(json_body) / len(binary_body), 2),
                "json": json_stats,
                "binary": binary_stats,
                "binary_speedup_rps": (
                    round(binary_stats["rps"] / json_stats["rps"], 2)
                    if json_stats["rps"] > 0
                    else float("inf")
                ),
                "result_byte_identical": result_identical,
            }
        )
    return rows


def _measure_fleet_sweep(
    replica_counts: List[int],
    num_assets: int,
    distinct: int,
    clients: int,
    requests_per_client: int,
) -> List[Dict[str, Any]]:
    """Aggregate RPS/p99 vs replica count behind the consistent-hash router.

    Cache-hit workload: every distinct matrix is POSTed once to warm its
    home replica, then the closed loop replays the same bodies — each
    request pays HTTP + JSON decode + fingerprint + cache lookup on the
    replica, the per-core cost horizontal replicas exist to multiply."""
    matrices = [_series(num_assets, seed=900 + i) for i in range(distinct)]
    encoder = ServeClient()
    bodies = [encoder.encode_cluster_body(m, TRANSPORT_CONFIG) for m in matrices]
    rows: List[Dict[str, Any]] = []
    for workers in replica_counts:
        fleet = build_fleet(
            workers, ["--fit-workers", "2"],
            port=0, stagger_seconds=0.1,
        )
        handle = fleet.start_in_background()
        try:
            with ServeClient(handle.host, handle.port, timeout=300.0) as warm:
                warm.wait_healthy(120)
                for body in bodies:
                    warm.request("POST", "/cluster", body)
            stats = _summary(*_drive(
                handle.host, handle.port, bodies, None, clients, requests_per_client
            ), clients)
            with ServeClient(handle.host, handle.port) as scrape:
                metrics = scrape.metrics()
        finally:
            handle.stop()
        stats["workers"] = workers
        stats["routed_total"] = {
            name: doc["routed_total"] for name, doc in metrics["replicas"].items()
        }
        stats["restarts_total"] = metrics["fleet"]["restarts_total"]
        stats["failovers_total"] = metrics["fleet"]["failovers_total"]
        rows.append(stats)
    base_rps = rows[0]["rps"] if rows else 0.0
    for row in rows:
        row["speedup_vs_single"] = (
            round(row["rps"] / base_rps, 2) if base_rps > 0 else float("inf")
        )
    return rows


def _fleet_identity_check(matrix: np.ndarray) -> Dict[str, bool]:
    """Routed-vs-direct byte identity through a shared ``--cache-dir``.

    The direct single-process server fits and stores the entry; the fleet
    replicas (separate processes) serve the *same disk entry*, so the
    ``result`` payload — per-fit timings included — must match the direct
    response byte-for-byte on both transports."""
    with tempfile.TemporaryDirectory(prefix="bench-fleet-cache-") as cache_dir:
        clear_result_caches()
        direct_server = ClusteringServer(
            port=0,
            default_config=ClusteringConfig(cache=True, cache_dir=cache_dir),
        )
        handle = direct_server.start_in_background()
        try:
            with ServeClient(handle.host, handle.port) as client:
                direct_json = client.cluster(matrix, config=TRANSPORT_CONFIG)
                direct_binary = client.cluster(matrix, config=TRANSPORT_CONFIG, binary=True)
        finally:
            handle.stop()
        clear_result_caches()
        fleet = build_fleet(
            2, ["--cache-dir", cache_dir],
            port=0, stagger_seconds=0.1,
        )
        fleet_handle = fleet.start_in_background()
        try:
            with ServeClient(fleet_handle.host, fleet_handle.port) as client:
                client.wait_healthy(120)
                routed_json = client.cluster(matrix, config=TRANSPORT_CONFIG)
                routed_binary = client.cluster(matrix, config=TRANSPORT_CONFIG, binary=True)
        finally:
            fleet_handle.stop()
    return {
        "json_result_byte_identical": (
            json.dumps(routed_json["result"]) == json.dumps(direct_json["result"])
        ),
        "binary_result_byte_identical": (
            json.dumps(routed_binary["result"]) == json.dumps(direct_binary["result"])
        ),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=DEFAULT_ASSETS)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS,
                        help="requests per client: the single-flight section's "
                        "burst count, the closed loops' length")
    parser.add_argument("--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
                        help="required single-flight/direct-fit RPS ratio (acceptance bound)")
    parser.add_argument("--fit-workers", type=int, default=2,
                        help="server executor threads (default 2: one fits while the "
                        "other keys the identical requests that join it; only one "
                        "fit per key is ever in flight, so the ratio measures the "
                        "sharing, not pool parallelism)")
    parser.add_argument("--binary", action="store_true",
                        help="drive the single-flight loop over binary wire bodies "
                        "instead of JSON")
    parser.add_argument("--transport-sizes", default=DEFAULT_TRANSPORT_SIZES,
                        help="comma-separated asset counts for the JSON-vs-binary "
                        f"transport comparison (default {DEFAULT_TRANSPORT_SIZES}; "
                        "empty string skips it)")
    parser.add_argument("--min-binary-speedup", type=float, default=DEFAULT_MIN_BINARY_SPEEDUP,
                        help="required binary/JSON RPS ratio at the largest transport "
                        f"size (default {DEFAULT_MIN_BINARY_SPEEDUP}x)")
    parser.add_argument("--replica-sweep", default="",
                        help="comma-separated replica counts for the multi-process "
                        "fleet sweep behind the consistent-hash router (e.g. 1,2,4; "
                        "empty string skips it)")
    parser.add_argument("--fleet-distinct", type=int, default=16,
                        help="distinct matrices the fleet sweep spreads over the "
                        "hash ring (default 16)")
    parser.add_argument("--no-fleet-gate", action="store_true",
                        help="record the fleet sweep without asserting the scaling "
                        "bounds (they are also skipped automatically on hosts with "
                        "fewer cores than replicas)")
    parser.add_argument("--json", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    matrix = _series(args.assets)
    request_config = {"num_clusters": NUM_CLUSTERS, "prefix": PREFIX}
    # Cache off in the server default (cache is operator-controlled, not a
    # request field): the measured win is in-flight fit sharing, not
    # repeat-traffic cache hits (bench_cache.py covers those).
    single_flight, direct_fits = _measure_single_flight(
        matrix, request_config, args.clients, args.requests, args.fit_workers,
        binary=args.binary,
    )

    transport_sizes = [int(s) for s in args.transport_sizes.split(",") if s.strip()]
    transport = (
        _measure_transports(transport_sizes, args.clients, args.requests)
        if transport_sizes
        else []
    )

    # Byte-identity acceptance: serve one request with the cache on, then
    # make the same fit directly — same process, shared cache, so the
    # direct fit serves the stored entry and the bytes must match exactly.
    clear_result_caches()
    cached_default = ClusteringConfig(cache=True)
    server = ClusteringServer(port=0, default_config=cached_default)
    handle = server.start_in_background()
    try:
        with ServeClient(handle.host, handle.port) as client:
            envelope = client.cluster(matrix, config={"num_clusters": NUM_CLUSTERS, "prefix": PREFIX})
    finally:
        handle.stop()
    direct = (
        TMFGClusterer(cached_default.replace(num_clusters=NUM_CLUSTERS, prefix=PREFIX))
        .fit(matrix)
        .result_
    )
    byte_identical = json.dumps(envelope["result"]) == direct.to_json()

    replica_counts = [int(s) for s in args.replica_sweep.split(",") if s.strip()]
    fleet_sweep = (
        _measure_fleet_sweep(
            replica_counts, args.assets, args.fleet_distinct,
            args.clients, args.requests,
        )
        if replica_counts
        else []
    )
    fleet_identity = _fleet_identity_check(matrix) if replica_counts else None
    cores = os.cpu_count() or 1
    for row in fleet_sweep:
        gate = FLEET_GATES.get(row["workers"])
        row["gate"] = gate
        row["gate_applied"] = (
            gate is not None and not args.no_fleet_gate and cores >= row["workers"]
        )

    speedup = (
        single_flight["rps"] / direct_fits["rps"] if direct_fits["rps"] > 0 else float("inf")
    )
    report = {
        "benchmark": "serve_throughput",
        "num_assets": args.assets,
        "workload": "repetitive (all clients POST the same matrix, cache off)",
        "transport_mode": "binary" if args.binary else "json",
        "single_flight": single_flight,
        "direct_fits": direct_fits,
        "speedup_rps": round(speedup, 2),
        "min_speedup": args.min_speedup,
        "byte_identical_to_direct_fit": byte_identical,
        "transport": {
            "workload": "cache-hit (transport-bound: encode + HTTP + decode + fingerprint)",
            "clients": args.clients,
            "requests_per_client": args.requests,
            "min_binary_speedup": args.min_binary_speedup,
            "sizes": transport,
        },
        "fleet": {
            "workload": (
                "cache-hit closed loop over distinct matrices, hash-spread "
                "across replicas behind the consistent-hash router"
            ),
            "cpu_count": os.cpu_count(),
            "clients": args.clients,
            "requests_per_client": args.requests,
            "distinct_matrices": args.fleet_distinct,
            "gates": {str(workers): gate for workers, gate in FLEET_GATES.items()},
            "sweep": fleet_sweep,
            "identity": fleet_identity,
        },
    }
    import benchlib

    benchlib.write_report("serve.json", report, override=args.json)
    assert byte_identical, "served payload diverged from the direct estimator fit"
    assert speedup >= args.min_speedup, (
        f"single-flight serving gave only {speedup:.2f}x the RPS of sequential "
        f"direct fits (required {args.min_speedup}x)"
    )
    for row in transport:
        assert row["result_byte_identical"], (
            f"binary and JSON transports served different result payloads at "
            f"{row['num_assets']} assets"
        )
    if transport:
        largest = max(transport, key=lambda row: row["num_assets"])
        assert largest["binary_speedup_rps"] >= args.min_binary_speedup, (
            f"binary transport gave only {largest['binary_speedup_rps']:.2f}x over JSON "
            f"at {largest['num_assets']} assets (required {args.min_binary_speedup}x)"
        )
    if fleet_identity is not None:
        assert fleet_identity["json_result_byte_identical"], (
            "the routed JSON response diverged from the direct single-replica response"
        )
        assert fleet_identity["binary_result_byte_identical"], (
            "the routed binary response diverged from the direct single-replica response"
        )
    for row in fleet_sweep:
        if row["gate_applied"]:
            assert row["speedup_vs_single"] >= row["gate"], (
                f"{row['workers']} replicas gave only {row['speedup_vs_single']:.2f}x "
                f"the single-replica RPS (required {row['gate']}x on this "
                f"{cores}-core host)"
            )
    return report


if __name__ == "__main__":
    main()

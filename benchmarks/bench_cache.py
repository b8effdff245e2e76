"""Result-cache serving benchmark: cold vs warm estimator loops.

Models the repetitive serving workload the cache exists for: one batch of
``--jobs`` byte-identical ``--assets``-asset similarity matrices (the same
window re-requested over and over), clustered as a loop of
``estimator.fit`` calls two ways:

* **cold** — cache off: every job is a full TMFG→APSP→DBHT fit;
* **warm** — cache on, second loop: every job is a cache hit.

The acceptance bound (default ≥10x at 50 x 200 assets) is asserted on the
warm path, and every warm payload must be byte-identical to the priming
call's.  Prints one JSON document (and writes it with ``--json``)::

    PYTHONPATH=src python benchmarks/bench_cache.py
    PYTHONPATH=src python benchmarks/bench_cache.py --assets 60 --jobs 8 --json out.json
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.api import ClusteringConfig, make_estimator
from repro.cache import clear_result_caches, get_result_cache
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset

DEFAULT_ASSETS = 200
DEFAULT_JOBS = 50
DEFAULT_MIN_SPEEDUP = 10.0
NUM_CLUSTERS = 4
PREFIX = 10


def _similarity(num_assets: int, seed: int = 42) -> np.ndarray:
    dataset = make_time_series_dataset(
        num_objects=num_assets, length=128, num_classes=NUM_CLUSTERS, noise=1.1, seed=seed
    )
    similarity, _ = similarity_and_dissimilarity(dataset.data)
    return similarity


def _fit_loop(config: ClusteringConfig, matrices):
    """The batch idiom: one estimator, one ``fit`` per matrix."""
    estimator = make_estimator(config.method, config)
    return [estimator.fit(matrix).result_ for matrix in matrices]


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assets", type=int, default=DEFAULT_ASSETS)
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS)
    parser.add_argument("--min-speedup", type=float, default=DEFAULT_MIN_SPEEDUP,
                        help="required cold/warm ratio (acceptance bound)")
    parser.add_argument("--json", default=None, help="also write the report to this file")
    args = parser.parse_args(argv)

    matrices = [_similarity(args.assets)] * args.jobs
    plain = ClusteringConfig(precomputed=True, num_clusters=NUM_CLUSTERS, prefix=PREFIX)
    cached = plain.replace(cache=True)

    # Warm-up (imports) outside every timed region.
    clear_result_caches()
    _fit_loop(plain, matrices[:1])

    start = time.perf_counter()
    cold_results = _fit_loop(plain, matrices)
    cold_seconds = time.perf_counter() - start

    clear_result_caches()
    priming_results = _fit_loop(cached, matrices)
    start = time.perf_counter()
    warm_results = _fit_loop(cached, matrices)
    warm_seconds = time.perf_counter() - start
    stats = get_result_cache().stats

    byte_identical = all(
        warm.to_json() == primed.to_json()
        for warm, primed in zip(warm_results, priming_results)
    )
    labels_match = all(
        np.array_equal(warm.labels, cold.labels)
        for warm, cold in zip(warm_results, cold_results)
    )
    report = {
        "benchmark": "result_cache",
        "num_assets": args.assets,
        "jobs": args.jobs,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "speedup_warm": round(cold_seconds / warm_seconds, 2),
        "min_speedup": args.min_speedup,
        "byte_identical_payloads": byte_identical,
        "labels_match_cold": labels_match,
        "cache_stats": stats.as_dict(),
    }
    import benchlib

    benchlib.write_report("cache.json", report, override=args.json)
    assert byte_identical, "warm payloads diverged from the priming call"
    assert labels_match, "warm labels diverged from the cold run"
    assert report["speedup_warm"] >= args.min_speedup, (
        f"warm serving is only {report['speedup_warm']}x over cold "
        f"(required {args.min_speedup}x)"
    )
    return report


if __name__ == "__main__":
    main()

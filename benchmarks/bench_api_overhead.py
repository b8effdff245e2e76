"""Estimator-layer overhead: ``TMFGClusterer`` vs direct ``tmfg_dbht``.

The estimator API wraps the functional pipeline in a config object, a
registry lookup, and a result wrapper; none of that may cost real time.
This benchmark measures both paths end to end on a 200-asset correlation
matrix (similarity precomputed, so both sides time exactly the same
pipeline work) and asserts the wrapper stays within 2% of the direct call.

Run standalone (prints one JSON document and enforces the bound)::

    PYTHONPATH=src python benchmarks/bench_api_overhead.py

or under pytest-benchmark like the other ``bench_*`` scripts.
"""

import json
import time

import numpy as np
import pytest

from repro.api import ClusteringConfig, TMFGClusterer
from repro.core.pipeline import tmfg_dbht
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset

NUM_ASSETS = 200
NUM_CLUSTERS = 4
PREFIX = 10
REPEATS = 7
MAX_OVERHEAD = 0.02


def _similarity(n: int = NUM_ASSETS, seed: int = 42) -> np.ndarray:
    dataset = make_time_series_dataset(
        num_objects=n, length=128, num_classes=NUM_CLUSTERS, noise=1.1, seed=seed
    )
    similarity, _ = similarity_and_dissimilarity(dataset.data)
    return similarity


def _run_direct(similarity: np.ndarray) -> np.ndarray:
    return tmfg_dbht(similarity, prefix=PREFIX).cut(NUM_CLUSTERS)


def _run_estimator(similarity: np.ndarray) -> np.ndarray:
    config = ClusteringConfig(
        prefix=PREFIX, num_clusters=NUM_CLUSTERS, precomputed=True
    )
    return TMFGClusterer(config).fit_predict(similarity)


def _best_of(func, similarity, repeats: int = REPEATS) -> float:
    """Minimum wall-clock over ``repeats`` runs (the standard noise filter)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(similarity)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def similarity():
    return _similarity()


def test_bench_direct_pipeline(benchmark, similarity):
    labels = benchmark.pedantic(_run_direct, args=(similarity,), rounds=2, iterations=1)
    assert len(labels) == NUM_ASSETS


def test_bench_estimator_layer(benchmark, similarity):
    labels = benchmark.pedantic(_run_estimator, args=(similarity,), rounds=2, iterations=1)
    assert len(labels) == NUM_ASSETS


def main() -> dict:
    similarity = _similarity()
    # Warm up both paths (imports, numpy buffers).
    direct_labels = _run_direct(similarity)
    estimator_labels = _run_estimator(similarity)

    direct_seconds = _best_of(_run_direct, similarity)
    estimator_seconds = _best_of(_run_estimator, similarity)
    overhead = estimator_seconds / direct_seconds - 1.0

    report = {
        "benchmark": "api_overhead",
        "num_assets": NUM_ASSETS,
        "prefix": PREFIX,
        "repeats": REPEATS,
        "direct_seconds": round(direct_seconds, 6),
        "estimator_seconds": round(estimator_seconds, 6),
        "overhead_fraction": round(overhead, 6),
        "max_overhead_fraction": MAX_OVERHEAD,
        "identical_labels": bool(np.array_equal(direct_labels, estimator_labels)),
    }
    import benchlib

    benchlib.write_report("api_overhead.json", report)
    assert report["identical_labels"], "estimator output diverged from tmfg_dbht"
    assert overhead < MAX_OVERHEAD, (
        f"estimator layer adds {overhead:.2%} over direct tmfg_dbht "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
    return report


if __name__ == "__main__":
    main()

"""APSP scaling sweep: every method's wall-clock, then landmark quality.

Two sections, one JSON report (``benchmarks/results/scaling.json``):

* **cold** — per graph size, wall-clock of every APSP method on the TMFG
  distance graph (``dijkstra`` numpy/python kernels, ``scipy``, ``floyd``;
  the cubic/interpreted ones are capped at small sizes), plus ``landmark``
  at the default count.
* **landmark quality** — the Fig-1-style quality-vs-time curve at the
  largest size: ARI of the DBHT cut under ``apsp_method="landmark"``
  against the exact cut, over the ``--landmark-grid``, with the APSP
  wall-clock per point.  The mean distance error must shrink monotonically
  in the landmark count (nested selection guarantees it pointwise).

Standalone::

    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 500,1000,2000,5000

CI smoke (see ``.github/workflows/ci.yml``) runs ``--sizes 200,500``.  The
pytest entry point at the bottom keeps the original
Section VII-A figure benchmark.
"""

import argparse
import time

import numpy as np

from repro.core.dbht import dbht
from repro.core.tmfg import construct_tmfg
from repro.datasets.synthetic import make_time_series_dataset
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.graph.csr import CSRGraph
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.metrics.ari import adjusted_rand_index

#: Interpreted / cubic methods are skipped above these sizes.
PYTHON_KERNEL_CAP = 1000
FLOYD_CAP = 1000
PREFIX = 10
NUM_CLUSTERS = 8


def _build(size: int, seed: int):
    """(similarity, dissimilarity, tmfg, distance CSR) for one sweep size."""
    dataset = make_time_series_dataset(
        num_objects=size, length=64, num_classes=NUM_CLUSTERS, noise=1.0, seed=seed
    )
    similarity, dissimilarity = similarity_and_dissimilarity(dataset.data)
    tmfg = construct_tmfg(similarity, prefix=PREFIX, build_bubble_tree=True)
    csr = tmfg.csr().reweighted(dissimilarity)
    return similarity, dissimilarity, tmfg, csr


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def cold_section(csr: CSRGraph, size: int) -> list:
    """Wall-clock of every applicable cold APSP method at this size."""
    rows = []
    reference, seconds = _timed(lambda: all_pairs_shortest_paths(csr, kernel="numpy"))
    rows.append({"method": "dijkstra", "kernel": "numpy", "seconds": round(seconds, 4)})
    if size <= PYTHON_KERNEL_CAP:
        result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, kernel="python"))
        rows.append(
            {
                "method": "dijkstra",
                "kernel": "python",
                "seconds": round(seconds, 4),
                "identical": bool(np.array_equal(result, reference)),
            }
        )
    result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, method="scipy"))
    rows.append(
        {
            "method": "scipy",
            "seconds": round(seconds, 4),
            "max_abs_diff": float(np.max(np.abs(result - reference))),
        }
    )
    if size <= FLOYD_CAP:
        result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, method="floyd"))
        rows.append(
            {
                "method": "floyd",
                "seconds": round(seconds, 4),
                "max_abs_diff": float(np.max(np.abs(result - reference))),
            }
        )
    result, seconds = _timed(lambda: all_pairs_shortest_paths(csr, method="landmark"))
    overestimate = result - reference
    rows.append(
        {
            "method": "landmark",
            "landmarks": 32,
            "seconds": round(seconds, 4),
            "mean_abs_error": float(np.mean(np.abs(overestimate))),
        }
    )
    return rows


def landmark_quality_section(similarity, dissimilarity, tmfg, args) -> dict:
    """ARI-vs-time curve of the landmark mode against the exact DBHT cut."""
    exact = dbht(tmfg, similarity, dissimilarity, apsp_method="dijkstra", kernel="numpy")
    exact_labels = exact.cut(NUM_CLUSTERS)
    exact_distances = exact.shortest_paths
    exact_seconds = exact.step_seconds["apsp"]
    grid = sorted(args.landmark_grid)
    points = []
    previous_error = np.inf
    for count in grid:
        result = dbht(
            tmfg,
            similarity,
            dissimilarity,
            apsp_method="landmark",
            landmarks=count,
            kernel="numpy",
        )
        labels = result.cut(NUM_CLUSTERS)
        error = float(np.mean(np.abs(result.shortest_paths - exact_distances)))
        # Nested landmark prefixes tighten the bound pointwise, so the mean
        # error is monotone by construction; a violation is a bug.
        assert error <= previous_error + 1e-12, (
            f"landmark error increased from {previous_error} to {error} at L={count}"
        )
        previous_error = error
        points.append(
            {
                "landmarks": count,
                "apsp_seconds": round(result.step_seconds["apsp"], 4),
                "ari_vs_exact": round(float(adjusted_rand_index(labels, exact_labels)), 4),
                "mean_abs_distance_error": error,
            }
        )
    return {
        "num_vertices": tmfg.num_vertices,
        "num_clusters": NUM_CLUSTERS,
        "exact_apsp_seconds": round(exact_seconds, 4),
        "points": points,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="500,1000,2000,5000",
        help="comma-separated vertex counts to sweep",
    )
    parser.add_argument(
        "--landmark-grid",
        default="4,8,16,32",
        help="landmark counts for the quality-vs-time curve (up to the "
        "default landmark count; single-cut ARI gets noisy past it)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, help="override the report path")
    args = parser.parse_args(argv)
    args.landmark_grid = [int(part) for part in str(args.landmark_grid).split(",")]
    sizes = [int(part) for part in str(args.sizes).split(",")]

    report = {
        "benchmark": "apsp_scaling",
        "prefix": PREFIX,
        "sizes": sizes,
        "cold": [],
    }
    largest_artifacts = None
    for size in sizes:
        similarity, dissimilarity, tmfg, csr = _build(size, args.seed)
        print(f"-- size {size}: graph built ({csr.num_edges} edges)", flush=True)
        report["cold"].append({"num_vertices": size, "methods": cold_section(csr, size)})
        if size == max(sizes):
            largest_artifacts = (similarity, dissimilarity, tmfg)

    similarity, dissimilarity, tmfg = largest_artifacts
    report["landmark_quality"] = landmark_quality_section(
        similarity, dissimilarity, tmfg, args
    )

    import benchlib

    benchlib.write_report("scaling.json", report, override=args.json)
    return report


# -- pytest entry point (the original Section VII-A figure benchmark) --------


def test_scaling_with_data_size(benchmark, config, emit):
    from repro.experiments.figures import scaling_with_data_size

    result = benchmark.pedantic(
        scaling_with_data_size,
        kwargs={"config": config, "sizes": (80, 140, 220, 340), "prefix": 10},
        rounds=1,
        iterations=1,
    )
    emit("scaling_with_data_size", result)
    # Super-linear but clearly polynomial scaling (the paper reports ~n^2.2).
    assert 1.2 <= result["exponent"] <= 3.2


if __name__ == "__main__":
    main()

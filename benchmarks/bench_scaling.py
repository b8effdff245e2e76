"""APSP scaling sweep: the production kernel's wall-clock, with SciPy headroom.

Per graph size, on the TMFG distance graph, one JSON report
(``benchmarks/results/scaling.json``) records

* the production APSP (``all_pairs_shortest_paths``: the serial frontier
  kernel, exact Dijkstra distances), and
* SciPy's C Dijkstra (``scipy.sparse.csgraph.shortest_path``, called
  directly here; the library does not use it) as the headroom reference,
  with whether its distances are byte-identical to the production ones.

SciPy is an independent APSP, so the sweep is also a byte-identity gate:
after writing the report, the script exits non-zero if the production
distances differ from SciPy's at any size.

Standalone::

    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 500,1000,2000,5000

CI smoke (see ``.github/workflows/ci.yml``) runs ``--sizes 200,500``.  The
pytest entry point at the bottom keeps the original
Section VII-A figure benchmark.
"""

import argparse
import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.core.tmfg import construct_tmfg
from repro.datasets.synthetic import make_time_series_dataset
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.graph.csr import CSRGraph
from repro.graph.shortest_paths import all_pairs_shortest_paths

PREFIX = 10
NUM_CLUSTERS = 8


def _build(size: int, seed: int) -> CSRGraph:
    """The TMFG distance graph (CSR, dissimilarity weights) for one size."""
    dataset = make_time_series_dataset(
        num_objects=size, length=64, num_classes=NUM_CLUSTERS, noise=1.0, seed=seed
    )
    similarity, dissimilarity = similarity_and_dissimilarity(dataset.data)
    tmfg = construct_tmfg(similarity, prefix=PREFIX, build_bubble_tree=False)
    return tmfg.csr().reweighted(dissimilarity)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _scipy_apsp(csr: CSRGraph) -> np.ndarray:
    n = csr.num_vertices
    # Built from (data, indices, indptr), the matrix keeps explicit zeros as
    # zero-length edges, as the production kernel does.
    sparse = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    return shortest_path(sparse, method="D", directed=False)


def cold_section(csr: CSRGraph) -> list:
    """Wall-clock of the production APSP and of SciPy's at this size."""
    reference, seconds = _timed(lambda: all_pairs_shortest_paths(csr))
    rows = [{"method": "dijkstra", "seconds": round(seconds, 4)}]
    result, seconds = _timed(lambda: _scipy_apsp(csr))
    rows.append(
        {
            "method": "scipy",
            "seconds": round(seconds, 4),
            "identical": bool(np.array_equal(result, reference)),
            "max_abs_diff": float(np.max(np.abs(result - reference))),
        }
    )
    return rows


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="500,1000,2000,5000",
        help="comma-separated vertex counts to sweep",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, help="override the report path")
    args = parser.parse_args(argv)
    sizes = [int(part) for part in str(args.sizes).split(",")]

    report = {
        "benchmark": "apsp_scaling",
        "prefix": PREFIX,
        "sizes": sizes,
        "cold": [],
    }
    for size in sizes:
        csr = _build(size, args.seed)
        print(f"-- size {size}: graph built ({csr.num_edges} edges)", flush=True)
        report["cold"].append({"num_vertices": size, "methods": cold_section(csr)})

    import benchlib

    benchlib.write_report("scaling.json", report, override=args.json)
    drifted = [
        section["num_vertices"]
        for section in report["cold"]
        if not all(row.get("identical", True) for row in section["methods"])
    ]
    if drifted:
        raise SystemExit(f"production APSP is not byte-identical to SciPy at sizes {drifted}")
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

"""The prefix trade-off: graph quality, clustering quality, and parallelism.

The central knob of the paper's parallel TMFG is the prefix size: how many
vertices are inserted per round.  This example sweeps the prefix on one data
set — one frozen ``ClusteringConfig`` per prefix, all derived from a shared
base with ``config.replace`` — and reports, for each value, (a) the number
of construction rounds, (b) the kept edge weight relative to the exact TMFG,
(c) the ARI of the DBHT clustering, and (d) the predicted 48-core speedup
from the work-span cost model — i.e. a miniature of Figs. 4, 6, and 7 in one
table.

Run with:  python examples/prefix_tradeoff.py
"""

from __future__ import annotations

from repro import ClusteringConfig, make_estimator
from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.ucr_like import load_ucr_like
from repro.experiments.reporting import format_table
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.edge_sum import edge_weight_sum_ratio
from repro.parallel.cost_model import fit_cost, predicted_speedup


def main() -> None:
    dataset = load_ucr_like(8, scale=0.05, noise=1.3, outlier_fraction=0.05, seed=8)
    similarity, _ = similarity_and_dissimilarity(dataset.data)
    reference = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)

    # Scheduling-overhead constant of the work-span model (see DESIGN.md);
    # the same value the Fig. 4 reproduction uses.
    span_overhead = 100.0
    base = ClusteringConfig(method="tmfg-dbht", num_clusters=dataset.num_classes)
    rows = []
    for prefix in (1, 2, 5, 10, 30, 50, 200):
        estimator = make_estimator(base.method, base.replace(prefix=prefix))
        labels = estimator.fit_predict(dataset.data)
        pipeline = estimator.result_.raw
        rows.append(
            (
                prefix,
                pipeline.tmfg.rounds,
                round(edge_weight_sum_ratio(pipeline.tmfg.graph, reference.graph), 4),
                round(adjusted_rand_index(dataset.labels, labels), 3),
                round(
                    predicted_speedup(
                        fit_cost(pipeline.tmfg, pipeline.dbht), 48, span_overhead=span_overhead
                    ),
                    1,
                ),
            )
        )
    print(
        format_table(
            ["prefix", "rounds", "edge-sum ratio", "ARI", "predicted 48-core speedup"],
            rows,
            title=f"Prefix trade-off on the {dataset.name} stand-in (n={dataset.num_objects})",
        )
    )


if __name__ == "__main__":
    main()

"""Ablation: the production APSP vs SciPy's C implementation.

Figure 5 shows that once the TMFG construction is batched, the all-pairs
shortest-path computation becomes the bottleneck of PAR-TDBHT; the paper
notes the end-to-end time "could potentially be improved by using a more
sophisticated APSP implementation".  This ablation quantifies that head-room
by timing SciPy's C Dijkstra (``scipy.sparse.csgraph``, called directly;
the library does not use it) against the production frontier kernel on the
same graph (identical distances).
"""

import numpy as np
import pytest

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.ucr_like import load_ucr_like
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.weighted_graph import WeightedGraph


def _scipy_apsp(graph: WeightedGraph) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    csr = graph.to_csr()
    n = csr.num_vertices
    sparse = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    return shortest_path(sparse, method="D", directed=False)


@pytest.fixture(scope="module")
def distance_graph():
    dataset = load_ucr_like(8, scale=0.035, noise=1.2, seed=5)
    similarity, dissimilarity = similarity_and_dissimilarity(dataset.data)
    tmfg = construct_tmfg(similarity, prefix=10, build_bubble_tree=False)
    graph = WeightedGraph(tmfg.graph.num_vertices)
    for u, v, _ in tmfg.graph.edges():
        graph.add_edge(u, v, float(dissimilarity[u, v]))
    return graph


def test_ablation_apsp_dijkstra(benchmark, distance_graph):
    distances = benchmark.pedantic(
        all_pairs_shortest_paths,
        args=(distance_graph,),
        kwargs={"method": "dijkstra"},
        rounds=3,
        iterations=1,
    )
    assert distances.shape[0] == distance_graph.num_vertices


def test_ablation_apsp_scipy(benchmark, distance_graph):
    scipy_distances = benchmark.pedantic(
        _scipy_apsp,
        args=(distance_graph,),
        rounds=3,
        iterations=1,
    )
    dijkstra_distances = all_pairs_shortest_paths(distance_graph, method="dijkstra")
    np.testing.assert_allclose(scipy_distances, dijkstra_distances, rtol=1e-9, atol=1e-9)

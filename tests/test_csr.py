"""Property tests: the CSR engine is a drop-in for the adjacency-list path.

The refactor's contract is exact equivalence, not approximate: APSP
distances from the CSR kernels must be *byte-identical* to the
adjacency-list reference Dijkstra, the array-native TMFG construction must
produce the same edges as the sort-based selection oracle, and the full
``tmfg_dbht`` pipeline must yield identical labels and dendrogram heights
under either APSP kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.core.tmfg import construct_tmfg
from repro.graph.csr import CSRGraph
from repro.graph.shortest_paths import all_pairs_shortest_paths, dijkstra
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.kernels import available_kernels, kernel_scope
from repro.parallel.scheduler import ProcessBackend, ThreadBackend
from tests.oracles import reference_tmfg

SEEDS = [0, 1, 2, 3, 4]


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _random_similarity(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    similarity = (raw + raw.T) / 2.0
    np.fill_diagonal(similarity, 1.0)
    return similarity


class TestCSRStructure:
    def test_roundtrip_preserves_graph(self):
        graph = _random_graph(20, 0.3, 0)
        thawed = graph.to_csr().to_weighted_graph()
        assert set(graph.edges()) == set(thawed.edges())

    def test_neighbors_sorted_and_symmetric(self):
        graph = _random_graph(15, 0.4, 1)
        csr = graph.to_csr()
        assert csr.num_edges == graph.num_edges
        for u in range(15):
            neighbors, weights = csr.neighbors(u)
            assert list(neighbors) == sorted(graph.neighbor_ids(u))
            for v, w in zip(neighbors, weights):
                assert w == graph.weight(u, int(v))

    def test_weighted_degrees_match(self):
        graph = _random_graph(25, 0.3, 2)
        np.testing.assert_allclose(
            graph.to_csr().weighted_degrees(), graph.weighted_degrees()
        )

    def test_reweighted_swaps_weights_keeps_topology(self):
        graph = _random_graph(12, 0.5, 3)
        matrix = np.abs(_random_similarity(12, 4)) + 1.0
        reweighted = graph.to_csr().reweighted(matrix)
        assert {(u, v) for u, v, _ in reweighted.edges()} == {
            (u, v) for u, v, _ in graph.edges()
        }
        for u, v, weight in reweighted.edges():
            assert weight == matrix[u, v]

    def test_reweighted_symmetrizes_near_asymmetric_matrices(self):
        # Regression: matrix validators accept asymmetry within float
        # tolerance; both arc directions must still get the upper-triangle
        # entry so the graph stays undirected and kernels stay identical.
        graph = _random_graph(10, 0.5, 6)
        matrix = np.abs(_random_similarity(10, 7)) + 1.0
        matrix = np.triu(matrix) + np.triu(matrix, 1).T
        perturbed = matrix.copy()
        perturbed[np.tril_indices(10, -1)] += 5e-9
        csr = graph.to_csr().reweighted(perturbed)
        for u in range(10):
            neighbors, weights = csr.neighbors(u)
            for v, w in zip(neighbors, weights):
                assert w == matrix[min(u, int(v)), max(u, int(v))]
        python_result = all_pairs_shortest_paths(csr, kernel="python")
        numpy_result = all_pairs_shortest_paths(csr, kernel="numpy")
        np.testing.assert_array_equal(python_result, numpy_result)

    def test_reweighted_rejects_wrong_shape(self):
        csr = _random_graph(6, 0.5, 5).to_csr()
        with pytest.raises(ValueError):
            csr.reweighted(np.zeros((3, 3)))

    def test_empty_and_isolated_vertices(self):
        graph = WeightedGraph(4)
        graph.add_edge(0, 1, 2.0)
        csr = graph.to_csr()
        assert csr.degree(2) == 0
        assert csr.num_edges == 1
        empty = WeightedGraph(0).to_csr()
        assert empty.num_vertices == 0

    def test_negative_weights_caught_at_freeze(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, -1.0)
        csr = graph.to_csr()
        assert csr.has_negative_weights()
        with pytest.raises(ValueError):
            dijkstra(csr, 0)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(csr)


class TestAPSPEquivalence:
    """CSR kernels vs the adjacency-list reference: byte-identical."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_kernels_byte_identical_on_random_graphs(self, seed, kernel):
        graph = _random_graph(30, 0.2, seed)
        reference = np.vstack([dijkstra(graph, s) for s in range(30)])
        result = all_pairs_shortest_paths(graph.to_csr(), kernel=kernel)
        np.testing.assert_array_equal(result, reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kernels_byte_identical_on_tmfg(self, seed):
        similarity = _random_similarity(40, seed)
        tmfg = construct_tmfg(similarity, prefix=5, build_bubble_tree=False)
        dissimilarity = similarity.max() - similarity
        np.fill_diagonal(dissimilarity, 0.0)
        csr = tmfg.graph.to_csr().reweighted(dissimilarity)
        python_result = all_pairs_shortest_paths(csr, kernel="python")
        numpy_result = all_pairs_shortest_paths(csr, kernel="numpy")
        np.testing.assert_array_equal(python_result, numpy_result)

    def test_backends_byte_identical(self):
        graph = _random_graph(25, 0.3, 7)
        serial = all_pairs_shortest_paths(graph)
        thread_backend = ThreadBackend(num_workers=4)
        process_backend = ProcessBackend(num_workers=2)
        try:
            threaded = all_pairs_shortest_paths(graph, backend=thread_backend)
            processed = all_pairs_shortest_paths(graph, backend=process_backend)
        finally:
            thread_backend.close()
            process_backend.close()
        np.testing.assert_array_equal(serial, threaded)
        np.testing.assert_array_equal(serial, processed)

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_trailing_isolated_vertices(self, kernel):
        # Regression: an isolated *last* vertex must not truncate the
        # previous vertex's relaxation segment in the numpy kernel.
        graph = WeightedGraph(4)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 1.0)
        result = all_pairs_shortest_paths(graph.to_csr(), kernel=kernel)
        expected = np.vstack([dijkstra(graph, s) for s in range(4)])
        np.testing.assert_array_equal(result, expected)
        assert result[1, 0] == 2.0
        assert np.isinf(result[3, 0])

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_out_of_range_sources_rejected(self, kernel):
        from repro.graph.shortest_paths import shortest_paths_from_sources

        csr = _random_graph(5, 0.5, 0).to_csr()
        with pytest.raises(IndexError):
            shortest_paths_from_sources(csr, [-1], kernel=kernel)
        with pytest.raises(IndexError):
            shortest_paths_from_sources(csr, [5], kernel=kernel)

    def test_string_backend_accepted(self):
        graph = _random_graph(15, 0.4, 11)
        serial = all_pairs_shortest_paths(graph)
        named = all_pairs_shortest_paths(graph, backend="thread")
        np.testing.assert_array_equal(serial, named)

    def test_both_kernels_registered(self):
        assert available_kernels("apsp") == ["numpy", "python"]
        # The gain table is array-native only: no kernel pair to choose from.
        assert available_kernels("gain_update") == []


class TestTMFGEquivalence:
    """Array-native gain table: the sort oracle's TMFG edges on random inputs."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", [1, 4, 10])
    def test_edge_sets_identical(self, seed, prefix):
        similarity = _random_similarity(30, seed)
        reference = reference_tmfg(similarity, prefix)
        result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
        assert result.edges == reference.edges
        assert result.rounds == reference.rounds


class TestPipelineEquivalence:
    """Full tmfg_dbht: labels and dendrogram heights identical on each path."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_labels_and_heights_identical(self, seed):
        similarity = _random_similarity(24, seed)
        with kernel_scope("python"):
            python_result = tmfg_dbht(similarity, prefix=3)
        with kernel_scope("numpy"):
            numpy_result = tmfg_dbht(similarity, prefix=3)
        for k in (2, 3, 5):
            np.testing.assert_array_equal(
                python_result.cut(k), numpy_result.cut(k)
            )
        python_heights = [
            node.height for node in python_result.dendrogram.internal_nodes()
        ]
        numpy_heights = [
            node.height for node in numpy_result.dendrogram.internal_nodes()
        ]
        assert python_heights == numpy_heights

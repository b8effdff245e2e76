"""Tests for Dijkstra SSSP and APSP against scipy.

The APSP equivalence tests are parametrized over the ``kernel``
(``python``/``numpy``) and — through the shared ``backend`` fixture — over
the serial and process execution paths, so the picklable CSR chunk worker
used by :class:`~repro.parallel.scheduler.ProcessBackend` is exercised by
the tier-1 suite.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import correlation_matrix, default_dissimilarity
from repro.graph.shortest_paths import (
    _locality_order,
    all_pairs_shortest_paths,
    available_apsp_methods,
    dijkstra,
    register_apsp_method,
    select_landmarks,
    shortest_paths_from_sources,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.kernels import KERNEL_NAMES
from repro.parallel.scheduler import ThreadBackend


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _scipy_apsp(graph: WeightedGraph) -> np.ndarray:
    dense = graph.to_dense(fill=0.0)
    sparse = csr_matrix(dense)
    return shortest_path(sparse, method="D", directed=False)


class TestDijkstra:
    def test_path_through_cheaper_route(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 5.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(2, 1, 1.0)
        distances = dijkstra(graph, 0)
        assert distances[1] == pytest.approx(2.0)

    def test_unreachable_vertex_is_infinite(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 1.0)
        assert np.isinf(dijkstra(graph, 0)[2])

    def test_source_distance_is_zero(self):
        graph = _random_graph(10, 0.5, 0)
        assert dijkstra(graph, 3)[3] == 0.0

    def test_invalid_source_rejected(self):
        graph = WeightedGraph(2)
        with pytest.raises(IndexError):
            dijkstra(graph, 5)

    def test_negative_weights_rejected(self):
        graph = WeightedGraph(2)
        graph.add_edge(0, 1, -1.0)
        with pytest.raises(ValueError):
            dijkstra(graph, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_on_random_graphs(self, seed):
        graph = _random_graph(25, 0.3, seed)
        expected = _scipy_apsp(graph)
        for source in range(0, 25, 5):
            np.testing.assert_allclose(dijkstra(graph, source), expected[source])


class TestAPSP:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_matches_scipy(self, kernel, backend):
        graph = _random_graph(30, 0.25, 7)
        distances = all_pairs_shortest_paths(graph, backend=backend, kernel=kernel)
        np.testing.assert_allclose(distances, _scipy_apsp(graph))

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_kernels_and_backends_byte_identical(self, kernel, backend):
        graph = _random_graph(26, 0.3, 21)
        reference = all_pairs_shortest_paths(graph, kernel="python")
        distances = all_pairs_shortest_paths(graph, backend=backend, kernel=kernel)
        assert np.array_equal(distances, reference)

    def test_subset_of_sources_on_backends(self, backend):
        graph = _random_graph(15, 0.4, 8)
        full = all_pairs_shortest_paths(graph)
        subset = shortest_paths_from_sources(graph, [1, 4, 9], backend=backend)
        np.testing.assert_allclose(subset, full[[1, 4, 9]])

    def test_symmetric_for_undirected_graph(self):
        graph = _random_graph(20, 0.4, 9)
        distances = all_pairs_shortest_paths(graph)
        np.testing.assert_allclose(distances, distances.T)

    def test_diagonal_is_zero(self):
        graph = _random_graph(15, 0.5, 2)
        assert np.all(np.diag(all_pairs_shortest_paths(graph)) == 0.0)

    def test_thread_backend_matches_serial(self):
        graph = _random_graph(20, 0.4, 4)
        serial = all_pairs_shortest_paths(graph)
        backend = ThreadBackend(num_workers=4)
        try:
            threaded = all_pairs_shortest_paths(graph, backend=backend)
        finally:
            backend.close()
        np.testing.assert_allclose(serial, threaded)

    def test_scipy_method_matches_dijkstra(self):
        graph = _random_graph(24, 0.3, 13)
        dijkstra_result = all_pairs_shortest_paths(graph, method="dijkstra")
        scipy_result = all_pairs_shortest_paths(graph, method="scipy")
        np.testing.assert_allclose(scipy_result, dijkstra_result, rtol=1e-9)

    def test_scipy_method_keeps_zero_weight_edges(self):
        graph = WeightedGraph(3)
        graph.add_edge(0, 1, 0.0)
        graph.add_edge(1, 2, 1.0)
        distances = all_pairs_shortest_paths(graph, method="scipy")
        assert distances[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert distances[0, 2] == pytest.approx(1.0, abs=1e-9)

    def test_scipy_method_byte_identical_on_zero_dissimilarities(self):
        """Exact-1.0 similarities give zero-length TMFG edges; scipy must
        keep them at length 0 and agree with the heap kernel bit for bit."""
        rng = np.random.default_rng(5)
        similarity = correlation_matrix(rng.normal(size=(40, 60)))
        for u, v in ((0, 1), (2, 3)):
            similarity[u, v] = similarity[v, u] = 1.0
        tmfg = construct_tmfg(similarity)
        graph = tmfg.csr().reweighted(default_dissimilarity(similarity))
        assert np.count_nonzero(graph.weights == 0.0) == 4  # both edges, both arcs
        heap = all_pairs_shortest_paths(graph, method="dijkstra", kernel="python")
        assert np.array_equal(all_pairs_shortest_paths(graph, method="scipy"), heap)

    def test_unknown_method_rejected(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")

    def test_floyd_method_matches_dijkstra(self):
        graph = _random_graph(24, 0.3, 17)
        dijkstra_result = all_pairs_shortest_paths(graph, method="dijkstra")
        floyd_result = all_pairs_shortest_paths(graph, method="floyd")
        np.testing.assert_allclose(floyd_result, dijkstra_result, rtol=1e-9)

    def test_subset_of_sources(self):
        graph = _random_graph(12, 0.5, 5)
        full = all_pairs_shortest_paths(graph)
        subset = shortest_paths_from_sources(graph, [2, 7])
        np.testing.assert_allclose(subset, full[[2, 7]])

    def test_triangle_inequality(self):
        graph = _random_graph(18, 0.5, 11)
        distances = all_pairs_shortest_paths(graph)
        finite = np.isfinite(distances)
        n = graph.num_vertices
        for i in range(n):
            for j in range(n):
                for k in range(0, n, 5):
                    if finite[i, k] and finite[k, j]:
                        assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-9


def _heap_and_frontier(graph, sources=None, backend=None):
    """Distances from the python heap kernel and the numpy frontier kernel."""
    if sources is None:
        return (
            all_pairs_shortest_paths(graph, kernel="python"),
            all_pairs_shortest_paths(graph, kernel="numpy", backend=backend),
        )
    return (
        shortest_paths_from_sources(graph, sources, kernel="python"),
        shortest_paths_from_sources(graph, sources, kernel="numpy", backend=backend),
    )


class TestFrontierKernelEdgeCases:
    """The numpy frontier relaxation equals the heap kernel bit for bit."""

    def test_zero_weight_edges_from_exact_one_similarities(self):
        rng = np.random.default_rng(8)
        similarity = correlation_matrix(rng.normal(size=(40, 60)))
        for u, v in ((0, 1), (1, 5), (2, 3)):
            similarity[u, v] = similarity[v, u] = 1.0
        tmfg = construct_tmfg(similarity)
        graph = tmfg.csr().reweighted(default_dissimilarity(similarity))
        assert np.count_nonzero(graph.weights == 0.0) >= 4
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)

    def test_zero_weight_cycle(self):
        graph = WeightedGraph(5)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            graph.add_edge(u, v, 0.0)
        graph.add_edge(2, 3, 1.5)
        graph.add_edge(3, 4, 0.0)
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        assert frontier[0, 4] == 1.5

    def test_isolated_vertices_first_middle_and_last(self):
        # Vertices 0, 3 and 6 have no arcs: empty CSR segments, which
        # ``reduceat`` cannot express.
        graph = WeightedGraph(7)
        for u, v, w in ((1, 2, 1.0), (2, 4, 0.5), (4, 5, 2.0), (1, 5, 4.0)):
            graph.add_edge(u, v, w)
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        for isolated in (0, 3, 6):
            assert frontier[isolated, isolated] == 0.0
            assert np.isinf(np.delete(frontier[isolated], isolated)).all()

    def test_two_components(self):
        graph = WeightedGraph(24)
        rng = np.random.default_rng(4)
        for offset in (0, 12):
            for u in range(offset, offset + 12):
                for v in range(u + 1, offset + 12):
                    if rng.random() < 0.3:
                        graph.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        assert np.isinf(frontier[:12, 12:]).all()

    @pytest.mark.parametrize("n", [1, 4])
    def test_smallest_graphs(self, n):
        graph = WeightedGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                graph.add_edge(u, v, float(u + v) / 3.0)
        heap, frontier = _heap_and_frontier(graph)
        assert frontier.shape == (n, n)
        assert np.array_equal(frontier, heap)

    def test_sources_out_of_order_and_duplicated(self):
        graph = _random_graph(40, 0.15, 21)
        sources = [17, 3, 17, 39, 0, 3, 25, 25]
        heap, frontier = _heap_and_frontier(graph, sources)
        assert np.array_equal(frontier, heap)
        full = all_pairs_shortest_paths(graph, kernel="python")
        assert np.array_equal(frontier, full[sources])

    def test_locality_blocks_over_components_and_isolated_vertices(self):
        # More sources than one block, so they are relaxed in locality
        # order: three components plus isolated vertices 0, 20 and 39.
        graph = WeightedGraph(40)
        rng = np.random.default_rng(9)
        for low, high in ((1, 20), (21, 30), (30, 39)):
            for u in range(low, high):
                for v in range(u + 1, high):
                    if rng.random() < 0.3:
                        graph.add_edge(u, v, float(rng.integers(1, 4)) / 4.0)
        csr = graph.to_csr()
        order = _locality_order(csr.indptr, csr.indices)
        assert sorted(order.tolist()) == list(range(40))
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)

    def test_process_backend(self):
        # More than one 16-source block per worker chunk.
        graph = _random_graph(50, 0.1, 22)
        heap, frontier = _heap_and_frontier(graph, backend="process")
        assert np.array_equal(frontier, heap)


class TestLandmarkMode:
    def test_upper_bound_and_exact_at_full_count(self):
        graph = _random_graph(40, 0.15, 2)
        exact = all_pairs_shortest_paths(graph)
        approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=8)
        assert np.all(approx >= exact - 1e-9)
        full = all_pairs_shortest_paths(graph, method="landmark", landmarks=40)
        assert np.array_equal(full, exact)

    def test_error_is_monotone_in_landmark_count(self):
        graph = _random_graph(45, 0.12, 6)
        exact = all_pairs_shortest_paths(graph)
        previous = np.inf
        for count in (2, 4, 8, 16, 32):
            approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=count)
            error = float(np.mean(np.abs(approx - exact)))
            assert error <= previous + 1e-12
            previous = error

    def test_estimates_shrink_pointwise_with_more_landmarks(self):
        """Nested landmark prefixes can only tighten the bound, entrywise."""
        graph = _random_graph(35, 0.15, 4)
        coarse = all_pairs_shortest_paths(graph, method="landmark", landmarks=4)
        fine = all_pairs_shortest_paths(graph, method="landmark", landmarks=12)
        assert np.all(fine <= coarse + 1e-12)

    def test_deterministic(self):
        graph = _random_graph(30, 0.2, 8)
        a = all_pairs_shortest_paths(graph, method="landmark", landmarks=6)
        b = all_pairs_shortest_paths(graph, method="landmark", landmarks=6)
        assert np.array_equal(a, b)

    def test_diagonal_zero_symmetric_and_edges_exact(self):
        graph = _random_graph(25, 0.25, 10)
        approx = all_pairs_shortest_paths(graph, method="landmark", landmarks=4)
        exact = all_pairs_shortest_paths(graph)
        assert np.all(np.diag(approx) == 0.0)
        np.testing.assert_array_equal(approx, approx.T)
        csr = graph.to_csr()
        heads = np.repeat(np.arange(csr.num_vertices), csr.degrees())
        # The direct-edge clamp: adjacent pairs are never estimated above
        # their edge weight (the exact distance may be lower still, via a
        # multi-hop detour, but never above it).
        assert np.all(approx[heads, csr.indices] <= csr.weights + 1e-12)

    def test_selection_is_nested(self):
        graph = _random_graph(30, 0.2, 12)
        few, _ = select_landmarks(graph, 4)
        more, _ = select_landmarks(graph, 9)
        assert more[: len(few)] == few

    def test_invalid_counts_rejected(self):
        graph = _random_graph(10, 0.5, 1)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph, method="landmark", landmarks=0)
        with pytest.raises(ValueError):
            select_landmarks(graph, 0)


class TestMethodRegistry:
    def test_builtins_registered(self):
        assert available_apsp_methods() == ("dijkstra", "floyd", "landmark", "scipy")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_apsp_method("dijkstra", lambda *a, **k: None)

    def test_custom_method_dispatches_and_validates_in_config(self):
        from repro.api.config import ClusteringConfig
        from repro.graph.shortest_paths import _APSP_DISPATCH

        def constant(graph, backend=None, kernel=None):
            n = graph.num_vertices
            return np.zeros((n, n))

        register_apsp_method("test-constant", constant)
        try:
            graph = _random_graph(6, 0.5, 3)
            result = all_pairs_shortest_paths(graph, method="test-constant")
            assert np.array_equal(result, np.zeros((6, 6)))
            # The config layer resolves against the live registry, so the
            # custom id validates without touching APSP_METHODS.
            config = ClusteringConfig(apsp_method="test-constant")
            assert config.apsp_method == "test-constant"
        finally:
            _APSP_DISPATCH.pop("test-constant", None)

    def test_unknown_method_error_lists_ids(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError, match="'dijkstra'"):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")

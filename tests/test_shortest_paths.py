"""Tests for the production APSP against the shortest-path oracles.

``all_pairs_shortest_paths`` (the frontier kernel) must equal the
array-heap Dijkstra oracle byte for byte, and SciPy's csgraph APSP
within float tolerance (exactly on TMFG inputs); the oracles live in
:mod:`tests.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import correlation_matrix, default_dissimilarity
from repro.graph.csr import CSRGraph
from repro.graph.shortest_paths import (
    _RELAX_BLOCK_SOURCES,
    _locality_order,
    all_pairs_shortest_paths,
)
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import Tracer
from tests.oracles import dijkstra, heap_apsp, scipy_apsp


def _random_graph(n: int, density: float, seed: int) -> WeightedGraph:
    rng = np.random.default_rng(seed)
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                graph.add_edge(u, v, float(rng.uniform(0.1, 5.0)))
    return graph


def _exact_one_similarity_graph(seed: int, pairs):
    """The TMFG of a random correlation matrix whose ``pairs`` have
    similarity exactly 1.0, weighted by dissimilarity: zero-length edges."""
    rng = np.random.default_rng(seed)
    similarity = correlation_matrix(rng.normal(size=(40, 60)))
    for u, v in pairs:
        similarity[u, v] = similarity[v, u] = 1.0
    tmfg = construct_tmfg(similarity)
    return tmfg.csr().reweighted(default_dissimilarity(similarity))


#: Vertex counts at the edges of 64- and 128-source blocks.
_BLOCK_EDGE_SIZES = (63, 64, 65, 127, 128, 129, 257)


def _tmfg_graph(n: int, seed: int) -> CSRGraph:
    """The TMFG of a random correlation matrix, weighted by dissimilarity."""
    rng = np.random.default_rng(seed)
    similarity = correlation_matrix(rng.normal(size=(n, 60)))
    return construct_tmfg(similarity).csr().reweighted(default_dissimilarity(similarity))


def _dyadic_graph(n: int, seed: int) -> CSRGraph:
    """A TMFG topology with weights in {0, 1/4, ..., 1}: zero-length edges
    and many exactly tied path sums."""
    rng = np.random.default_rng(seed)
    dyadic = rng.integers(0, 5, size=(n, n)) / 4.0
    return _tmfg_graph(n, seed).reweighted(dyadic)


def _two_component_graph() -> WeightedGraph:
    graph = WeightedGraph(24)
    rng = np.random.default_rng(4)
    for offset in (0, 12):
        for u in range(offset, offset + 12):
            for v in range(u + 1, offset + 12):
                if rng.random() < 0.3:
                    graph.add_edge(u, v, float(rng.uniform(0.1, 2.0)))
    return graph


def _complete_graph(n: int) -> WeightedGraph:
    graph = WeightedGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v, float(u + v) / 3.0)
    return graph


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
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph)

    def test_nan_weights_rejected(self):
        # A NaN chord on a 4-vertex path: ``nan < 0`` is False, so without
        # its own check the chord would never relax, as if it were absent.
        graph = WeightedGraph(4)
        for u in range(3):
            graph.add_edge(u, u + 1, 1.0)
        graph.add_edge(0, 3, float("nan"))
        csr = graph.to_csr()
        assert not csr.has_negative_weights()
        with pytest.raises(ValueError, match="NaN"):
            csr.validate_non_negative()
        with pytest.raises(ValueError, match="NaN"):
            all_pairs_shortest_paths(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scipy_on_random_graphs(self, seed):
        graph = _random_graph(25, 0.3, seed)
        expected = scipy_apsp(graph)
        for source in range(0, 25, 5):
            np.testing.assert_allclose(dijkstra(graph, source), expected[source])
        np.testing.assert_allclose(all_pairs_shortest_paths(graph), expected)


class TestAPSP:
    def test_matches_scipy(self):
        graph = _random_graph(30, 0.25, 7)
        distances = all_pairs_shortest_paths(graph)
        np.testing.assert_allclose(distances, scipy_apsp(graph))

    @pytest.mark.parametrize(
        "case",
        ["random", "zero-weight", "disconnected", "n4", "dyadic-ties"]
        + [f"n{n}" for n in _BLOCK_EDGE_SIZES],
    )
    def test_byte_identical_to_heap_oracle(self, case):
        graph = {
            "random": lambda: _random_graph(26, 0.3, 21),
            "zero-weight": lambda: _exact_one_similarity_graph(3, ((0, 1), (4, 7))),
            "disconnected": _two_component_graph,
            "n4": lambda: _complete_graph(4),
            "dyadic-ties": lambda: _dyadic_graph(150, 5),
            **{f"n{n}": (lambda n=n: _tmfg_graph(n, 13)) for n in _BLOCK_EDGE_SIZES},
        }[case]()
        distances = all_pairs_shortest_paths(graph)
        assert np.array_equal(distances, heap_apsp(graph))
        if case in ("zero-weight", "dyadic-ties"):
            assert np.count_nonzero(graph.weights == 0.0) >= 4
        if case == "disconnected":
            assert np.isinf(distances[:12, 12:]).all() and np.isinf(distances[12:, :12]).all()

    def test_symmetric_for_undirected_graph(self):
        graph = _random_graph(20, 0.4, 9)
        distances = all_pairs_shortest_paths(graph)
        np.testing.assert_allclose(distances, distances.T)

    def test_diagonal_is_zero(self):
        graph = _random_graph(15, 0.5, 2)
        assert np.all(np.diag(all_pairs_shortest_paths(graph)) == 0.0)

    def test_scipy_oracle_byte_identical_on_zero_dissimilarities(self):
        """Exact-1.0 similarities give zero-length TMFG edges; the kernel
        and both oracles must keep them at length 0 and agree bit for bit."""
        graph = _exact_one_similarity_graph(5, ((0, 1), (2, 3)))
        assert np.count_nonzero(graph.weights == 0.0) == 4  # both edges, both arcs
        heap = heap_apsp(graph)
        assert np.array_equal(all_pairs_shortest_paths(graph), heap)
        assert np.array_equal(scipy_apsp(graph), heap)

    def test_unknown_method_rejected(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")

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


def _heap_and_frontier(graph):
    """Distances from the heap oracle and the production frontier kernel."""
    return heap_apsp(graph), all_pairs_shortest_paths(graph)


class TestFrontierKernelEdgeCases:
    """The frontier relaxation equals the heap oracle bit for bit."""

    def test_zero_weight_edges_from_exact_one_similarities(self):
        graph = _exact_one_similarity_graph(8, ((0, 1), (1, 5), (2, 3)))
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
        # Vertices 0, 3 and 6 have no arcs: their source cells push nothing,
        # and every other cell of theirs stays at ``inf``.
        graph = WeightedGraph(7)
        for u, v, w in ((1, 2, 1.0), (2, 4, 0.5), (4, 5, 2.0), (1, 5, 4.0)):
            graph.add_edge(u, v, w)
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        for isolated in (0, 3, 6):
            assert frontier[isolated, isolated] == 0.0
            assert np.isinf(np.delete(frontier[isolated], isolated)).all()

    def test_two_components(self):
        graph = _two_component_graph()
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        assert np.isinf(frontier[:12, 12:]).all()

    def test_components_straddle_a_block_boundary(self):
        # Two 100-vertex TMFGs side by side: the locality order lists the
        # first component, then the second, so one block of sources holds
        # vertices of both and its working array mixes finite and ``inf``
        # columns.
        graph = WeightedGraph(200)
        for offset, seed in ((0, 3), (100, 4)):
            for u, v, weight in _tmfg_graph(100, seed).edges():
                graph.add_edge(u + offset, v + offset, weight)
        csr = graph.to_csr()
        second_component = _locality_order(csr.indptr, csr.indices) >= 100
        blocks = [
            second_component[begin : begin + _RELAX_BLOCK_SOURCES]
            for begin in range(0, 200, _RELAX_BLOCK_SOURCES)
        ]
        assert any(block.any() and not block.all() for block in blocks)
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)
        assert np.isinf(frontier[:100, 100:]).all() and np.isinf(frontier[100:, :100]).all()

    def test_hub_wider_than_a_block(self):
        # A 300-vertex wheel: the hub's row has 299 arcs, more than a block
        # has sources, and every rim path competes with a two-spoke path.
        graph = WeightedGraph(300)
        rng = np.random.default_rng(6)
        for rim in range(1, 300):
            graph.add_edge(0, rim, float(rng.integers(1, 9)) / 4.0)
            graph.add_edge(rim, rim % 299 + 1, 0.5)
        assert graph.to_csr().degree(0) > _RELAX_BLOCK_SOURCES
        heap, frontier = _heap_and_frontier(graph)
        assert np.array_equal(frontier, heap)

    @pytest.mark.parametrize("n", [1, 4])
    def test_smallest_graphs(self, n):
        graph = _complete_graph(n)
        heap, frontier = _heap_and_frontier(graph)
        assert frontier.shape == (n, n)
        assert np.array_equal(frontier, heap)

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


class TestMethodRegistry:
    def test_unknown_method_error_lists_ids(self):
        graph = _random_graph(5, 0.5, 1)
        with pytest.raises(ValueError, match="'dijkstra'"):
            all_pairs_shortest_paths(graph, method="bellman-ford-johnson")


def _traced_apsp(graph):
    """The distances and the ``kernel.apsp`` span's attributes of one traced call."""
    tracer = Tracer()
    closed = []
    tracer.add_sink(lambda span: closed.append(span.to_dict()))
    with tracer.start_span("root"):
        distances = all_pairs_shortest_paths(graph)
    (attributes,) = [event["attributes"] for event in closed if event["kind"] == "kernel.apsp"]
    return distances, attributes


class TestKernelCounters:
    """The ``kernel.apsp`` span reports candidates tried and cells written."""

    @pytest.mark.parametrize("case", ["disconnected", "tmfg", "dyadic-ties"])
    def test_counts_bound_the_finite_cells(self, case):
        graph = {
            "disconnected": _two_component_graph,
            "tmfg": lambda: _tmfg_graph(150, 2),
            "dyadic-ties": lambda: _dyadic_graph(90, 8),
        }[case]()
        distances, attributes = _traced_apsp(graph)
        finite_off_diagonal = np.count_nonzero(np.isfinite(distances)) - distances.shape[0]
        assert attributes["relaxed"] >= attributes["improved"] >= finite_off_diagonal

    def test_tree_writes_each_cell_once(self):
        # A tree has one path per pair, so each reachable cell improves
        # exactly once, and each cell pushes over every arc of its vertex
        # once: 2(n - 1) arcs per source.
        n = 150
        rng = np.random.default_rng(12)
        graph = WeightedGraph(n)
        for child in range(1, n):
            graph.add_edge(int(rng.integers(0, child)), child, float(rng.uniform(0.1, 2.0)))
        distances, attributes = _traced_apsp(graph)
        assert attributes["improved"] == n * (n - 1) == np.count_nonzero(np.isfinite(distances)) - n
        assert attributes["relaxed"] == n * 2 * (n - 1)
        assert np.array_equal(distances, heap_apsp(graph))

    def test_tied_candidates_write_a_cell_once(self):
        # An even cycle with unit weights: the vertex opposite a source is
        # reached from both sides in the same round with equal candidates,
        # and the frontier must hold its cell once.
        n = 130
        graph = WeightedGraph(n)
        for u in range(n):
            graph.add_edge(u, (u + 1) % n, 1.0)
        distances, attributes = _traced_apsp(graph)
        assert attributes["improved"] == n * (n - 1)
        assert attributes["relaxed"] == 2 * n * n
        assert distances[0, n // 2] == n // 2

    def test_tracing_changes_no_byte(self):
        graph = _tmfg_graph(150, 9)
        traced, attributes = _traced_apsp(graph)
        assert attributes["improved"] > 0
        assert np.array_equal(all_pairs_shortest_paths(graph), traced)

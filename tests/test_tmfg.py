"""Tests for TMFG construction (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import TMFGClusterer
from repro.core.tmfg import TMFGResult, construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.graph.matrix import MatrixValidationError
from repro.graph.faces import triangle_corners, triangle_key, child_faces
from repro.graph.planarity import is_planar
from repro.metrics.edge_sum import edge_weight_sum_ratio
from repro.parallel.cost_model import fit_cost

from tests.conftest import random_similarity_matrix
from tests.oracles import assert_matches_reference_builder


def reference_sequential_tmfg(similarity: np.ndarray):
    """Straightforward re-implementation of the sequential TMFG for cross-checks.

    Follows Massara et al.: start from the 4 vertices with the largest row
    sums, then repeatedly insert the vertex-face pair with the largest gain,
    scanning every face and every remaining vertex each round.
    """
    n = similarity.shape[0]
    row_sums = similarity.sum(axis=1) - np.diag(similarity)
    clique = sorted(np.argsort(row_sums, kind="stable")[-4:].tolist())
    edges = set()
    for i in range(4):
        for j in range(i + 1, 4):
            edges.add((min(clique[i], clique[j]), max(clique[i], clique[j])))
    faces = {
        triangle_key(clique[0], clique[1], clique[2]),
        triangle_key(clique[0], clique[1], clique[3]),
        triangle_key(clique[0], clique[2], clique[3]),
        triangle_key(clique[1], clique[2], clique[3]),
    }
    remaining = [v for v in range(n) if v not in clique]
    while remaining:
        best = None
        for face in sorted(faces, key=lambda f: tuple(sorted(f))):
            corners = triangle_corners(face)
            for vertex in remaining:
                gain = sum(similarity[c, vertex] for c in corners)
                if best is None or gain > best[0]:
                    best = (gain, vertex, face)
        _, vertex, face = best
        for corner in triangle_corners(face):
            edges.add((min(vertex, corner), max(vertex, corner)))
        faces.remove(face)
        for new_face in child_faces(face, vertex):
            faces.add(new_face)
        remaining.remove(vertex)
    return edges


class TestStructure:
    @pytest.mark.parametrize("prefix", [1, 3, 10, 50])
    def test_edge_count_is_maximal_planar(self, small_matrices, prefix):
        similarity, _ = small_matrices
        n = similarity.shape[0]
        result = construct_tmfg(similarity, prefix=prefix)
        assert result.graph.num_edges == 3 * n - 6

    @pytest.mark.parametrize("prefix", [1, 7])
    def test_output_is_planar(self, small_matrices, prefix):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=prefix)
        assert is_planar(result.graph)

    def test_every_vertex_is_inserted_once(self, small_matrices):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=5)
        inserted = [vertex for vertex, _ in result.insertion_order]
        assert sorted(inserted + list(result.initial_clique)) == list(
            range(similarity.shape[0])
        )
        assert len(set(inserted)) == len(inserted)

    def test_edge_weights_come_from_similarity(self, small_matrices):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=1)
        for u, v, weight in result.graph.edges():
            assert weight == pytest.approx(similarity[u, v])

    def test_initial_clique_has_largest_row_sums(self, small_matrices):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=1)
        row_sums = similarity.sum(axis=1) - np.diag(similarity)
        top4 = set(np.argsort(row_sums)[-4:].tolist())
        assert set(result.initial_clique) == top4

    def test_rounds_decrease_with_larger_prefix(self, small_matrices):
        similarity, _ = small_matrices
        sequential = construct_tmfg(similarity, prefix=1)
        batched = construct_tmfg(similarity, prefix=10)
        assert batched.rounds < sequential.rounds
        assert sequential.rounds == similarity.shape[0] - 4

    def test_minimum_input_size(self):
        similarity = random_similarity_matrix(4, seed=1)
        result = construct_tmfg(similarity, prefix=1)
        assert result.graph.num_edges == 6
        assert result.rounds == 0

    def test_five_vertices(self):
        similarity = random_similarity_matrix(5, seed=2)
        result = construct_tmfg(similarity, prefix=1)
        assert result.graph.num_edges == 9
        assert result.rounds == 1

    def test_invalid_prefix_rejected(self, small_matrices):
        similarity, _ = small_matrices
        with pytest.raises(ValueError):
            construct_tmfg(similarity, prefix=0)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(Exception):
            construct_tmfg(np.eye(3))

    def test_fit_cost_records_tmfg_phase(self, small_matrices):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=5)
        cost = fit_cost(result)
        assert [phase.name for phase in cost.phases] == ["tmfg"]
        assert cost.phase("tmfg").work > 0
        assert cost.phase("tmfg").span > 0
        # The recorded round sizes: one per round, at most the prefix each,
        # and together every vertex outside the initial clique.
        assert len(result.round_sizes) == result.rounds
        assert all(1 <= size <= 5 for size in result.round_sizes)
        assert sum(result.round_sizes) == similarity.shape[0] - 4

    def test_no_bubble_tree_when_disabled(self, small_matrices):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        assert result.bubble_tree is None


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prefix_one_matches_reference_sequential_tmfg(self, seed):
        similarity = random_similarity_matrix(18, seed=seed)
        result = construct_tmfg(similarity, prefix=1)
        expected_edges = reference_sequential_tmfg(similarity)
        actual_edges = {(min(u, v), max(u, v)) for u, v, _ in result.graph.edges()}
        assert actual_edges == expected_edges

    def test_prefix_one_matches_reference_on_correlation_data(self, small_matrices):
        similarity, _ = small_matrices
        subset = similarity[:20, :20]
        result = construct_tmfg(subset, prefix=1)
        expected_edges = reference_sequential_tmfg(subset)
        actual_edges = {(min(u, v), max(u, v)) for u, v, _ in result.graph.edges()}
        assert actual_edges == expected_edges


class TestQualityTradeoff:
    def test_batched_edge_sum_close_to_sequential(self, medium_matrices):
        similarity, _ = medium_matrices
        sequential = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        for prefix in (5, 20):
            batched = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
            ratio = edge_weight_sum_ratio(batched.graph, sequential.graph)
            # The paper reports 92-100% of the sequential TMFG edge weight.
            assert 0.85 <= ratio <= 1.05

    def test_prefix_larger_than_n_still_terminates(self):
        similarity = random_similarity_matrix(12, seed=4)
        result = construct_tmfg(similarity, prefix=1000)
        assert result.graph.num_edges == 3 * 12 - 6
        # The first batch can insert at most as many vertices as there are
        # faces, so more than one round may still be needed, but far fewer
        # than n.
        assert result.rounds <= 12 - 4


def _duplicate_series_similarity():
    rng = np.random.default_rng(8)
    series = rng.normal(size=(6, 40))
    data = np.vstack([series, series[[0, 0, 2, 5]]])
    return similarity_and_dissimilarity(data)[0]


DEGENERATE = {
    "n4": lambda: random_similarity_matrix(4, seed=1),
    "n5": lambda: random_similarity_matrix(5, seed=2),
    "all_equal": lambda: np.ones((9, 9)),
    "duplicate_series": _duplicate_series_similarity,
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("prefix", [1, 3])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_matches_reference_builder(self, case, prefix):
        assert_matches_reference_builder(DEGENERATE[case](), prefix)

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_labels_defined_at_one_and_two_clusters(self, case):
        similarity = DEGENERATE[case]()
        for k in (1, 2):
            labels = TMFGClusterer(precomputed=True, num_clusters=k).fit(similarity).labels_
            assert labels.shape == (similarity.shape[0],)
            assert len(np.unique(labels)) == k
            assert labels.min() >= 0

    def test_four_vertices_is_one_bubble_without_rounds(self):
        result = construct_tmfg(random_similarity_matrix(4, seed=1), prefix=1)
        assert result.rounds == 0
        assert result.insertion_order == []
        assert result.bubble_tree.num_bubbles == 1
        assert result.bubble_tree.root_id == 0
        assert result.edges == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_nan_input_rejected(self):
        similarity = random_similarity_matrix(8, seed=3)
        similarity[2, 5] = similarity[5, 2] = np.nan
        with pytest.raises(MatrixValidationError):
            construct_tmfg(similarity)
        with pytest.raises(MatrixValidationError):
            TMFGClusterer(precomputed=True, num_clusters=2).fit(similarity)

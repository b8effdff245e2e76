"""Tests for the DBHT vertex assignment (Lines 1-23 of Algorithm 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import _attachment_scores, _mean_distances, assign_vertices
from repro.core.direction import DirectionResult, compute_directions
from repro.core.tmfg import construct_tmfg
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.weighted_graph import WeightedGraph

from tests import oracles
from tests.conftest import random_similarity_matrix


def _prepare(similarity, dissimilarity, prefix=1):
    tmfg = construct_tmfg(similarity, prefix=prefix)
    directions = compute_directions(tmfg.bubble_tree, tmfg.graph)
    distance_graph = WeightedGraph(tmfg.graph.num_vertices)
    for u, v, _ in tmfg.graph.edges():
        distance_graph.add_edge(u, v, float(dissimilarity[u, v]))
    shortest_paths = all_pairs_shortest_paths(distance_graph)
    assignment = assign_vertices(
        tmfg.bubble_tree, directions, similarity, shortest_paths
    )
    return tmfg, directions, shortest_paths, assignment


class TestAssignmentStructure:
    @pytest.mark.parametrize("prefix", [1, 8])
    def test_every_vertex_gets_a_group_and_bubble(self, small_matrices, prefix):
        similarity, dissimilarity = small_matrices
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity, prefix)
        assert np.all(assignment.group >= 0)
        assert np.all(assignment.bubble >= 0)
        assert len(assignment.group) == similarity.shape[0]

    def test_groups_are_converging_bubbles(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        converging = set(directions.converging_bubbles(tmfg.bubble_tree))
        assert set(np.unique(assignment.group)) <= converging
        assert set(assignment.converging_bubbles) == converging

    def test_bubble_assignment_contains_the_vertex(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, _, _, assignment = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        for vertex in range(similarity.shape[0]):
            bubble = tree.bubble(int(assignment.bubble[vertex]))
            assert vertex in bubble.vertices

    def test_directly_assigned_vertices_are_in_their_converging_bubble(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, _, _, assignment = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        for vertex in range(similarity.shape[0]):
            if assignment.assigned_directly[vertex]:
                bubble = tree.bubble(int(assignment.group[vertex]))
                assert vertex in bubble.vertices

    def test_directly_assigned_iff_member_of_a_converging_bubble(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        converging = set(directions.converging_bubbles(tree))
        member_of_converging = set()
        for bubble_id in converging:
            member_of_converging |= set(tree.bubble(bubble_id).vertices)
        for vertex in range(similarity.shape[0]):
            assert assignment.assigned_directly[vertex] == (vertex in member_of_converging)

    def test_chi_assignment_maximises_attachment(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        converging = directions.converging_bubbles(tree)
        for vertex in range(similarity.shape[0]):
            if not assignment.assigned_directly[vertex]:
                continue
            scores = {}
            for bubble_id in converging:
                members = tree.bubble(bubble_id).vertices
                if vertex in members:
                    scores[bubble_id] = sum(
                        similarity[vertex, u] for u in members if u != vertex
                    )
            chosen = int(assignment.group[vertex])
            assert scores[chosen] == pytest.approx(max(scores.values()))

    def test_indirect_assignment_uses_reachable_bubble(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        reach = directions.reachable_converging_bubbles(tree)
        for vertex in range(similarity.shape[0]):
            if assignment.assigned_directly[vertex]:
                continue
            reachable = set()
            for bubble_id in tree.bubbles_of_vertex(vertex):
                reachable |= reach[bubble_id]
            # The chosen group must be reachable whenever any reachable
            # converging bubble has directly-attached vertices.
            if reachable:
                assert int(assignment.group[vertex]) in reachable

    def test_subgroups_partition_the_vertices(self, medium_matrices):
        similarity, dissimilarity = medium_matrices
        _, _, _, assignment = _prepare(similarity, dissimilarity, prefix=5)
        subgroups = assignment.subgroups()
        all_vertices = sorted(v for members in subgroups.values() for v in members)
        assert all_vertices == list(range(similarity.shape[0]))

    def test_groups_partition_the_vertices(self, medium_matrices):
        similarity, dissimilarity = medium_matrices
        _, _, _, assignment = _prepare(similarity, dissimilarity, prefix=5)
        groups = assignment.groups()
        all_vertices = sorted(v for members in groups.values() for v in members)
        assert all_vertices == list(range(similarity.shape[0]))


class TestSmallCases:
    def test_four_vertices_single_bubble(self):
        similarity = random_similarity_matrix(4, seed=0)
        dissimilarity = np.abs(similarity.max() - similarity)
        np.fill_diagonal(dissimilarity, 0.0)
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        assert tmfg.bubble_tree.num_bubbles == 1
        assert set(np.unique(assignment.group)) == {0}
        assert set(np.unique(assignment.bubble)) == {0}

    def test_five_vertices_two_bubbles(self):
        similarity = random_similarity_matrix(5, seed=1)
        dissimilarity = np.abs(similarity.max() - similarity)
        np.fill_diagonal(dissimilarity, 0.0)
        tmfg, directions, _, assignment = _prepare(similarity, dissimilarity)
        assert tmfg.bubble_tree.num_bubbles == 2
        assert np.all(assignment.group >= 0)


class TestBatchedScores:
    def test_mean_distances_match_a_1d_mean_per_vertex(self):
        # From eight members on, numpy's 1-D mean sums pairwise, and only a
        # last-axis reduction of a contiguous block keeps its order.
        rng = np.random.default_rng(0)
        paths = rng.uniform(0.0, 3.0, size=(16, 16))
        for _ in range(300):
            members = rng.choice(16, size=int(rng.integers(1, 13)), replace=False).tolist()
            vertices = rng.choice(16, size=int(rng.integers(1, 7)), replace=False).tolist()
            expected = np.array([np.mean(paths[np.asarray(members), v]) for v in vertices])
            assert _mean_distances(paths, members, vertices).tobytes() == expected.tobytes()

    def test_attachment_scores_add_in_member_order(self):
        rng = np.random.default_rng(1)
        similarity = rng.uniform(-1.0, 1.0, size=(12, 12))
        orders = np.array([rng.permutation(12)[:4] for _ in range(50)])
        expected = [
            [float(sum(similarity[v, u] for u in order if u != v)) for v in order]
            for order in orders.tolist()
        ]
        assert _attachment_scores(similarity, orders).tolist() == expected


class _NothingReachable(DirectionResult):
    """Directions under which no bubble reaches a converging bubble."""

    def reachable_converging_bubbles(self, tree):
        return {bubble.id: set() for bubble in tree.bubbles}


class TestFallback:
    @pytest.mark.parametrize("seed", range(6))
    def test_unreachable_vertices_go_to_the_closest_converging_bubble(self, seed):
        # Dyadic entries with a duplicated row make exact mean-distance
        # ties, so the lower-bubble-id rule is exercised too.
        rng = np.random.default_rng(seed)
        n = 24
        similarity = np.triu(rng.integers(-2, 3, size=(n, n)) / 2, 1)
        similarity = similarity + similarity.T
        similarity[5, :] = similarity[3, :]
        similarity[:, 5] = similarity[:, 3]
        np.fill_diagonal(similarity, 1.0)
        dissimilarity = similarity.max() - similarity
        np.fill_diagonal(dissimilarity, 0.0)
        tmfg, directions, paths, _ = _prepare(similarity, dissimilarity)
        tree = tmfg.bubble_tree
        stub = _NothingReachable(
            directions.towards_child, directions.in_values, directions.out_values
        )
        result = assign_vertices(tree, stub, similarity, paths)
        expected = oracles.assign_vertices(tree, stub, similarity, paths)
        assert not result.assigned_directly.all(), "no vertex took the fallback"
        assert np.array_equal(result.group, expected.group)
        assert np.array_equal(result.bubble, expected.bubble)
        assert np.array_equal(result.assigned_directly, expected.assigned_directly)
        assert set(result.group[~result.assigned_directly]) <= set(result.converging_bubbles)

"""Tests for the TMFG gain table."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gains import GainTable, RescanGainTable
from repro.graph.faces import triangle_key
from tests.conftest import random_similarity_matrix


@pytest.fixture
def similarity():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.0, 1.0, size=(10, 10))
    matrix = (raw + raw.T) / 2.0
    np.fill_diagonal(matrix, 1.0)
    return matrix


def brute_force_best(similarity, face, remaining):
    best = None
    for vertex in remaining:
        gain = sum(similarity[corner, vertex] for corner in face)
        if best is None or gain > best[0]:
            best = (gain, vertex)
    return best


class TestGainTable:
    def test_best_matches_brute_force(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        table = GainTable(similarity, remaining)
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        gain, vertex = table.best_for_face(face)
        expected_gain, expected_vertex = brute_force_best(similarity, face, remaining)
        assert gain == pytest.approx(expected_gain)
        assert vertex == expected_vertex

    def test_duplicate_face_rejected(self, similarity):
        table = GainTable(similarity, [4, 5])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        with pytest.raises(ValueError):
            table.add_face(face)

    def test_remove_vertices_refreshes_affected_faces(self, similarity):
        remaining = [4, 5, 6, 7]
        table = GainTable(similarity, remaining)
        faces = [triangle_key(0, 1, 2), triangle_key(1, 2, 3)]
        for face in faces:
            table.add_face(face)
        _, best_vertex = table.best_for_face(faces[0])
        refreshed = table.remove_vertices([best_vertex])
        assert all(face in faces for face in refreshed)
        for face in faces:
            gain, vertex = table.best_for_face(face)
            expected = brute_force_best(
                similarity, face, [v for v in remaining if v != best_vertex]
            )
            assert vertex == expected[1]
            assert gain == pytest.approx(expected[0])

    def test_remove_unknown_vertex_rejected(self, similarity):
        table = GainTable(similarity, [4, 5])
        with pytest.raises(ValueError):
            table.remove_vertices([0])

    def test_exhausted_table_reports_none(self, similarity):
        table = GainTable(similarity, [4])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        table.remove_vertices([4])
        gain, vertex = table.best_for_face(face)
        assert vertex is None
        assert gain == float("-inf")
        assert table.best_pairs() == []

    def test_remove_face_then_vertex_does_not_refresh_it(self, similarity):
        table = GainTable(similarity, [4, 5])
        face = triangle_key(0, 1, 2)
        table.add_face(face)
        _, best_vertex = table.best_for_face(face)
        table.remove_face(face)
        refreshed = table.remove_vertices([best_vertex])
        assert face not in refreshed

    def test_best_pairs_lists_every_active_face(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        faces = [triangle_key(0, 1, 2), triangle_key(0, 1, 3), triangle_key(1, 2, 3)]
        for face in faces:
            table.add_face(face)
        pairs = table.best_pairs()
        assert {pair.face for pair in pairs} == set(faces)

    def test_num_remaining_tracks_removals(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        assert table.num_remaining == 3
        table.add_face(triangle_key(0, 1, 2))
        table.remove_vertices([5])
        assert table.num_remaining == 2
        assert not table.is_remaining(5)
        assert table.is_remaining(6)

    def test_argmax_pair_matches_reference_selection(self):
        from repro.core.tmfg import _select_batch

        for seed in range(10):
            similarity = random_similarity_matrix(14, seed=seed)
            # Duplicate entries to force exact gain ties.
            similarity[np.abs(similarity) < 0.3] = 0.5
            similarity = (similarity + similarity.T) / 2.0
            np.fill_diagonal(similarity, 1.0)
            table = GainTable(similarity, remaining=range(4, 14))
            table.add_faces(
                [frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({0, 2, 3}), frozenset({1, 2, 3})]
            )
            expected = _select_batch(table, prefix=1)[0]
            scanned = table.argmax_pair()
            assert (scanned.vertex, scanned.face, scanned.gain) == (
                expected.vertex,
                expected.face,
                expected.gain,
            )


class TestRescanGainTable:
    def test_produces_same_state_as_optimized_table(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        fast = GainTable(similarity, list(remaining))
        slow = RescanGainTable(similarity, list(remaining))
        faces = [triangle_key(0, 1, 2), triangle_key(0, 2, 3), triangle_key(1, 2, 3)]
        for face in faces:
            fast.add_face(face)
            slow.add_face(face)
        fast.remove_vertices([7, 8])
        slow.remove_vertices([7, 8])
        for face in faces:
            assert fast.best_for_face(face)[1] == slow.best_for_face(face)[1]
            assert fast.best_for_face(face)[0] == pytest.approx(slow.best_for_face(face)[0])

    def test_rescan_recomputes_more(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        fast = GainTable(similarity, list(remaining))
        slow = RescanGainTable(similarity, list(remaining))
        faces = [triangle_key(0, 1, 2), triangle_key(0, 2, 3), triangle_key(1, 2, 3)]
        for face in faces:
            fast.add_face(face)
            slow.add_face(face)
        # Remove a vertex that is the best of at most one face; the rescan
        # variant still touches every face whose best vertex vanished, and
        # both end in the same state.
        fast.remove_vertices([9])
        slow.remove_vertices([9])
        assert slow.recompute_count >= fast.recompute_count

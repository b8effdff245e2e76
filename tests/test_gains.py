"""Tests for the TMFG gain table (faces are int ids into flat arrays)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import gains as gains_module
from repro.core.gains import GainTable, RescanGainTable
from repro.graph.faces import VertexFacePair
from tests.conftest import random_similarity_matrix
from tests.oracles import per_face_best, select_batch


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


def live_pairs(table):
    """Every live face's best pair, in the oracle's ``VertexFacePair`` form."""
    pairs = []
    for face_id in table.live_faces().tolist():
        gain, vertex = table.best_for_face(face_id)
        if vertex is not None:
            face = frozenset(table.corners[face_id].tolist())
            pairs.append(VertexFacePair(vertex=vertex, face=face, gain=gain))
    return pairs


class TestGainTable:
    def test_best_matches_brute_force(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        table = GainTable(similarity, remaining)
        (face_id,) = table.add_faces([(0, 1, 2)])
        gain, vertex = table.best_for_face(face_id)
        expected_gain, expected_vertex = brute_force_best(similarity, (0, 1, 2), remaining)
        assert gain == pytest.approx(expected_gain)
        assert vertex == expected_vertex

    def test_duplicate_face_rejected(self, similarity):
        # Splitting a face twice would register its child faces twice, even
        # with a vertex that is still remaining.
        table = GainTable(similarity, [4, 5, 6])
        (face_id,) = table.add_faces([(0, 1, 2)])
        table.split([face_id], [4])
        live = table.live_faces().tolist()
        with pytest.raises(ValueError, match="not live"):
            table.split([face_id], [5])
        assert table.num_faces == 3
        assert table.live_faces().tolist() == live
        assert table.is_remaining(5)
        # The same face twice in one batch is caught the same way.
        with pytest.raises(ValueError, match="not live"):
            table.split([live[0], live[0]], [5, 6])

    def test_remove_vertices_refreshes_affected_faces(self, similarity):
        remaining = [4, 5, 6, 7]
        table = GainTable(similarity, remaining)
        faces = [(0, 1, 2), (1, 2, 3)]
        ids = table.add_faces(faces).tolist()
        _, best_vertex = table.best_for_face(ids[0])
        start = table.split([ids[0]], [best_vertex])
        left = [v for v in remaining if v != best_vertex]
        expected = brute_force_best(similarity, faces[1], left)
        assert table.best_for_face(ids[1]) == (pytest.approx(expected[0]), expected[1])
        assert table.best_for_face(ids[0]) == (float("-inf"), None)
        # The three child faces are (v, a, b), (v, b, c), (v, a, c), sorted.
        children = [sorted((best_vertex,) + pair) for pair in ((0, 1), (1, 2), (0, 2))]
        assert table.corners[start : start + 3].tolist() == children
        for offset, child in enumerate(children):
            expected = brute_force_best(similarity, child, left)
            gain, vertex = table.best_for_face(start + offset)
            assert vertex == expected[1]
            assert gain == pytest.approx(expected[0])

    def test_remove_unknown_vertex_rejected(self, similarity):
        table = GainTable(similarity, [4, 5])
        (face_id,) = table.add_faces([(0, 1, 2)])
        with pytest.raises(ValueError):
            table.split([face_id], [0])

    def test_exhausted_table_reports_none(self, similarity):
        table = GainTable(similarity, [4])
        (face_id,) = table.add_faces([(0, 1, 2)])
        (other,) = table.add_faces([(0, 1, 3)])
        table.split([face_id], [4])
        assert table.best_for_face(other) == (float("-inf"), None)
        assert live_pairs(table) == []
        assert table.select(1) == ([], [])
        assert table.select(3) == ([], [])

    def test_remove_face_then_vertex_does_not_refresh_it(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        first, second = table.add_faces([(0, 1, 2), (0, 1, 3)]).tolist()
        table.split([first], [5])
        before = table.recompute_count
        _, best_vertex = table.best_for_face(second)
        table.split([second], [best_vertex])
        # The split face stays dead and only the second split's faces were
        # recomputed (three children plus faces pointing at best_vertex).
        assert table.best_for_face(first) == (float("-inf"), None)
        assert first not in table.live_faces().tolist()
        assert table.recompute_count - before <= len(table.live_faces())

    def test_best_pairs_lists_every_active_face(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        faces = [(0, 1, 2), (0, 1, 3), (1, 2, 3)]
        ids = table.add_faces(faces)
        assert table.live_faces().tolist() == ids.tolist()
        assert {pair.face for pair in live_pairs(table)} == {frozenset(f) for f in faces}
        table.split([int(ids[1])], [5])
        assert table.num_faces == 5
        assert len(table.live_faces()) == 5
        assert int(ids[1]) not in table.live_faces().tolist()

    def test_num_remaining_tracks_removals(self, similarity):
        table = GainTable(similarity, [4, 5, 6])
        assert table.num_remaining == 3
        (face_id,) = table.add_faces([(0, 1, 2)])
        table.split([face_id], [5])
        assert table.num_remaining == 2
        assert not table.is_remaining(5)
        assert table.is_remaining(6)
        assert table.remaining_vertices().tolist() == [4, 6]

    def test_argmax_pair_matches_reference_selection(self):
        for seed in range(10):
            similarity = random_similarity_matrix(14, seed=seed)
            # Duplicate entries to force exact gain ties.
            similarity[np.abs(similarity) < 0.3] = 0.5
            similarity = (similarity + similarity.T) / 2.0
            np.fill_diagonal(similarity, 1.0)
            table = GainTable(similarity, remaining=range(4, 14))
            table.add_faces([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
            expected = select_batch(live_pairs(table), prefix=1)[0]
            (face_id,), (vertex,) = table.select(1)
            assert (vertex, frozenset(table.corners[face_id].tolist())) == (
                expected.vertex,
                expected.face,
            )
            assert table.best_for_face(face_id)[0] == expected.gain


class TestCompaction:
    def test_compaction_keeps_every_gain_and_vertex(self):
        """Splits that shrink the live columns below the threshold several
        times leave every live face's best pair equal to a full-matrix scan."""
        similarity = random_similarity_matrix(30, seed=5)
        table = GainTable(similarity, range(4, 30))
        table.add_faces([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        widths = set()
        while table.num_remaining:
            (face_id,), (vertex,) = table.select(1)
            table.split([face_id], [vertex])
            widths.add(table._work.shape[1])
            assert table._work.shape[1] >= table.num_remaining
            assert table._work.shape[1] * gains_module.COMPACT_BELOW <= table.num_remaining or (
                table.num_remaining == 0
            )
            remaining = table.remaining_vertices()
            for live in table.live_faces().tolist():
                assert table.best_for_face(live) == per_face_best(
                    similarity, table.corners[live].tolist(), remaining
                )
        assert len(widths) >= 3


class TestRescanGainTable:
    def test_produces_same_state_as_optimized_table(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        fast = GainTable(similarity, list(remaining))
        slow = RescanGainTable(similarity, list(remaining))
        faces = [(0, 1, 2), (0, 2, 3), (1, 2, 3)]
        fast.add_faces(faces)
        slow.add_faces(faces)
        fast.split([0, 1], [7, 8])
        slow.split([0, 1], [7, 8])
        assert fast.live_faces().tolist() == slow.live_faces().tolist()
        for face_id in fast.live_faces().tolist():
            assert fast.best_for_face(face_id) == slow.best_for_face(face_id)

    def test_rescan_recomputes_more(self, similarity):
        remaining = [4, 5, 6, 7, 8, 9]
        fast = GainTable(similarity, list(remaining))
        slow = RescanGainTable(similarity, list(remaining))
        faces = [(0, 1, 2), (0, 2, 3), (1, 2, 3)]
        fast.add_faces(faces)
        slow.add_faces(faces)
        # Insert a vertex that is the best of at most one face; the rescan
        # variant still touches every live face, and both end in the same
        # state.
        fast.split([2], [9])
        slow.split([2], [9])
        assert slow.recompute_count > fast.recompute_count
        for face_id in fast.live_faces().tolist():
            assert fast.best_for_face(face_id) == slow.best_for_face(face_id)

"""Property-based tests (hypothesis) on the core data structures and invariants.

The TMFG construction is checked against the sort-based selection and the
per-face gain scan kept in :mod:`tests.oracles`, and the DBHT assignment
and inter-group heights against the per-vertex loop and leaf scan kept
there, and the DBHT's APSP matrix against the array-heap Dijkstra oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.assignment import assign_vertices
from repro.core.direction import DirectionResult, compute_directions, compute_directions_bfs
from repro.core.dbht import dbht
from repro.core.hierarchy import build_hierarchy
from repro.core import tmfg as tmfg_module
from repro.core.gains import GainTable
from repro.core.tmfg import _initial_clique, construct_tmfg
from repro.dendrogram.cut import cut_k
from repro.graph.faces import child_faces
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.planarity import is_planar
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.metrics.ari import adjusted_rand_index
from tests import oracles
from tests.oracles import assert_matches_reference_builder, per_face_best, reference_tmfg


def similarity_matrices(min_size=5, max_size=24):
    """Strategy producing random symmetric similarity matrices."""

    def build(args):
        n, seed = args
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-1.0, 1.0, size=(n, n))
        matrix = (raw + raw.T) / 2.0
        np.fill_diagonal(matrix, 1.0)
        return matrix

    return st.tuples(
        st.integers(min_value=min_size, max_value=max_size),
        st.integers(min_value=0, max_value=10_000),
    ).map(build)


def tie_heavy_matrix(n, seed, levels, duplicates):
    """A symmetric matrix built to force exact gain ties.

    Entries are dyadic multiples of ``1/levels`` (so every gain is an exact
    float sum and equal sums compare equal) and a few rows are duplicates
    of others (so whole vertices tie on every face).
    """
    rng = np.random.default_rng(seed)
    matrix = np.triu(rng.integers(-levels, levels + 1, size=(n, n)) / levels, 1)
    matrix = matrix + matrix.T
    for _ in range(duplicates):
        source, target = rng.choice(n, size=2, replace=False)
        matrix[target, :] = matrix[source, :]
        matrix[:, target] = matrix[:, source]
    np.fill_diagonal(matrix, 1.0)
    return matrix


def tie_heavy_matrices(min_size=4, max_size=24):
    """Strategy producing :func:`tie_heavy_matrix` inputs."""
    return st.builds(
        tie_heavy_matrix,
        st.integers(min_value=min_size, max_value=max_size),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=3),
    )


def decimal_tie_matrices(min_size=8, max_size=28):
    """Symmetric matrices over a few decimal fractions (0.1, 0.2, 0.3, 0.6,
    0.7) that binary floats cannot hold exactly: attachment sums tie often,
    and whether two of them tie depends on the order their terms are added.
    """

    def build(args):
        n, seed = args
        rng = np.random.default_rng(seed)
        values = np.array([0.1, 0.2, 0.3, 0.6, 0.7])
        matrix = np.triu(rng.choice(values, size=(n, n)), 1)
        matrix = matrix + matrix.T
        np.fill_diagonal(matrix, 1.0)
        return matrix

    return st.tuples(
        st.integers(min_value=min_size, max_value=max_size),
        st.integers(min_value=0, max_value=10_000),
    ).map(build)


class _EveryBubbleConverging(DirectionResult):
    """Directions under which every bubble is converging and reaches only
    itself, so every vertex's group is decided by ``chi`` over all of its
    bubbles."""

    def converging_bubbles(self, tree):
        return [bubble.id for bubble in tree.bubbles]

    def reachable_converging_bubbles(self, tree):
        return {bubble.id: {bubble.id} for bubble in tree.bubbles}


#: Round sizes the selection properties run at; ``"n"`` is the matrix size
#: (every face's best pair competes in a single round).
PREFIXES = [1, 2, 3, 7, "n"]


def _prefix_for(prefix, similarity: np.ndarray) -> int:
    return similarity.shape[0] if prefix == "n" else prefix


def _dissimilarity_from(similarity: np.ndarray) -> np.ndarray:
    dissimilarity = similarity.max() - similarity
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


class TestTMFGProperties:
    @settings(max_examples=25, deadline=None)
    @given(similarity_matrices(), st.integers(min_value=1, max_value=12))
    def test_tmfg_is_always_maximal_planar(self, similarity, prefix):
        n = similarity.shape[0]
        result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
        assert result.graph.num_edges == 3 * n - 6
        assert is_planar(result.graph)

    @pytest.mark.parametrize("prefix", PREFIXES)
    @settings(max_examples=40, deadline=None)
    @given(tie_heavy_matrices())
    def test_selection_matches_sort_oracle(self, prefix, similarity):
        """The argmax (``prefix=1``) and argpartition (``prefix>1``) round
        selections build what sorting every face's best pair builds,
        tie-breaks included."""
        prefix = _prefix_for(prefix, similarity)
        reference = reference_tmfg(similarity, prefix)
        result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
        assert result.initial_clique == reference.clique
        assert result.insertion_order == reference.insertion_order
        assert result.edges == reference.edges
        assert result.rounds == reference.rounds
        if prefix == 1:
            assert result.rounds == similarity.shape[0] - 4

    @pytest.mark.parametrize("prefix", PREFIXES)
    @settings(max_examples=25, deadline=None)
    @given(st.one_of(tie_heavy_matrices(), similarity_matrices(min_size=4)))
    def test_gain_table_matches_per_face_recompute_every_round(self, prefix, similarity):
        """After every round, each live face's ``(gain, vertex)`` equals a
        fresh per-face scan over the remaining vertices, bit for bit."""
        prefix = _prefix_for(prefix, similarity)
        similarity = validate_similarity_matrix(similarity)
        v1, v2, v3, v4 = _initial_clique(similarity)
        clique = (v1, v2, v3, v4)
        table = GainTable(similarity, [v for v in range(similarity.shape[0]) if v not in clique])
        initial = [(v1, v2, v3), (v1, v2, v4), (v1, v3, v4), (v2, v3, v4)]
        table.add_faces(initial)
        # The face set as the frozenset builder keeps it, grown independently
        # of the table's corner arrays.
        faces = {frozenset(face) for face in initial}
        while True:
            remaining = table.remaining_vertices()
            live = table.live_faces().tolist()
            assert len(live) == table.num_faces
            assert {frozenset(table.corners[f].tolist()) for f in live} == faces
            for face_id in live:
                corners = table.corners[face_id].tolist()
                assert table.best_for_face(face_id) == per_face_best(similarity, corners, remaining)
            if table.num_remaining == 0:
                break
            face_ids, vertices = table.select(prefix)
            for face_id, vertex in zip(face_ids, vertices):
                face = frozenset(table.corners[face_id].tolist())
                faces.remove(face)
                faces.update(child_faces(face, vertex))
            table.split(face_ids, vertices)

    @settings(max_examples=15, deadline=None)
    @given(similarity_matrices(min_size=6, max_size=20), st.integers(min_value=2, max_value=8))
    def test_batched_tmfg_keeps_comparable_weight(self, similarity, prefix):
        sequential = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        batched = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=False)
        sequential_sum = sequential.graph.edge_weight_sum()
        batched_sum = batched.graph.edge_weight_sum()
        absolute_scale = sum(abs(w) for _, _, w in sequential.graph.edges())
        if absolute_scale < 1e-9:
            return
        # With signed weights the sum can nearly cancel, making the plain
        # batched/sequential *ratio* arbitrarily ill-conditioned, so the
        # band is stated as a difference bounded by the edge-weight scale.
        # On positive matrices (absolute_scale == sequential_sum) this is
        # the 0.25 <= ratio <= 1.75 band; empirically the worst case over
        # thousands of adversarial matrices stays under 0.4.
        assert abs(batched_sum - sequential_sum) <= 0.75 * absolute_scale

    @settings(max_examples=20, deadline=None)
    @given(similarity_matrices(), st.integers(min_value=1, max_value=10))
    def test_bubble_tree_invariants_always_hold(self, similarity, prefix):
        result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=True)
        result.bubble_tree.check_invariants()
        assert result.bubble_tree.num_bubbles == similarity.shape[0] - 3

    @settings(max_examples=15, deadline=None)
    @given(similarity_matrices(min_size=6, max_size=18), st.integers(min_value=1, max_value=6))
    def test_direction_algorithms_always_agree(self, similarity, prefix):
        result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=True)
        fast = compute_directions(result.bubble_tree, result.graph)
        slow = compute_directions_bfs(result.bubble_tree, result.graph)
        assert fast.towards_child == slow.towards_child


class _WidthRecordingTable(GainTable):
    """Records the working matrix's width after every split."""

    widths: list = []

    def split(self, face_ids, vertices):
        start = super().split(face_ids, vertices)
        self.widths.append(self._work.shape[1])
        return start


class TestReferenceBuilder:
    @pytest.mark.parametrize("prefix", PREFIXES)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tie_heavy_matrices(min_size=4, max_size=60))
    def test_matches_reference_builder_on_tie_heavy_matrices(self, prefix, similarity):
        assert_matches_reference_builder(similarity, _prefix_for(prefix, similarity))

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_builder_while_compacting(self, monkeypatch, prefix, seed):
        """At 60 vertices the working matrix is compacted several times."""
        matrix = tie_heavy_matrix(60, seed, levels=2, duplicates=3)
        monkeypatch.setattr(_WidthRecordingTable, "widths", [])
        monkeypatch.setattr(tmfg_module, "GainTable", _WidthRecordingTable)
        assert_matches_reference_builder(matrix, _prefix_for(prefix, matrix))
        compactions = np.count_nonzero(np.diff([56] + _WidthRecordingTable.widths))
        assert compactions >= 2


class TestDBHTProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(similarity_matrices(min_size=8, max_size=20), st.integers(min_value=1, max_value=6))
    def test_dendrogram_is_complete_and_monotone(self, similarity, prefix):
        dissimilarity = _dissimilarity_from(similarity)
        tmfg = construct_tmfg(similarity, prefix=prefix)
        result = dbht(tmfg, similarity, dissimilarity)
        oracle = oracles.heap_apsp(tmfg.csr().reweighted(dissimilarity))
        assert np.array_equal(result.shortest_paths, oracle)
        assert result.dendrogram.is_complete
        assert result.dendrogram.heights_monotone()

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        similarity_matrices(min_size=8, max_size=16),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    def test_cut_produces_exactly_k_clusters(self, similarity, prefix, k):
        dissimilarity = _dissimilarity_from(similarity)
        tmfg = construct_tmfg(similarity, prefix=prefix)
        result = dbht(tmfg, similarity, dissimilarity)
        labels = result.cut(k)
        assert len(np.unique(labels)) == min(k, similarity.shape[0])


def _assert_assignment_matches_oracle(similarity, prefix, every_bubble_converging=False):
    tmfg = construct_tmfg(similarity, prefix=prefix)
    tree = tmfg.bubble_tree
    directions = compute_directions(tree, tmfg.graph)
    if every_bubble_converging:
        directions = _EveryBubbleConverging(
            directions.towards_child, directions.in_values, directions.out_values
        )
    paths = all_pairs_shortest_paths(tmfg.csr().reweighted(_dissimilarity_from(similarity)))
    result = assign_vertices(tree, directions, similarity, paths)
    expected = oracles.assign_vertices(tree, directions, similarity, paths)
    assert np.array_equal(result.group, expected.group)
    assert np.array_equal(result.bubble, expected.bubble)
    assert np.array_equal(result.assigned_directly, expected.assigned_directly)
    assert result.converging_bubbles == expected.converging_bubbles
    return result, paths


class TestDBHTOracles:
    @pytest.mark.parametrize("prefix", [1, 3])
    @settings(max_examples=40, deadline=None)
    @given(tie_heavy_matrices(max_size=40))
    def test_assignment_and_heights_match_per_vertex_oracles(self, prefix, similarity):
        """The batched assignment equals the per-vertex ``WriteMax`` /
        ``WriteMin`` loop (tie rules included), and every inter-group
        height equals the number of groups found by scanning its leaves."""
        result, paths = _assert_assignment_matches_oracle(similarity, prefix)
        dendrogram = build_hierarchy(result, paths)
        groups = result.groups()
        inter_group = [
            node for node in dendrogram.internal_nodes()
            if node.metadata.get("level") == "inter_group"
        ]
        heights = [node.height for node in inter_group]
        counts = [
            float(oracles.count_group_roots(dendrogram, node.id, groups)) for node in inter_group
        ]
        assert np.array_equal(heights, counts)

    @pytest.mark.parametrize("every_bubble_converging", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(decimal_tie_matrices())
    def test_assignment_keeps_the_loops_term_order(self, every_bubble_converging, similarity):
        """``chi`` and ``chi'`` add their terms in the order the loop
        iterates each bubble's member set, so sums that tie only in that
        order pick the same bubble."""
        _assert_assignment_matches_oracle(similarity, 1, every_bubble_converging)


class TestMetricProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=50),
        st.integers(min_value=0, max_value=1000),
    )
    def test_relabeling_does_not_change_ari(self, labels, seed):
        rng = np.random.default_rng(seed)
        other = rng.integers(0, 4, size=len(labels))
        permutation = rng.permutation(6)
        relabeled = [int(permutation[v]) for v in labels]
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(relabeled, other)
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=50))
    def test_ari_symmetry(self, labels):
        reversed_labels = list(reversed(labels))
        assert adjusted_rand_index(labels, reversed_labels) == pytest.approx(
            adjusted_rand_index(reversed_labels, labels)
        )


class TestDendrogramCutProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_random_dendrogram_cut_partitions_leaves(self, n, seed):
        from repro.dendrogram.node import Dendrogram

        rng = np.random.default_rng(seed)
        dendrogram = Dendrogram(n)
        active = list(range(n))
        height = 0.0
        while len(active) > 1:
            i, j = sorted(rng.choice(len(active), size=2, replace=False))
            a, b = active[j], active[i]
            height += float(rng.uniform(0.0, 1.0))
            new = dendrogram.merge(a, b, height=height)
            active = [x for x in active if x not in (a, b)] + [new]
        for k in (1, 2, n // 2 or 1, n):
            labels = cut_k(dendrogram, k)
            assert len(labels) == n
            assert len(np.unique(labels)) == min(k, n)
            assert np.all(labels >= 0)

"""Property-based tests (hypothesis) on the core data structures and invariants.

The TMFG and DBHT properties are parametrized over the ``kernel``
(``python``/``numpy`` hot loops) and, for the DBHT pipeline, over the
serial/process ``backend`` fixture, so both the bulk-numpy gain updates and
the picklable process-pool APSP path are covered by the invariants.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.direction import compute_directions, compute_directions_bfs
from repro.core.dbht import dbht
from repro.core.tmfg import _initial_clique, _select_batch, _TMFGBuilder, construct_tmfg
from repro.dendrogram.cut import cut_k
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.planarity import is_planar
from repro.metrics.ari import adjusted_rand_index
from repro.parallel.cost_model import WorkSpanTracker
from repro.parallel.kernels import KERNEL_NAMES


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


def tie_heavy_matrices(min_size=4, max_size=20):
    """Symmetric matrices built to force exact gain ties.

    Entries are dyadic multiples of ``1/levels`` (so every gain is an exact
    float sum and equal sums compare equal) and a few rows are duplicates
    of others (so whole vertices tie on every face).
    """

    def build(args):
        n, seed, levels, duplicates = args
        rng = np.random.default_rng(seed)
        matrix = np.triu(rng.integers(-levels, levels + 1, size=(n, n)) / levels, 1)
        matrix = matrix + matrix.T
        for _ in range(duplicates):
            source, target = rng.choice(n, size=2, replace=False)
            matrix[target, :] = matrix[source, :]
            matrix[:, target] = matrix[:, source]
        np.fill_diagonal(matrix, 1.0)
        return matrix

    return st.tuples(
        st.integers(min_value=min_size, max_value=max_size),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([1, 2, 4]),
        st.integers(min_value=0, max_value=3),
    ).map(build)


def _reference_prefix_one_tmfg(similarity: np.ndarray, kernel: str) -> _TMFGBuilder:
    """The TMFG built by driving the construction state with the reference
    batched selection at ``prefix=1`` (sort every face's best pair, take
    the top one)."""
    similarity = validate_similarity_matrix(similarity)
    builder = _TMFGBuilder(
        similarity, _initial_clique(similarity), False, kernel, WorkSpanTracker()
    )
    while builder.gain_table.num_remaining > 0:
        (pair,) = _select_batch(builder.gain_table, 1)
        builder.insert_round([(pair.vertex, pair.face)])
    return builder


def _dissimilarity_from(similarity: np.ndarray) -> np.ndarray:
    dissimilarity = similarity.max() - similarity
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


class TestTMFGProperties:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @settings(max_examples=25, deadline=None)
    @given(similarity_matrices(), st.integers(min_value=1, max_value=12))
    def test_tmfg_is_always_maximal_planar(self, kernel, similarity, prefix):
        n = similarity.shape[0]
        result = construct_tmfg(
            similarity, prefix=prefix, build_bubble_tree=False, kernel=kernel
        )
        assert result.graph.num_edges == 3 * n - 6
        assert is_planar(result.graph)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @settings(max_examples=40, deadline=None)
    @given(tie_heavy_matrices())
    def test_prefix_one_selection_matches_reference_oracle(self, kernel, similarity):
        """The single-scan ``prefix=1`` path builds what the reference
        batched selection builds, tie-breaks included."""
        reference = _reference_prefix_one_tmfg(similarity, kernel)
        result = construct_tmfg(similarity, prefix=1, build_bubble_tree=False, kernel=kernel)
        assert result.initial_clique == reference.clique
        assert result.insertion_order == reference.insertion_order
        assert result.edges == reference.edges
        assert result.rounds == reference.rounds == similarity.shape[0] - 4

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


class TestDBHTProperties:
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(similarity_matrices(min_size=8, max_size=20), st.integers(min_value=1, max_value=6))
    def test_dendrogram_is_complete_and_monotone(self, kernel, backend, similarity, prefix):
        dissimilarity = _dissimilarity_from(similarity)
        tmfg = construct_tmfg(similarity, prefix=prefix, kernel=kernel)
        result = dbht(tmfg, similarity, dissimilarity, backend=backend, kernel=kernel)
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

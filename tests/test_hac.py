"""Tests for the nearest-neighbour-chain HAC, cross-checked against scipy."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.baselines.hac import hac_dendrogram, hac_labels, linkage
from repro.dendrogram.cut import cut_k
from repro.metrics.ari import adjusted_rand_index
from tests.oracles import scalar_linkage


def random_distance_matrix(n, seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


class TestLinkageStructure:
    def test_number_of_merges(self):
        distances = random_distance_matrix(10, 0)
        merges = linkage(distances, "complete")
        assert merges.shape == (9, 4)

    def test_final_cluster_contains_everything(self):
        distances = random_distance_matrix(8, 1)
        merges = linkage(distances, "average")
        assert merges[-1, 3] == 8

    def test_single_point(self):
        assert linkage(np.zeros((1, 1)), "complete").shape == (0, 4)

    def test_two_points(self):
        distances = np.array([[0.0, 2.0], [2.0, 0.0]])
        merges = linkage(distances, "single")
        assert merges.shape == (1, 4)
        assert merges[0, 2] == pytest.approx(2.0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            linkage(np.zeros((3, 3)), "ward")

    def test_asymmetric_matrix_rejected(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            linkage(matrix, "complete")

    def test_nan_matrix_rejected(self):
        matrix = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            linkage(matrix, "complete")

    def test_merge_heights_monotone_for_reducible_linkages(self):
        for method in ("single", "complete", "average"):
            distances = random_distance_matrix(20, 4)
            dendrogram = hac_dendrogram(distances, method=method)
            assert dendrogram.heights_monotone(), method


class TestAgainstScipy:
    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flat_clusters_match_scipy(self, method, seed):
        distances = random_distance_matrix(25, seed)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method=method)
        for k in (2, 3, 5):
            ours = hac_labels(distances, k, method=method)
            theirs = fcluster(scipy_result, k, criterion="maxclust")
            assert adjusted_rand_index(ours, theirs) == pytest.approx(1.0), (
                method,
                seed,
                k,
            )

    @pytest.mark.parametrize("method", ["single", "complete", "average"])
    def test_root_height_matches_scipy(self, method):
        distances = random_distance_matrix(18, 7)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method=method)
        ours = linkage(distances, method=method)
        assert ours[:, 2].max() == pytest.approx(scipy_result[:, 2].max())

    def test_cophenetic_heights_match_scipy_complete(self):
        # For complete linkage the multiset of merge distances must agree.
        distances = random_distance_matrix(15, 9)
        condensed = squareform(distances, checks=False)
        scipy_result = scipy_linkage(condensed, method="complete")
        ours = linkage(distances, method="complete")
        np.testing.assert_allclose(
            np.sort(ours[:, 2]), np.sort(scipy_result[:, 2]), rtol=1e-10
        )


class TestQuality:
    def test_separated_blobs_are_recovered(self):
        rng = np.random.default_rng(3)
        points = np.vstack(
            [rng.normal(loc=center, scale=0.2, size=(10, 2)) for center in ((0, 0), (5, 5), (10, 0))]
        )
        labels_true = np.repeat([0, 1, 2], 10)
        diff = points[:, None, :] - points[None, :, :]
        distances = np.sqrt((diff ** 2).sum(axis=-1))
        for method in ("single", "complete", "average"):
            labels = hac_labels(distances, 3, method=method)
            assert adjusted_rand_index(labels_true, labels) == pytest.approx(1.0)

    def test_weighted_linkage_runs(self):
        distances = random_distance_matrix(12, 11)
        dendrogram = hac_dendrogram(distances, method="weighted")
        assert dendrogram.is_complete


def tied_distance_matrix(n, seed, levels=4):
    """Symmetric distances on a coarse grid of thirds: many exact ties,
    and average/weighted updates that are not dyadic."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, levels + 1, size=(n, n)) / 3.0, 1)
    return upper + upper.T


class TestVectorisedUpdate:
    """The vectorised Lance-Williams row update is the scalar loop, byte for byte."""

    @pytest.mark.parametrize("method", ["single", "complete", "average", "weighted"])
    @pytest.mark.parametrize("seed", range(4))
    def test_merges_byte_identical_to_scalar_updates(self, monkeypatch, method, seed):
        for n, distances in (
            (14, tied_distance_matrix(14, seed)),
            (25, tied_distance_matrix(25, seed, levels=2)),
            (18, random_distance_matrix(18, seed)),
        ):
            expected = scalar_linkage(monkeypatch, distances, method)
            merges = linkage(distances, method)
            assert merges.shape == (n - 1, 4)
            assert merges.tobytes() == expected.tobytes()

"""End-to-end tests for the parallel DBHT (Algorithm 4)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.dbht import dbht
from repro.core.tmfg import construct_tmfg
from repro.metrics.ari import adjusted_rand_index
from repro.obs.tracer import collect_steps
from repro.parallel.cost_model import fit_cost
from tests.oracles import scipy_apsp


class TestDBHT:
    @pytest.mark.parametrize("prefix", [1, 8])
    def test_produces_complete_monotone_dendrogram(self, small_matrices, prefix):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=prefix)
        result = dbht(tmfg, similarity, dissimilarity)
        assert result.dendrogram.is_complete
        assert result.dendrogram.num_leaves == similarity.shape[0]
        assert result.dendrogram.heights_monotone()

    def test_requires_bubble_tree(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1, build_bubble_tree=False)
        with pytest.raises(ValueError):
            dbht(tmfg, similarity, dissimilarity)

    def test_rejects_mismatched_dissimilarity(self, small_matrices):
        similarity, _ = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1)
        wrong = np.zeros((similarity.shape[0] + 1, similarity.shape[0] + 1))
        with pytest.raises(Exception):
            dbht(tmfg, similarity, wrong)

    def test_cut_produces_requested_number_of_clusters(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1)
        result = dbht(tmfg, similarity, dissimilarity)
        for k in (2, 3, 5):
            labels = result.cut(k)
            assert len(np.unique(labels)) == k

    def test_recovers_ground_truth_on_easy_data(self, small_dataset, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1)
        result = dbht(tmfg, similarity, dissimilarity)
        labels = result.cut(small_dataset.num_classes)
        assert adjusted_rand_index(small_dataset.labels, labels) > 0.6

    def test_step_seconds_cover_all_phases(self, small_matrices):
        # The DBHT times nothing itself: its phase spans fill the
        # step_seconds of the scope that collects them.
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1)
        with collect_steps() as steps:
            dbht(tmfg, similarity, dissimilarity)
        assert list(steps) == ["apsp", "bubble-tree", "hierarchy"]
        assert all(value >= 0 for value in steps.values())

    def test_shortest_paths_use_dissimilarity_weights(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=1)
        result = dbht(tmfg, similarity, dissimilarity)
        # Direct edges of the TMFG: the shortest path is at most the edge length.
        for u, v, _ in tmfg.graph.edges():
            assert result.shortest_paths[u, v] <= dissimilarity[u, v] + 1e-9

    def test_fit_cost_accumulates_all_phases(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg = construct_tmfg(similarity, prefix=4)
        result = dbht(tmfg, similarity, dissimilarity)
        cost = fit_cost(tmfg, result)
        phase_names = [phase.name for phase in cost.phases]
        assert phase_names == ["tmfg", "apsp", "bubble-tree", "hierarchy"]
        assert all(phase.work > 0 and phase.span > 0 for phase in cost.phases)
        # The DBHT phases add to the TMFG's, which they leave as it was.
        assert cost.phase("tmfg") == fit_cost(tmfg).phase("tmfg")

    def test_scipy_apsp_backend_gives_same_dendrogram(self, small_matrices, monkeypatch):
        similarity, dissimilarity = small_matrices
        tmfg_a = construct_tmfg(similarity, prefix=4)
        tmfg_b = construct_tmfg(similarity, prefix=4)
        default = dbht(tmfg_a, similarity, dissimilarity)
        # The same DBHT with SciPy's csgraph APSP (a test oracle) in place
        # of the production push-frontier kernel.
        dbht_module = importlib.import_module("repro.core.dbht")
        monkeypatch.setattr(dbht_module, "all_pairs_shortest_paths", scipy_apsp)
        scipy_backend = dbht(tmfg_b, similarity, dissimilarity)
        np.testing.assert_allclose(
            default.shortest_paths, scipy_backend.shortest_paths, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_array_equal(default.cut(5), scipy_backend.cut(5))

    def test_deterministic_for_fixed_input(self, small_matrices):
        similarity, dissimilarity = small_matrices
        tmfg_a = construct_tmfg(similarity, prefix=4)
        tmfg_b = construct_tmfg(similarity, prefix=4)
        result_a = dbht(tmfg_a, similarity, dissimilarity)
        result_b = dbht(tmfg_b, similarity, dissimilarity)
        np.testing.assert_array_equal(result_a.cut(4), result_b.cut(4))

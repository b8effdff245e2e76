"""Tests for the one-call public pipeline (tmfg_dbht)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.experiments.figures import APPENDIX_CORRELATION, APPENDIX_GROUND_TRUTH
from repro.metrics.ari import adjusted_rand_index
from repro.parallel.cost_model import fit_cost


class TestPipeline:
    def test_returns_all_artifacts(self, small_matrices):
        similarity, dissimilarity = small_matrices
        result = tmfg_dbht(similarity, dissimilarity, prefix=5)
        assert result.tmfg.graph.num_edges == 3 * similarity.shape[0] - 6
        assert result.dendrogram.is_complete
        # The fit times itself only through its spans.
        assert not hasattr(result, "step_seconds")
        assert not hasattr(result.dbht, "step_seconds")

    def test_derives_dissimilarity_from_correlation(self, small_matrices):
        similarity, _ = small_matrices
        result = tmfg_dbht(similarity, prefix=1)
        assert result.dendrogram.is_complete

    def test_derives_dissimilarity_from_generic_similarity(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 5.0, size=(12, 12))
        similarity = (raw + raw.T) / 2
        result = tmfg_dbht(similarity, prefix=1)
        assert result.dendrogram.is_complete

    def test_fit_cost_covers_every_phase(self, small_matrices):
        similarity, dissimilarity = small_matrices
        result = tmfg_dbht(similarity, dissimilarity, prefix=2)
        cost = fit_cost(result.tmfg, result.dbht)
        assert [phase.name for phase in cost.phases] == [
            "tmfg",
            "apsp",
            "bubble-tree",
            "hierarchy",
        ]
        assert cost.total_work > 0
        # A pure function of the result: a second call gives the same floats.
        assert fit_cost(result.tmfg, result.dbht).as_dict() == cost.as_dict()

    def test_cut_shortcut_matches_dbht_cut(self, small_matrices):
        similarity, dissimilarity = small_matrices
        result = tmfg_dbht(similarity, dissimilarity, prefix=1)
        np.testing.assert_array_equal(result.cut(3), result.dbht.cut(3))


class TestAppendixExample:
    """The worked example of the appendix (Figs. 12 and 13)."""

    def test_prefix_one_insertion_order(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=1)
        order = [(v, tuple(sorted(f))) for v, f in result.tmfg.insertion_order]
        assert result.tmfg.initial_clique == (0, 1, 3, 4)
        assert order == [(5, (0, 3, 4)), (2, (0, 4, 5))]

    def test_prefix_three_insertion_order(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=3)
        order = dict(
            (v, tuple(sorted(f))) for v, f in result.tmfg.insertion_order
        )
        assert order[2] == (0, 1, 4)
        assert order[5] == (0, 3, 4)

    def test_prefix_three_recovers_ground_truth(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=3)
        labels = result.cut(2)
        assert adjusted_rand_index(APPENDIX_GROUND_TRUTH, labels) == pytest.approx(1.0)

    def test_prefix_one_does_not_recover_ground_truth(self):
        result = tmfg_dbht(APPENDIX_CORRELATION, prefix=1)
        labels = result.cut(2)
        assert adjusted_rand_index(APPENDIX_GROUND_TRUTH, labels) < 1.0


class TestFitBoundary:
    """A fit validates each matrix once, at the pipeline boundary, and
    builds no adjacency-list graph."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        """Wrap ``module.name`` in every loaded ``repro`` module that bound it."""
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, name, None) is original
            ):
                monkeypatch.setattr(loaded, name, counting)
        return calls

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_each_matrix_is_validated_once(self, monkeypatch, small_dataset, precomputed):
        from repro.api import TMFGClusterer
        from repro.graph import matrix

        similarity_calls = self._count_calls(monkeypatch, matrix, "validate_similarity_matrix")
        dissimilarity_calls = self._count_calls(
            monkeypatch, matrix, "validate_dissimilarity_matrix"
        )
        data = small_dataset.data
        if precomputed:
            data = np.corrcoef(data)
        TMFGClusterer(num_clusters=3, precomputed=precomputed).fit(data)
        assert len(similarity_calls) == 1
        assert len(dissimilarity_calls) == 1

    def test_fit_never_builds_a_weighted_graph(self, monkeypatch, small_dataset):
        from repro.api import TMFGClusterer
        from repro.graph.weighted_graph import WeightedGraph

        def forbidden(self, u, v, weight):
            raise AssertionError("WeightedGraph.add_edge called during a fit")

        monkeypatch.setattr(WeightedGraph, "add_edge", forbidden)
        estimator = TMFGClusterer(num_clusters=3).fit(small_dataset.data)
        assert estimator.labels_.shape == (small_dataset.data.shape[0],)
        assert estimator.result_.extras["edge_weight_sum"] == pytest.approx(
            sum(estimator.result_.raw.tmfg.edge_weights)
        )

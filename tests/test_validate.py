"""Tests for the pipeline-output validators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.core.tmfg import construct_tmfg
from repro.core.validate import (
    ValidationError,
    validate_dbht_result,
    validate_pipeline_result,
    validate_tmfg_result,
)


@pytest.fixture(scope="module")
def pipeline_result(small_matrices_session):
    similarity, dissimilarity = small_matrices_session
    return tmfg_dbht(similarity, dissimilarity, prefix=6)


@pytest.fixture(scope="module")
def small_matrices_session():
    from repro.datasets.similarity import similarity_and_dissimilarity
    from repro.datasets.synthetic import make_time_series_dataset

    dataset = make_time_series_dataset(50, 40, 3, noise=1.0, seed=19)
    return similarity_and_dissimilarity(dataset.data)


class TestValidTMFG:
    def test_valid_tmfg_passes(self, small_matrices_session):
        similarity, _ = small_matrices_session
        tmfg = construct_tmfg(similarity, prefix=3)
        checks = validate_tmfg_result(tmfg)
        assert "edge count is 3n-6" in checks
        assert "bubble tree invariants hold" in checks

    def test_missing_edge_detected(self, small_matrices_session):
        similarity, _ = small_matrices_session
        tmfg = construct_tmfg(similarity, prefix=3)
        # Corrupt the result: drop an edge by rebuilding the graph.
        from repro.graph.weighted_graph import WeightedGraph

        smaller = WeightedGraph(tmfg.graph.num_vertices)
        edges = list(tmfg.graph.edges())[:-1]
        for u, v, w in edges:
            smaller.add_edge(u, v, w)
        tmfg.graph = smaller
        with pytest.raises(ValidationError):
            validate_tmfg_result(tmfg)

    def test_duplicated_insertion_detected(self, small_matrices_session):
        similarity, _ = small_matrices_session
        tmfg = construct_tmfg(similarity, prefix=3)
        tmfg.insertion_order[0] = tmfg.insertion_order[1]
        with pytest.raises(ValidationError):
            validate_tmfg_result(tmfg)


class TestValidDBHT:
    def test_valid_result_passes(self, pipeline_result):
        checks = validate_dbht_result(pipeline_result.dbht)
        assert "dendrogram is complete" in checks
        assert "groups are converging bubbles" in checks

    def test_leaf_count_mismatch_detected(self, pipeline_result):
        with pytest.raises(ValidationError):
            validate_dbht_result(pipeline_result.dbht, num_vertices=3)

    def test_non_monotone_heights_detected(self, pipeline_result):
        dendrogram = pipeline_result.dendrogram
        root = dendrogram.root
        original = dendrogram.node(root).height
        try:
            dendrogram.set_height(root, -1.0)
            with pytest.raises(ValidationError):
                validate_dbht_result(pipeline_result.dbht)
        finally:
            dendrogram.set_height(root, original)

    def test_bad_group_assignment_detected(self, pipeline_result):
        assignment = pipeline_result.dbht.assignment
        original = int(assignment.group[0])
        try:
            assignment.group[0] = -1
            with pytest.raises(ValidationError):
                validate_dbht_result(pipeline_result.dbht)
        finally:
            assignment.group[0] = original


class TestPipelineValidation:
    def test_full_pipeline_passes(self, pipeline_result):
        checks = validate_pipeline_result(pipeline_result)
        assert "dendrogram is complete" in checks
        assert len(checks) >= 7

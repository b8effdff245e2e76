"""Tests for the figure-reproduction entry points (quick configuration)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    APPENDIX_CORRELATION,
    appendix_prefix_example,
    figure4_speedup,
    figure5_breakdown,
    figure6_prefix_quality,
    figure7_edge_sum,
    load_dataset,
    table2_datasets,
)


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        scale=0.015,
        noise=1.2,
        outlier_fraction=0.05,
        dataset_ids=(6, 11),
        slow_dataset_ids=(11,),
        max_slow_objects=40,
        prefix_sizes=(1, 5),
        thread_counts=(1, 4, 16),
        spectral_neighbor_counts=(5, 10),
        stock_count=60,
        stock_days=100,
        seed=2,
    )


class TestTable2:
    def test_lists_requested_datasets(self, tiny_config):
        result = table2_datasets(tiny_config)
        assert len(result["rows"]) == 2
        ids = [row[0] for row in result["rows"]]
        assert ids == [6, 11]

    def test_paper_sizes_reported(self, tiny_config):
        result = table2_datasets(tiny_config)
        ecg = next(row for row in result["rows"] if row[0] == 6)
        assert ecg[2] == 5000 and ecg[3] == 140 and ecg[4] == 5


class TestFigure4:
    def test_speedup_curves_have_expected_shape(self, tiny_config):
        result = figure4_speedup(tiny_config, dataset_id=6)
        curves = result["curves"]
        assert set(curves) == {1, 5}
        for prefix, curve in curves.items():
            assert len(curve) == len(tiny_config.thread_counts)
            assert curve[0] == pytest.approx(1.0)
            # Speedup never decreases when adding (non-hyperthreaded) threads.
            assert curve[1] >= curve[0]

    @pytest.mark.parametrize("dataset_id", [6, 17])
    def test_curves_match_the_golden_pin(self, tiny_config, dataset_id):
        # Curves recorded (hex floats) with the in-fit tracker that
        # fit_cost replaced; the model computed after the fit must give
        # the same bits.
        golden = json.loads(
            (Path(__file__).parent / "golden" / "work_span_model.json").read_text(
                encoding="utf-8"
            )
        )
        (expected,) = [
            entry["curves"] for entry in golden["figure4"] if entry["dataset_id"] == dataset_id
        ]
        curves = figure4_speedup(tiny_config, dataset_id=dataset_id)["curves"]
        assert {
            str(prefix): [speedup.hex() for speedup in curve] for prefix, curve in curves.items()
        } == expected

    def test_larger_prefix_scales_at_least_as_well(self, tiny_config):
        result = figure4_speedup(tiny_config, dataset_id=6)
        curves = result["curves"]
        assert curves[5][-1] >= curves[1][-1] * 0.9


class TestFigure5:
    def test_breakdown_covers_all_steps(self, tiny_config):
        result = figure5_breakdown(tiny_config, dataset_id=6)
        steps = {row[1] for row in result["rows"]}
        assert steps == {"tmfg", "apsp", "bubble-tree", "hierarchy"}

    def test_fractions_sum_to_one_per_prefix(self, tiny_config):
        result = figure5_breakdown(tiny_config, dataset_id=6)
        for prefix in tiny_config.prefix_sizes:
            fractions = [row[3] for row in result["rows"] if row[0] == prefix]
            assert sum(fractions) == pytest.approx(1.0, abs=1e-6)


class TestFigure6And7:
    def test_prefix_quality_rows(self, tiny_config):
        result = figure6_prefix_quality(tiny_config)
        assert len(result["rows"]) == 2 * len(tiny_config.prefix_sizes)
        for _, _, ari in result["rows"]:
            assert -1.0 <= ari <= 1.0

    def test_edge_sum_ratios_near_one(self, tiny_config):
        result = figure7_edge_sum(tiny_config)
        for _, variant, ratio in result["rows"]:
            assert 0.8 <= ratio <= 1.1, variant
        # prefix 1 is the reference, so its ratio is exactly 1.
        assert all(
            ratio == pytest.approx(1.0)
            for _, variant, ratio in result["rows"]
            if variant == "prefix 1"
        )


class TestAppendixExample:
    def test_matrix_matches_figure12(self):
        assert APPENDIX_CORRELATION.shape == (6, 6)
        assert APPENDIX_CORRELATION[1, 3] == pytest.approx(0.9)
        assert APPENDIX_CORRELATION[2, 5] == pytest.approx(0.42)
        np.testing.assert_allclose(APPENDIX_CORRELATION, APPENDIX_CORRELATION.T)

    def test_prefix3_recovers_ground_truth_prefix1_does_not(self):
        result = appendix_prefix_example()
        assert result["ari_by_prefix"][3] == pytest.approx(1.0)
        assert result["ari_by_prefix"][1] < 1.0


class TestDatasetCache:
    def test_load_dataset_caches(self, tiny_config):
        first = load_dataset(tiny_config, 6)
        second = load_dataset(tiny_config, 6)
        assert first is second

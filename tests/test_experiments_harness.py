"""Tests for the experiment harness and reporting utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_time_series_dataset
from repro.experiments.config import ExperimentConfig, default_config, quick_config
from repro.experiments.harness import available_methods, run_method, subsample
from repro.experiments.reporting import format_mapping, format_table
from repro.parallel.cost_model import fit_cost


@pytest.fixture(scope="module")
def harness_dataset():
    return make_time_series_dataset(
        num_objects=48, length=48, num_classes=3, noise=1.0, seed=33
    )


class TestRunMethod:
    @pytest.mark.parametrize(
        "method",
        ["PAR-TDBHT-1", "PAR-TDBHT-5", "COMP", "AVG", "K-MEANS", "K-MEANS-S"],
    )
    def test_methods_produce_valid_labels(self, harness_dataset, method):
        run = run_method(method, harness_dataset, seed=0)
        assert run.labels.shape == (harness_dataset.num_objects,)
        assert -1.0 <= run.ari <= 1.0
        assert run.seconds >= 0.0

    def test_slow_baselines_run_on_small_data(self, harness_dataset):
        small = subsample(harness_dataset, 30, seed=0)
        for method in ("SEQ-TDBHT", "PMFG-DBHT"):
            run = run_method(method, small, seed=0)
            assert run.labels.shape == (30,)

    def test_tdbht_reports_step_seconds_and_fit_cost(self, harness_dataset):
        run = run_method("PAR-TDBHT-5", harness_dataset, seed=0)
        assert set(run.step_seconds) == {"tmfg", "apsp", "bubble-tree", "hierarchy"}
        cost = fit_cost(run.raw.tmfg, run.raw.dbht)
        assert [phase.name for phase in cost.phases] == [
            "tmfg",
            "apsp",
            "bubble-tree",
            "hierarchy",
        ]
        assert cost.total_work > 0
        assert run.extras["rounds"] == run.raw.tmfg.rounds >= 1

    def test_method_names_are_case_insensitive(self, harness_dataset):
        run = run_method("par-tdbht-1", harness_dataset, seed=0)
        assert run.method == "PAR-TDBHT-1"

    def test_unknown_method_rejected(self, harness_dataset):
        with pytest.raises(ValueError):
            run_method("DBSCAN", harness_dataset)

    def test_custom_cluster_count(self, harness_dataset):
        run = run_method("COMP", harness_dataset, num_clusters=5)
        assert len(np.unique(run.labels)) == 5

    def test_ami_computed_on_request(self, harness_dataset):
        run = run_method("COMP", harness_dataset, compute_ami=True)
        assert run.ami is not None
        assert -1.0 <= run.ami <= 1.0

    def test_available_methods_lists_the_paper_names(self):
        methods = available_methods()
        assert "PAR-TDBHT-1" in methods
        assert "PMFG-DBHT" in methods
        assert "K-MEANS-S" in methods


class TestSubsample:
    def test_no_op_when_small_enough(self, harness_dataset):
        assert subsample(harness_dataset, 1000) is harness_dataset

    def test_reduces_size_and_keeps_alignment(self, harness_dataset):
        small = subsample(harness_dataset, 20, seed=1)
        assert small.num_objects == 20
        assert small.data.shape[0] == small.labels.shape[0]

    def test_deterministic_for_seed(self, harness_dataset):
        a = subsample(harness_dataset, 20, seed=1)
        b = subsample(harness_dataset, 20, seed=1)
        np.testing.assert_array_equal(a.data, b.data)


class TestConfig:
    def test_default_config_covers_all_datasets(self):
        config = default_config()
        assert len(config.dataset_ids) == 18
        assert 1 in config.prefix_sizes
        assert config.default_prefix == 10

    def test_quick_config_is_smaller(self):
        config = quick_config()
        assert len(config.dataset_ids) < 18
        assert config.scale < default_config().scale

    def test_dataset_kwargs_round_trip(self):
        config = ExperimentConfig(scale=0.1, noise=2.0, outlier_fraction=0.0)
        kwargs = config.dataset_kwargs()
        assert kwargs["scale"] == 0.1
        assert kwargs["noise"] == 2.0


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.123456]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "4.123" in text

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="My title")
        assert text.splitlines()[0] == "My title"

    def test_format_mapping(self):
        text = format_mapping("Stats", {"ari": 0.51234, "n": 10})
        assert "ari: 0.5123" in text
        assert "n: 10" in text

"""Tests for the unified estimator API (config, registry, estimators, batches)."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ClusteringConfig,
    ClusterResult,
    NotFittedError,
    TMFGClusterer,
    available_estimators,
    make_estimator,
    register_method,
)
from repro.api.estimators import ClusteringEstimator
from repro.core.pipeline import tmfg_dbht
from repro.datasets.similarity import similarity_and_dissimilarity

GOLDEN_DIR = Path(__file__).parent / "golden"


class TestClusteringConfig:
    def test_defaults_validate(self):
        config = ClusteringConfig()
        assert config.method == "tmfg-dbht"
        assert config.prefix == 1

    @pytest.mark.parametrize(
        "changes",
        [
            {"prefix": 0},
            {"num_clusters": 0},
            # Not config fields (apsp_method is a class constant).
            {"apsp_method": "bellman-ford"},
            {"kernel": "fortran"},
            {"backend": "mpi"},
            {"workers": 2},
            {"backend": "thread", "workers": 0},
            {"linkage": "ward"},
            {"num_restarts": 0},
            {"spectral_neighbors": 0},
            {"method": ""},
            {"landmarks": 8},
            {"apsp_method": "dijkstra"},
        ],
    )
    def test_invalid_values_rejected(self, changes):
        with pytest.raises(ValueError):
            ClusteringConfig.from_dict(changes)

    def test_apsp_method_is_a_class_constant(self):
        """The one APSP method is readable but is no field: not serialized,
        not settable, not part of the cache key."""
        assert ClusteringConfig.apsp_method == "dijkstra"
        assert ClusteringConfig(prefix=3).apsp_method == "dijkstra"
        names = [field.name for field in dataclasses.fields(ClusteringConfig)]
        assert names == [
            "method", "num_clusters", "prefix", "precomputed", "cache", "cache_dir",
            "linkage", "seed", "num_restarts", "spectral_neighbors",
        ]
        assert "apsp_method" not in ClusteringConfig().to_dict()
        with pytest.raises(TypeError):
            ClusteringConfig(apsp_method="dijkstra")

    def test_frozen(self):
        config = ClusteringConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.prefix = 5

    def test_replace_revalidates(self):
        config = ClusteringConfig()
        assert config.replace(prefix=7).prefix == 7
        with pytest.raises(ValueError):
            config.replace(prefix=-1)

    def test_dict_round_trip_is_lossless(self):
        config = ClusteringConfig(
            method="hac",
            num_clusters=5,
            prefix=12,
            precomputed=True,
            cache=True,
            linkage="average",
            seed=9,
            num_restarts=2,
            spectral_neighbors=7,
        )
        assert ClusteringConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip_is_lossless(self):
        config = ClusteringConfig(prefix=3, num_clusters=4)
        restored = ClusteringConfig.from_json(config.to_json())
        assert restored == config
        # and the JSON itself is plain data
        payload = json.loads(config.to_json())
        assert payload["prefix"] == 3 and payload["num_clusters"] == 4

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            ClusteringConfig.from_dict({"prefix": 2, "warp_drive": True})

    def test_merged_overlays_partial_payload(self):
        base = ClusteringConfig(prefix=10, precomputed=True)
        merged = base.merged({"num_clusters": 8})
        assert merged.num_clusters == 8
        assert merged.prefix == 10 and merged.precomputed is True
        with pytest.raises(ValueError, match="unknown ClusteringConfig keys"):
            base.merged({"warp_drive": True})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError):
            ClusteringConfig.from_json("[1, 2, 3]")


class TestRegistry:
    def test_resolves_at_least_six_ids(self):
        ids = available_estimators()
        assert len(ids) >= 6
        for required in (
            "tmfg-dbht",
            "pmfg-dbht",
            "classic-dbht",
            "hac",
            "kmeans",
            "spectral",
        ):
            assert required in ids

    def test_unknown_id_raises_with_valid_ids(self):
        with pytest.raises(ValueError) as excinfo:
            make_estimator("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        for valid in available_estimators():
            assert valid in message

    def test_ids_are_case_insensitive(self):
        assert isinstance(make_estimator("TMFG-DBHT"), TMFGClusterer)

    def test_paper_aliases_resolve(self):
        assert make_estimator("comp").config.linkage == "complete"
        assert make_estimator("avg").config.linkage == "average"
        assert make_estimator("seq-tdbht").config.method == "classic-dbht"

    def test_pinned_fields_win_over_config(self):
        config = ClusteringConfig(linkage="average")
        assert make_estimator("hac-complete", config).config.linkage == "complete"

    def test_custom_method_registers(self):
        class Constant(ClusteringEstimator):
            method_id = "constant"

            def _fit(self, data, similarity, dissimilarity, **fit_params):
                return ClusterResult(
                    method=self.method_id,
                    config=self.config,
                    labels=np.zeros(len(data), dtype=int),
                )

        register_method("constant", Constant)
        try:
            labels = make_estimator("constant").fit_predict(np.zeros((5, 3)))
            assert labels.tolist() == [0, 0, 0, 0, 0]
        finally:
            from repro.api import estimators

            estimators._REGISTRY.pop("constant", None)


class TestEstimatorContract:
    @pytest.fixture(scope="class")
    def dataset(self, small_dataset):
        return small_dataset

    @pytest.mark.parametrize(
        "method_id",
        ["tmfg-dbht", "classic-dbht", "hac-complete", "hac-average", "kmeans", "spectral"],
    )
    def test_fit_predict_equals_fit_labels(self, dataset, method_id):
        config = ClusteringConfig(num_clusters=dataset.num_classes, prefix=2)
        via_fit = make_estimator(method_id, config).fit(dataset.data).labels_
        via_fit_predict = make_estimator(method_id, config).fit_predict(dataset.data)
        np.testing.assert_array_equal(via_fit, via_fit_predict)

    @pytest.mark.parametrize(
        "method_id",
        ["tmfg-dbht", "classic-dbht", "hac-complete", "kmeans", "spectral"],
    )
    def test_refit_is_idempotent(self, dataset, method_id):
        config = ClusteringConfig(num_clusters=dataset.num_classes, prefix=2)
        estimator = make_estimator(method_id, config)
        first = estimator.fit(dataset.data).labels_.copy()
        second = estimator.fit(dataset.data).labels_
        np.testing.assert_array_equal(first, second)

    def test_config_is_immutable_after_fit(self, dataset):
        config = ClusteringConfig(num_clusters=3, prefix=2)
        estimator = make_estimator("tmfg-dbht", config)
        before = estimator.config
        estimator.fit(dataset.data)
        assert estimator.config is before
        assert estimator.config == ClusteringConfig(
            method="tmfg-dbht", num_clusters=3, prefix=2
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            estimator.config.prefix = 99

    def test_unfitted_labels_raise(self):
        with pytest.raises(NotFittedError):
            make_estimator("tmfg-dbht").labels_

    def test_deferred_cut(self, dataset):
        estimator = make_estimator("tmfg-dbht", prefix=2)
        estimator.fit(dataset.data)
        with pytest.raises(NotFittedError):
            estimator.labels_
        labels = estimator.result_.cut(dataset.num_classes)
        reference = make_estimator(
            "tmfg-dbht", prefix=2, num_clusters=dataset.num_classes
        ).fit_predict(dataset.data)
        np.testing.assert_array_equal(labels, reference)

    def test_kmeans_requires_num_clusters(self, dataset):
        with pytest.raises(ValueError, match="num_clusters"):
            make_estimator("kmeans").fit(dataset.data)

    def test_kmeans_rejects_precomputed(self, dataset):
        estimator = make_estimator("kmeans", precomputed=True, num_clusters=3)
        with pytest.raises(ValueError, match="raw series"):
            estimator.fit(np.eye(10))

    def test_failed_refit_clears_previous_result(self, dataset):
        estimator = make_estimator("tmfg-dbht", num_clusters=3, prefix=2)
        estimator.fit(dataset.data)
        with pytest.raises(ValueError):
            estimator.fit(np.zeros((3, 3)))  # too small for a TMFG
        assert estimator.result_ is None
        with pytest.raises(NotFittedError):
            estimator.labels_

    def test_explicit_dissimilarity_matches_functional_call(self, small_dataset):
        similarity, _ = similarity_and_dissimilarity(small_dataset.data)
        custom = 1.0 + np.abs(similarity.max() - similarity)
        np.fill_diagonal(custom, 0.0)
        direct = tmfg_dbht(similarity, custom, prefix=2).cut(3)
        estimator = make_estimator(
            "tmfg-dbht", prefix=2, num_clusters=3, precomputed=True
        )
        estimator.fit(similarity, dissimilarity=custom)
        np.testing.assert_array_equal(estimator.labels_, direct)
        # and the default derivation is genuinely different here
        default = make_estimator(
            "tmfg-dbht", prefix=2, num_clusters=3, precomputed=True
        ).fit(similarity)
        assert default.result_ is not None

    def test_raw_data_methods_reject_dissimilarity(self, dataset):
        estimator = make_estimator("kmeans", num_clusters=3)
        with pytest.raises(ValueError, match="dissimilarity"):
            estimator.fit(dataset.data, dissimilarity=np.eye(dataset.num_objects))


class TestTMFGByteIdentity:
    """The estimator must reproduce direct ``tmfg_dbht`` output exactly."""

    def test_matches_direct_call_on_raw_series(self, small_dataset):
        similarity, dissimilarity = similarity_and_dissimilarity(small_dataset.data)
        direct = tmfg_dbht(similarity, dissimilarity, prefix=3)
        estimator = TMFGClusterer(
            ClusteringConfig(prefix=3, num_clusters=small_dataset.num_classes)
        )
        estimator.fit(small_dataset.data)
        wrapped = estimator.result_.raw
        assert wrapped.tmfg.edges == direct.tmfg.edges
        assert wrapped.tmfg.initial_clique == direct.tmfg.initial_clique
        assert wrapped.tmfg.insertion_order == direct.tmfg.insertion_order
        np.testing.assert_array_equal(
            estimator.labels_, direct.cut(small_dataset.num_classes)
        )

    @pytest.mark.parametrize("case", ["time_series_prefix1", "time_series_prefix5", "regime_stream_window"])
    def test_matches_golden_snapshots(self, case):
        from tests.test_golden import CASES, _case_similarity

        expected = json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))
        config = ClusteringConfig(
            prefix=CASES[case]["prefix"],
            num_clusters=CASES[case]["clusters"],
            precomputed=True,
        )
        estimator = TMFGClusterer(config)
        estimator.fit(_case_similarity(case))
        pipeline = estimator.result_.raw
        assert [
            [int(u), int(v)] for u, v in pipeline.tmfg.edges
        ] == expected["edges"]
        assert [int(v) for v in pipeline.tmfg.initial_clique] == expected["initial_clique"]
        assert [int(label) for label in estimator.labels_] == expected["labels"]


class TestClusterResult:
    def test_lazy_artefacts_and_json(self, small_dataset):
        estimator = make_estimator("tmfg-dbht", num_clusters=3, prefix=2)
        result = estimator.fit(small_dataset.data).result_
        assert result.dendrogram is not None
        assert result.bubble_tree is not None
        assert result.num_clusters == 3
        assert result.seconds > 0
        payload = json.loads(result.to_json())
        assert payload["method"] == "tmfg-dbht"
        assert payload["config"]["prefix"] == 2
        assert len(payload["labels"]) == small_dataset.num_objects
        assert "tmfg" in payload["step_seconds"]
        assert payload["extras"]["rounds"] >= 1
        # every extras value is already a JSON type, so to_dict drops no key
        assert payload["extras"] == json.loads(json.dumps(result.extras))
        assert set(payload["extras"]) == set(result.extras)

    def test_to_dict_embeds_without_double_encoding(self, small_dataset):
        # The serving envelope embeds to_dict() directly: it must be the
        # exact JSON-safe dict behind to_json, so re-serializing it (alone
        # or inside a larger envelope) is byte-identical — no
        # stringify-then-reparse round trip anywhere.
        estimator = make_estimator("tmfg-dbht", num_clusters=3, prefix=2)
        result = estimator.fit(small_dataset.data).result_
        payload = result.to_dict()
        assert json.dumps(payload) == result.to_json()
        envelope = json.dumps({"result": payload, "serving": {"batch_size": 1}})
        assert json.dumps(json.loads(envelope)["result"]) == result.to_json()

    def test_numpy_scalar_extras_serialize(self, small_dataset):
        # Regression: numpy scalars are not Python-number instances, so
        # np.int64 / np.bool_ / np.float32 extras must get explicit
        # branches in _json_safe or to_json breaks on them.
        estimator = make_estimator("tmfg-dbht", num_clusters=3, prefix=2)
        result = estimator.fit(small_dataset.data).result_
        result.extras.update(
            {
                "np_int": np.int64(7),
                "np_bool": np.bool_(True),
                "np_float": np.float32(0.5),
            }
        )
        payload = json.loads(result.to_json())
        assert payload["extras"]["np_int"] == 7
        assert payload["extras"]["np_bool"] is True
        assert payload["extras"]["np_float"] == 0.5
        # ... including nested inside containers.
        result.extras["nested"] = {"flags": [np.bool_(False), np.int32(2)]}
        payload = json.loads(result.to_json())
        assert payload["extras"]["nested"] == {"flags": [False, 2]}

    def test_clone_is_independent_and_byte_identical(self, small_dataset):
        estimator = make_estimator("tmfg-dbht", num_clusters=3, prefix=2)
        result = estimator.fit(small_dataset.data).result_
        clone = result.clone()
        assert clone.to_json() == result.to_json()
        clone.labels[:] = -1
        clone.step_seconds["total"] = -1.0
        clone.extras["rounds"] = -1
        assert np.all(result.labels >= 0)
        assert result.step_seconds["total"] >= 0
        assert result.extras["rounds"] >= 1
        # The heavyweight raw artefacts are shared, not copied.
        assert clone.raw is result.raw

    def test_cut_without_dendrogram_raises(self, small_dataset):
        estimator = make_estimator("kmeans", num_clusters=3)
        result = estimator.fit(small_dataset.data).result_
        assert result.dendrogram is None
        with pytest.raises(ValueError, match="no dendrogram"):
            result.cut(2)

    def test_streaming_tick_converts(self):
        from repro.datasets.stocks import generate_regime_switching_stream
        from repro.streaming.runner import StreamingPipeline

        stream = generate_regime_switching_stream(num_stocks=48, num_days=80, seed=3)
        pipeline = StreamingPipeline(
            stream.returns, window=50, hop=15, num_clusters=3
        )
        ticks = pipeline.run().ticks
        tick_result = ticks[-1].to_cluster_result(pipeline.config)
        assert isinstance(tick_result, ClusterResult)
        np.testing.assert_array_equal(tick_result.labels, ticks[-1].labels)
        assert tick_result.extras["tick"] == ticks[-1].tick
        payload = json.loads(tick_result.to_json())
        assert payload["config"]["precomputed"] is True


class TestClusterMany:
    """Clustering many matrices: the documented batch is a loop of fits on
    one estimator, ``[estimator.fit(m).result_ for m in matrices]``."""

    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(0)
        return [rng.normal(size=(20, 40)) for _ in range(3)]

    def test_serial_matches_individual_fits(self, matrices):
        config = ClusteringConfig(num_clusters=3, prefix=2)
        estimator = make_estimator(config.method, config)
        results = [estimator.fit(matrix).result_ for matrix in matrices]
        assert len(results) == len(matrices)
        assert len({id(result) for result in results}) == len(results)
        for matrix, result in zip(matrices, results):
            reference = make_estimator(config.method, config).fit_predict(matrix)
            np.testing.assert_array_equal(result.labels, reference)
            assert result.dendrogram is not None

    def test_heterogeneous_methods_via_config(self, matrices):
        for method_id in ("hac-average", "kmeans"):
            config = ClusteringConfig(method=method_id, num_clusters=2, linkage="average")
            estimator = make_estimator(config.method, config)
            results = [estimator.fit(matrix).result_ for matrix in matrices[:2]]
            for result in results:
                assert result.num_clusters <= 2
                assert result.method in ("hac", "kmeans")

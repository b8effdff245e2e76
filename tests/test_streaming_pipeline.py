"""Tests for the streaming pipeline, its tick short-circuit, and drift metrics."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.api.config import ClusteringConfig
from repro.api.estimators import TMFGClusterer
from repro.datasets.similarity import correlation_matrix
from repro.datasets.stocks import generate_regime_switching_stream
from repro.streaming import StreamingPipeline
from tests.oracles import heap_apsp


@pytest.fixture(scope="module")
def regime_stream():
    return generate_regime_switching_stream(
        num_stocks=48, num_days=260, num_regimes=3, regime_length=90, seed=17
    )


@pytest.mark.slow
class TestStreamingEquivalence:
    def test_ticks_equal_batch_fits(self, regime_stream):
        """Acceptance: each tick is the batch fit of its window's correlation."""
        config = ClusteringConfig(num_clusters=5)
        ticks = list(
            StreamingPipeline(regime_stream.returns, window=100, hop=8, config=config).iter_ticks()
        )
        assert len(ticks) >= 20
        batch_config = config.replace(precomputed=True)
        for tick in ticks:
            window = regime_stream.returns[:, tick.start : tick.stop]
            batch = TMFGClusterer(batch_config).fit(correlation_matrix(window))
            np.testing.assert_array_equal(tick.labels, batch.labels_)
            assert tick.rounds == batch.result_.raw.tmfg.rounds


class TestTickShortCircuit:
    """Ticks whose windowed correlation bytes are unchanged are reused."""

    @pytest.fixture()
    def tiled_returns(self):
        # Four consecutive windows with byte-identical content: window ==
        # hop == block width, and the stream is the block tiled 4 times.
        rng = np.random.default_rng(21)
        block = rng.normal(size=(16, 30))
        return np.tile(block, (1, 4))

    def _pipeline(self, returns, cache: bool):
        config = ClusteringConfig(num_clusters=3, cache=cache)
        return StreamingPipeline(returns, window=30, hop=30, config=config)

    def test_unchanged_windows_are_reused(self, tiled_returns):
        from repro.cache import clear_result_caches

        clear_result_caches()
        pipeline = self._pipeline(tiled_returns, cache=True)
        result = pipeline.run()
        assert result.num_ticks == 4
        assert not result.ticks[0].reused
        assert all(tick.reused for tick in result.ticks[1:])
        assert result.reused_ticks == 3
        for tick in result.ticks[1:]:
            np.testing.assert_array_equal(tick.labels, result.ticks[0].labels)
            assert tick.drift_ari == pytest.approx(1.0)
            # Reused ticks skip the fit: only similarity + total are timed.
            assert set(tick.step_seconds) == {"similarity", "total"}
            assert tick.to_cluster_result(pipeline.config).extras["reused"] is True

    def test_short_circuit_requires_cache_knob(self, tiled_returns):
        result = self._pipeline(tiled_returns, cache=False).run()
        assert result.reused_ticks == 0
        assert all(not tick.reused for tick in result.ticks)
        # Identical windows still cluster identically, just recomputed.
        for tick in result.ticks[1:]:
            np.testing.assert_array_equal(tick.labels, result.ticks[0].labels)

    def test_reused_labels_are_private_copies(self, tiled_returns):
        from repro.cache import clear_result_caches

        clear_result_caches()
        ticks = list(self._pipeline(tiled_returns, cache=True).iter_ticks())
        ticks[1].labels[:] = -1
        assert np.all(ticks[2].labels >= 0)


class TestStreamingPipeline:
    def test_tick_geometry_and_metadata(self, regime_stream):
        pipeline = StreamingPipeline(
            regime_stream.returns, window=120, hop=30, num_clusters=4
        )
        result = pipeline.run()
        assert result.num_ticks == pipeline.num_ticks == 1 + (260 - 120) // 30
        for index, tick in enumerate(result.ticks):
            assert tick.tick == index
            assert tick.stop - tick.start == 120
            assert tick.start == index * 30
            assert set(tick.step_seconds) == {
                "similarity",
                "tmfg",
                "apsp",
                "bubble-tree",
                "hierarchy",
                "total",
            }
            assert tick.labels.shape == (48,)
        assert result.ticks[0].drift_ari is None
        assert all(t.drift_ari is not None for t in result.ticks[1:])
        assert result.mean_tick_seconds() > 0.0

    def test_drift_metrics_detect_regime_change(self, regime_stream):
        """Drift ARI dips when the window crosses a regime boundary."""
        pipeline = StreamingPipeline(
            regime_stream.returns, window=60, hop=30, num_clusters=5
        )
        result = pipeline.run()
        drifts = [t.drift_ari for t in result.ticks[1:]]
        # Ticks fully inside one regime agree with each other more than
        # ticks straddling a boundary; the mean drift is therefore bounded
        # away from both 0 (no structure) and 1 (no drift at all).
        assert 0.0 < np.mean(drifts) < 1.0
        assert result.mean_drift_ari() == pytest.approx(np.mean(drifts))
        assert result.mean_drift_ami() is not None

    def test_max_ticks_caps_the_run(self, regime_stream):
        pipeline = StreamingPipeline(
            regime_stream.returns, window=100, hop=10, num_clusters=4, max_ticks=3
        )
        result = pipeline.run()
        assert result.num_ticks == pipeline.num_ticks == 3

    def test_labels_property_is_final_tick(self, regime_stream):
        result = StreamingPipeline(
            regime_stream.returns, window=150, hop=50, num_clusters=4
        ).run()
        np.testing.assert_array_equal(result.labels, result.ticks[-1].labels)
        # prefix=1: one insertion per round for every non-clique vertex.
        assert all(tick.rounds == 48 - 4 for tick in result.ticks)

    def test_kernel_choice_does_not_change_cuts(self, regime_stream, monkeypatch):
        """Ticks cut the same with the heap-oracle APSP in place of the
        frontier kernel."""
        kwargs = dict(window=120, hop=60, num_clusters=4)
        frontier_run = StreamingPipeline(regime_stream.returns, **kwargs).run()
        dbht_module = importlib.import_module("repro.core.dbht")
        monkeypatch.setattr(dbht_module, "all_pairs_shortest_paths", heap_apsp)
        oracle_run = StreamingPipeline(regime_stream.returns, **kwargs).run()
        assert len(frontier_run.ticks) == len(oracle_run.ticks) > 1
        for a, b in zip(frontier_run.ticks, oracle_run.ticks):
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_invalid_parameters_rejected(self, regime_stream):
        returns = regime_stream.returns
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=1000)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, hop=0)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=1)
        with pytest.raises(ValueError):
            StreamingPipeline(returns[:2], window=50)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, num_clusters=0)
        with pytest.raises(ValueError):
            StreamingPipeline(returns, window=50, max_ticks=0)
        with pytest.raises(ValueError):
            StreamingPipeline(np.zeros(5), window=2)

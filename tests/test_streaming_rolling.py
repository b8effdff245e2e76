"""Differential tests for the rolling-window correlation buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.similarity import correlation_matrix
from repro.graph.matrix import validate_similarity_matrix
from repro.streaming.rolling import RollingCorrelation


def _stream(num_assets: int, num_steps: int, seed: int, scale: float = 0.01) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(num_assets, num_steps))


class TestRollingMatchesRecomputation:
    @pytest.mark.parametrize("window", [8, 20, 50])
    @pytest.mark.parametrize("hop", [1, 3, 7])
    def test_matches_corrcoef_after_many_ticks(self, window, hop):
        data = _stream(12, window + 40 * hop, seed=window * 100 + hop)
        rolling = RollingCorrelation(12, window)
        rolling.push(data[:, :window])
        position = window
        ticks = 0
        while position + hop <= data.shape[1]:
            rolling.push(data[:, position : position + hop])
            position += hop
            ticks += 1
            expected = np.corrcoef(data[:, position - window : position])
            np.testing.assert_allclose(
                rolling.correlation(), expected, atol=1e-10, rtol=0.0
            )
        assert ticks >= 20

    def test_matches_repro_correlation_matrix(self):
        data = _stream(10, 90, seed=3)
        rolling = RollingCorrelation(10, 30)
        for t in range(data.shape[1]):
            rolling.push(data[:, t])
            if rolling.ready:
                expected = correlation_matrix(data[:, t - 29 : t + 1])
                np.testing.assert_array_equal(rolling.correlation(), expected)

    def test_partial_window_matches_recomputation(self):
        data = _stream(8, 12, seed=9)
        rolling = RollingCorrelation(8, 40)
        rolling.push(data)
        assert not rolling.ready
        assert rolling.num_observations == 12
        np.testing.assert_allclose(
            rolling.correlation(), np.corrcoef(data), atol=1e-10, rtol=0.0
        )


class TestConstantSeries:
    def test_constant_row_is_uncorrelated_not_nan(self):
        data = _stream(6, 40, seed=5)
        data[2, :] = 3.25  # constant series: zero windowed variance
        rolling = RollingCorrelation(6, 16)
        rolling.push(data[:, :16])
        for t in range(16, 40):
            rolling.push(data[:, t])
        matrix = rolling.correlation()
        assert np.all(np.isfinite(matrix))
        assert np.all(matrix[2, :2] == 0.0) and np.all(matrix[2, 3:] == 0.0)
        assert matrix[2, 2] == 1.0
        expected = correlation_matrix(data[:, -16:])
        np.testing.assert_allclose(matrix, expected, atol=1e-10, rtol=0.0)

    def test_series_constant_only_inside_window(self):
        data = _stream(5, 60, seed=6)
        data[0, 30:] = -1.5  # becomes constant after day 30
        rolling = RollingCorrelation(5, 20)
        for t in range(60):
            rolling.push(data[:, t])
        matrix = rolling.correlation()
        assert np.all(matrix[0, 1:] == 0.0)
        np.testing.assert_allclose(
            matrix, correlation_matrix(data[:, -20:]), atol=1e-10, rtol=0.0
        )


class TestRollingBookkeeping:
    def test_window_data_is_ordered_oldest_first(self):
        data = _stream(4, 25, seed=1)
        rolling = RollingCorrelation(4, 10)
        for t in range(25):
            rolling.push(data[:, t])
        np.testing.assert_array_equal(rolling.window_data(), data[:, -10:])
        assert rolling.total_pushed == 25

    def test_block_and_columnwise_pushes_agree(self):
        data = _stream(5, 33, seed=8)
        by_block = RollingCorrelation(5, 12)
        by_column = RollingCorrelation(5, 12)
        by_block.push(data)
        for t in range(33):
            by_column.push(data[:, t])
        np.testing.assert_array_equal(by_block.window_data(), by_column.window_data())
        np.testing.assert_allclose(
            by_block.correlation(), by_column.correlation(), atol=1e-12, rtol=0.0
        )

    def test_emitted_matrix_is_valid_similarity(self):
        data = _stream(6, 30, seed=2)
        rolling = RollingCorrelation(6, 20)
        rolling.push(data[:, :20])
        validate_similarity_matrix(rolling.correlation())

    def test_ring_buffer_only_mode(self):
        """No running moments: the matrix is recomputed from the buffer."""
        data = _stream(5, 30, seed=4)
        rolling = RollingCorrelation(5, 12)
        rolling.push(data)
        np.testing.assert_array_equal(rolling.window_data(), data[:, -12:])
        np.testing.assert_array_equal(
            rolling.correlation(), correlation_matrix(rolling.window_data())
        )

    def test_rejects_bad_inputs(self):
        rolling = RollingCorrelation(4, 8)
        with pytest.raises(ValueError):
            rolling.push(np.ones((3, 2)))
        with pytest.raises(ValueError):
            rolling.push(np.array([1.0, np.nan, 0.0, 2.0]))
        with pytest.raises(ValueError):
            rolling.correlation()  # not enough observations
        with pytest.raises(ValueError):
            RollingCorrelation(4, 1)
        with pytest.raises(ValueError):
            RollingCorrelation(0, 8)

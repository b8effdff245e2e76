"""Tests for similarity / dissimilarity measures."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import TMFGClusterer
from repro.datasets.similarity import (
    correlation_matrix,
    correlation_to_dissimilarity,
    detrended_log_returns,
    euclidean_distance_matrix,
    log_returns,
    similarity_and_dissimilarity,
)


class TestCorrelation:
    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(10, 50))
        np.testing.assert_allclose(
            correlation_matrix(data), np.corrcoef(data), atol=1e-10
        )

    def test_unit_diagonal(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 30))
        assert np.allclose(np.diag(correlation_matrix(data)), 1.0)

    def test_constant_row_gives_zero_correlation(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(5, 20))
        data[2] = 3.0
        correlation = correlation_matrix(data)
        assert np.all(np.isfinite(correlation))
        assert np.allclose(correlation[2, [0, 1, 3, 4]], 0.0)
        assert correlation[2, 2] == 1.0

    def test_perfectly_correlated_rows(self):
        base = np.linspace(0, 1, 40)
        data = np.vstack([base, 2 * base + 1, -base])
        correlation = correlation_matrix(data)
        assert correlation[0, 1] == pytest.approx(1.0)
        assert correlation[0, 2] == pytest.approx(-1.0)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.arange(10))


#: 10 series whose magnitudes lie in [2**-8, 4], so each row can be scaled by
#: any 2**k with -1014 <= k <= 1021 and stay finite and normal.
_SERIES = np.random.default_rng(3).normal(size=(10, 30))
_SERIES = np.where(np.abs(_SERIES) < 2.0**-8, 2.0**-8, np.clip(_SERIES, -4, 4))


class TestScaleInvariance:
    """Pearson correlation does not depend on a row's scale, at any scale."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-1014, 1021), min_size=10, max_size=10))
    def test_labels_invariant_under_per_row_powers_of_two(self, exponents):
        reference = TMFGClusterer(num_clusters=3).fit(_SERIES).labels_
        scaled = np.ldexp(_SERIES, np.asarray(exponents)[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            labels = TMFGClusterer(num_clusters=3).fit(scaled).labels_
            correlation = correlation_matrix(scaled)
        assert np.array_equal(labels, reference)
        np.testing.assert_allclose(correlation, correlation_matrix(_SERIES), atol=1e-15)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-160, 1e-200, 1e-300])
    def test_extreme_decimal_scales_keep_the_correlation(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            correlation = correlation_matrix(_SERIES * scale)
        np.testing.assert_allclose(correlation, correlation_matrix(_SERIES), atol=1e-14)

    def test_in_range_rows_keep_their_bytes(self):
        """Rescaling one extreme row leaves every other entry bit-identical."""
        mixed = _SERIES.copy()
        mixed[0] *= 2.0**900
        reference, correlation = correlation_matrix(_SERIES), correlation_matrix(mixed)
        assert np.array_equal(correlation[1:, 1:], reference[1:, 1:])


class TestDissimilarity:
    def test_formula(self):
        correlation = np.array([[1.0, 0.5], [0.5, 1.0]])
        expected = np.sqrt(2 * (1 - 0.5))
        dissimilarity = correlation_to_dissimilarity(correlation)
        assert dissimilarity[0, 1] == pytest.approx(expected)
        assert dissimilarity[0, 0] == 0.0

    def test_range(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(8, 60))
        _, dissimilarity = similarity_and_dissimilarity(data)
        assert np.all(dissimilarity >= 0.0)
        assert np.all(dissimilarity <= 2.0 + 1e-9)

    def test_monotone_decreasing_in_correlation(self):
        assert correlation_to_dissimilarity(np.array([[1.0, 0.9], [0.9, 1.0]]))[0, 1] < (
            correlation_to_dissimilarity(np.array([[1.0, 0.1], [0.1, 1.0]]))[0, 1]
        )

    def test_equals_euclidean_distance_for_normalized_rows(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 100))
        centered = data - data.mean(axis=1, keepdims=True)
        normalized = centered / np.linalg.norm(centered, axis=1, keepdims=True)
        similarity, dissimilarity = similarity_and_dissimilarity(normalized)
        euclidean = euclidean_distance_matrix(normalized)
        np.testing.assert_allclose(dissimilarity, euclidean, atol=1e-7)


class TestReturns:
    def test_log_returns_shape(self):
        prices = np.abs(np.random.default_rng(0).normal(loc=50, scale=1, size=(4, 30))) + 1
        returns = log_returns(prices)
        assert returns.shape == (4, 29)

    def test_log_returns_of_exponential_growth(self):
        prices = np.exp(np.arange(10))[None, :] * np.ones((2, 1))
        returns = log_returns(prices)
        np.testing.assert_allclose(returns, 1.0)

    def test_non_positive_prices_rejected(self):
        with pytest.raises(ValueError):
            log_returns(np.array([[1.0, 0.0, 2.0]]))

    def test_single_day_rejected(self):
        with pytest.raises(ValueError):
            log_returns(np.array([[1.0]]))

    def test_detrended_returns_have_zero_cross_sectional_mean(self):
        rng = np.random.default_rng(5)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(10, 50)), axis=1)) * 100
        detrended = detrended_log_returns(prices)
        np.testing.assert_allclose(detrended.mean(axis=0), 0.0, atol=1e-12)


class TestEuclidean:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(7, 5))
        distances = euclidean_distance_matrix(data)
        for i in range(7):
            for j in range(7):
                assert distances[i, j] == pytest.approx(
                    np.linalg.norm(data[i] - data[j]), abs=1e-6
                )

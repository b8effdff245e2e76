"""Similarity and dissimilarity measures for time-series data.

The paper uses the Pearson correlation coefficient ``p`` as the similarity
measure and ``d = sqrt(2 (1 - p))`` as the dissimilarity measure (for
normalised, zero-mean vectors this equals the Euclidean distance).  The
stock experiment additionally preprocesses prices into detrended daily
log-returns (Musmeci et al.) before computing correlations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def correlation_matrix(data: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of the rows of ``data``.

    ``data`` has one object (time series) per row.  Rows with zero variance
    are treated as uncorrelated with everything (correlation 0) instead of
    producing NaNs, so that degenerate synthetic series cannot poison the
    filtered graph.  The correlation is scale-invariant at every finite
    input scale: a row whose largest magnitude lies outside
    ``[2**-500, 2**500]`` (where squaring would overflow or underflow) is
    first scaled by an exact power of two; other rows keep their bytes.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D array with one series per row")
    peaks = np.abs(data).max(axis=1, initial=0.0)
    extreme = (peaks > 2.0**500) | ((peaks < 2.0**-500) & (peaks > 0))
    if np.any(extreme):
        data = data.copy()
        data[extreme] = np.ldexp(data[extreme], -np.frexp(peaks[extreme])[1][:, None])
    centered = data - data.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(centered, axis=1)
    safe_norms = np.where(norms > 0, norms, 1.0)
    normalized = centered / safe_norms[:, None]
    correlation = normalized @ normalized.T
    # Zero-variance rows: no correlation signal.
    zero_variance = norms == 0
    if np.any(zero_variance):
        correlation[zero_variance, :] = 0.0
        correlation[:, zero_variance] = 0.0
    np.fill_diagonal(correlation, 1.0)
    return np.clip(correlation, -1.0, 1.0)


def correlation_to_dissimilarity(correlation: np.ndarray) -> np.ndarray:
    """The paper's dissimilarity measure ``d = sqrt(2 (1 - p))``."""
    correlation = np.asarray(correlation, dtype=float)
    dissimilarity = np.sqrt(np.clip(2.0 * (1.0 - correlation), 0.0, None))
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


def similarity_and_dissimilarity(data: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Pearson similarity matrix and its ``sqrt(2 (1 - p))`` dissimilarity."""
    similarity = correlation_matrix(data)
    return similarity, correlation_to_dissimilarity(similarity)


def default_dissimilarity(similarity: np.ndarray) -> np.ndarray:
    """The pipeline's default dissimilarity for a bare similarity matrix.

    Correlation-like matrices get the paper's ``sqrt(2 (1 - p))`` transform;
    anything else gets the rank-preserving ``max(S) - S`` with a zeroed
    diagonal.  This is the single source of truth for every entry point that
    accepts a similarity matrix without an explicit dissimilarity
    (``tmfg_dbht``, ``pmfg_dbht``, the estimator API).
    """
    from repro.graph.matrix import correlation_like

    similarity = np.asarray(similarity, dtype=float)
    if correlation_like(similarity):
        return correlation_to_dissimilarity(similarity)
    dissimilarity = similarity.max() - similarity
    np.fill_diagonal(dissimilarity, 0.0)
    return dissimilarity


def log_returns(prices: np.ndarray) -> np.ndarray:
    """Daily log-returns of a price matrix (stocks in rows, days in columns)."""
    prices = np.asarray(prices, dtype=float)
    if prices.ndim != 2 or prices.shape[1] < 2:
        raise ValueError("prices must be a 2-D array with at least two days")
    if np.any(prices <= 0):
        raise ValueError("prices must be strictly positive")
    return np.diff(np.log(prices), axis=1)


def detrended_log_returns(prices: np.ndarray) -> np.ndarray:
    """Detrended daily log-returns (Musmeci et al., used for the stock data).

    The market-wide trend is removed by subtracting, for each day, the
    cross-sectional mean log-return; this emphasises sector-level
    co-movement over the common market factor.
    """
    returns = log_returns(prices)
    return returns - returns.mean(axis=0, keepdims=True)


def euclidean_distance_matrix(data: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between the rows of ``data``."""
    data = np.asarray(data, dtype=float)
    squared_norms = (data ** 2).sum(axis=1)
    squared = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (data @ data.T)
    return np.sqrt(np.clip(squared, 0.0, None))

"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest

from repro.core.tmfg import construct_tmfg
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset


@pytest.fixture(scope="session")
def small_dataset():
    """A small but non-trivial labelled time-series data set."""
    return make_time_series_dataset(
        num_objects=60, length=48, num_classes=3, noise=1.0, seed=11
    )


@pytest.fixture(scope="session")
def small_matrices(small_dataset):
    """Similarity and dissimilarity matrices of the small data set."""
    return similarity_and_dissimilarity(small_dataset.data)


@pytest.fixture(scope="session")
def medium_dataset():
    """A slightly larger data set with outliers (harder clustering problem)."""
    return make_time_series_dataset(
        num_objects=150,
        length=64,
        num_classes=5,
        noise=1.2,
        seed=5,
        outlier_fraction=0.05,
    )


@pytest.fixture(scope="session")
def medium_matrices(medium_dataset):
    return similarity_and_dissimilarity(medium_dataset.data)


@pytest.fixture(scope="session")
def small_tmfg(small_matrices):
    """Exact (prefix 1) TMFG of the small data set, with its bubble tree."""
    similarity, _ = small_matrices
    return construct_tmfg(similarity, prefix=1, build_bubble_tree=True)


@pytest.fixture(scope="session")
def batched_tmfg(small_matrices):
    """Prefix-8 TMFG of the small data set."""
    similarity, _ = small_matrices
    return construct_tmfg(similarity, prefix=8, build_bubble_tree=True)


def tie_heavy_series() -> Dict[str, np.ndarray]:
    """Series matrices that make exact ties in every layer: quantised
    values, duplicate and constant rows, the smallest size (``n=4``) and an
    integer dtype."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(12, 16))
    duplicated = base.copy()
    duplicated[[4, 7]] = duplicated[0]
    constant = base.copy()
    constant[5] = 2.5
    return {
        "quantised": base.round(1),
        "duplicate rows": duplicated,
        "constant row": constant,
        "n=4": rng.normal(size=(4, 6)).round(2),
        "int": rng.integers(-3, 4, size=(10, 12)),
    }


def random_similarity_matrix(n: int, seed: int = 0) -> np.ndarray:
    """A random symmetric similarity matrix with unit diagonal."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(n, n))
    symmetric = (raw + raw.T) / 2.0
    np.fill_diagonal(symmetric, 1.0)
    return symmetric


@pytest.fixture
def similarity_factory():
    """Factory fixture building random similarity matrices."""
    return random_similarity_matrix

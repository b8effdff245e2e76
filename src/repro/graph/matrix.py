"""Validation helpers for dense similarity and dissimilarity matrices.

The TMFG/DBHT pipeline takes two n x n matrices: a *similarity* matrix S
(e.g. Pearson correlations) used to build the filtered graph and to score
vertex attachments, and a *dissimilarity* matrix D (e.g. sqrt(2(1 - p)))
used for shortest-path distances and linkage.  These helpers centralise the
shape / symmetry / finiteness checks so that every public entry point fails
early with a clear error instead of producing garbage clusters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class MatrixValidationError(ValueError):
    """Raised when an input matrix does not satisfy the documented contract."""


def _as_square_float_array(matrix: np.ndarray, name: str) -> np.ndarray:
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise MatrixValidationError(
            f"{name} must be a square 2-D matrix, got shape {array.shape}"
        )
    if not np.all(np.isfinite(array)):
        raise MatrixValidationError(f"{name} contains NaN or infinite entries")
    return array


def is_symmetric(array: np.ndarray, atol: float = 1e-8) -> bool:
    """``array`` equals its transpose within ``atol``; an exactly symmetric
    array (the common case) skips the elementwise tolerance test."""
    return np.array_equal(array, array.T) or np.allclose(array, array.T, atol=atol)


def validate_similarity_matrix(
    matrix: np.ndarray,
    min_size: int = 4,
    require_symmetric: bool = True,
    atol: float = 1e-8,
) -> np.ndarray:
    """Validate and return a similarity matrix as a float numpy array.

    TMFG construction needs at least four vertices (``min_size``).  The
    matrix must be symmetric (within ``atol``); the diagonal is ignored by
    the algorithms, so it is not constrained beyond finiteness.
    """
    array = _as_square_float_array(matrix, "similarity matrix")
    n = array.shape[0]
    if n < min_size:
        raise MatrixValidationError(
            f"similarity matrix must have at least {min_size} rows, got {n}"
        )
    if require_symmetric and not is_symmetric(array, atol):
        raise MatrixValidationError("similarity matrix must be symmetric")
    return array


def validate_dissimilarity_matrix(
    matrix: np.ndarray,
    size: Optional[int] = None,
    atol: float = 1e-8,
) -> np.ndarray:
    """Validate and return a dissimilarity matrix.

    Entries must be non-negative (shortest paths with Dijkstra require it)
    and the matrix must be symmetric.  If ``size`` is given the matrix must
    match it (so S and D describe the same vertex set).
    """
    array = _as_square_float_array(matrix, "dissimilarity matrix")
    if size is not None and array.shape[0] != size:
        raise MatrixValidationError(
            f"dissimilarity matrix has {array.shape[0]} rows, expected {size}"
        )
    if not is_symmetric(array, atol):
        raise MatrixValidationError("dissimilarity matrix must be symmetric")
    if np.any(array < -atol):
        raise MatrixValidationError("dissimilarity matrix must be non-negative")
    return np.clip(array, 0.0, None)


def correlation_like(matrix: np.ndarray, atol: float = 1e-6) -> bool:
    """Return True if ``matrix`` looks like a correlation matrix.

    Checks entries in [-1, 1] and a unit diagonal.  Used by the dataset
    helpers to decide whether the default dissimilarity transform
    ``sqrt(2 (1 - p))`` is applicable.
    """
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        return False
    if not np.all(np.isfinite(array)):
        return False
    in_range = np.all(array <= 1.0 + atol) and np.all(array >= -1.0 - atol)
    unit_diagonal = np.allclose(np.diag(array), 1.0, atol=atol)
    return bool(in_range and unit_diagonal)

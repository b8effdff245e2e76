"""Hierarchical agglomerative clustering (HAC) via the nearest-neighbour chain.

The paper compares TMFG+DBHT against parallel complete-linkage and
average-linkage HAC (the COMP and AVG baselines), and the DBHT itself uses
complete linkage as a subroutine for its three-level hierarchy.  This module
implements a generic agglomerative clusterer over a precomputed distance
matrix using the nearest-neighbour-chain algorithm, which performs O(n^2)
work for the reducible linkages used here (single, complete, average,
weighted).

The output follows the scipy convention: the i-th merge creates cluster
``n + i`` and is recorded as ``(a, b, distance, size)``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import is_symmetric

_LINKAGES = ("single", "complete", "average", "weighted")


def _validate_distance_matrix(distances: np.ndarray) -> np.ndarray:
    distances = np.asarray(distances, dtype=float)
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.all(np.isfinite(distances)):
        raise ValueError("distance matrix contains NaN or infinite entries")
    if not is_symmetric(distances):
        raise ValueError("distance matrix must be symmetric")
    return distances


def _lance_williams(
    linkage_name: str,
    d_i: np.ndarray,
    d_j: np.ndarray,
    size_i: int,
    size_j: int,
) -> np.ndarray:
    """Lance-Williams update: distances from the merge of (i, j) to every
    other cluster, given their distances ``d_i`` to ``i`` and ``d_j`` to
    ``j``.  Elementwise IEEE operations, so each entry is exactly what the
    scalar formula gives (``min``/``max`` keep ``d_i`` on ties, like
    Python's builtins)."""
    if linkage_name == "single":
        return np.where(d_j < d_i, d_j, d_i)
    if linkage_name == "complete":
        return np.where(d_j > d_i, d_j, d_i)
    if linkage_name == "average":
        return (size_i * d_i + size_j * d_j) / (size_i + size_j)
    if linkage_name == "weighted":
        return 0.5 * (d_i + d_j)
    raise ValueError(f"unknown linkage {linkage_name!r}; expected one of {_LINKAGES}")


def linkage(distances: np.ndarray, method: str = "complete") -> np.ndarray:
    """Agglomerative clustering of a distance matrix.

    Returns an ``(n-1, 4)`` array of merges ``[a, b, distance, size]`` in the
    order they are performed by the nearest-neighbour chain (cluster ids
    follow the scipy convention).  For the reducible linkages supported here
    the resulting tree is identical to the one produced by a globally
    closest-pair algorithm.
    """
    if method not in _LINKAGES:
        raise ValueError(f"unknown linkage {method!r}; expected one of {_LINKAGES}")
    distances = _validate_distance_matrix(distances)
    n = distances.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty distance matrix")
    if n == 1:
        return np.zeros((0, 4))

    # Working copy: row r holds the distances of the cluster currently stored
    # in slot r.  ``labels[r]`` is that cluster's id, ``sizes[r]`` its size.
    work = distances.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    labels = np.arange(n)
    sizes = np.ones(n, dtype=int)

    merges: List[Tuple[float, float, float, float]] = []
    next_label = n
    chain: List[int] = []

    def nearest(slot: int) -> int:
        row = np.where(active, work[slot], np.inf)
        row[slot] = np.inf
        return int(np.argmin(row))

    remaining = n
    while remaining > 1:
        if not chain:
            chain.append(int(np.flatnonzero(active)[0]))
        while True:
            current = chain[-1]
            candidate = nearest(current)
            if len(chain) > 1 and candidate == chain[-2]:
                break
            # Tie-safety: if the previous chain element is equally close,
            # prefer it so the chain terminates.
            if len(chain) > 1:
                previous = chain[-2]
                if work[current, previous] <= work[current, candidate]:
                    candidate = previous
                    break
            chain.append(candidate)
        j = chain.pop()
        i = chain.pop()
        distance = float(work[i, j])
        size_i, size_j = int(sizes[i]), int(sizes[j])
        merges.append((float(labels[i]), float(labels[j]), distance, float(size_i + size_j)))

        # Merge j into slot i with the Lance-Williams update.
        others = np.flatnonzero(active)
        others = others[(others != i) & (others != j)]
        updated = _lance_williams(method, work[i, others], work[j, others], size_i, size_j)
        work[i, others] = updated
        work[others, i] = updated
        active[j] = False
        labels[i] = next_label
        sizes[i] = size_i + size_j
        next_label += 1
        remaining -= 1
        # Remove any chain entries referencing the merged slots.
        chain = [slot for slot in chain if slot != i and slot != j]

    return np.asarray(merges, dtype=float)


def hac_dendrogram(
    distances: np.ndarray,
    method: str = "complete",
) -> Dendrogram:
    """Run HAC and return the result as a :class:`Dendrogram`.

    Merge distances become dendrogram heights (the conventional choice for
    the COMP / AVG baselines).
    """
    distances = _validate_distance_matrix(distances)
    n = distances.shape[0]
    dendrogram = Dendrogram(n)
    if n == 1:
        return dendrogram
    merges = linkage(distances, method=method)
    for a, b, distance, _ in merges:
        dendrogram.merge(int(a), int(b), height=float(distance), distance=float(distance))
    return dendrogram


def hac_labels(
    distances: np.ndarray,
    num_clusters: int,
    method: str = "complete",
) -> np.ndarray:
    """Flat clustering: run HAC and cut the dendrogram into ``num_clusters``."""
    from repro.dendrogram.cut import cut_k

    dendrogram = hac_dendrogram(distances, method=method)
    return cut_k(dendrogram, num_clusters)

"""Reference implementations the array-native production paths are checked against.

Each oracle is the straightforward version of a hot path: the per-face gain
scan, the sort-based round selection, the pairwise complete-linkage matrix
and the scalar Lance-Williams update.  Tests assert exact (byte-level)
agreement with them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import hac
from repro.core.gains import GainTable
from repro.core.tmfg import _initial_clique, _TMFGBuilder
from repro.graph.faces import Triangle, VertexFacePair, triangle_corners
from repro.graph.matrix import validate_similarity_matrix
from repro.parallel.cost_model import WorkSpanTracker


def per_face_best(
    similarity: np.ndarray, face: Triangle, remaining: np.ndarray
) -> Tuple[float, Optional[int]]:
    """One face's best ``(gain, vertex)`` by a scan over ``remaining`` (ascending)."""
    if remaining.size == 0:
        return float("-inf"), None
    a, b, c = triangle_corners(face)
    gains = similarity[a, remaining] + similarity[b, remaining] + similarity[c, remaining]
    index = int(np.argmax(gains))
    return float(gains[index]), int(remaining[index])


def select_batch(table: GainTable, prefix: int) -> List[VertexFacePair]:
    """Lines 9–10 of Algorithm 1 by sorting: sort every face's best pair,
    take the top ``prefix``, keep each vertex's highest-gain face."""
    pairs = table.best_pairs()
    if not pairs:
        return []
    pairs.sort(key=lambda pair: pair.sort_key(), reverse=True)
    chosen: Dict[int, VertexFacePair] = {}
    for pair in pairs[:prefix]:
        current = chosen.get(pair.vertex)
        if current is None or pair.gain > current.gain:
            chosen[pair.vertex] = pair
    return sorted(chosen.values(), key=lambda pair: pair.sort_key(), reverse=True)


def reference_tmfg(similarity: np.ndarray, prefix: int) -> _TMFGBuilder:
    """The TMFG built by driving the construction state with :func:`select_batch`."""
    similarity = validate_similarity_matrix(similarity)
    builder = _TMFGBuilder(similarity, _initial_clique(similarity), False, WorkSpanTracker())
    while builder.gain_table.num_remaining > 0:
        pairs = select_batch(builder.gain_table, prefix)
        builder.insert_round([(pair.vertex, pair.face) for pair in pairs])
    return builder


def max_linkage_matrix(clusters: Sequence, shortest_paths: np.ndarray) -> np.ndarray:
    """Complete-linkage distances by one ``np.ix_`` block per cluster pair."""
    k = len(clusters)
    matrix = np.zeros((k, k), dtype=float)
    for i in range(k):
        for j in range(i + 1, k):
            block = shortest_paths[np.ix_(clusters[i].vertices, clusters[j].vertices)]
            value = float(block.max())
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix


def update_distance(
    linkage_name: str, d_ik: float, d_jk: float, size_i: int, size_j: int
) -> float:
    """Scalar Lance-Williams update: distance from the merge of (i, j) to k."""
    if linkage_name == "single":
        return min(d_ik, d_jk)
    if linkage_name == "complete":
        return max(d_ik, d_jk)
    if linkage_name == "average":
        return (size_i * d_ik + size_j * d_jk) / (size_i + size_j)
    if linkage_name == "weighted":
        return 0.5 * (d_ik + d_jk)
    raise ValueError(linkage_name)


def scalar_linkage(monkeypatch, distances: np.ndarray, method: str) -> np.ndarray:
    """``hac.linkage`` with its row update replaced by a per-entry scalar loop."""

    def scalar_rows(linkage_name, d_i, d_j, size_i, size_j):
        return np.array(
            [
                update_distance(linkage_name, float(a), float(b), size_i, size_j)
                for a, b in zip(d_i, d_j)
            ],
            dtype=float,
        )

    with monkeypatch.context() as patch:
        patch.setattr(hac, "_lance_williams", scalar_rows)
        return hac.linkage(distances, method=method)

"""Reference implementations the array-native production paths are checked against.

Each oracle is the straightforward version of a hot path: the per-face gain
scan, the sort-based round selection, the pairwise complete-linkage matrix,
the scalar Lance-Williams update, the per-vertex DBHT assignment and the
leaf scan behind the inter-group heights.  Tests assert exact (byte-level)
agreement with them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines import hac
from repro.core.assignment import AssignmentResult
from repro.core.bubble_tree import BubbleTree
from repro.core.direction import DirectionResult
from repro.core.gains import GainTable
from repro.core.tmfg import _initial_clique, _TMFGBuilder
from repro.dendrogram.node import Dendrogram
from repro.graph.faces import Triangle, VertexFacePair, triangle_corners
from repro.graph.matrix import validate_similarity_matrix
from repro.parallel.atomics import WriteMax, WriteMin
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


def max_linkage_matrix(
    members: Sequence[Sequence[int]], shortest_paths: np.ndarray
) -> np.ndarray:
    """Complete-linkage distances by one ``np.ix_`` block per vertex-set pair."""
    k = len(members)
    matrix = np.zeros((k, k), dtype=float)
    for i in range(k):
        for j in range(i + 1, k):
            block = shortest_paths[np.ix_(members[i], members[j])]
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


def _chi(similarity: np.ndarray, vertex: int, members: Set[int]) -> float:
    """Attachment of ``vertex`` to a bubble: sum of similarities to its members."""
    return float(sum(similarity[vertex, u] for u in members if u != vertex))


def _bubble_internal_weight(similarity: np.ndarray, members: Tuple[int, ...]) -> float:
    """Total similarity over the six edges of a 4-clique bubble."""
    total = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            total += float(similarity[members[i], members[j]])
    return total


def assign_vertices(
    tree: BubbleTree,
    directions: DirectionResult,
    similarity: np.ndarray,
    shortest_paths: np.ndarray,
) -> AssignmentResult:
    """Lines 1–23 of Algorithm 4 vertex by vertex, through ``WriteMax`` /
    ``WriteMin`` cells and one 1-D ``np.mean`` per (bubble, vertex) pair."""
    num_vertices = similarity.shape[0]
    converging = directions.converging_bubbles(tree)
    reach = directions.reachable_converging_bubbles(tree)

    group_cells = [WriteMax((float("-inf"), -1)) for _ in range(num_vertices)]
    for bubble_id in converging:
        members = set(tree.bubble(bubble_id).vertices)
        for vertex in members:
            group_cells[vertex].write((_chi(similarity, vertex, members), bubble_id))

    group = np.full(num_vertices, -1, dtype=int)
    assigned_directly = np.zeros(num_vertices, dtype=bool)
    for vertex in range(num_vertices):
        _, bubble_id = group_cells[vertex].value
        if bubble_id >= 0:
            group[vertex] = bubble_id
            assigned_directly[vertex] = True

    attached: Dict[int, List[int]] = {bubble_id: [] for bubble_id in converging}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            attached[int(group[vertex])].append(vertex)

    min_cells = [WriteMin((float("inf"), -1)) for _ in range(num_vertices)]
    vertex_reachable: Dict[int, Set[int]] = {}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            continue
        reachable: Set[int] = set()
        for bubble_id in tree.bubbles_of_vertex(vertex):
            reachable |= reach[bubble_id]
        vertex_reachable[vertex] = reachable

    for bubble_id in converging:
        members = attached[bubble_id]
        if not members:
            continue
        member_array = np.asarray(members, dtype=int)
        for vertex, reachable in vertex_reachable.items():
            if bubble_id in reachable:
                mean_distance = float(np.mean(shortest_paths[member_array, vertex]))
                min_cells[vertex].write((mean_distance, bubble_id))

    for vertex in vertex_reachable:
        _, bubble_id = min_cells[vertex].value
        if bubble_id >= 0:
            group[vertex] = bubble_id
            continue
        best = (float("inf"), -1)
        for candidate in converging:
            members = np.asarray(list(tree.bubble(candidate).vertices), dtype=int)
            best = min(best, (float(np.mean(shortest_paths[members, vertex])), candidate))
        group[vertex] = best[1]

    bubble_cells = [WriteMax((float("-inf"), -1)) for _ in range(num_vertices)]
    for bubble in tree.bubbles:
        members = tuple(sorted(bubble.vertices))
        total_weight = _bubble_internal_weight(similarity, members)
        if total_weight <= 0:
            total_weight = 1.0
        member_set = set(members)
        for vertex in members:
            score = _chi(similarity, vertex, member_set) / total_weight
            bubble_cells[vertex].write((score, bubble.id))

    bubble_assignment = np.array([cell.value[1] for cell in bubble_cells], dtype=int)
    return AssignmentResult(
        group=group,
        bubble=bubble_assignment,
        converging_bubbles=list(converging),
        assigned_directly=assigned_directly,
    )


def count_group_roots(
    dendrogram: Dendrogram, node_id: int, groups: Dict[int, List[int]]
) -> int:
    """Number of groups whose vertices appear under ``node_id`` (a leaf scan)."""
    leaves = set(dendrogram.leaves_under(node_id))
    return sum(1 for vertices in groups.values() if leaves & set(vertices))

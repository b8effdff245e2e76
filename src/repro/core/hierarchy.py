"""Three-level complete-linkage hierarchy and height assignment — Lines 24–33
of Algorithm 4 and the "Dendrogram Heights" paragraph of Section V-D.

The final dendrogram is assembled from three nested complete-linkage runs:

1. *intra-bubble* — within every subgroup (vertices sharing both their
   converging-bubble assignment and their bubble assignment);
2. *inter-bubble* — the subgroup dendrogram roots of each group;
3. *inter-group* — the group dendrogram roots.

Because the three levels use incompatible distance scales, the heights are
re-assigned afterwards: inter-group nodes get the number of converging
bubbles among their descendants, and the ``n_b - 1`` nodes inside a group of
``n_b`` vertices get the heights ``1/(n_b-1), ..., 1/2, 1`` in a specific
sorted order (intra-bubble nodes first, ordered by bubble and merge
distance, then inter-bubble nodes ordered by merge distance), which keeps
the hierarchy monotone and places every group root at height 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.hac import linkage
from repro.core.assignment import AssignmentResult
from repro.dendrogram.node import Dendrogram
from repro.parallel.cost_model import WorkSpanTracker


@dataclass
class _Cluster:
    """A partially built cluster: its dendrogram node id and its leaves."""

    node_id: int
    vertices: List[int]
    group_count: int = 1


#: Elements one gather in :func:`_max_linkage_matrix` may hold (256 KiB of
#: float64).  The top level spans every vertex, where a single gather would
#: be an ``n x n`` temporary, the largest of the fit.
_GATHER_BUDGET = 1 << 15


def _max_linkage_matrix(
    clusters: Sequence[_Cluster], shortest_paths: np.ndarray
) -> np.ndarray:
    """Complete-linkage distances between clusters (max pairwise distance).

    Gathers the concatenated clusters' rows (in runs of whole clusters
    within :data:`_GATHER_BUDGET`; a single run for all but the largest
    levels) against all their columns, then takes a segmented
    ``np.maximum.reduceat`` over both axes.  The APSP matrix can differ
    from its transpose in the last ulp, so only the upper triangle (rows of
    cluster ``i``, columns of cluster ``j > i``) is kept and mirrored,
    which is the block the pairwise definition reads.
    """
    k = len(clusters)
    sizes = [len(cluster.vertices) for cluster in clusters]
    order = [vertex for cluster in clusters for vertex in cluster.vertices]
    starts = np.cumsum([0] + sizes[:-1])
    row_budget = _GATHER_BUDGET // len(order)
    maxima = np.empty((k, k), dtype=float)
    first = 0
    while first < k:
        last, rows = first + 1, sizes[first]
        while last < k and rows + sizes[last] <= row_budget:
            rows += sizes[last]
            last += 1
        block = shortest_paths[np.ix_(order[starts[first] : starts[first] + rows], order)]
        maxima[first:last] = np.maximum.reduceat(
            np.maximum.reduceat(block, starts[first:last] - starts[first], axis=0),
            starts,
            axis=1,
        )
        first = last
    upper = np.triu_indices(k, 1)
    matrix = np.zeros((k, k), dtype=float)
    matrix[upper] = maxima[upper]
    matrix.T[upper] = maxima[upper]
    return matrix


def _run_level(
    dendrogram: Dendrogram,
    clusters: List[_Cluster],
    shortest_paths: np.ndarray,
    level: str,
    **metadata: object,
) -> Tuple[_Cluster, List[Tuple[float, int]]]:
    """Complete-linkage over ``clusters``; returns the root cluster and the
    ``(merge distance, node id)`` pairs of the internal nodes created."""
    if len(clusters) == 1:
        return clusters[0], []
    distance_matrix = _max_linkage_matrix(clusters, shortest_paths)
    merges = linkage(distance_matrix, method="complete")
    # Local cluster ids: 0..k-1 are the input clusters, k+i is the i-th merge.
    local: Dict[int, _Cluster] = {i: cluster for i, cluster in enumerate(clusters)}
    created: List[Tuple[float, int]] = []
    k = len(clusters)
    for index, (a, b, distance, _) in enumerate(merges):
        left = local[int(a)]
        right = local[int(b)]
        node_id = dendrogram.merge(
            left.node_id,
            right.node_id,
            height=float(distance),
            distance=float(distance),
            level=level,
            **metadata,
        )
        merged = _Cluster(
            node_id=node_id,
            vertices=left.vertices + right.vertices,
            group_count=left.group_count + right.group_count,
        )
        local[k + index] = merged
        created.append((float(distance), node_id))
    root = local[k + len(merges) - 1]
    return root, created


def build_hierarchy(
    assignment: AssignmentResult,
    shortest_paths: np.ndarray,
    tracker: Optional[WorkSpanTracker] = None,
) -> Dendrogram:
    """Build the DBHT dendrogram from the vertex assignments.

    ``shortest_paths`` is the all-pairs shortest-path matrix of the filtered
    graph under the dissimilarity weights; it provides both the linkage
    distances and (indirectly, through the assignment) the structure.
    """
    num_vertices = len(assignment.group)
    dendrogram = Dendrogram(num_vertices)
    work = 0.0

    groups = assignment.groups()
    subgroups = assignment.subgroups()

    group_clusters: List[_Cluster] = []
    # Height bookkeeping: per group, the internal nodes created at each level.
    per_group_intra: Dict[int, List[Tuple[int, float, int]]] = {}
    per_group_inter: Dict[int, List[Tuple[float, int]]] = {}

    for group_id in sorted(groups):
        subgroup_clusters: List[_Cluster] = []
        intra_records: List[Tuple[int, float, int]] = []
        bubbles_in_group = sorted(
            {bubble for (g, bubble) in subgroups if g == group_id}
        )
        for bubble_id in bubbles_in_group:
            vertices = subgroups[(group_id, bubble_id)]
            leaf_clusters = [_Cluster(node_id=v, vertices=[v]) for v in vertices]
            root, created = _run_level(
                dendrogram,
                leaf_clusters,
                shortest_paths,
                level="intra",
                group=group_id,
                bubble=bubble_id,
            )
            work += float(len(vertices) ** 2)
            for distance, node_id in created:
                intra_records.append((bubble_id, distance, node_id))
            subgroup_clusters.append(
                _Cluster(node_id=root.node_id, vertices=list(root.vertices))
            )
        group_root, inter_created = _run_level(
            dendrogram,
            subgroup_clusters,
            shortest_paths,
            level="inter_bubble",
            group=group_id,
        )
        work += float(len(subgroup_clusters) ** 2)
        per_group_intra[group_id] = intra_records
        per_group_inter[group_id] = inter_created
        group_clusters.append(
            _Cluster(node_id=group_root.node_id, vertices=list(group_root.vertices))
        )

    final_root, inter_group_created = _run_level(
        dendrogram,
        group_clusters,
        shortest_paths,
        level="inter_group",
    )
    work += float(len(group_clusters) ** 2)

    _assign_heights(
        dendrogram,
        groups,
        per_group_intra,
        per_group_inter,
        inter_group_created,
    )

    if tracker is not None:
        tracker.add("hierarchy", work=work, span=float(np.log2(max(num_vertices, 2)) ** 2))
    if not dendrogram.is_complete:
        raise RuntimeError("hierarchy construction did not produce a complete dendrogram")
    return dendrogram


def _assign_heights(
    dendrogram: Dendrogram,
    groups: Dict[int, List[int]],
    per_group_intra: Dict[int, List[Tuple[int, float, int]]],
    per_group_inter: Dict[int, List[Tuple[float, int]]],
    inter_group_created: List[Tuple[float, int]],
) -> None:
    """Re-assign dendrogram heights as described in Section V-D."""
    # Nodes inside each group: intra nodes first (by bubble, then merge
    # distance, then creation order), followed by inter-bubble nodes (by
    # merge distance, then creation order).  They receive the heights
    # 1/(n_b-1), 1/(n_b-2), ..., 1/2, 1 in that order.
    for group_id, vertices in groups.items():
        n_b = len(vertices)
        if n_b <= 1:
            continue
        ordered: List[int] = []
        intra = sorted(
            per_group_intra.get(group_id, []),
            key=lambda record: (record[0], record[1], record[2]),
        )
        ordered.extend(node_id for _, _, node_id in intra)
        inter = sorted(
            per_group_inter.get(group_id, []), key=lambda record: (record[0], record[1])
        )
        ordered.extend(node_id for _, node_id in inter)
        if len(ordered) != n_b - 1:
            raise RuntimeError(
                f"group {group_id} has {len(ordered)} internal nodes, expected {n_b - 1}"
            )
        heights = [1.0 / (n_b - 1 - index) for index in range(n_b - 1)]
        for node_id, height in zip(ordered, heights):
            dendrogram.set_height(node_id, height)

    # Inter-group nodes: height = number of converging bubbles (groups) in
    # the node's descendants.
    for _, node_id in inter_group_created:
        node = dendrogram.node(node_id)
        group_count = _count_group_roots(dendrogram, node_id, per_group_inter, groups)
        dendrogram.set_height(node_id, float(group_count))


def _count_group_roots(
    dendrogram: Dendrogram,
    node_id: int,
    per_group_inter: Dict[int, List[Tuple[float, int]]],
    groups: Dict[int, List[int]],
) -> int:
    """Number of groups whose vertices appear under ``node_id``."""
    leaves = set(dendrogram.leaves_under(node_id))
    count = 0
    for group_id, vertices in groups.items():
        if leaves & set(vertices):
            count += 1
    return count

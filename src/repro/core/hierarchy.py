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

The construction is array-native where it is hot:

* each group's vertices are gathered from the APSP matrix once; its
  subgroups' own blocks are the intra-bubble distances and their segmented
  maxima the inter-bubble ones (:func:`_linkage_blocks`);
* a level of two clusters emits the single merge ``(0, 1, d)`` that
  :func:`~repro.baselines.hac.linkage` returns for a 2 x 2 matrix,
  including its ``ValueError`` on a non-finite ``d``, without building the
  matrix (most subgroups hold one or two vertices);
* every cluster counts the groups under it as clusters merge, so an
  inter-group node's height is read off the merged cluster instead of
  scanning its leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.hac import linkage
from repro.core.assignment import AssignmentResult
from repro.dendrogram.node import Dendrogram


@dataclass
class _Cluster:
    """A partially built cluster: its dendrogram node id and the number of
    groups (converging bubbles) among its leaves."""

    node_id: int
    group_count: int = 1


#: Elements one gather in :func:`_linkage_blocks` may hold (256 KiB of
#: float64).  The top level spans every vertex, where a single gather would
#: be an ``n x n`` temporary, the largest of the fit.
_GATHER_BUDGET = 1 << 15


def _linkage_blocks(
    members: Sequence[Sequence[int]], shortest_paths: np.ndarray
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Complete-linkage distances between vertex sets, and each set's own block.

    Gathers the concatenated sets' rows (in runs of whole sets within
    :data:`_GATHER_BUDGET`; a single run for all but the largest levels)
    against all their columns.  Returns ``(maxima, own)``: ``maxima[i, j]``
    is the largest distance from a row of set ``i`` to a column of set
    ``j``, by a segmented ``np.maximum.reduceat`` over both axes, and
    ``own[i]`` is set ``i``'s rows against its own columns (a copy, so no
    run outlives its turn).  The APSP matrix can differ from its transpose in the last ulp,
    so only the upper triangles (``i < j``) are the pairwise definition's
    distances; :func:`_mirror_upper` makes the symmetric matrix.
    """
    k = len(members)
    sizes = [len(vertices) for vertices in members]
    order = [vertex for vertices in members for vertex in vertices]
    starts = np.cumsum([0] + sizes[:-1])
    row_budget = _GATHER_BUDGET // len(order)
    maxima = np.empty((k, k), dtype=float)
    own: List[np.ndarray] = []
    first = 0
    while first < k:
        last, rows = first + 1, sizes[first]
        while last < k and rows + sizes[last] <= row_budget:
            rows += sizes[last]
            last += 1
        offset = int(starts[first])
        block = shortest_paths[np.ix_(order[offset : offset + rows], order)]
        maxima[first:last] = np.maximum.reduceat(
            np.maximum.reduceat(block, starts[first:last] - offset, axis=0),
            starts,
            axis=1,
        )
        for index in range(first, last):
            begin, end = int(starts[index]), int(starts[index]) + sizes[index]
            own.append(block[begin - offset : end - offset, begin:end].copy())
        first = last
    return maxima, own


def _mirror_upper(maxima: np.ndarray) -> np.ndarray:
    """The symmetric matrix with the upper triangle of ``maxima`` and a zero
    diagonal (exact: every entry adds 0.0 to the value it keeps)."""
    upper = np.triu(maxima, 1)
    return upper + upper.T


def _run_level(
    dendrogram: Dendrogram,
    clusters: List[_Cluster],
    maxima: np.ndarray,
    level: str,
    **metadata: object,
) -> Tuple[_Cluster, List[Tuple[float, _Cluster]]]:
    """Complete-linkage over ``clusters``, whose distances are the upper
    triangle of ``maxima``; returns the root cluster and the ``(merge
    distance, merged cluster)`` pairs of the internal nodes created."""
    k = len(clusters)
    if k == 1:
        return clusters[0], []
    if k == 2:
        # The one merge ``linkage`` returns for a 2 x 2 matrix, and its error.
        distance = maxima[0, 1]
        if not np.isfinite(distance):
            raise ValueError("distance matrix contains NaN or infinite entries")
        merges = [(0, 1, distance, 2)]
    else:
        merges = linkage(_mirror_upper(maxima), method="complete")
    # Local cluster ids: 0..k-1 are the input clusters, k+i is the i-th merge.
    local: Dict[int, _Cluster] = {i: cluster for i, cluster in enumerate(clusters)}
    created: List[Tuple[float, _Cluster]] = []
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
        merged = _Cluster(node_id, left.group_count + right.group_count)
        local[k + index] = merged
        created.append((float(distance), merged))
    return local[k + len(merges) - 1], created


def build_hierarchy(assignment: AssignmentResult, shortest_paths: np.ndarray) -> Dendrogram:
    """Build the DBHT dendrogram from the vertex assignments.

    ``shortest_paths`` is the all-pairs shortest-path matrix of the filtered
    graph under the dissimilarity weights; it provides both the linkage
    distances and (indirectly, through the assignment) the structure.
    """
    num_vertices = len(assignment.group)
    dendrogram = Dendrogram(num_vertices)

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
        members = [subgroups[(group_id, bubble_id)] for bubble_id in bubbles_in_group]
        # One gather per group: its subgroups' own blocks are the intra
        # level's distances, and their maxima the inter-bubble level's.
        maxima, own = _linkage_blocks(members, shortest_paths)
        for bubble_id, vertices, block in zip(bubbles_in_group, members, own):
            root, created = _run_level(
                dendrogram,
                [_Cluster(vertex) for vertex in vertices],
                block,
                level="intra",
                group=group_id,
                bubble=bubble_id,
            )
            for distance, merged in created:
                intra_records.append((bubble_id, distance, merged.node_id))
            subgroup_clusters.append(_Cluster(root.node_id))
        group_root, inter_created = _run_level(
            dendrogram,
            subgroup_clusters,
            maxima,
            level="inter_bubble",
            group=group_id,
        )
        per_group_intra[group_id] = intra_records
        per_group_inter[group_id] = [
            (distance, merged.node_id) for distance, merged in inter_created
        ]
        group_clusters.append(_Cluster(group_root.node_id))

    final_root, inter_group_created = _run_level(
        dendrogram,
        group_clusters,
        _linkage_blocks([groups[group_id] for group_id in sorted(groups)], shortest_paths)[0],
        level="inter_group",
    )

    _assign_heights(
        dendrogram,
        groups,
        per_group_intra,
        per_group_inter,
        inter_group_created,
    )

    if not dendrogram.is_complete:
        raise RuntimeError("hierarchy construction did not produce a complete dendrogram")
    return dendrogram


def _assign_heights(
    dendrogram: Dendrogram,
    groups: Dict[int, List[int]],
    per_group_intra: Dict[int, List[Tuple[int, float, int]]],
    per_group_inter: Dict[int, List[Tuple[float, int]]],
    inter_group_created: List[Tuple[float, _Cluster]],
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
    # the node's descendants, which the merged clusters count.
    for _, merged in inter_group_created:
        dendrogram.set_height(merged.node_id, float(merged.group_count))

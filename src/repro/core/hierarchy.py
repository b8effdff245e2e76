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

The levels are small (most subgroups hold one to three vertices, and a
group holds a few dozen subgroups at 500 assets, about a hundred at 2000),
so numpy only gathers and the linkage itself runs on plain lists:

* each group's vertices are gathered from the APSP matrix once; its
  subgroups' own blocks are the intra-bubble distances and their segmented
  maxima the inter-bubble ones (:func:`_group_blocks`), both handed over
  as lists of rows; the inter-group maxima reduce every row to the groups
  first, so that level gathers columns only (:func:`_inter_group_maxima`);
* every level, whatever its size, runs :func:`_complete_linkage`, a
  nearest-neighbour chain on those lists that emits exactly the merges of
  :func:`repro.baselines.hac.linkage` (which stays the COMP/AVG baselines'
  clusterer and the tests' oracle), including its ``ValueError`` on a
  non-finite distance;
* an inter-group merge's size is the number of groups under it, which is
  that node's height, so no leaves are scanned.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.assignment import AssignmentResult
from repro.dendrogram.node import Dendrogram

#: A linkage level's distances: a symmetric matrix as a list of rows.
Rows = List[List[float]]

#: Elements one gather in :func:`_inter_group_maxima` may hold (256 KiB of
#: float64).  The top level spans every vertex, where a single gather would
#: be an ``n x n`` temporary, the largest of the fit.
_GATHER_BUDGET = 1 << 15


def _starts(members: Sequence[Sequence[int]]) -> Tuple[List[int], np.ndarray]:
    """The concatenated vertex sets and the offset where each set starts."""
    order = [vertex for vertices in members for vertex in vertices]
    return order, np.cumsum([0] + [len(vertices) for vertices in members[:-1]])


def _mirror_upper(maxima: np.ndarray) -> np.ndarray:
    """The symmetric matrix with the upper triangle of ``maxima`` and a zero
    diagonal (exact: every entry adds 0.0 to the value it keeps)."""
    upper = np.triu(maxima, 1)
    return upper + upper.T


def _group_blocks(
    members: Sequence[Sequence[int]], shortest_paths: np.ndarray
) -> Tuple[Rows, List[Rows]]:
    """Complete-linkage distances between a group's vertex sets, and each
    set's own block, from one gather of the group's rows and columns.

    Returns ``(maxima, blocks)`` as lists of rows: ``maxima[i][j]`` is the
    largest distance from a row of set ``i`` to a column of set ``j``, by a
    segmented ``np.maximum.reduceat`` over both axes, and ``blocks[i]`` is
    set ``i``'s rows against its own columns.  The APSP matrix can differ
    from its transpose in the last ulp, so only the upper triangles
    (``i < j``) are the pairwise definition's distances: both come back as
    the :func:`_mirror_upper` of those triangles.
    """
    order, starts = _starts(members)
    block = shortest_paths[np.ix_(order, order)]
    maxima = np.maximum.reduceat(np.maximum.reduceat(block, starts, axis=1), starts, axis=0)
    # A set's own block lies on the diagonal, so its upper triangle is
    # inside the gather's: one mirror serves every set.
    block = _mirror_upper(block)
    own = [
        block[begin : begin + len(vertices), begin : begin + len(vertices)].tolist()
        for begin, vertices in zip(starts.tolist(), members)
    ]
    return _mirror_upper(maxima).tolist(), own


def _inter_group_maxima(members: Sequence[Sequence[int]], shortest_paths: np.ndarray) -> Rows:
    """``maxima`` of :func:`_group_blocks` without the own blocks, for sets
    that span most vertices (the groups).

    Every row's largest distance to each set is reduced first, over whole
    rows of the matrix in runs of at most :data:`_GATHER_BUDGET` gathered
    elements, so only the columns are gathered; the sets' rows are then
    picked out of that ``n x k`` array and reduced.  The maxima are the same
    elements' maxima, so the floats are those of one gather.
    """
    order, starts = _starts(members)
    num_rows = shortest_paths.shape[0]
    run = max(1, _GATHER_BUDGET // len(order))
    to_sets = np.empty((num_rows, len(members)), dtype=float)
    for first in range(0, num_rows, run):
        to_sets[first : first + run] = np.maximum.reduceat(
            shortest_paths[first : first + run][:, order], starts, axis=1
        )
    return _mirror_upper(np.maximum.reduceat(to_sets[order], starts, axis=0)).tolist()


def _complete_linkage(rows: Rows) -> List[Tuple[int, int, float, int]]:
    """:func:`repro.baselines.hac.linkage` with ``method="complete"`` on lists.

    ``rows`` is a symmetric ``k x k`` distance matrix with a zero diagonal,
    as :func:`_mirror_upper` makes it; the rows are overwritten.  Returns
    the merges ``(a, b, distance, size)`` in the order, and with the cluster
    ids, that ``linkage`` gives for the same matrix: the nearest neighbour
    is the first minimum over the active slots, the chain stops at its
    previous element whenever that one is as close, and the merged row
    keeps ``d_i`` unless ``d_j`` is larger.  A non-finite entry raises
    ``linkage``'s ``ValueError``.
    """
    k = len(rows)
    for slot, row in enumerate(rows):
        if not all(map(isfinite, row)):
            raise ValueError("distance matrix contains NaN or infinite entries")
        row[slot] = inf
    active = list(range(k))
    labels = list(range(k))
    sizes = [1] * k
    merges: List[Tuple[int, int, float, int]] = []
    chain: List[int] = []
    for label in range(k, 2 * k - 1):
        if not chain:
            chain.append(active[0])
        while True:
            row = rows[chain[-1]]
            candidate = min(active, key=row.__getitem__)
            if len(chain) > 1 and row[chain[-2]] <= row[candidate]:
                break
            chain.append(candidate)
        j = chain.pop()
        i = chain.pop()
        row_i, row_j = rows[i], rows[j]
        size = sizes[i] + sizes[j]
        merges.append((labels[i], labels[j], row_i[j], size))
        active.remove(j)
        # row_i[i] is inf, so slot i keeps its diagonal.
        for slot in active:
            if row_j[slot] > row_i[slot]:
                row_i[slot] = rows[slot][i] = row_j[slot]
        labels[i] = label
        sizes[i] = size
    return merges


def _run_level(
    dendrogram: Dendrogram, node_ids: List[int], rows: Rows, **metadata: object
) -> Tuple[int, List[Tuple[float, int, int]]]:
    """Complete linkage over the subtrees ``node_ids`` with distances
    ``rows``; returns the root's node id and the ``(merge distance, node
    id, clusters merged)`` of the internal nodes created, in order."""
    created: List[Tuple[float, int, int]] = []
    for a, b, distance, size in _complete_linkage(rows):
        node_id = dendrogram.merge(
            node_ids[a], node_ids[b], distance, distance, **metadata
        )
        node_ids.append(node_id)
        created.append((distance, node_id, size))
    return node_ids[-1], created


def build_hierarchy(assignment: AssignmentResult, shortest_paths: np.ndarray) -> Dendrogram:
    """Build the DBHT dendrogram from the vertex assignments.

    ``shortest_paths`` is the all-pairs shortest-path matrix of the filtered
    graph under the dissimilarity weights; it provides both the linkage
    distances and (indirectly, through the assignment) the structure.
    """
    dendrogram = Dendrogram(len(assignment.group))
    groups = assignment.groups()
    subgroups = assignment.subgroups()
    bubbles_of_group = {group_id: [] for group_id in groups}
    for group_id, bubble_id in sorted(subgroups):
        bubbles_of_group[group_id].append(bubble_id)

    group_roots: List[int] = []
    for group_id in sorted(groups):
        bubbles = bubbles_of_group[group_id]
        members = [subgroups[(group_id, bubble_id)] for bubble_id in bubbles]
        # One gather per group: its subgroups' own blocks are the intra
        # level's distances, and their maxima the inter-bubble level's.
        maxima, own = _group_blocks(members, shortest_paths)
        subgroup_roots: List[int] = []
        intra: List[Tuple[int, float, int]] = []
        for bubble_id, vertices, block in zip(bubbles, members, own):
            root, created = _run_level(
                dendrogram, list(vertices), block, level="intra", group=group_id, bubble=bubble_id
            )
            intra.extend((bubble_id, distance, node_id) for distance, node_id, _ in created)
            subgroup_roots.append(root)
        group_root, inter = _run_level(
            dendrogram, subgroup_roots, maxima, level="inter_bubble", group=group_id
        )
        group_roots.append(group_root)
        # The group's n_b - 1 nodes get the heights 1/(n_b-1), ..., 1/2, 1:
        # intra nodes first (by bubble, then merge distance, then creation
        # order), then inter-bubble nodes (by merge distance, then creation).
        ordered = [node_id for _, _, node_id in sorted(intra)]
        ordered += [node_id for _, node_id, _ in sorted(inter)]
        for index, node_id in enumerate(ordered):
            dendrogram.set_height(node_id, 1.0 / (len(ordered) - index))

    maxima = _inter_group_maxima([groups[group_id] for group_id in sorted(groups)], shortest_paths)
    _, inter_group = _run_level(dendrogram, group_roots, maxima, level="inter_group")
    # An inter-group node's height is the number of groups (converging
    # bubbles) under it: the clusters its merge joined.
    for _, node_id, size in inter_group:
        dendrogram.set_height(node_id, float(size))

    if not dendrogram.is_complete:
        raise RuntimeError("hierarchy construction did not produce a complete dendrogram")
    return dendrogram

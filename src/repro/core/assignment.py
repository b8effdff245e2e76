"""Vertex-to-bubble assignment — Lines 1–23 of Algorithm 4.

The DBHT clusters vertices in two levels.  First, every vertex is assigned
to a *converging bubble* (a bubble with only incoming edges in the directed
bubble tree): vertices that belong to at least one converging bubble go to
the one with the strongest attachment ``chi``, and the remaining vertices go
to the reachable converging bubble with the smallest mean shortest-path
distance to the vertices already assigned there.  Second, every vertex is
assigned to a (not necessarily converging) bubble maximising the normalised
attachment ``chi'``.  The pair (converging bubble, bubble) defines the
subgroups used by the three-level hierarchy.

Both levels are batched over bubbles rather than looped per vertex:

* the ``chi`` (and ``chi'``) scores of every member of every bubble come
  from one ``(bubbles, 4, 3)`` gather of the similarity matrix, summed
  column by column in each bubble's member order, so every score is the
  float a per-vertex loop gives; the paper's ``WRITE_MAX`` cells become one
  ``lexsort`` over ``(vertex, score, bubble id)``;
* the mean distances of the remaining vertices come from one gather per
  converging bubble, reduced along the last axis of a C-contiguous
  (vertices x members) block.  That is the inner loop of a 1-D
  ``np.mean``, so each mean is the float the per-vertex loop gives.  (An
  ``axis=0`` mean adds the members in another order once there are eight
  or more of them, where numpy's pairwise summation starts, and differs in
  the last ulp; an attached set holds at most a bubble's four members, but
  the helper stays exact for any count.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.bubble_tree import BubbleTree
from repro.core.direction import DirectionResult


@dataclass
class AssignmentResult:
    """Group (converging bubble) and bubble assignment of every vertex.

    ``group[v]`` is the id of the converging bubble that vertex ``v`` is
    assigned to; ``bubble[v]`` is the id of the bubble maximising ``chi'``.
    ``converging_bubbles`` lists the converging bubble ids;
    ``assigned_directly[v]`` is True when ``v`` was assigned by the
    ``chi``-attachment rule (it belongs to at least one converging bubble);
    ``distance_terms`` is the number of shortest-path entries the
    mean-distance rule read (members x candidates, summed over converging
    bubbles), which the cost model needs because the reach sets are not
    kept.
    """

    group: np.ndarray
    bubble: np.ndarray
    converging_bubbles: List[int]
    assigned_directly: np.ndarray
    distance_terms: int = 0

    def subgroups(self) -> Dict[Tuple[int, int], List[int]]:
        """Vertices keyed by (converging bubble, bubble) — the DBHT subgroups."""
        result: Dict[Tuple[int, int], List[int]] = {}
        for vertex in range(len(self.group)):
            key = (int(self.group[vertex]), int(self.bubble[vertex]))
            result.setdefault(key, []).append(vertex)
        return result

    def groups(self) -> Dict[int, List[int]]:
        """Vertices keyed by converging bubble."""
        result: Dict[int, List[int]] = {}
        for vertex in range(len(self.group)):
            result.setdefault(int(self.group[vertex]), []).append(vertex)
        return result


#: For each position of a 4-clique's member order, the positions of the
#: other three members, in that order (the terms of its attachment score).
_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _attachment_scores(similarity: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """``chi`` of every member of every bubble: ``scores[b, i]`` is the sum of
    the similarities of vertex ``orders[b, i]`` to the other three members of
    bubble row ``b``.

    The terms are added left to right in the row's member order, so each
    score is bit-for-bit the sum a loop over that order gives (up to the
    sign of an all-zero sum, which compares equal).  The paper's
    normalisation ``3 (|b| - 2)`` is constant (= 6) for TMFG bubbles, so it
    cancels in the argmax and is omitted, exactly as noted in Section V-C.
    """
    terms = similarity[orders[:, :, None], orders[:, _OTHERS]]
    return terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2]


def _mean_distances(
    shortest_paths: np.ndarray, members: List[int], vertices: List[int]
) -> np.ndarray:
    """Mean shortest-path distance from each of ``vertices`` to ``members``.

    One gather, reduced along the last axis of a C-contiguous (vertices x
    members) block: that runs the same inner loop, in the same order, as a
    1-D ``np.mean`` per vertex, for any number of members.  (An ``axis=0``
    mean of the untransposed block differs in the last ulp from eight
    members on.)
    """
    block = shortest_paths[np.ix_(members, vertices)]
    return np.ascontiguousarray(block.T).mean(axis=1)


def _best_per_vertex(
    vertices: np.ndarray, keys: np.ndarray, ids: np.ndarray, highest: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve concurrent ``(key, id)`` writes to per-vertex cells.

    ``highest`` gives ``WRITE_MAX`` semantics (higher key wins, then
    higher id) over cells starting at ``(-inf, -1)``; otherwise
    ``WRITE_MIN`` semantics (lower key, then lower id) over cells starting
    at ``(inf, -1)``.  A write that cannot beat the start value (a NaN key,
    or ``inf`` for ``WRITE_MIN``) is dropped.  Returns the vertices that
    received a write and the winning ids.
    """
    valid = keys >= -np.inf if highest else keys < np.inf
    vertices, keys, ids = vertices[valid], keys[valid], ids[valid]
    order = np.lexsort((ids, keys, vertices))
    vertices, ids = vertices[order], ids[order]
    boundary = vertices[1:] != vertices[:-1]
    if highest:
        winners = np.flatnonzero(np.append(boundary, True))
    else:
        winners = np.flatnonzero(np.insert(boundary, 0, True))
    return vertices[winners], ids[winners]


def _closest_bubble(
    shortest_paths: np.ndarray, pairs: List[Tuple[int, List[int], List[int]]]
) -> Tuple[np.ndarray, np.ndarray]:
    """``WRITE_MIN`` of ``(mean distance, bubble id)`` per vertex, over
    ``(bubble id, members, candidate vertices)`` triples: one gather each."""
    return _best_per_vertex(
        np.concatenate([np.asarray(vertices, dtype=int) for _, _, vertices in pairs]),
        np.concatenate(
            [_mean_distances(shortest_paths, members, vertices) for _, members, vertices in pairs]
        ),
        np.concatenate([np.full(len(vertices), bubble_id) for bubble_id, _, vertices in pairs]),
        highest=False,
    )


def assign_vertices(
    tree: BubbleTree,
    directions: DirectionResult,
    similarity: np.ndarray,
    shortest_paths: np.ndarray,
) -> AssignmentResult:
    """Assign every vertex to a converging bubble and to a bubble.

    ``shortest_paths`` is the all-pairs shortest path matrix of the TMFG
    under the dissimilarity weights (Line 7 of Algorithm 4).
    """
    num_vertices = similarity.shape[0]
    bubbles = tree.bubbles
    converging = directions.converging_bubbles(tree)
    reach = directions.reachable_converging_bubbles(tree)

    # -- first level: assignment to converging bubbles (groups) ------------
    # A directed tree always has a sink, so ``converging`` is never empty.
    # Each row is in the iteration order of the set the scores sum over
    # (the definition's member set; a sorted order can round differently).
    group = np.full(num_vertices, -1, dtype=int)
    orders = np.array([list(set(bubbles[b].vertices)) for b in converging])
    winners, ids = _best_per_vertex(
        orders.ravel(),
        _attachment_scores(similarity, orders).ravel(),
        np.repeat(converging, 4),
        highest=True,
    )
    group[winners] = ids
    assigned_directly = group >= 0

    # Remaining vertices: closest reachable converging bubble by mean
    # shortest-path distance to the vertices already attached to it (V^0_b).
    candidates: Dict[int, List[int]] = {bubble_id: [] for bubble_id in converging}
    pending = np.flatnonzero(~assigned_directly).tolist()
    for vertex in pending:
        reachable: Set[int] = set()
        for bubble_id in tree.bubbles_of_vertex(vertex):
            reachable |= reach[bubble_id]
        for bubble_id in reachable:
            candidates[bubble_id].append(vertex)
    pairs = [
        (bubble_id, np.flatnonzero(group == bubble_id).tolist(), candidates[bubble_id])
        for bubble_id in converging
    ]
    pairs = [pair for pair in pairs if pair[1] and pair[2]]
    distance_terms = sum(len(members) * len(vertices) for _, members, vertices in pairs)
    placed: List[int] = []
    if pairs:
        winners, ids = _closest_bubble(shortest_paths, pairs)
        group[winners] = ids
        placed = winners.tolist()
    unplaced = sorted(set(pending).difference(placed))
    if unplaced:
        # Fallback (degenerate case: no reachable converging bubble has
        # attached vertices yet): use the globally closest converging
        # bubble by mean distance to its member vertices.
        winners, ids = _closest_bubble(
            shortest_paths,
            [(bubble_id, list(bubbles[bubble_id].vertices), unplaced) for bubble_id in converging],
        )
        group[winners] = ids

    # -- second level: assignment to bubbles --------------------------------
    # chi' = chi / (total similarity over the bubble's six edges, added
    # pair by pair over the sorted members); a bubble with non-positive
    # internal weight keeps the unnormalised chi.
    ordered = np.sort(np.array([list(bubble.vertices) for bubble in bubbles]), axis=1)
    total_weight = similarity[ordered[:, 0], ordered[:, 1]]
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        total_weight = total_weight + similarity[ordered[:, i], ordered[:, j]]
    total_weight[total_weight <= 0] = 1.0
    # chi' sums over the set of the sorted members, whose iteration order
    # can differ from the first level's.
    orders = np.array([list(set(tuple(sorted(bubble.vertices)))) for bubble in bubbles])
    scores = _attachment_scores(similarity, orders) / total_weight[:, None]
    winners, ids = _best_per_vertex(
        orders.ravel(),
        scores.ravel(),
        np.repeat([bubble.id for bubble in bubbles], 4),
        highest=True,
    )
    bubble_assignment = np.full(num_vertices, -1, dtype=int)
    bubble_assignment[winners] = ids

    return AssignmentResult(
        group=group,
        bubble=bubble_assignment,
        converging_bubbles=list(converging),
        assigned_directly=assigned_directly,
        distance_terms=distance_terms,
    )

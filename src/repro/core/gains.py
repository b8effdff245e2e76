"""Gain table for TMFG construction.

For each triangular face ``t`` of the graph under construction, the TMFG
algorithm needs the *best vertex*: the not-yet-inserted vertex ``v`` that
maximises the gain ``sum_{u in t} S[u, v]`` of inserting ``v`` into ``t``
(Line 5 and Lines 15–16 of Algorithm 1).

The paper maintains, for each face, a sorted list of candidate vertices so
that the best vertex never has to be recomputed by scanning every face.
Here every face is an integer id into flat arrays: an ``(F, 3)`` corner
array plus per-face ``best gain`` and ``best vertex`` arrays (a removed
face keeps gain ``-inf`` and vertex ``-1``).
A TMFG on ``n`` vertices creates ``3n - 8`` faces in total, so the arrays
are allocated once.  The table also keeps a working copy of the
similarity matrix whose columns for inserted vertices are ``-inf``; a
refresh of ``k`` faces is then ``M[a] + M[b] + M[c]`` over the stacked
corner rows and one row-wise ``argmax`` (lowest vertex id on exact ties).
When a batch of vertices is inserted, the faces to refresh are exactly
the live faces whose best vertex was inserted (``best == v``),
so the update work stays proportional to the affected faces, not to all
faces, while the per-face scans run as one numpy gather per round.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.faces import Triangle, VertexFacePair, triangle_corners

_NEG_INF = float("-inf")


class GainTable:
    """Tracks the best remaining vertex for every active face."""

    def __init__(self, similarity: np.ndarray, remaining: Iterable[int]) -> None:
        masked = np.array(similarity, dtype=float)
        n = masked.shape[0]
        self._remaining_mask = np.zeros(n, dtype=bool)
        self._remaining_mask[list(remaining)] = True
        self._num_remaining = int(self._remaining_mask.sum())
        # Working similarity: columns of inserted vertices can never win.
        masked[:, ~self._remaining_mask] = _NEG_INF
        self._masked = masked
        # Faces ever created by a TMFG on n vertices: 4 + 3 (n - 4).
        capacity = max(3 * n - 8, 4)
        self._corners = np.zeros((capacity, 3), dtype=np.int64)
        # Dead faces and faces without a candidate hold gain -inf and
        # vertex -1, so a plain argmax over the gains never selects them.
        self._gain = np.full(capacity, _NEG_INF)
        self._vertex = np.full(capacity, -1, dtype=np.int64)
        self._keys: List[Triangle] = []
        self._ids: Dict[Triangle, int] = {}
        # Number of per-face gain recomputations (used by the ablation bench).
        self.recompute_count = 0

    # -- queries -----------------------------------------------------------

    @property
    def num_remaining(self) -> int:
        return self._num_remaining

    def remaining_vertices(self) -> np.ndarray:
        return np.flatnonzero(self._remaining_mask)

    def is_remaining(self, vertex: int) -> bool:
        return bool(self._remaining_mask[vertex])

    @property
    def num_faces(self) -> int:
        return len(self._ids)

    def faces(self) -> List[Triangle]:
        return list(self._ids)

    def best_for_face(self, face: Triangle) -> Tuple[float, Optional[int]]:
        """Current ``(gain, vertex)`` for ``face`` (vertex None if exhausted)."""
        face_id = self._ids[face]
        vertex = int(self._vertex[face_id])
        return float(self._gain[face_id]), (vertex if vertex >= 0 else None)

    def best_pairs(self) -> List[VertexFacePair]:
        """All active faces' best vertex-face pairs (faces with no candidate skipped)."""
        ids = np.flatnonzero(self._vertex[: len(self._keys)] >= 0)
        return [self._pair(int(face_id)) for face_id in ids]

    def argmax_pair(self) -> Optional[VertexFacePair]:
        """The single best pair under the ``VertexFacePair.sort_key`` order.

        One ``np.argmax`` over the per-face gains; the tie-break keys
        (lowest vertex, then lexicographically smallest sorted corners) are
        only evaluated on exact gain ties.  This is the ``prefix=1`` round
        selection.  Returns ``None`` when no face has a remaining candidate.
        """
        gains = self._gain[: len(self._keys)]
        if gains.size == 0:
            return None
        face_id = int(np.argmax(gains))
        if gains[face_id] == _NEG_INF:
            return None
        ties = np.flatnonzero(gains == gains[face_id])
        if ties.size > 1:
            face_id = int(ties[self._tie_order(ties)[0]])
        return self._pair(face_id)

    def select(self, prefix: int) -> List[VertexFacePair]:
        """Choose up to ``prefix`` vertex-face pairs to insert this round.

        Lines 9–10 of Algorithm 1: the ``prefix`` largest pairs under
        ``VertexFacePair.sort_key`` (descending), keeping only the first
        (highest) pair of any vertex that appears with several faces, in
        descending order.  ``argpartition`` narrows the candidates to the
        top ``prefix`` gains plus every exact tie at the boundary, and only
        those are fully ordered.
        """
        if prefix == 1:
            best = self.argmax_pair()
            return [] if best is None else [best]
        gains = self._gain[: len(self._keys)]
        candidates = np.flatnonzero(gains > _NEG_INF)
        if candidates.size > prefix:
            cut = candidates.size - prefix
            kth = np.argpartition(gains[candidates], cut)[cut]
            candidates = candidates[gains[candidates] >= gains[candidates[kth]]]
        top = candidates[self._tie_order(candidates, by_gain=True)][:prefix]
        _, first = np.unique(self._vertex[top], return_index=True)
        return [self._pair(int(face_id)) for face_id in top[np.sort(first)]]

    # -- updates -----------------------------------------------------------

    def add_face(self, face: Triangle) -> None:
        """Register a new face and compute its best vertex."""
        self.add_faces([face])

    def add_faces(self, faces: Sequence[Triangle]) -> None:
        """Register a batch of new faces with one bulk gain computation."""
        self._refresh(self._register(faces))

    def remove_face(self, face: Triangle) -> None:
        """Remove a face (it has been split by a vertex insertion)."""
        face_id = self._ids.pop(face)
        self._gain[face_id] = _NEG_INF
        self._vertex[face_id] = -1

    def remove_vertices(
        self, vertices: Sequence[int], new_faces: Sequence[Triangle] = ()
    ) -> List[Triangle]:
        """Mark vertices as inserted and refresh the faces that pointed at them.

        ``new_faces`` are registered in the same step, so one TMFG round
        costs a single bulk gain computation.  Returns the list of existing
        faces whose best vertex was recomputed, which is what the paper's
        Line 15 iterates over.
        """
        for vertex in vertices:
            if not self._remaining_mask[vertex]:
                raise ValueError(f"vertex {vertex} is not in the remaining set")
            self._remaining_mask[vertex] = False
            self._masked[:, vertex] = _NEG_INF
        self._num_remaining -= len(vertices)
        affected = self._affected(vertices)
        created = self._register(new_faces)
        self._refresh(np.concatenate([affected, created]))
        return [self._keys[face_id] for face_id in affected.tolist()]

    # -- internals ---------------------------------------------------------

    def _affected(self, vertices: Sequence[int]) -> np.ndarray:
        """Ids of the live faces whose best vertex is one of ``vertices``."""
        best = self._vertex[: len(self._keys)]
        hit = np.zeros(best.size, dtype=bool)
        for vertex in vertices:
            hit |= best == vertex
        return np.flatnonzero(hit)

    def _register(self, faces: Sequence[Triangle]) -> np.ndarray:
        start = len(self._keys)
        for offset, face in enumerate(faces):
            if face in self._ids:
                raise ValueError(f"face {set(face)} already registered")
            self._ids[face] = start + offset
            self._keys.append(face)
            self._corners[start + offset] = triangle_corners(face)
        return np.arange(start, len(self._keys))

    def _refresh(self, ids: np.ndarray) -> None:
        """Recompute the best remaining vertex of faces ``ids`` in one gather.

        The sum associates as ``(S[a] + S[b]) + S[c]`` and ``argmax`` takes
        the first (lowest-id) maximum, exactly like a per-face scan over
        the remaining vertices in increasing order.
        """
        if ids.size == 0:
            return
        self.recompute_count += int(ids.size)
        if self._num_remaining == 0:
            self._gain[ids] = _NEG_INF
            self._vertex[ids] = -1
            return
        corners = self._corners[ids]
        gains = self._masked[corners[:, 0]] + self._masked[corners[:, 1]]
        gains += self._masked[corners[:, 2]]
        best = np.argmax(gains, axis=1)
        self._vertex[ids] = best
        self._gain[ids] = gains[np.arange(ids.size), best]

    def _tie_order(self, ids: np.ndarray, by_gain: bool = False) -> np.ndarray:
        """Positions of ``ids`` in descending ``sort_key`` order: (gain
        descending if ``by_gain``), lowest vertex, then smallest corners."""
        corners = self._corners[ids]
        keys = [corners[:, 2], corners[:, 1], corners[:, 0], self._vertex[ids]]
        if by_gain:
            keys.append(-self._gain[ids])
        return np.lexsort(keys)

    def _pair(self, face_id: int) -> VertexFacePair:
        return VertexFacePair(
            vertex=int(self._vertex[face_id]),
            face=self._keys[face_id],
            gain=float(self._gain[face_id]),
        )


class RescanGainTable(GainTable):
    """Gain table that refreshes *every* live face after each insertion.

    This reproduces the cost profile of the original TMFG implementation,
    which "loops over all of the faces to find the faces that previously
    had v as their best vertex" (Section IV) instead of touching only the
    affected ones.  It is used only by the ablation benchmark comparing the
    two update strategies; results are identical, only the amount of
    recomputation differs.
    """

    def _affected(self, vertices: Sequence[int]) -> np.ndarray:
        return np.sort(np.fromiter(self._ids.values(), dtype=np.int64))

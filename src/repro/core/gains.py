"""Gain table for TMFG construction.

For each triangular face ``t`` of the graph under construction, the TMFG
algorithm needs the *best vertex*: the not-yet-inserted vertex ``v`` that
maximises the gain ``sum_{u in t} S[u, v]`` of inserting ``v`` into ``t``
(Line 5 and Lines 15–16 of Algorithm 1).

The paper maintains, for each face, a sorted list of candidate vertices so
that the best vertex never has to be recomputed by scanning every face.
Here every face is an integer id into flat arrays: an ``(F, 3)`` array of
sorted corners plus per-face ``best gain`` and ``best vertex`` arrays (a
split face keeps gain ``-inf`` and vertex ``-1``).  A TMFG on ``n``
vertices creates ``3n - 8`` faces in total, so the arrays are allocated
once.  Ids are handed out in creation order: the table's first faces get
``0, 1, ...`` and :meth:`GainTable.split` gives pair ``i`` of a batch the
three consecutive ids ``start + 3i + (0, 1, 2)`` for its child faces
``(v, a, b)``, ``(v, b, c)``, ``(v, a, c)`` (``a < b < c`` the split
face's corners), which is what lets the caller derive each face's
creator and owner bubble from its id alone.

Gains come from a working copy of the similarity matrix that holds only
the columns of still-remaining vertices, in increasing vertex order, with
a column -> vertex map beside it.  Inserting a vertex sets its column to
``-inf``; once the live columns fall below :data:`COMPACT_BELOW` of the
width, one ``np.compress`` (which keeps the copy row-major) drops the
dead ones.  A refresh of ``k`` faces is
``(M[a] + M[b]) + M[c]`` over the stacked corner rows and one row-wise
``argmax``; since the columns stay in ascending vertex order, the first
maximum is still the lowest vertex id, and each element is the same sum
of the same three floats as a scan over the full matrix, so compaction
changes no byte of the result while shrinking every later gather.

When a batch of vertices is inserted, the faces to refresh are exactly
the live faces whose best vertex was inserted (``best == v``) plus the
new faces, so the update work stays proportional to the affected faces,
not to all faces, while the per-face scans run as one numpy gather per
round.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

_NEG_INF = float("-inf")

#: Compact the working matrix when the live columns drop below this share
#: of its width.
COMPACT_BELOW = 0.75


class GainTable:
    """Tracks the best remaining vertex for every live face (faces are int ids)."""

    def __init__(self, similarity: np.ndarray, remaining: Iterable[int]) -> None:
        similarity = np.asarray(similarity, dtype=float)
        n = similarity.shape[0]
        self._remaining_mask = np.zeros(n, dtype=bool)
        self._remaining_mask[list(remaining)] = True
        # Working similarity: one column per remaining vertex, ascending.
        self._columns = np.flatnonzero(self._remaining_mask)
        self._work = np.compress(self._remaining_mask, similarity, axis=1)
        self._num_remaining = int(self._columns.size)
        # Faces ever created by a TMFG on n vertices: 4 + 3 (n - 4).
        capacity = max(3 * n - 8, 4)
        self.corners = np.zeros((capacity, 3), dtype=np.int64)
        # Split faces and faces without a candidate hold gain -inf and
        # vertex -1, so a plain argmax over the gains never selects them.
        self.gain = np.full(capacity, _NEG_INF)
        self.vertex = np.full(capacity, -1, dtype=np.int64)
        self._alive = np.zeros(capacity, dtype=bool)
        self._size = 0
        self.num_faces = 0
        # Number of per-face gain recomputations.
        self.recompute_count = 0

    # -- queries -----------------------------------------------------------

    @property
    def num_remaining(self) -> int:
        return self._num_remaining

    def remaining_vertices(self) -> np.ndarray:
        return np.flatnonzero(self._remaining_mask)

    def is_remaining(self, vertex: int) -> bool:
        return bool(self._remaining_mask[vertex])

    def live_faces(self) -> np.ndarray:
        """Ids of the faces not yet split, ascending."""
        return np.flatnonzero(self._alive[: self._size])

    def best_for_face(self, face_id: int) -> Tuple[float, Optional[int]]:
        """Current ``(gain, vertex)`` of a face (vertex None if exhausted)."""
        vertex = int(self.vertex[face_id])
        return float(self.gain[face_id]), (vertex if vertex >= 0 else None)

    def select(self, prefix: int) -> Tuple[List[int], List[int]]:
        """Choose up to ``prefix`` (face ids, vertices) to insert this round.

        Lines 9–10 of Algorithm 1: the ``prefix`` largest pairs under
        ``VertexFacePair.sort_key`` (gain descending, then lowest vertex,
        then smallest sorted corners), keeping only the first (highest)
        pair of any vertex that appears with several faces, in that order.
        ``prefix=1`` is one ``argmax``, with the tie-break keys evaluated
        only on exact gain ties; otherwise ``argpartition`` narrows the
        candidates to the top ``prefix`` gains plus every exact tie at the
        boundary, and only those are fully ordered.  Both lists are empty
        when no face has a remaining candidate.
        """
        gains = self.gain[: self._size]
        if prefix == 1:
            face_id = int(gains.argmax())
            best = gains[face_id]
            if best == _NEG_INF:
                return [], []
            ties = (gains == best).nonzero()[0]
            if ties.size > 1:
                face_id = int(ties[self._tie_order(ties)[0]])
            return [face_id], [int(self.vertex[face_id])]
        candidates = np.flatnonzero(gains > _NEG_INF)
        if candidates.size > prefix:
            cut = candidates.size - prefix
            kth = np.argpartition(gains[candidates], cut)[cut]
            candidates = candidates[gains[candidates] >= gains[candidates[kth]]]
        top = candidates[self._tie_order(candidates, by_gain=True)][:prefix]
        _, first = np.unique(self.vertex[top], return_index=True)
        top = top[np.sort(first)]
        return top.tolist(), self.vertex[top].tolist()

    # -- updates -----------------------------------------------------------

    def add_faces(self, corners: Sequence[Sequence[int]]) -> np.ndarray:
        """Register faces (rows of sorted corners) with one bulk gain
        computation; returns their ids."""
        ids = self._register(corners)
        self._refresh(ids)
        return ids

    def split(self, face_ids: Sequence[int], vertices: Sequence[int]) -> int:
        """Insert ``vertices[i]`` into face ``face_ids[i]`` for every pair.

        Kills the split faces, marks the vertices inserted, registers the
        three child faces of every pair (ids as in the module docstring)
        and refreshes them together with every live face whose best vertex
        was just inserted, in one gather.  Returns the first new face id.
        Raises ``ValueError`` if a face is not live (splitting it again
        would register its children twice) or a vertex is not remaining.
        """
        children = []
        for face_id, vertex in zip(face_ids, vertices):
            if not self._alive[face_id]:
                raise ValueError(f"face {face_id} is not live")
            if not self._remaining_mask[vertex]:
                raise ValueError(f"vertex {vertex} is not in the remaining set")
            self._remaining_mask[vertex] = False
            self._alive[face_id] = False
            self.gain[face_id] = _NEG_INF
            self.vertex[face_id] = -1
            a, b, c = self.corners[face_id].tolist()
            children += [sorted((vertex, a, b)), sorted((vertex, b, c)), sorted((vertex, a, c))]
        self._work[:, np.searchsorted(self._columns, vertices)] = _NEG_INF
        self._num_remaining -= len(vertices)
        if self._num_remaining < COMPACT_BELOW * self._columns.size:
            keep = self._remaining_mask[self._columns]
            self._columns = self._columns[keep]
            self._work = np.compress(keep, self._work, axis=1)
        affected = self._affected(vertices)
        start = self._size
        self.num_faces -= len(vertices)
        self._refresh(np.concatenate((affected, self._register(children))))
        return start

    # -- internals ---------------------------------------------------------

    def _affected(self, vertices: Sequence[int]) -> np.ndarray:
        """Ids of the live faces whose best vertex is one of ``vertices``."""
        best = self.vertex[: self._size]
        if len(vertices) == 1:
            return (best == vertices[0]).nonzero()[0]
        return np.isin(best, vertices).nonzero()[0]

    def _register(self, corners: Sequence[Sequence[int]]) -> np.ndarray:
        start, stop = self._size, self._size + len(corners)
        self.corners[start:stop] = corners
        self._alive[start:stop] = True
        self._size = stop
        self.num_faces += stop - start
        return np.arange(start, stop)

    def _refresh(self, ids: np.ndarray) -> None:
        """Recompute the best remaining vertex of faces ``ids`` in one gather.

        The sum associates as ``(S[a] + S[b]) + S[c]`` and ``argmax`` takes
        the first (lowest-id) maximum, exactly like a per-face scan over
        the remaining vertices in increasing order.
        """
        self.recompute_count += int(ids.size)
        if self._num_remaining == 0:
            self.gain[ids] = _NEG_INF
            self.vertex[ids] = -1
            return
        corners = self.corners.take(ids, axis=0)
        gains = self._work.take(corners[:, 0], axis=0)
        gains += self._work.take(corners[:, 1], axis=0)
        gains += self._work.take(corners[:, 2], axis=0)
        self.vertex[ids] = self._columns.take(gains.argmax(axis=1))
        self.gain[ids] = gains.max(axis=1)

    def _tie_order(self, ids: np.ndarray, by_gain: bool = False) -> np.ndarray:
        """Positions of ``ids`` in descending ``sort_key`` order: (gain
        descending if ``by_gain``), lowest vertex, then smallest corners."""
        corners = self.corners[ids]
        keys = [corners[:, 2], corners[:, 1], corners[:, 0], self.vertex[ids]]
        if by_gain:
            keys.append(-self.gain[ids])
        return np.lexsort(keys)


class RescanGainTable(GainTable):
    """Gain table that refreshes *every* live face after each insertion.

    This reproduces the cost profile of the original TMFG implementation,
    which "loops over all of the faces to find the faces that previously
    had v as their best vertex" (Section IV) instead of touching only the
    affected ones.  It is used only by the ablation benchmark comparing the
    two update strategies; results are identical, only the amount of
    recomputation differs.
    """

    def _affected(self, vertices: np.ndarray) -> np.ndarray:
        return self.live_faces()

"""Gain table for TMFG construction.

For each triangular face ``t`` of the graph under construction, the TMFG
algorithm needs the *best vertex*: the not-yet-inserted vertex ``v`` that
maximises the gain ``sum_{u in t} S[u, v]`` of inserting ``v`` into ``t``
(Line 5 and Lines 15–16 of Algorithm 1).

The paper maintains, for each face, a sorted list of candidate vertices so
that the best vertex never has to be recomputed by scanning every face.
Here we keep, per face, only the current best ``(gain, vertex)`` pair plus a
reverse index ``vertex -> faces where it is currently best``; when a batch of
vertices is inserted, exactly the faces that pointed at them are refreshed.
The refresh itself goes through the ``"gain_update"`` kernel registry
(:mod:`repro.parallel.kernels`): the ``python`` kernel recomputes the
affected faces one at a time, while the ``numpy`` kernel stacks them into a
single ``(faces, remaining)`` gain matrix and takes one masked argmax per
row — the per-round cost becomes a handful of numpy calls regardless of how
many faces a batch touched.  Both kernels produce bit-identical tables.
This preserves the paper's key property — the update work is proportional
to the number of affected faces, not to all faces — while vectorising the
per-face scans away.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph.faces import Triangle, VertexFacePair, triangle_corners
from repro.parallel.kernels import get_kernel, register_kernel


class GainTable:
    """Tracks the best remaining vertex for every active face."""

    def __init__(
        self,
        similarity: np.ndarray,
        remaining: Iterable[int],
        kernel: Optional[str] = None,
    ) -> None:
        self._similarity = np.asarray(similarity, dtype=float)
        n = self._similarity.shape[0]
        self._remaining_mask = np.zeros(n, dtype=bool)
        for vertex in remaining:
            self._remaining_mask[vertex] = True
        # face -> (gain, vertex); vertex is None when no remaining vertex exists
        self._best: Dict[Triangle, Tuple[float, Optional[int]]] = {}
        # vertex -> set of faces whose current best vertex is that vertex
        self._best_of: Dict[int, Set[Triangle]] = {}
        # Number of gain recomputations performed (used by the ablation bench).
        self.recompute_count = 0
        # "python" / "numpy" bulk-update kernel; None = process-wide default.
        self._kernel = kernel

    # -- queries -----------------------------------------------------------

    @property
    def num_remaining(self) -> int:
        return int(self._remaining_mask.sum())

    def remaining_vertices(self) -> np.ndarray:
        return np.flatnonzero(self._remaining_mask)

    def is_remaining(self, vertex: int) -> bool:
        return bool(self._remaining_mask[vertex])

    @property
    def num_faces(self) -> int:
        return len(self._best)

    def faces(self) -> List[Triangle]:
        return list(self._best.keys())

    def best_for_face(self, face: Triangle) -> Tuple[float, Optional[int]]:
        """Current ``(gain, vertex)`` for ``face`` (vertex None if exhausted)."""
        return self._best[face]

    def best_pairs(self) -> List[VertexFacePair]:
        """All active faces' best vertex-face pairs (faces with no candidate skipped)."""
        pairs = []
        for face, (gain, vertex) in self._best.items():
            if vertex is not None:
                pairs.append(VertexFacePair(vertex=vertex, face=face, gain=gain))
        return pairs

    def argmax_pair(self) -> Optional[VertexFacePair]:
        """The single best pair under the ``VertexFacePair.sort_key`` order.

        Equivalent to ``max(self.best_pairs(), key=sort_key)`` but runs as
        one scan over the per-face bests with plain float comparisons — the
        tie-break keys are only evaluated on exact gain ties, which are rare
        with real-valued similarities.  This is the ``prefix=1`` round
        selection of TMFG construction, where it replaces building and
        sorting the full candidate list.  Returns ``None`` when no face has
        a remaining candidate.
        """
        best_gain = float("-inf")
        best_vertex: Optional[int] = None
        best_face: Optional[Triangle] = None
        for face, (gain, vertex) in self._best.items():
            if vertex is None:
                continue
            if best_vertex is None or gain > best_gain:
                best_gain, best_vertex, best_face = gain, vertex, face
            elif gain == best_gain:
                # sort_key orders by (gain, -vertex, descending corner
                # tuple); replicate it exactly on ties.
                if vertex < best_vertex or (
                    vertex == best_vertex
                    and tuple(-c for c in triangle_corners(face))
                    > tuple(-c for c in triangle_corners(best_face))
                ):
                    best_gain, best_vertex, best_face = gain, vertex, face
        if best_vertex is None:
            return None
        return VertexFacePair(vertex=best_vertex, face=best_face, gain=best_gain)

    # -- updates -----------------------------------------------------------

    def add_face(self, face: Triangle) -> None:
        """Register a new face and compute its best vertex."""
        self.add_faces([face])

    def add_faces(self, faces: Sequence[Triangle]) -> None:
        """Register a batch of new faces with one bulk gain computation."""
        for face in faces:
            if face in self._best:
                raise ValueError(f"face {set(face)} already registered")
        self._recompute_faces(list(faces))

    def remove_face(self, face: Triangle) -> None:
        """Remove a face (it has been split by a vertex insertion)."""
        gain, vertex = self._best.pop(face)
        if vertex is not None:
            faces_of_vertex = self._best_of.get(vertex)
            if faces_of_vertex is not None:
                faces_of_vertex.discard(face)

    def remove_vertices(self, vertices: Sequence[int]) -> List[Triangle]:
        """Mark vertices as inserted and refresh the faces that pointed at them.

        Returns the list of faces whose best vertex was recomputed, which is
        what the paper's Line 15 iterates over.
        """
        affected: Set[Triangle] = set()
        for vertex in vertices:
            if not self._remaining_mask[vertex]:
                raise ValueError(f"vertex {vertex} is not in the remaining set")
            self._remaining_mask[vertex] = False
            affected.update(self._best_of.pop(vertex, set()))
        # Only faces that still exist need a refresh.
        refreshed = [face for face in affected if face in self._best]
        self._recompute_faces(refreshed)
        return refreshed

    # -- internals ---------------------------------------------------------

    def _recompute_faces(self, faces: List[Triangle]) -> None:
        """Refresh a batch of faces through the selected gain-update kernel."""
        if not faces:
            return
        get_kernel("gain_update", self._kernel)(self, faces)

    def _recompute(self, face: Triangle) -> None:
        """Recompute the best remaining vertex for ``face`` with a numpy argmax."""
        self.recompute_count += 1
        previous = self._best.get(face)
        if previous is not None and previous[1] is not None:
            self._best_of.get(previous[1], set()).discard(face)
        remaining = np.flatnonzero(self._remaining_mask)
        if remaining.size == 0:
            self._best[face] = (float("-inf"), None)
            return
        a, b, c = triangle_corners(face)
        gains = (
            self._similarity[a, remaining]
            + self._similarity[b, remaining]
            + self._similarity[c, remaining]
        )
        index = int(np.argmax(gains))
        vertex = int(remaining[index])
        gain = float(gains[index])
        self._best[face] = (gain, vertex)
        self._best_of.setdefault(vertex, set()).add(face)


class RescanGainTable(GainTable):
    """Gain table that rescans *every* face after each insertion.

    This reproduces the behaviour of the original TMFG implementation, which
    "loops over all of the faces to find the faces that previously had v as
    their best vertex" (Section IV).  It is used only by the ablation
    benchmark comparing the two update strategies; results are identical,
    only the amount of recomputation differs.
    """

    def remove_vertices(self, vertices: Sequence[int]) -> List[Triangle]:
        removed = set()
        for vertex in vertices:
            if not self._remaining_mask[vertex]:
                raise ValueError(f"vertex {vertex} is not in the remaining set")
            self._remaining_mask[vertex] = False
            self._best_of.pop(vertex, None)
            removed.add(vertex)
        refreshed = [
            face
            for face, (_, vertex) in list(self._best.items())
            if vertex in removed or vertex is None
        ]
        self._recompute_faces(refreshed)
        return refreshed


# ---------------------------------------------------------------------------
# Gain-update kernels
# ---------------------------------------------------------------------------


def _gain_update_python(table: GainTable, faces: List[Triangle]) -> None:
    """Reference kernel: recompute each affected face on its own."""
    for face in faces:
        table._recompute(face)


def _gain_update_numpy(table: GainTable, faces: List[Triangle]) -> None:
    """Bulk kernel: one gain matrix, one argmax per affected face.

    Builds the ``(len(faces), len(remaining))`` gain matrix with three fancy
    gathers and reduces it row-wise; the additions associate exactly like the
    per-face kernel's (``(S[a] + S[b]) + S[c]``), so the resulting table is
    bit-identical.
    """
    table.recompute_count += len(faces)
    for face in faces:
        previous = table._best.get(face)
        if previous is not None and previous[1] is not None:
            table._best_of.get(previous[1], set()).discard(face)
    remaining = np.flatnonzero(table._remaining_mask)
    if remaining.size == 0:
        for face in faces:
            table._best[face] = (float("-inf"), None)
        return
    corners = np.array([triangle_corners(face) for face in faces], dtype=np.int64)
    similarity = table._similarity
    gains = (
        similarity[np.ix_(corners[:, 0], remaining)]
        + similarity[np.ix_(corners[:, 1], remaining)]
        + similarity[np.ix_(corners[:, 2], remaining)]
    )
    best_columns = np.argmax(gains, axis=1)
    best_vertices = remaining[best_columns]
    best_gains = gains[np.arange(len(faces)), best_columns]
    for face, vertex, gain in zip(faces, best_vertices.tolist(), best_gains.tolist()):
        table._best[face] = (float(gain), int(vertex))
        table._best_of.setdefault(int(vertex), set()).add(face)


register_kernel("gain_update", "python", _gain_update_python)
register_kernel("gain_update", "numpy", _gain_update_numpy)

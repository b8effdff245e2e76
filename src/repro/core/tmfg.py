"""Parallel (prefix-batched) TMFG construction — Algorithm 1.

The Triangulated Maximally Filtered Graph is built by starting from the
4-clique of the four vertices with the largest similarity row sums and then
repeatedly inserting an uninserted vertex into a triangular face, adding the
three edges from the vertex to the face's corners.  The sequential algorithm
inserts the single vertex-face pair with the largest gain per round; the
paper's parallel algorithm inserts up to ``prefix`` pairs per round, resolving
conflicts by keeping, for each vertex, only its highest-gain face.

``prefix=1`` reproduces the sequential TMFG exactly (up to tie-breaking),
which is what the tests check; larger prefixes trade a small amount of kept
edge weight for many fewer rounds (more parallelism), which is what Figs. 4,
6, and 7 evaluate.

Rounds
------
Faces are int ids into the :class:`~repro.core.gains.GainTable`'s arrays,
so a round touches only int arrays and one gather: select the batch
(``prefix=1`` is one ``argmax`` over the per-face best gains, ``prefix>1``
an ``argpartition`` to the top ``prefix`` pairs followed by the
keep-each-vertex's-best-face rule; both return exactly what sorting every
face's best pair would, tie-breaks included), record each pair's vertex
and face id, and let the table split the faces.  Nothing else is built
inside the loop.

After the loop
--------------
The edges go into a ``(3n - 6, 2)`` array in ``(vertex, corner)``
orientation, the clique's six edges first.  Face ids are handed out in
creation order (the clique's four faces ``0..3``, then three per
insertion), so the face id of each insertion says which bubble owns the
face and which vertex created it.  The bubble
tree (Algorithm 2) is derived from those ids in one pass: its parent
array, children in ascending id order, and vertex sets built in the
order the faces' corners arrived.  The CSR graph comes straight from the
edge array; a :class:`~repro.graph.weighted_graph.WeightedGraph` is built
only if a caller asks for ``TMFGResult.graph``.  Construction keeps no
state between calls, so the same similarity matrix always yields the same
graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bubble_tree import BubbleTree
from repro.core.gains import GainTable
from repro.graph.csr import CSRGraph
from repro.graph.faces import Triangle
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.weighted_graph import WeightedGraph


@dataclass(eq=False)
class TMFGResult:
    """Output of TMFG construction.

    ``edge_array`` holds the edges in insertion order (the initial
    clique's six edges first, then ``(vertex, corner)`` per insertion) and
    ``edge_weights`` their similarities in that orientation;
    ``inserted``/``inserted_faces`` record, per inserted vertex, the
    sorted corners of the face it went into; ``bubble_tree`` is the tree
    of Algorithm 2 when ``build_bubble_tree=True``; ``round_sizes`` holds
    the number of vertices each batched round inserted, and ``rounds``
    their count (the quantity ``rho`` in the paper's analysis).
    ``edges``, ``insertion_order`` and ``graph`` are the same
    data as Python lists and an adjacency-list graph, built on first use.
    """

    num_vertices: int
    edge_array: np.ndarray
    edge_weights: np.ndarray
    inserted: np.ndarray
    inserted_faces: np.ndarray
    initial_clique: Tuple[int, int, int, int]
    bubble_tree: Optional[BubbleTree]
    prefix: int
    round_sizes: List[int]

    @property
    def rounds(self) -> int:
        return len(self.round_sizes)

    @cached_property
    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u, v in self.edge_array.tolist()]

    @cached_property
    def insertion_order(self) -> List[Tuple[int, Triangle]]:
        return [
            (vertex, frozenset(face))
            for vertex, face in zip(self.inserted.tolist(), self.inserted_faces.tolist())
        ]

    @cached_property
    def graph(self) -> WeightedGraph:
        """The filtered graph as adjacency lists, edges added in insertion order."""
        graph = WeightedGraph(self.num_vertices)
        for (u, v), weight in zip(self.edge_array.tolist(), self.edge_weights.tolist()):
            graph.add_edge(u, v, weight)
        return graph

    def edge_weight_sum(self) -> float:
        """Total edge similarity, added by (lower endpoint, insertion index)
        as :meth:`WeightedGraph.edge_weight_sum` adds it."""
        order = np.argsort(self.edge_array.min(axis=1), kind="stable")
        return float(sum(self.edge_weights[order].tolist()))

    def weight(self, u: int, v: int) -> float:
        """Similarity of the edge ``(u, v)``; raises ``KeyError`` if absent."""
        return self._weights[(u, v)]

    def weighted_degree(self, u: int) -> float:
        """Sum of ``u``'s edge similarities, added in edge-insertion order."""
        return self._degrees[u]

    def csr(self) -> CSRGraph:
        """The filtered graph in CSR form, built once and memoized.

        DBHT reweights this topology with dissimilarities for the APSP, so
        freezing here keeps that at one fancy index instead of a full
        rebuild.
        """
        return self._csr

    @cached_property
    def _csr(self) -> CSRGraph:
        return CSRGraph.from_arrays(
            self.num_vertices, self.edge_array[:, 0], self.edge_array[:, 1], self.edge_weights
        )

    @cached_property
    def _weights(self) -> Dict[Tuple[int, int], float]:
        # Both orientations answer the weight as inserted: validated inputs
        # are symmetric only within a tolerance, so S[v, u] may differ.
        us, vs = self.edge_array.T.tolist()
        weights = self.edge_weights.tolist()
        lookup = dict(zip(zip(us, vs), weights))
        lookup.update(zip(zip(vs, us), weights))
        return lookup

    @cached_property
    def _degrees(self) -> List[float]:
        # The builtin sum over each vertex's weights in edge-insertion order,
        # as WeightedGraph.weighted_degree adds them: Python >= 3.12 sums
        # floats with compensation, so a numpy sum could differ there.
        incident: List[List[float]] = [[] for _ in range(self.num_vertices)]
        for (u, v), weight in zip(self.edge_array.tolist(), self.edge_weights.tolist()):
            incident[u].append(weight)
            incident[v].append(weight)
        return [float(sum(weights)) for weights in incident]


def _initial_clique(similarity: np.ndarray) -> List[int]:
    """The four vertices with the highest total similarity to all others."""
    row_sums = similarity.sum(axis=1) - np.diag(similarity)
    # argsort ascending; take the four largest, then order them by vertex id
    # for deterministic output.
    top_four = np.argsort(row_sums, kind="stable")[-4:]
    return sorted(int(v) for v in top_four)


def build_tmfg(similarity: np.ndarray, prefix: int, build_bubble_tree: bool) -> TMFGResult:
    """:func:`construct_tmfg` on a similarity matrix that is already validated."""
    n = similarity.shape[0]
    clique = _initial_clique(similarity)
    v1, v2, v3, v4 = clique
    table = GainTable(similarity, np.setdiff1d(np.arange(n), clique))
    # Face 0 is the outer face {v1, v2, v3}.
    table.add_faces([(v1, v2, v3), (v1, v2, v4), (v1, v3, v4), (v2, v3, v4)])

    inserted: List[int] = []
    faces: List[int] = []
    round_sizes: List[int] = []
    while table.num_remaining > 0:
        face_ids, vertices = table.select(prefix)
        if not face_ids:
            raise RuntimeError("no insertable vertex-face pair found; inconsistent gain table")
        inserted += vertices
        faces += face_ids
        round_sizes.append(len(face_ids))
        table.split(face_ids, vertices)

    inserted_array = np.array(inserted, dtype=np.int64)
    face_array = np.array(faces, dtype=np.int64)
    inserted_faces = table.corners[face_array]
    edges = np.empty((3 * n - 6, 2), dtype=np.int64)
    edges[:6] = [(v1, v2), (v1, v3), (v1, v4), (v2, v3), (v2, v4), (v3, v4)]
    edges[6:, 0] = np.repeat(inserted_array, 3)
    edges[6:, 1] = inserted_faces.ravel()
    return TMFGResult(
        num_vertices=n,
        edge_array=edges,
        edge_weights=similarity[edges[:, 0], edges[:, 1]],
        inserted=inserted_array,
        inserted_faces=inserted_faces,
        initial_clique=(v1, v2, v3, v4),
        bubble_tree=(
            _bubble_tree(clique, inserted, faces, inserted_faces.tolist())
            if build_bubble_tree
            else None
        ),
        prefix=prefix,
        round_sizes=round_sizes,
    )


def _bubble_tree(
    clique: List[int], inserted: List[int], faces: List[int], face_corners: List[List[int]]
) -> BubbleTree:
    """Algorithm 2 after the fact, from the face id of every insertion.

    Insertion ``j`` creates bubble ``j + 1`` and faces ``4 + 3j + (0, 1,
    2)``, so face ``f`` is owned by bubble ``0`` if ``f < 4`` and by
    ``(f - 4) // 3 + 1`` otherwise, and was created by vertex
    ``inserted[(f - 4) // 3]``.  An insertion into an inner face hangs the
    new bubble under the face's owner; an insertion into the outer face
    (face ``0``, then the first child face of each insertion into it)
    makes the new bubble the parent of the owner, i.e. the new root.
    """
    split_by = {face: j for j, face in enumerate(faces)}
    outer = set()
    face = 0
    while face in split_by:
        outer.add(split_by[face])
        face = 4 + 3 * split_by[face]
    parents = [-1]
    vertex_sets = [frozenset(clique)]
    for j, (vertex, face, (a, b, c)) in enumerate(zip(inserted, faces, face_corners)):
        owner = 0 if face < 4 else (face - 4) // 3 + 1
        if j in outer:
            parents[owner] = j + 1
            parents.append(-1)
        else:
            parents.append(owner)
        # The set is built the way the face grew: its creator first, then
        # its other corners ascending, then the new vertex.  A set's
        # iteration order follows insertion order on hash clashes, and
        # downstream sums run in that order.
        creator = inserted[(face - 4) // 3] if face >= 4 else a
        others = [corner for corner in (a, b, c) if corner != creator]
        vertex_sets.append(frozenset((creator, *others, vertex)))
    return BubbleTree(vertex_sets, parents)


def construct_tmfg(
    similarity: np.ndarray,
    prefix: int = 1,
    build_bubble_tree: bool = True,
) -> TMFGResult:
    """Build a TMFG (or its prefix-batched variant) from a similarity matrix.

    Parameters
    ----------
    similarity:
        Symmetric ``n x n`` similarity matrix (``n >= 4``).  Larger values
        mean "keep this edge"; typically a Pearson correlation matrix.
    prefix:
        Maximum number of vertices inserted per round (``PREFIX`` in
        Algorithm 1).  ``1`` gives the exact sequential TMFG.
    build_bubble_tree:
        Also build the DBHT bubble tree (Algorithm 2).
    """
    if prefix < 1:
        raise ValueError("prefix must be at least 1")
    return build_tmfg(validate_similarity_matrix(similarity), prefix, build_bubble_tree)

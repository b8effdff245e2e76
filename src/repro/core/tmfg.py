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

Selection
---------
Each round selects with :meth:`~repro.core.gains.GainTable.select`:
``prefix=1`` is one ``argmax`` over the per-face best gains, ``prefix>1``
an ``argpartition`` to the top ``prefix`` pairs followed by the
keep-each-vertex's-best-face rule.  Both return exactly what sorting every
face's best pair would, tie-breaks included (the tests keep that sort as
the oracle).  Construction keeps no state between calls, so the same
similarity matrix always yields the same graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bubble_tree import BubbleTree
from repro.core.gains import GainTable
from repro.graph.faces import Triangle, child_faces, triangle_corners, triangle_key
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.cost_model import WorkSpanTracker
from repro.parallel.scheduler import ParallelBackend


@dataclass
class TMFGResult:
    """Output of TMFG construction.

    ``graph`` is the filtered graph with similarity weights; ``edges`` is the
    edge list in insertion order (the initial clique's six edges first);
    ``bubble_tree`` is the tree built on the fly (Algorithm 2) when
    ``build_bubble_tree=True``; ``insertion_order`` records, per inserted
    vertex, the face it went into; ``rounds`` is the number of batched rounds
    (the quantity ``rho`` in the paper's analysis).
    """

    graph: WeightedGraph
    edges: List[Tuple[int, int]]
    initial_clique: Tuple[int, int, int, int]
    bubble_tree: Optional[BubbleTree]
    insertion_order: List[Tuple[int, Triangle]]
    prefix: int
    rounds: int
    tracker: WorkSpanTracker = field(default_factory=WorkSpanTracker)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def edge_weight_sum(self) -> float:
        return self.graph.edge_weight_sum()

    def csr(self):
        """The filtered graph frozen to CSR form, built once and memoized.

        DBHT reweights this topology with dissimilarities for the APSP, so
        freezing here keeps that at one fancy index instead of a full
        rebuild.
        """
        cached = getattr(self, "_csr_cache", None)
        if cached is None:
            cached = self.graph.to_csr()
            self._csr_cache = cached
        return cached


def _initial_clique(similarity: np.ndarray) -> List[int]:
    """The four vertices with the highest total similarity to all others."""
    row_sums = similarity.sum(axis=1) - np.diag(similarity)
    # argsort ascending; take the four largest, then order them by vertex id
    # for deterministic output.
    top_four = np.argsort(row_sums, kind="stable")[-4:]
    return sorted(int(v) for v in top_four)


class _TMFGBuilder:
    """Construction state: the graph, faces, gain table and bubble tree.

    :func:`construct_tmfg` drives it one selected batch per round; the
    tests drive it with a reference selection as an oracle.
    """

    def __init__(
        self,
        similarity: np.ndarray,
        clique: Sequence[int],
        build_bubble_tree: bool,
        tracker: WorkSpanTracker,
    ) -> None:
        n = similarity.shape[0]
        self.similarity = similarity
        self.tracker = tracker
        self.clique = tuple(int(v) for v in clique)
        v1, v2, v3, v4 = self.clique
        self.graph = WeightedGraph(n)
        self.edges: List[Tuple[int, int]] = []
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = self.clique[i], self.clique[j]
                self.graph.add_edge(u, v, similarity[u, v])
                self.edges.append((u, v))
        self.faces: Set[Triangle] = {
            triangle_key(v1, v2, v3),
            triangle_key(v1, v2, v4),
            triangle_key(v1, v3, v4),
            triangle_key(v2, v3, v4),
        }
        self.outer_face: Triangle = triangle_key(v1, v2, v3)
        remaining = [v for v in range(n) if v not in set(self.clique)]
        self.gain_table = GainTable(similarity, remaining)
        self.gain_table.add_faces(list(self.faces))
        # Initialisation: O(n^2) work for the row sums, O(n) for the gains.
        tracker.add(
            "tmfg", work=float(n * n + 4 * n), span=math.log2(n) + 1 if n > 1 else 1.0
        )
        self.bubble_tree = BubbleTree(self.clique, self.faces) if build_bubble_tree else None
        self.insertion_order: List[Tuple[int, Triangle]] = []
        self.rounds = 0

    def insert_round(self, batch: Sequence[Tuple[int, Triangle]]) -> None:
        """Insert one round's (vertex, face) batch and refresh the gain table."""
        num_faces = self.gain_table.num_faces
        num_remaining = self.gain_table.num_remaining
        # The batch's faces are distinct (one best vertex per face), so the
        # structural updates run per pair while the gain table is refreshed
        # once for the whole round: the faces whose best vertex was just
        # inserted and every newly created face, in one stacked gather.
        round_new_faces: List[Triangle] = []
        for vertex, face in batch:
            a, b, c = triangle_corners(face)
            for corner in (a, b, c):
                self.graph.add_edge(vertex, corner, self.similarity[vertex, corner])
                self.edges.append((vertex, corner))
            is_outer = face == self.outer_face
            if self.bubble_tree is not None:
                self.bubble_tree.insert(vertex, face, is_outer_face=is_outer)
            new_faces = child_faces(face, vertex)
            if is_outer:
                self.outer_face = new_faces[0]
            self.faces.discard(face)
            self.gain_table.remove_face(face)
            self.faces.update(new_faces)
            round_new_faces.extend(new_faces)
            self.insertion_order.append((vertex, face))
        self.gain_table.remove_vertices(
            [vertex for vertex, _ in batch], new_faces=round_new_faces
        )
        self.rounds += 1
        # Work: sorting the per-face gains plus recomputing gains for the
        # affected and newly-created faces (each a vectorised O(|V|) scan).
        affected = 3 * len(batch)
        round_work = float(
            num_faces * max(1.0, math.log2(max(num_faces, 2)))
            + affected * max(1, num_remaining)
        )
        round_span = math.log2(max(num_faces, 2)) + math.log2(max(len(batch), 2)) + 1.0
        self.tracker.add("tmfg", work=round_work, span=round_span)

    def result(self, prefix: int) -> TMFGResult:
        return TMFGResult(
            graph=self.graph,
            edges=self.edges,
            initial_clique=self.clique,
            bubble_tree=self.bubble_tree,
            insertion_order=self.insertion_order,
            prefix=prefix,
            rounds=self.rounds,
            tracker=self.tracker,
        )


def construct_tmfg(
    similarity: np.ndarray,
    prefix: int = 1,
    build_bubble_tree: bool = True,
    tracker: Optional[WorkSpanTracker] = None,
    backend: Optional[ParallelBackend] = None,
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
        Also build the DBHT bubble tree during construction (Algorithm 2).
    tracker:
        Optional :class:`WorkSpanTracker`; work/span counters for the
        construction are recorded under the phase name ``"tmfg"``.
    backend:
        Reserved for the thread-pool backend; per-round insertions are
        independent and can be dispatched through it.
    """
    if prefix < 1:
        raise ValueError("prefix must be at least 1")
    similarity = validate_similarity_matrix(similarity)
    tracker = tracker if tracker is not None else WorkSpanTracker()
    clique = _initial_clique(similarity)

    builder = _TMFGBuilder(similarity, clique, build_bubble_tree, tracker)
    while builder.gain_table.num_remaining > 0:
        pairs = builder.gain_table.select(prefix)
        if not pairs:
            raise RuntimeError(
                "no insertable vertex-face pair found; inconsistent gain table"
            )
        builder.insert_round([(pair.vertex, pair.face) for pair in pairs])
    return builder.result(prefix)

"""Compressed-sparse-row (CSR) representation of the filtered graph.

The adjacency-list :class:`~repro.graph.weighted_graph.WeightedGraph` is
convenient while the TMFG is *under construction* (edges arrive one batch at
a time), but every downstream consumer — APSP, weighted degrees, the DBHT
attachment scores — only ever *reads* the finished graph.  Freezing the
graph into three flat arrays

* ``indptr``  — ``int64``, shape ``(n + 1,)``: row offsets,
* ``indices`` — ``int64``, shape ``(2m,)``: neighbour ids, and
* ``weights`` — ``float64``, shape ``(2m,)``: edge weights,

mirrors the flat array layout the paper's C++/ParlayLib implementation uses
and is what makes the vectorised kernel in
:mod:`repro.graph.shortest_paths` possible: a round of its push frontier
expands every changed (vertex, source) cell over the vertex's row with one
``repeat``/``cumsum`` instead of per-edge Python tuples.

Both directions of every undirected edge are stored, and each row's
neighbours are sorted by vertex id, so row ``v`` lists the out-arcs of
``v``: exactly the arcs a changed cell of ``v`` is pushed over.

Validation happens at freeze time: ``min_weight`` is computed once (NaN if
any weight is NaN), so shortest-path routines can reject negative and NaN
weights *before* doing any traversal work instead of failing midway
through.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np


class CSRGraph:
    """Immutable undirected weighted graph in CSR (frozen) form."""

    __slots__ = ("indptr", "indices", "weights", "num_vertices", "min_weight")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must have the same shape")
        if int(self.indptr[-1]) != self.indices.size:
            raise ValueError("indptr[-1] must equal the number of stored arcs")
        self.num_vertices = int(self.indptr.size - 1)
        self.min_weight = float(self.weights.min()) if self.weights.size else 0.0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_weighted_graph(cls, graph: "WeightedGraph") -> "CSRGraph":  # noqa: F821
        """Freeze an adjacency-list graph into CSR form."""
        return cls.from_edges(
            graph.num_vertices,
            ((u, v, w) for u, v, w in graph.edges()),
        )

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Tuple[int, int, float]]
    ) -> "CSRGraph":
        """Build from ``(u, v, weight)`` triples (each undirected edge once)."""
        edge_list = list(edges)
        if not edge_list:
            empty = np.zeros(0, dtype=np.int64)
            return cls.from_arrays(num_vertices, empty, empty, np.zeros(0))
        arr = np.asarray(edge_list, dtype=np.float64)
        return cls.from_arrays(
            num_vertices, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), arr[:, 2]
        )

    @classmethod
    def from_arrays(
        cls, num_vertices: int, us: np.ndarray, vs: np.ndarray, weights: np.ndarray
    ) -> "CSRGraph":
        """Build from parallel endpoint and weight arrays (each undirected
        edge once, in either orientation)."""
        if us.size and (min(us.min(), vs.min()) < 0 or max(us.max(), vs.max()) >= num_vertices):
            raise IndexError("edge endpoint out of range")
        heads = np.concatenate([us, vs])
        tails = np.concatenate([vs, us])
        arc_weights = np.concatenate([weights, weights])
        # Sort arcs by (head, tail) so each row's neighbours are ordered.
        order = np.lexsort((tails, heads))
        heads, tails, arc_weights = heads[order], tails[order], arc_weights[order]
        counts = np.bincount(heads, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, tails, arc_weights)

    def reweighted(self, matrix: np.ndarray) -> "CSRGraph":
        """Same topology, weights looked up in a dense ``(n, n)`` matrix.

        This is how the DBHT swaps the TMFG's similarity weights for the
        dissimilarity weights without rebuilding the structure: one fancy
        index instead of a per-edge Python loop.  Both directions of an
        edge ``(u, v)`` take the *upper-triangle* entry
        ``matrix[min(u, v), max(u, v)]``, so the result stays an undirected
        graph even when ``matrix`` is asymmetric within float tolerance
        (matrix validators only require symmetry up to ``atol``).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (self.num_vertices, self.num_vertices):
            raise ValueError(
                f"expected a ({self.num_vertices}, {self.num_vertices}) matrix, "
                f"got {matrix.shape}"
            )
        heads = np.repeat(np.arange(self.num_vertices), np.diff(self.indptr))
        rows = np.minimum(heads, self.indices)
        cols = np.maximum(heads, self.indices)
        return CSRGraph(self.indptr, self.indices, matrix[rows, cols])

    # -- queries -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbour ids, weights)`` of ``u`` as array views."""
        self._check_vertex(u)
        start, stop = int(self.indptr[u]), int(self.indptr[u + 1])
        return self.indices[start:stop], self.weights[start:stop]

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree of every vertex in one segmented reduction."""
        result = np.zeros(self.num_vertices, dtype=np.float64)
        if self.weights.size:
            np.add.at(result, np.repeat(np.arange(self.num_vertices), self.degrees()), self.weights)
        return result

    def has_negative_weights(self) -> bool:
        return self.min_weight < 0.0

    def validate_non_negative(self) -> None:
        """Raise before any traversal work if a negative or NaN weight was
        frozen in (a NaN edge would otherwise never relax, as if absent)."""
        if np.isnan(self.min_weight):
            raise ValueError(
                "graph has NaN edge weights; shortest paths require "
                "non-negative weights"
            )
        if self.has_negative_weights():
            raise ValueError(
                "graph has negative edge weights "
                f"(min weight {self.min_weight}); shortest paths require "
                "non-negative weights"
            )

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self.num_vertices):
            start, stop = int(self.indptr[u]), int(self.indptr[u + 1])
            for v, weight in zip(self.indices[start:stop], self.weights[start:stop]):
                if u < int(v):
                    yield u, int(v), float(weight)

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        dense = np.full((self.num_vertices, self.num_vertices), fill, dtype=np.float64)
        np.fill_diagonal(dense, 0.0)
        if self.indices.size:
            heads = np.repeat(np.arange(self.num_vertices), self.degrees())
            dense[heads, self.indices] = self.weights
        return dense

    def to_weighted_graph(self) -> "WeightedGraph":  # noqa: F821
        """Thaw back into an adjacency-list graph."""
        from repro.graph.weighted_graph import WeightedGraph

        graph = WeightedGraph(self.num_vertices)
        for u, v, weight in self.edges():
            graph.add_edge(u, v, weight)
        return graph

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices, weights)`` triple (picklable payload)."""
        return self.indptr, self.indices, self.weights

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.num_vertices:
            raise IndexError(f"vertex {u} out of range [0, {self.num_vertices})")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"

"""Undirected weighted graph stored as adjacency lists.

The filtered graphs produced by TMFG/PMFG are sparse (3n - 6 edges), so the
DBHT phases (shortest paths, weighted degrees, attachment scores) operate on
this adjacency-list structure instead of the dense similarity matrix.
Vertices are integers ``0 .. n-1``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

Edge = Tuple[int, int]


class WeightedGraph:
    """Simple undirected weighted graph on vertices ``0 .. n-1``."""

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._num_vertices = num_vertices
        self._adjacency: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Tuple[int, int, float]]
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples."""
        graph = cls(num_vertices)
        for u, v, weight in edges:
            graph.add_edge(u, v, weight)
        return graph

    @classmethod
    def from_edge_list_and_matrix(
        cls, num_vertices: int, edges: Iterable[Edge], weights: np.ndarray
    ) -> "WeightedGraph":
        """Build a graph from an edge list, taking weights from a dense matrix."""
        graph = cls(num_vertices)
        for u, v in edges:
            graph.add_edge(u, v, float(weights[u, v]))
        return graph

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add (or overwrite) the undirected edge ``(u, v)``."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if v not in self._adjacency[u]:
            self._num_edges += 1
        self._adjacency[u][v] = float(weight)
        self._adjacency[v][u] = float(weight)

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of the edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_vertex(u)
        return self._adjacency[u][v]

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        self._check_vertex(u)
        return iter(self._adjacency[u].items())

    def neighbor_ids(self, u: int) -> List[int]:
        self._check_vertex(u)
        return list(self._adjacency[u].keys())

    def degree(self, u: int) -> int:
        """Number of edges incident to ``u``."""
        self._check_vertex(u)
        return len(self._adjacency[u])

    def weighted_degree(self, u: int) -> float:
        """Sum of the weights of edges incident to ``u``."""
        self._check_vertex(u)
        return float(sum(self._adjacency[u].values()))

    def weighted_degrees(self) -> np.ndarray:
        """Weighted degree of every vertex as an array."""
        return np.array(
            [self.weighted_degree(u) for u in range(self._num_vertices)], dtype=float
        )

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over undirected edges as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self._num_vertices):
            for v, weight in self._adjacency[u].items():
                if u < v:
                    yield u, v, weight

    def edge_weight_sum(self) -> float:
        """Total weight over all (undirected) edges."""
        return float(sum(weight for _, _, weight in self.edges()))

    def has_negative_weights(self) -> bool:
        """Whether any edge has a negative weight (O(m) scan)."""
        return any(
            weight < 0 for adjacency in self._adjacency for weight in adjacency.values()
        )

    def to_csr(self) -> "CSRGraph":
        """Freeze into an immutable :class:`~repro.graph.csr.CSRGraph`.

        The CSR form is what the vectorised shortest-path kernel operates
        on; freezing also validates the weights once (``min_weight``) so
        traversals can fail fast.
        """
        from repro.graph.csr import CSRGraph

        return CSRGraph.from_weighted_graph(self)

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Dense weight matrix (``fill`` where no edge exists, 0 on the diagonal)."""
        dense = np.full((self._num_vertices, self._num_vertices), fill, dtype=float)
        np.fill_diagonal(dense, 0.0)
        for u, v, weight in self.edges():
            dense[u, v] = weight
            dense[v, u] = weight
        return dense

    def copy(self) -> "WeightedGraph":
        clone = WeightedGraph(self._num_vertices)
        for u, v, weight in self.edges():
            clone.add_edge(u, v, weight)
        return clone

    def subgraph_without_vertices(self, removed: Iterable[int]) -> "WeightedGraph":
        """Copy of the graph with the given vertices' edges removed.

        Vertex ids are preserved (removed vertices simply become isolated),
        which keeps indexing simple for the BFS-based direction baseline.
        """
        removed_set = set(removed)
        clone = WeightedGraph(self._num_vertices)
        for u, v, weight in self.edges():
            if u not in removed_set and v not in removed_set:
                clone.add_edge(u, v, weight)
        return clone

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self._num_vertices:
            raise IndexError(f"vertex {u} out of range [0, {self._num_vertices})")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"WeightedGraph(n={self._num_vertices}, m={self._num_edges})"

"""Directing bubble-tree edges — Algorithm 3.

Every bubble-tree edge corresponds to a separating triangle of the TMFG; the
DBHT directs the edge towards the side (interior or exterior) to which the
triangle is more strongly connected.  The original algorithm runs a BFS per
separating triangle, Theta(n^2) work in total; the paper's algorithm
exploits the bubble-tree invariant (all descendants of an edge lie in the
interior of its separating triangle) to compute every direction in a single
post-order traversal, Theta(n) work.

Both algorithms are implemented here: :func:`compute_directions` is the
linear-work recursive/post-order version, and :func:`compute_directions_bfs`
is the original baseline, used for cross-validation in the tests and for the
ablation benchmark.

:func:`compute_directions` reads the graph only through ``weight(u, v)``
and ``weighted_degree(u)``.  The fit passes the
:class:`~repro.core.tmfg.TMFGResult` itself, which answers both from its
edge arrays: weights as inserted, and weighted degrees summed over each
vertex's edges in edge-insertion order with the builtin ``sum``, exactly
as a :class:`~repro.graph.weighted_graph.WeightedGraph` built edge by
edge adds them up (a CSR row sum runs in neighbour-id order and can
round differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Set

from repro.core.bubble_tree import BubbleTree
from repro.graph.traversal import reachable_set
from repro.graph.weighted_graph import WeightedGraph


class EdgeWeights(Protocol):
    """What :func:`compute_directions` reads from the filtered graph."""

    def weight(self, u: int, v: int) -> float: ...

    def weighted_degree(self, u: int) -> float: ...


@dataclass
class DirectionResult:
    """Directions of the bubble-tree edges.

    ``towards_child[b]`` is ``True`` when the edge between bubble ``b`` and
    its parent is directed parent -> ``b`` (i.e. ``INVAL > OUTVAL`` for the
    separating triangle), ``False`` when it is directed ``b`` -> parent.
    The root has no entry.  ``in_values``/``out_values`` record the two sums
    for inspection and testing.
    """

    towards_child: Dict[int, bool]
    in_values: Dict[int, float]
    out_values: Dict[int, float]

    def out_degree(self, tree: BubbleTree, bubble_id: int) -> int:
        """Out-degree of a bubble in the directed bubble tree."""
        degree = 0
        bubble = tree.bubble(bubble_id)
        if bubble.parent is not None and not self.towards_child[bubble_id]:
            degree += 1
        for child in bubble.children:
            if self.towards_child[child]:
                degree += 1
        return degree

    def converging_bubbles(self, tree: BubbleTree) -> List[int]:
        """Bubbles with no outgoing edges (the local cluster centres)."""
        return [
            bubble.id
            for bubble in tree.bubbles
            if self.out_degree(tree, bubble.id) == 0
        ]

    def directed_neighbors(self, tree: BubbleTree, bubble_id: int) -> List[int]:
        """Bubbles reachable from ``bubble_id`` by following one directed edge."""
        result = []
        bubble = tree.bubble(bubble_id)
        if bubble.parent is not None and not self.towards_child[bubble_id]:
            result.append(bubble.parent)
        for child in bubble.children:
            if self.towards_child[child]:
                result.append(child)
        return result

    def reachable_converging_bubbles(self, tree: BubbleTree) -> Dict[int, Set[int]]:
        """For every bubble, the set of converging bubbles it can reach.

        Mirrors the per-bubble BFS on Lines 5–6 of Algorithm 4.
        """
        converging = set(self.converging_bubbles(tree))
        reach: Dict[int, Set[int]] = {}
        for bubble in tree.bubbles:
            visited = {bubble.id}
            stack = [bubble.id]
            found: Set[int] = set()
            while stack:
                current = stack.pop()
                if current in converging:
                    found.add(current)
                for neighbor in self.directed_neighbors(tree, current):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        stack.append(neighbor)
            reach[bubble.id] = found
        return reach


def compute_directions(tree: BubbleTree, graph: EdgeWeights) -> DirectionResult:
    """Direct all bubble-tree edges in linear work (Algorithm 3).

    The traversal is post-order: each bubble returns to its parent the sum of
    edge weights from the corners of its separating triangle into its
    interior; the parent folds those sums into its own corner sums via
    ``WRITE_ADD`` semantics.  ``OUTVAL`` is derived from the weighted degrees
    as in the paper:  ``OUTVAL = deg(vx)+deg(vy)+deg(vz) - INVAL
    - 2 (w(vx,vy)+w(vx,vz)+w(vy,vz))``.  ``graph`` is a
    :class:`~repro.graph.weighted_graph.WeightedGraph` or a
    :class:`~repro.core.tmfg.TMFGResult`; both give the same bytes.
    """
    towards_child: Dict[int, bool] = {}
    in_values: Dict[int, float] = {}
    out_values: Dict[int, float] = {}
    # r[b] maps each corner of b's separating triangle to the accumulated
    # weight from that corner into b's interior.
    corner_sums: Dict[int, Dict[int, float]] = {}

    order = tree.topological_order()
    # Post-order: process children before parents.
    for bubble_id in reversed(order):
        bubble = tree.bubble(bubble_id)
        if bubble.parent is None:
            continue
        triangle = tree.separating_triangle(bubble_id)
        interior_vertex = tree.interior_vertex(bubble_id)
        sums = {corner: graph.weight(corner, interior_vertex) for corner in triangle}
        # Fold in the contributions of the children's interiors (they are
        # also in this bubble's interior).
        for child_id in bubble.children:
            child_sums = corner_sums.get(child_id, {})
            for corner, value in child_sums.items():
                if corner in sums:
                    sums[corner] += value
        corner_sums[bubble_id] = sums
        vx, vy, vz = sorted(triangle)
        in_value = sum(sums.values())
        triangle_weight = (
            graph.weight(vx, vy) + graph.weight(vx, vz) + graph.weight(vy, vz)
        )
        degree_sum = (
            graph.weighted_degree(vx)
            + graph.weighted_degree(vy)
            + graph.weighted_degree(vz)
        )
        out_value = degree_sum - in_value - 2.0 * triangle_weight
        in_values[bubble_id] = in_value
        out_values[bubble_id] = out_value
        towards_child[bubble_id] = in_value > out_value

    return DirectionResult(
        towards_child=towards_child, in_values=in_values, out_values=out_values
    )


def compute_directions_bfs(tree: BubbleTree, graph: WeightedGraph) -> DirectionResult:
    """Original quadratic-work direction computation (baseline).

    For every separating triangle, remove its three vertices from the graph,
    find the side containing the child bubble's interior vertex with a BFS,
    and sum the edge weights from the triangle's corners to each side.
    Produces the same directions as :func:`compute_directions`.
    """
    towards_child: Dict[int, bool] = {}
    in_values: Dict[int, float] = {}
    out_values: Dict[int, float] = {}
    for bubble in tree.bubbles:
        if bubble.parent is None:
            continue
        triangle = tree.separating_triangle(bubble.id)
        interior_seed = tree.interior_vertex(bubble.id)
        interior = reachable_set(graph, interior_seed, blocked=set(triangle))
        in_value = 0.0
        out_value = 0.0
        for corner in triangle:
            for neighbor, weight in graph.neighbors(corner):
                if neighbor in triangle:
                    continue
                if neighbor in interior:
                    in_value += weight
                else:
                    out_value += weight
        in_values[bubble.id] = in_value
        out_values[bubble.id] = out_value
        towards_child[bubble.id] = in_value > out_value
    return DirectionResult(
        towards_child=towards_child, in_values=in_values, out_values=out_values
    )

"""Directing bubble-tree edges — Algorithm 3.

Every bubble-tree edge corresponds to a separating triangle of the TMFG; the
DBHT directs the edge towards the side (interior or exterior) to which the
triangle is more strongly connected.  The original algorithm runs a BFS per
separating triangle, Theta(n^2) work in total; the paper's algorithm
exploits the bubble-tree invariant (all descendants of an edge lie in the
interior of its separating triangle) to compute every direction in a single
post-order traversal, Theta(n) work.

Both algorithms are implemented here: :func:`compute_directions` is the
linear-work post-order version, and :func:`compute_directions_bfs` is the
original baseline, used for cross-validation in the tests and for the
ablation benchmark.  The post-order takes each bubble's separating triangle
once and keeps its corners and corner sums in flat per-bubble lists.
Reachability (:meth:`DirectionResult.reachable_converging_bubbles`) is two
passes over the tree with memoised reach sets, not a DFS per bubble.

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
from typing import Dict, FrozenSet, List, Protocol, Tuple

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
        """Bubbles with no outgoing edges (the local cluster centres), by id."""
        tails = {
            bubble_id if not towards else tree.bubble(bubble_id).parent
            for bubble_id, towards in self.towards_child.items()
        }
        return [bubble_id for bubble_id in range(tree.num_bubbles) if bubble_id not in tails]

    def reachable_converging_bubbles(self, tree: BubbleTree) -> Dict[int, FrozenSet[int]]:
        """For every bubble, the set of converging bubbles it can reach
        (Lines 5–6 of Algorithm 4).

        The directed bubble tree is a DAG, and a path in a tree is unique:
        it climbs some edges, then descends.  So one post-order pass gathers
        ``below[b]``, the converging bubbles reached through ``b``'s
        downward edges (``{b}`` when ``b`` has no outgoing edge), and one
        pass from the root adds ``reach[parent]`` to every bubble whose edge
        points up: linear work up to the cost of the unions.  A set may be
        shared between bubbles, so they are frozen.  The result keys and
        the sets equal those of a DFS per bubble; nothing downstream depends
        on a set's iteration order (:func:`repro.core.assignment.assign_vertices`
        files each vertex under its reachable bubbles in vertex order).
        """
        towards_child = self.towards_child
        bubbles = tree.bubbles
        order = tree.topological_order()
        below: Dict[int, FrozenSet[int]] = {}
        for bubble_id in reversed(order):
            bubble = bubbles[bubble_id]
            heads = [below[child] for child in bubble.children if towards_child[child]]
            if heads:
                below[bubble_id] = frozenset().union(*heads)
            elif bubble.parent is None or towards_child[bubble_id]:
                below[bubble_id] = frozenset((bubble_id,))
            else:
                below[bubble_id] = frozenset()
        reach: Dict[int, FrozenSet[int]] = {}
        for bubble_id in order:
            parent = bubbles[bubble_id].parent
            if parent is None or towards_child[bubble_id]:
                reach[bubble_id] = below[bubble_id]
            else:
                reach[bubble_id] = below[bubble_id] | reach[parent]
        return {bubble_id: reach[bubble_id] for bubble_id in range(len(bubbles))}


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

    Every bubble's separating triangle is taken once, as the ``frozenset``
    it shares with its parent, and its corners and corner sums are kept as
    parallel lists in that set's iteration order, which is the order
    ``INVAL``'s builtin ``sum`` adds them in (Python 3.12's ``sum`` is
    compensated, so the order and the builtin both matter).  A child's
    sums fold into its parent's in ``bubble.children`` order.
    """
    weight = graph.weight
    degree = graph.weighted_degree
    bubbles = tree.bubbles
    corners: List[Tuple[int, ...]] = [()] * len(bubbles)
    sums: List[List[float]] = [[]] * len(bubbles)
    towards_child: Dict[int, bool] = {}
    in_values: Dict[int, float] = {}
    out_values: Dict[int, float] = {}
    for bubble_id in reversed(tree.topological_order()):
        bubble = bubbles[bubble_id]
        if bubble.parent is None:
            continue
        triangle = bubble.vertices & bubbles[bubble.parent].vertices
        (interior,) = bubble.vertices - triangle
        corners[bubble_id] = own = tuple(triangle)
        a, b, c = own
        # r[b]: the weight from each corner into b's interior, which holds
        # the children's interiors too.
        sums[bubble_id] = corner_sums = [
            weight(a, interior), weight(b, interior), weight(c, interior)
        ]
        for child_id in bubble.children:
            for corner, value in zip(corners[child_id], sums[child_id]):
                if corner in triangle:
                    corner_sums[own.index(corner)] += value
        vx, vy, vz = sorted(own)
        in_value = sum(corner_sums)
        triangle_weight = weight(vx, vy) + weight(vx, vz) + weight(vy, vz)
        degree_sum = degree(vx) + degree(vy) + degree(vz)
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

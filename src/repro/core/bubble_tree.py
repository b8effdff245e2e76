"""Bubble tree construction (Algorithm 2).

A *bubble* is a maximal planar subgraph whose 3-cliques are non-separating;
in a graph built by the TMFG process every bubble is a 4-clique, and each
vertex insertion creates exactly one new bubble and one new bubble-tree edge
whose separating triangle is the face the vertex was inserted into.  The
tree therefore follows from the TMFG's insertion record instead of the
original DBHT's quadratic-work triangle enumeration:
:func:`repro.core.tmfg.build_tmfg` derives every bubble's parent from the
int id of the face each vertex went into, after the construction loop,
and :class:`BubbleTree` assembles the tree from that parent array in one
pass.

Invariant maintained (Section V-A): every bubble has a parent and at most
three children, except the root which has no parent, and all descendants of
a tree edge lie in the interior of the edge's separating triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.graph.faces import Triangle


@dataclass
class Bubble:
    """One node of the bubble tree: a 4-clique of the TMFG."""

    id: int
    vertices: FrozenSet[int]
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    def separating_triangle_with_parent(self, parent_vertices: FrozenSet[int]) -> Triangle:
        """The three vertices shared with the parent bubble."""
        shared = self.vertices & parent_vertices
        if len(shared) != 3:
            raise ValueError(
                f"bubble {self.id} shares {len(shared)} vertices with its parent, expected 3"
            )
        return frozenset(shared)


class BubbleTree:
    """Rooted bubble tree: one 4-clique bubble per node.

    Built in one pass from every bubble's vertex set and parent id (``-1``
    for the root).  Each bubble's children come out in ascending id order,
    which is the order the incremental Algorithm 2 appends them in: a new
    bubble is always the highest id so far, and a new root's first child
    is the old root.
    """

    def __init__(self, vertex_sets: Sequence[FrozenSet[int]], parents: Sequence[int]) -> None:
        if len(vertex_sets) != len(parents):
            raise ValueError("need one parent per bubble")
        self._bubbles: List[Bubble] = []
        self._vertex_bubbles: Dict[int, List[int]] = {}
        roots = []
        for bubble_id, (vertices, parent) in enumerate(zip(vertex_sets, parents)):
            if len(vertices) != 4:
                raise ValueError(f"bubble {bubble_id} must have 4 vertices, got {len(vertices)}")
            if parent < 0:
                roots.append(bubble_id)
            self._bubbles.append(
                Bubble(id=bubble_id, vertices=vertices, parent=parent if parent >= 0 else None)
            )
            for member in vertices:
                self._vertex_bubbles.setdefault(member, []).append(bubble_id)
        if len(roots) != 1:
            raise ValueError(f"a bubble tree has exactly one root, found {roots}")
        self._root_id = roots[0]
        for bubble in self._bubbles:
            if bubble.parent is not None:
                self._bubbles[bubble.parent].children.append(bubble.id)

    # -- queries -----------------------------------------------------------

    @property
    def root_id(self) -> int:
        return self._root_id

    @property
    def num_bubbles(self) -> int:
        return len(self._bubbles)

    def bubble(self, bubble_id: int) -> Bubble:
        return self._bubbles[bubble_id]

    @property
    def bubbles(self) -> Tuple[Bubble, ...]:
        return tuple(self._bubbles)

    def bubbles_of_vertex(self, vertex: int) -> List[int]:
        """Ids of the bubbles containing a graph vertex."""
        return list(self._vertex_bubbles.get(vertex, []))

    def separating_triangle(self, bubble_id: int) -> Triangle:
        """Separating triangle of the tree edge between a bubble and its parent."""
        bubble = self._bubbles[bubble_id]
        if bubble.parent is None:
            raise ValueError(f"bubble {bubble_id} is the root and has no parent edge")
        parent = self._bubbles[bubble.parent]
        return bubble.separating_triangle_with_parent(parent.vertices)

    def interior_vertex(self, bubble_id: int) -> int:
        """The vertex of a non-root bubble not shared with its parent."""
        bubble = self._bubbles[bubble_id]
        triangle = self.separating_triangle(bubble_id)
        remainder = bubble.vertices - triangle
        if len(remainder) != 1:
            raise ValueError("bubble does not differ from its parent by exactly one vertex")
        return next(iter(remainder))

    def edges(self) -> List[Tuple[int, int]]:
        """Tree edges as ``(parent_id, child_id)`` pairs."""
        result = []
        for bubble in self._bubbles:
            if bubble.parent is not None:
                result.append((bubble.parent, bubble.id))
        return result

    def topological_order(self) -> List[int]:
        """Bubble ids from the root downwards (parents before children)."""
        order: List[int] = []
        stack = [self._root_id]
        while stack:
            bubble_id = stack.pop()
            order.append(bubble_id)
            stack.extend(self._bubbles[bubble_id].children)
        return order

    def descendants_vertices(self, bubble_id: int) -> Set[int]:
        """All graph vertices in the subtree rooted at ``bubble_id``."""
        vertices: Set[int] = set()
        stack = [bubble_id]
        while stack:
            current = self._bubbles[stack.pop()]
            vertices.update(current.vertices)
            stack.extend(current.children)
        return vertices

    def height(self) -> int:
        """Height (number of edges on the longest root-to-leaf path)."""
        depths = {self._root_id: 0}
        best = 0
        for bubble_id in self.topological_order():
            depth = depths[bubble_id]
            best = max(best, depth)
            for child in self._bubbles[bubble_id].children:
                depths[child] = depth + 1
        return best

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if the structural invariants are violated."""
        roots = [b.id for b in self._bubbles if b.parent is None]
        assert roots == [self._root_id], f"expected a single root, found {roots}"
        for bubble in self._bubbles:
            assert len(bubble.vertices) == 4, "every bubble must be a 4-clique"
            assert len(bubble.children) <= 3, "a bubble has at most three children"
            for child_id in bubble.children:
                child = self._bubbles[child_id]
                assert child.parent == bubble.id
                assert len(child.vertices & bubble.vertices) == 3, (
                    "a bubble shares exactly 3 vertices with its parent"
                )

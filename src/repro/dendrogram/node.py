"""The dendrogram (binary merge tree) data structure.

Leaves are numbered ``0 .. n-1`` and internal nodes ``n .. 2n-2`` in the
order they are created, mirroring the scipy linkage convention.  Each
internal node stores the *height* displayed in the dendrogram and the raw
*merge distance* used when the merge was decided; the DBHT algorithm
re-assigns heights after building the tree (Section V-D), so the two may
differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass
class DendrogramNode:
    """One node of a dendrogram.

    ``left``/``right`` are ``None`` for leaves.  ``size`` is the number of
    leaves in the subtree.
    """

    id: int
    left: Optional[int] = None
    right: Optional[int] = None
    height: float = 0.0
    distance: float = 0.0
    size: int = 1
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class Dendrogram:
    """A full binary merge tree over ``num_leaves`` objects."""

    def __init__(self, num_leaves: int) -> None:
        if num_leaves < 1:
            raise ValueError("a dendrogram needs at least one leaf")
        self.num_leaves = num_leaves
        self._nodes: List[DendrogramNode] = [
            DendrogramNode(id=i) for i in range(num_leaves)
        ]

    # -- construction ------------------------------------------------------

    def merge(
        self,
        left: int,
        right: int,
        height: float,
        distance: Optional[float] = None,
        **metadata: object,
    ) -> int:
        """Create an internal node joining subtrees ``left`` and ``right``.

        Returns the id of the new node.  ``distance`` defaults to ``height``.
        """
        nodes = self._nodes
        new_id = len(nodes)
        if left == right:
            raise ValueError("cannot merge a node with itself")
        for node_id in (left, right):
            if not 0 <= node_id < new_id:
                raise IndexError(f"unknown node id {node_id}")
        nodes.append(
            DendrogramNode(
                new_id,
                left,
                right,
                float(height),
                float(height if distance is None else distance),
                nodes[left].size + nodes[right].size,
                metadata,
            )
        )
        return new_id

    # -- queries -----------------------------------------------------------

    def node(self, node_id: int) -> DendrogramNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> Sequence[DendrogramNode]:
        return tuple(self._nodes)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_internal(self) -> int:
        return len(self._nodes) - self.num_leaves

    @property
    def is_complete(self) -> bool:
        """True if all leaves have been merged into a single tree."""
        return len(self._nodes) == 2 * self.num_leaves - 1

    @property
    def root(self) -> int:
        """Id of the root node (requires a complete dendrogram)."""
        if not self.is_complete:
            raise ValueError("dendrogram is not complete; no unique root")
        return len(self._nodes) - 1

    def leaves_under(self, node_id: int) -> List[int]:
        """All leaf ids in the subtree rooted at ``node_id``."""
        result: List[int] = []
        stack = [node_id]
        while stack:
            current = self._nodes[stack.pop()]
            if current.is_leaf:
                result.append(current.id)
            else:
                stack.append(current.left)  # type: ignore[arg-type]
                stack.append(current.right)  # type: ignore[arg-type]
        return result

    def internal_nodes(self) -> Iterator[DendrogramNode]:
        """Iterate over internal nodes in creation order."""
        for node in self._nodes[self.num_leaves:]:
            yield node

    def parent_map(self) -> Dict[int, int]:
        """Map from node id to parent id (root absent)."""
        parents: Dict[int, int] = {}
        for node in self.internal_nodes():
            parents[node.left] = node.id  # type: ignore[index]
            parents[node.right] = node.id  # type: ignore[index]
        return parents

    def heights_monotone(self, tolerance: float = 1e-9) -> bool:
        """Check that every child's height is at most its parent's height."""
        for node in self.internal_nodes():
            for child_id in (node.left, node.right):
                child = self._nodes[child_id]  # type: ignore[index]
                if not child.is_leaf and child.height > node.height + tolerance:
                    return False
        return True

    def set_height(self, node_id: int, height: float) -> None:
        """Overwrite the displayed height of a node (used by DBHT)."""
        self._nodes[node_id].height = float(height)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Dendrogram(leaves={self.num_leaves}, nodes={len(self._nodes)})"

"""Triangular faces of the filtered graph under construction.

TMFG construction maintains the set of triangular faces of the growing
maximal planar graph; every vertex insertion removes one face and creates
three.  Here a face is identified by the frozenset of its three corner
vertices, which is sufficient because a maximal planar graph built by the
TMFG process never creates two distinct faces with the same corner set.
The production construction keeps faces as int ids in flat arrays
(:mod:`repro.core.gains`); these helpers name faces for the bubble tree's
separating triangles, the insertion record and the reference builder the
tests compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

Triangle = FrozenSet[int]


def triangle_key(a: int, b: int, c: int) -> Triangle:
    """Canonical identifier for the triangular face with corners ``a, b, c``."""
    if a == b or b == c or a == c:
        raise ValueError(f"triangle corners must be distinct, got ({a}, {b}, {c})")
    return frozenset((a, b, c))


def triangle_corners(triangle: Triangle) -> Tuple[int, int, int]:
    """Corners of a triangle in sorted order."""
    corners = tuple(sorted(triangle))
    if len(corners) != 3:
        raise ValueError(f"expected 3 distinct corners, got {set(triangle)}")
    return corners  # type: ignore[return-value]


def child_faces(triangle: Triangle, vertex: int) -> Tuple[Triangle, Triangle, Triangle]:
    """The three faces created by inserting ``vertex`` into ``triangle``."""
    a, b, c = triangle_corners(triangle)
    if vertex in (a, b, c):
        raise ValueError(f"vertex {vertex} is already a corner of the face")
    return (
        triangle_key(vertex, a, b),
        triangle_key(vertex, b, c),
        triangle_key(vertex, a, c),
    )


@dataclass(frozen=True)
class VertexFacePair:
    """A candidate insertion of ``vertex`` into ``face`` with the given gain."""

    vertex: int
    face: Triangle
    gain: float

    def sort_key(self) -> Tuple[float, int, Tuple[int, int, int]]:
        """Key for descending-gain ordering with deterministic tie-breaks."""
        return (self.gain, -self.vertex, tuple(-c for c in triangle_corners(self.face)))

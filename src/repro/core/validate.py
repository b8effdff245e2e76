"""Structural validation of pipeline outputs.

These checks encode the invariants the paper's algorithms guarantee; they
are cheap relative to the pipeline itself and are useful both in tests and
as a safety net for downstream users who modify the inputs or the
configuration (``validate_pipeline_result(result)`` raises
:class:`ValidationError` with a precise message if anything is off).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.dbht import DBHTResult
from repro.core.pipeline import PipelineResult
from repro.core.tmfg import TMFGResult


class ValidationError(AssertionError):
    """Raised when a pipeline artefact violates a documented invariant."""


def validate_tmfg_result(tmfg: TMFGResult) -> List[str]:
    """Check the TMFG structural invariants; returns the list of checks run."""
    checks = []
    n = tmfg.graph.num_vertices
    expected_edges = 3 * n - 6
    if tmfg.graph.num_edges != expected_edges:
        raise ValidationError(
            f"TMFG has {tmfg.graph.num_edges} edges, expected {expected_edges}"
        )
    checks.append("edge count is 3n-6")

    inserted = [vertex for vertex, _ in tmfg.insertion_order]
    covered = sorted(inserted + list(tmfg.initial_clique))
    if covered != list(range(n)):
        raise ValidationError("insertion order plus initial clique does not cover all vertices")
    checks.append("every vertex inserted exactly once")

    if tmfg.bubble_tree is not None:
        if tmfg.bubble_tree.num_bubbles != n - 3:
            raise ValidationError(
                f"bubble tree has {tmfg.bubble_tree.num_bubbles} bubbles, expected {n - 3}"
            )
        try:
            tmfg.bubble_tree.check_invariants()
        except AssertionError as error:
            raise ValidationError(f"bubble tree invariant violated: {error}") from error
        checks.append("bubble tree invariants hold")
    return checks


def validate_dbht_result(result: DBHTResult, num_vertices: Optional[int] = None) -> List[str]:
    """Check the DBHT output invariants; returns the list of checks run."""
    checks = []
    dendrogram = result.dendrogram
    if num_vertices is not None and dendrogram.num_leaves != num_vertices:
        raise ValidationError(
            f"dendrogram has {dendrogram.num_leaves} leaves, expected {num_vertices}"
        )
    if not dendrogram.is_complete:
        raise ValidationError("dendrogram is not complete")
    checks.append("dendrogram is complete")
    if not dendrogram.heights_monotone():
        raise ValidationError("dendrogram heights are not monotone")
    checks.append("dendrogram heights are monotone")

    group = result.assignment.group
    bubble = result.assignment.bubble
    if np.any(group < 0) or np.any(bubble < 0):
        raise ValidationError("some vertices have no group or bubble assignment")
    checks.append("every vertex assigned to a group and a bubble")
    if not set(np.unique(group)) <= set(result.assignment.converging_bubbles):
        raise ValidationError("a group assignment refers to a non-converging bubble")
    checks.append("groups are converging bubbles")

    distances = result.shortest_paths
    if distances.shape[0] != dendrogram.num_leaves:
        raise ValidationError("shortest-path matrix size does not match the dendrogram")
    if np.any(np.diag(distances) != 0.0):
        raise ValidationError("shortest-path matrix has a non-zero diagonal")
    if not np.all(np.isfinite(distances)):
        raise ValidationError("shortest-path matrix has unreachable pairs (TMFG must be connected)")
    checks.append("shortest paths are finite with a zero diagonal")
    return checks


def validate_pipeline_result(result: PipelineResult) -> List[str]:
    """Validate a full TMFG + DBHT pipeline result; returns the checks run."""
    checks = validate_tmfg_result(result.tmfg)
    checks += validate_dbht_result(result.dbht, num_vertices=result.tmfg.graph.num_vertices)
    return checks

"""Core algorithms from the paper.

* :mod:`repro.core.tmfg` — Algorithm 1: prefix-batched parallel TMFG
  construction (``prefix=1`` reproduces the sequential TMFG exactly).
* :mod:`repro.core.bubble_tree` — Algorithm 2: bubble tree derived from the
  TMFG's insertion record in one pass after construction.
* :mod:`repro.core.direction` — Algorithm 3: linear-work recursive direction
  of bubble-tree edges, plus the original BFS-based baseline.
* :mod:`repro.core.assignment` — Lines 1–23 of Algorithm 4: converging
  bubbles, group and bubble assignment of vertices.
* :mod:`repro.core.hierarchy` — Lines 24–33 of Algorithm 4: three-level
  complete linkage and dendrogram-height reassignment.
* :mod:`repro.core.dbht` — the full parallel DBHT for TMFG.
* :mod:`repro.core.pipeline` — one-call public API (``tmfg_dbht``).
"""

from repro.core.assignment import AssignmentResult, assign_vertices
from repro.core.bubble_tree import Bubble, BubbleTree
from repro.core.dbht import DBHTResult, dbht
from repro.core.direction import compute_directions, compute_directions_bfs
from repro.core.gains import GainTable
from repro.core.hierarchy import build_hierarchy
from repro.core.pipeline import tmfg_dbht
from repro.core.tmfg import TMFGResult, construct_tmfg
from repro.core.validate import (
    ValidationError,
    validate_dbht_result,
    validate_pipeline_result,
    validate_tmfg_result,
)

__all__ = [
    "AssignmentResult",
    "assign_vertices",
    "Bubble",
    "BubbleTree",
    "DBHTResult",
    "dbht",
    "compute_directions",
    "compute_directions_bfs",
    "GainTable",
    "build_hierarchy",
    "tmfg_dbht",
    "TMFGResult",
    "construct_tmfg",
    "ValidationError",
    "validate_dbht_result",
    "validate_pipeline_result",
    "validate_tmfg_result",
]

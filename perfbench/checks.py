"""Output checks: a benchmark run whose outputs are wrong is not a result.

Each check returns a list of failure messages; an empty list passes.
Served results are compared as the JSON bytes a client receives.  A
cache hit serves the stored fit verbatim, so JSON and binary hits on one
server must agree byte for byte, timings included.  A fleet replica or a
direct estimator fit computes its own copy, so against those only the
deterministic part is compared: everything except ``step_seconds``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np


def result_bytes(result: Mapping[str, Any]) -> bytes:
    return json.dumps(result).encode("utf-8")


def deterministic_bytes(result: Mapping[str, Any]) -> bytes:
    return json.dumps({k: v for k, v in result.items() if k != "step_seconds"}).encode("utf-8")


def same_labels(name: str, expected: np.ndarray, actual: np.ndarray) -> List[str]:
    expected, actual = np.asarray(expected), np.asarray(actual)
    if expected.shape == actual.shape and np.array_equal(expected, actual):
        return []
    return [f"{name}: labels differ ({int(np.sum(expected != actual))} of {expected.size})"]


def served_matches(
    name: str,
    reference: Mapping[str, Any],
    served: Iterable[Optional[Mapping[str, Any]]],
    identical_to: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """Every served result equals the direct fit ``reference`` (deterministic
    part), and byte for byte ``identical_to`` when given."""
    failures = []
    want = deterministic_bytes(reference)
    for index, result in enumerate(served):
        if result is None:
            failures.append(f"{name}[{index}]: no successful reply to check")
            continue
        if deterministic_bytes(result) != want:
            failures.append(f"{name}[{index}]: served result differs from the direct estimator fit")
        if identical_to is not None and result_bytes(result) != result_bytes(identical_to):
            failures.append(f"{name}[{index}]: not byte-identical across transports")
    return failures


def full_hit_rate(name: str, cache_delta: Dict[str, float]) -> List[str]:
    hits, misses = cache_delta.get("cache.hits", 0), cache_delta.get("cache.misses", 0)
    if hits > 0 and misses == 0:
        return []
    return [f"{name}: cache hit rate {hits}/{hits + misses} after warm-up, expected 1.0"]

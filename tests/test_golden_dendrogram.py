"""Golden pin of the whole DBHT back half: every dendrogram node and the
vertex assignment of fixed-seed ``tmfg_dbht`` fits.

``tests/golden/dbht_dendrograms.json`` holds, per case, the ``group``,
``bubble`` and ``assigned_directly`` arrays of the assignment and every
internal dendrogram node as ``[left, right, size, height, distance,
metadata]``
with the two floats as hex strings.  The cases are random similarity
matrices (n in {4, 5, 60, 200}) and tie-heavy ones (dyadic-quantised
similarities, duplicate series, a constant series), each at prefix 1 and
5.  The test refits every case and compares the serialised snapshot with
the committed text byte for byte.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m tests.test_golden_dendrogram --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.datasets.similarity import similarity_and_dissimilarity
from repro.datasets.synthetic import make_time_series_dataset
from tests.conftest import random_similarity_matrix

GOLDEN_PATH = Path(__file__).parent / "golden" / "dbht_dendrograms.json"

PREFIXES = (1, 5)


def _dyadic(n: int, seed: int, step: float) -> np.ndarray:
    """A random similarity matrix rounded to multiples of ``step`` (a power
    of two), so gains and path lengths tie exactly."""
    similarity = np.round(random_similarity_matrix(n, seed) / step) * step
    np.fill_diagonal(similarity, 1.0)
    return similarity


def _series_similarity(kind: str) -> np.ndarray:
    data = make_time_series_dataset(
        num_objects=30, length=40, num_classes=3, noise=0.9, seed=5
    ).data.copy()
    if kind == "duplicate_rows":
        data[[4, 7, 19]] = data[0]
        data[11] = data[10]
    else:
        data[5] = 2.5
    return similarity_and_dissimilarity(data)[0]


def _cases():
    for n in (4, 5, 60, 200):
        yield f"random_n{n}", lambda n=n: random_similarity_matrix(n, seed=n)
    yield "dyadic_quarter_n40", lambda: _dyadic(40, 3, 0.25)
    yield "dyadic_half_n60", lambda: _dyadic(60, 8, 0.5)
    yield "duplicate_rows", lambda: _series_similarity("duplicate_rows")
    yield "constant_row", lambda: _series_similarity("constant_row")


CASES = {
    f"{name}-prefix{prefix}": (make, prefix)
    for name, make in _cases()
    for prefix in PREFIXES
}


def _snapshot(name: str) -> dict:
    make, prefix = CASES[name]
    result = tmfg_dbht(make(), prefix=prefix)
    assignment = result.dbht.assignment
    return {
        "case": name,
        "group": [int(v) for v in assignment.group],
        "bubble": [int(v) for v in assignment.bubble],
        "assigned_directly": [bool(v) for v in assignment.assigned_directly],
        "leaves": result.dendrogram.num_leaves,
        "nodes": [
            [
                node.left,
                node.right,
                node.size,
                node.height.hex(),
                node.distance.hex(),
                node.metadata,
            ]
            for node in result.dendrogram.internal_nodes()
        ],
    }


def _dumps(snapshot: dict) -> str:
    """One case as committed: one line per node, so a diff names the node."""
    head = {key: value for key, value in snapshot.items() if key != "nodes"}
    nodes = ",\n".join("  " + json.dumps(node) for node in snapshot["nodes"])
    return json.dumps(head)[:-1] + ', "nodes": [\n' + nodes + "\n]}"


def _load() -> dict:
    chunks = GOLDEN_PATH.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
    return {json.loads(chunk)["case"]: chunk for chunk in chunks}


GOLDEN = _load() if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_back_half_matches_the_golden_pin(name):
    assert _dumps(_snapshot(name)) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


def _regenerate() -> None:
    text = "\n\n".join(_dumps(_snapshot(name)) for name in sorted(CASES)) + "\n"
    GOLDEN_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

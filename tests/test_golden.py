"""Golden regression tests: fixed-seed end-to-end ``tmfg_dbht`` snapshots.

The snapshots under ``tests/golden/`` pin the TMFG edge list, initial
clique, insertion order, and flat cut labels of fixed-seed runs.  The test
recomputes each case twice, once with the production APSP (the ``numpy``
frontier kernel) and once with the array-heap Dijkstra oracle (``python``)
swapped into the DBHT, checks the production APSP matrix against the
oracle's byte for byte, and asserts byte-identical agreement with the
committed JSON (exact integer equality, no tolerances), so any silent
numerical drift in the gain updates, the APSP kernel, or the hierarchy
construction fails loudly.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python -m tests.test_golden --regenerate
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core.pipeline import tmfg_dbht
from repro.datasets.similarity import default_dissimilarity, similarity_and_dissimilarity
from repro.datasets.stocks import generate_regime_switching_stream
from repro.datasets.synthetic import make_time_series_dataset
from repro.graph.shortest_paths import all_pairs_shortest_paths
from tests.oracles import heap_apsp

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "time_series_prefix1": {"prefix": 1, "clusters": 3},
    "time_series_prefix5": {"prefix": 5, "clusters": 4},
    "regime_stream_window": {"prefix": 1, "clusters": 5},
}

#: The APSP a case is fitted with: the production frontier kernel, or the
#: heap oracle in its place.
APSP = {"numpy": all_pairs_shortest_paths, "python": heap_apsp}


def _case_similarity(name: str) -> np.ndarray:
    if name.startswith("time_series"):
        dataset = make_time_series_dataset(
            num_objects=36, length=48, num_classes=3, noise=0.9, seed=1234
        )
        similarity, _ = similarity_and_dissimilarity(dataset.data)
        return similarity
    stream = generate_regime_switching_stream(
        num_stocks=48, num_days=160, num_regimes=2, regime_length=80, seed=77
    )
    similarity, _ = similarity_and_dissimilarity(stream.returns[:, 40:140])
    return similarity


def _fit(name: str, kernel: str):
    similarity = _case_similarity(name)
    dbht_module = importlib.import_module("repro.core.dbht")
    with mock.patch.object(dbht_module, "all_pairs_shortest_paths", APSP[kernel]):
        return similarity, tmfg_dbht(similarity, prefix=CASES[name]["prefix"])


def _apsp_matches_oracle(similarity: np.ndarray, result) -> bool:
    """The fit's APSP equals the heap oracle's on the same distance graph."""
    graph = result.tmfg.csr().reweighted(default_dissimilarity(similarity))
    return np.array_equal(result.dbht.shortest_paths, heap_apsp(graph))


def _snapshot(name: str, result) -> dict:
    config = CASES[name]
    labels = result.cut(config["clusters"])
    return {
        "case": name,
        "prefix": config["prefix"],
        "clusters": config["clusters"],
        "initial_clique": [int(v) for v in result.tmfg.initial_clique],
        "edges": [[int(u), int(v)] for u, v in result.tmfg.edges],
        "insertion_order": [
            [int(vertex), sorted(int(c) for c in face)]
            for vertex, face in result.tmfg.insertion_order
        ],
        "labels": [int(label) for label in labels],
    }


@pytest.mark.parametrize("kernel", sorted(APSP))
@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_matches_golden(case, kernel):
    path = GOLDEN_DIR / f"{case}.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    similarity, result = _fit(case, kernel)
    assert _apsp_matches_oracle(similarity, result)
    actual = _snapshot(case, result)
    # Exact equality, field by field for a readable diff on failure.
    assert actual["initial_clique"] == expected["initial_clique"]
    assert actual["edges"] == expected["edges"]
    assert actual["insertion_order"] == expected["insertion_order"]
    assert actual["labels"] == expected["labels"]
    assert actual == expected


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        similarity, result = _fit(case, "numpy")
        payload = _snapshot(case, result)
        reference = _snapshot(case, _fit(case, "python")[1])
        if payload != reference or not _apsp_matches_oracle(similarity, result):
            raise AssertionError(
                f"APSP disagrees with the heap oracle on {case}; refusing to regenerate"
            )
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)

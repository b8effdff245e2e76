"""All-pairs shortest paths on the filtered graph.

DBHT needs all-pairs shortest paths (APSP) on the TMFG/PMFG using the
*dissimilarity* weights (Line 7 of Algorithm 4).  The paper runs one
Dijkstra per source, with the sources in parallel; the filtered graph has
Theta(n) edges, so that is O(n^2 log n) work.  Here the sources'
parallelism is modelled by the work-span cost model, which
:func:`~repro.parallel.cost_model.fit_cost` computes from a fit's result
after the fact, and the distances come from one serial kernel on the frozen CSR form of the graph
(:class:`~repro.graph.csr.CSRGraph`), a cell-sparse *push frontier*.

A distance cell is a (vertex, source) pair.  Sources are relaxed in blocks
taken in breadth-first (Cuthill-McKee-like) order, so a block's sources
are graph neighbours.  Every round pushes each cell that improved in the
previous round over its out-arcs and keeps only the candidates that beat
their target, so a round's work is the arcs of the cells that changed and
nothing else: as in Delta-stepping (Meyer & Sanders, J. Algorithms 2003),
the frontier holds exactly the entries that changed.  It converges in
hop-diameter rounds, which is small on filtered graphs, to the same least
fixpoint as Dijkstra: the distances are byte-identical to an array-heap
Dijkstra per source, which the test suite keeps as its oracle.

Negative and NaN weights are rejected up front at graph freeze time
(``CSRGraph.validate_non_negative``) instead of mid-traversal after partial
work.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import trace_span

GraphLike = Union[WeightedGraph, CSRGraph]

#: Sources relaxed together by the frontier kernel, a power of two so a
#: cell's slot is a mask of its key.  A wider block pays the per-round numpy
#: overhead fewer times; a narrower one keeps the ``vertices x block``
#: working array, which every round gathers from at random, inside the CPU
#: cache.  With blocks taken in locality order, an interleaved A/B on the
#: fit's TMFG distance graphs of synthetic stock markets (two seeds per
#: size; 2-CPU Xeon container, 2 MiB L2 per core, numpy 2.4; best ms over
#: 12/7/4 runs) gave:
#:
#: ======  ==========  ==========  ==========
#: width   500 assets  1000        2000
#: ======  ==========  ==========  ==========
#: 32      25          88-90       325-329
#: 64      22          82-83       336-339
#: 128     21-22       84-86       380-388
#: 256     23-24       98-102      424-435
#: ======  ==========  ==========  ==========
#:
#: At 5000 vertices 64 took 3.90 s and 128 took 4.21 s (best of 3).  The
#: width does not change the result: every block reaches the same least
#: fixpoint.
_RELAX_BLOCK_SOURCES = 64


def all_pairs_shortest_paths(graph: GraphLike, method: str = "dijkstra") -> np.ndarray:
    """All-pairs shortest path distance matrix of a sparse graph.

    Row ``s`` holds the distances from source ``s``; unreachable vertices
    get ``inf``.  ``method`` names the algorithm, and ``"dijkstra"`` (one
    shortest-path tree per source, computed by the frontier kernel) is the
    only one; any other name raises ``ValueError``.  A traced call records
    the kernel's ``relaxed`` (candidates tried) and ``improved`` (cells
    written) counts on its ``kernel.apsp`` span.
    """
    if method != "dijkstra":
        raise ValueError(f"unknown APSP method {method!r}; expected one of: 'dijkstra'")
    csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    csr.validate_non_negative()
    with trace_span("kernel.apsp", method=method, n=int(csr.num_vertices)) as span:
        dist, relaxed, improved = _apsp_frontier(csr.indptr, csr.indices, csr.weights)
        span.set_attribute("relaxed", relaxed)
        span.set_attribute("improved", improved)
    return dist


def _locality_order(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vertices in breadth-first order, each layer in order of discovery.

    This is Cuthill-McKee without the degree sort: each BFS starts at the
    lowest unvisited id, and a vertex's neighbours come right after the
    neighbours of the vertices discovered before it, so nearby positions
    hold nearby vertices.
    """
    n = indptr.size - 1
    degrees = np.diff(indptr)
    order = np.empty(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    filled = 0
    while filled < n:
        frontier = np.flatnonzero(~seen)[:1]
        seen[frontier] = True
        while frontier.size:
            order[filled : filled + frontier.size] = frontier
            filled += frontier.size
            counts = degrees[frontier]
            offsets = np.cumsum(counts) - counts
            arcs = np.arange(counts.sum()) + np.repeat(indptr[frontier] - offsets, counts)
            neighbours = indices[arcs]
            neighbours = neighbours[~seen[neighbours]]
            found, first = np.unique(neighbours, return_index=True)
            frontier = found[np.argsort(first, kind="stable")]
            seen[frontier] = True
    return order


def _apsp_frontier(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, int, int]:
    """Cell-sparse push frontier: ``(distances, relaxed, improved)``.

    Sources are relaxed in blocks of :data:`_RELAX_BLOCK_SOURCES`, taken in
    :func:`_locality_order`.  A block works in one vertex-major
    ``vertices x block`` array, flattened, where the cell of vertex ``v``
    and the block's ``slot``-th source has key ``v << shift | slot``.  The
    frontier is the keys of the cells that improved in the previous round.
    A round expands each frontier cell over its CSR out-arcs (one
    ``repeat``/``cumsum`` arc expansion), forms the candidate ``work[cell] +
    weights[arc]`` for the arc's head in the same slot, keeps the candidates
    strictly below their target and writes them with ``np.minimum.at``.
    The written keys, deduplicated in O(k) by a stamp array (a key survives
    at the last position that stamped it), are the next frontier.

    Every improvement is pushed on, so this reaches the same least fixpoint
    as relaxing every arc every round, and the result is byte-identical to
    Dijkstra's because every path's length is accumulated in the same
    source-to-target order; zero-weight edges, ties and ``inf`` rows
    included.  ``relaxed`` counts the candidates tried and ``improved`` the
    cells written (once per round that improves them).
    """
    n = indptr.size - 1
    dist = np.full((n, n), np.inf, dtype=float)
    np.fill_diagonal(dist, 0.0)
    if indices.size == 0:
        return dist, 0, 0
    width = _RELAX_BLOCK_SOURCES
    shift = width.bit_length() - 1
    degrees = np.diff(indptr)
    head_keys = indices << shift
    work = np.empty(n << shift, dtype=float)
    stamp = np.empty(n << shift, dtype=np.int64)
    order = _locality_order(indptr, indices) if n > width else np.arange(n)
    relaxed = improved = 0
    for begin in range(0, n, width):
        block = order[begin : begin + width]
        work.fill(np.inf)
        keys = block << shift | np.arange(block.size)
        work[keys] = 0.0
        while keys.size:
            tails = keys >> shift
            counts = np.take(degrees, tails)
            ends = np.cumsum(counts)
            arcs = np.repeat(np.take(indptr, tails) - (ends - counts), counts)
            arcs += np.arange(arcs.size)
            targets = np.take(head_keys, arcs) | np.repeat(keys & (width - 1), counts)
            candidates = np.repeat(np.take(work, keys), counts)
            candidates += np.take(weights, arcs)
            better = candidates < np.take(work, targets)
            targets = np.compress(better, targets)
            np.minimum.at(work, targets, np.compress(better, candidates))
            positions = np.arange(targets.size)
            stamp[targets] = positions
            keys = np.compress(np.take(stamp, targets) == positions, targets)
            relaxed += arcs.size
            improved += keys.size
        dist[block] = work.reshape(n, width)[:, : block.size].T
    return dist, relaxed, improved

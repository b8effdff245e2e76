"""All-pairs shortest paths on the filtered graph.

DBHT needs all-pairs shortest paths (APSP) on the TMFG/PMFG using the
*dissimilarity* weights (Line 7 of Algorithm 4).  The paper runs one
Dijkstra per source, with the sources in parallel; the filtered graph has
Theta(n) edges, so that is O(n^2 log n) work.  Here the sources'
parallelism is modelled by the work-span cost model
(:class:`~repro.parallel.cost_model.WorkSpanTracker`), and the distances
come from one serial kernel on the frozen CSR form of the graph
(:class:`~repro.graph.csr.CSRGraph`), a batched Bellman-Ford-style
*frontier* relaxation.

A block of 32 sources advances one hop per round, and a round relaxes only
the arcs whose tail improved in the previous round, via one gather and one
segmented min (``np.minimum.reduceat``) over the selected arcs' heads.
Because the CSR graph is symmetric, row ``v`` is exactly the set of in-arcs
of ``v``, so the CSR arrays double as the relaxation's group index.  Blocks
are filled in breadth-first (Cuthill-McKee-like) order, so a block's
sources are graph neighbours and share one small frontier.  It converges
in hop-diameter rounds, which is small on filtered graphs, to the same
least fixpoint as Dijkstra: the distances are byte-identical to an
array-heap Dijkstra per source, which the test suite keeps as its oracle.

Negative weights are rejected up front at graph freeze time
(``CSRGraph.min_weight``) instead of mid-traversal after partial work.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import trace_span

GraphLike = Union[WeightedGraph, CSRGraph]

#: Sources relaxed together by the frontier kernel.  The round's working set is
#: ``arcs x block`` floats; a narrow block keeps it inside the CPU cache,
#: which dominates the kernel's throughput (wider blocks are memory-bound),
#: while a wider one pays the per-round numpy overhead fewer times.  With
#: blocks taken in locality order, an interleaved A/B on TMFGs of synthetic
#: stock markets (2-CPU Xeon container, numpy 2.4; best-of-12 ms over two
#: runs, best-of-4 at 2000) gave:
#:
#: ======  ==========  ==========  ==========
#: width   500 assets  1000        2000
#: ======  ==========  ==========  ==========
#: 16      60-61       201-205     561-698
#: 24      50-68       168-173     477-634
#: 32      49-54       162-174     465-650
#: 48      54-58       163-196     514-700
#: ======  ==========  ==========  ==========
#:
#: The width does not change the result: every block reaches the same
#: least fixpoint.
_RELAX_BLOCK_SOURCES = 32


def all_pairs_shortest_paths(graph: GraphLike, method: str = "dijkstra") -> np.ndarray:
    """All-pairs shortest path distance matrix of a sparse graph.

    Row ``s`` holds the distances from source ``s``; unreachable vertices
    get ``inf``.  ``method`` names the algorithm, and ``"dijkstra"`` (one
    shortest-path tree per source, computed by the frontier kernel) is the
    only one; any other name raises ``ValueError``.
    """
    if method != "dijkstra":
        raise ValueError(f"unknown APSP method {method!r}; expected one of: 'dijkstra'")
    csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    csr.validate_non_negative()
    with trace_span("kernel.apsp", method=method, n=int(csr.num_vertices)):
        return _apsp_frontier(csr.indptr, csr.indices, csr.weights)


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


def _apsp_frontier(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Frontier relaxation: every source advances one hop per numpy round.

    Sources are relaxed in blocks of :data:`_RELAX_BLOCK_SOURCES`, taken in
    :func:`_locality_order` so that a block's sources are graph neighbours
    and their frontiers overlap.  Distances are kept transposed (vertices x
    sources) so the per-round gather ``dist[tails]`` reads contiguous rows.
    A round relaxes only the arcs whose tail improved in the previous round
    (``changed[indices]``); in the symmetric CSR, row ``v`` lists the
    in-arcs of ``v``, so the selected arcs stay grouped by head and one
    ``np.minimum.reduceat`` over their head segments gives each head's best
    candidate.  Every segment holds at least one selected arc, so the empty
    segments ``reduceat`` cannot express never arise.  This reaches the same
    least fixpoint as relaxing every arc every round, and the result is
    byte-identical to Dijkstra's because every path's length is accumulated
    in the same source-to-target order.
    """
    n = indptr.size - 1
    dist = np.full((n, n), np.inf, dtype=float)
    np.fill_diagonal(dist, 0.0)
    if indices.size == 0:
        return dist
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = _locality_order(indptr, indices) if n > _RELAX_BLOCK_SOURCES else np.arange(n)
    for begin in range(0, n, _RELAX_BLOCK_SOURCES):
        block = order[begin : begin + _RELAX_BLOCK_SOURCES]
        width = block.size
        transposed = np.full((n, width), np.inf, dtype=float)
        transposed[block, np.arange(width)] = 0.0
        changed = np.zeros(n, dtype=bool)
        changed[block] = True
        while True:
            arcs = np.flatnonzero(changed[indices])
            if arcs.size == 0:
                break
            arc_heads = heads[arcs]
            starts = np.flatnonzero(np.diff(arc_heads, prepend=-1))
            targets = arc_heads[starts]
            candidates = transposed[indices[arcs]]
            candidates += weights[arcs, None]
            reduced = np.minimum.reduceat(candidates, starts, axis=0)
            current = transposed[targets]
            improved = (reduced < current).any(axis=1)
            targets = targets[improved]
            transposed[targets] = np.minimum(current[improved], reduced[improved])
            changed[:] = False
            changed[targets] = True
        dist[block] = transposed.T
    return dist

"""Shortest-path computations on the filtered graph.

DBHT needs all-pairs shortest paths (APSP) on the TMFG/PMFG using the
*dissimilarity* weights (Line 7 of Algorithm 4).  The filtered graph has
Theta(n) edges, so running Dijkstra from every source costs O(n^2 log n)
work, matching what the paper's implementation does.  Each single-source
computation is independent, which is where the paper gets its parallelism.

The computation runs on the frozen CSR form of the graph
(:class:`~repro.graph.csr.CSRGraph`) through one of two registered kernels
(see :mod:`repro.parallel.kernels`):

* ``"python"`` — an array-heap Dijkstra per source.  Same relaxation order
  and float arithmetic as the adjacency-list reference implementation
  (:func:`dijkstra`), so the distances are byte-identical, but it runs on
  flat typed arrays instead of per-edge Python tuples.
* ``"numpy"`` — a batched Bellman-Ford-style *frontier* relaxation: a
  block of 32 sources advances one hop per round, and a round relaxes only
  the arcs whose tail improved in the previous round, via one gather and
  one segmented min (``np.minimum.reduceat``) over the selected arcs'
  heads.  Because the CSR graph is symmetric, row ``v`` is exactly the set
  of in-arcs of ``v``, so the CSR arrays double as the relaxation's group
  index.  Blocks are filled in breadth-first (Cuthill-McKee-like) order,
  so a block's sources are graph neighbours and share one small frontier.
  Converges in hop-diameter rounds, which is small on filtered graphs, to
  the same least fixpoint as Dijkstra: the distances are byte-identical.

Sources are chunked over a :class:`~repro.parallel.scheduler.ParallelBackend`;
the chunk worker is a module-level function over picklable CSR arrays, so
the process-pool backend works out of the box.  Negative weights are
rejected up front at graph freeze time (``CSRGraph.min_weight``) instead of
mid-traversal after partial work.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.weighted_graph import WeightedGraph
from repro.obs.tracer import trace_span
from repro.parallel.kernels import get_kernel, register_kernel, resolve_kernel_name
from repro.parallel.scheduler import ParallelBackend, get_backend, make_backend

GraphLike = Union[WeightedGraph, CSRGraph]

#: Landmark count used by ``apsp_method="landmark"`` when none is configured.
DEFAULT_LANDMARKS = 32

#: Sources relaxed together by the numpy kernel.  The round's working set is
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


def _as_csr(graph: GraphLike) -> CSRGraph:
    return graph if isinstance(graph, CSRGraph) else graph.to_csr()


def dijkstra(graph: GraphLike, source: int) -> np.ndarray:
    """Single-source shortest path distances from ``source``.

    Edge weights must be non-negative (validated up front, before any
    traversal work).  Unreachable vertices get ``inf``.  For a
    :class:`WeightedGraph` this is the adjacency-list reference
    implementation; a :class:`CSRGraph` takes the array-heap fast path.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    if isinstance(graph, CSRGraph):
        graph.validate_non_negative()
        return _apsp_python(graph.indptr, graph.indices, graph.weights, [source])[0]
    if graph.has_negative_weights():
        raise ValueError("Dijkstra requires non-negative edge weights")
    distances = np.full(n, np.inf, dtype=float)
    distances[source] = 0.0
    visited = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        dist_u, u = heapq.heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        for v, weight in graph.neighbors(u):
            candidate = dist_u + weight
            if candidate < distances[v]:
                distances[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return distances


#: Registered APSP implementations, keyed by the ``method`` string callers
#: (and ``ClusteringConfig.apsp_method``) select with.  Each entry is called
#: as ``fn(graph, backend=..., kernel=..., **options)`` and returns the
#: ``n x n`` distance matrix.
_APSP_DISPATCH: Dict[str, Callable[..., np.ndarray]] = {}


def register_apsp_method(
    name: str, fn: Callable[..., np.ndarray], replace: bool = False
) -> None:
    """Register an APSP implementation under ``method=name``.

    The config layer validates ``apsp_method`` against this registry, so a
    method registered here is immediately usable from
    :class:`~repro.api.config.ClusteringConfig`, the CLI, and the server.
    """
    if not name or not isinstance(name, str):
        raise ValueError("APSP method name must be a non-empty string")
    if name in _APSP_DISPATCH and not replace:
        raise ValueError(f"APSP method {name!r} is already registered")
    if not callable(fn):
        raise TypeError(f"APSP method {name!r} must be callable")
    _APSP_DISPATCH[name] = fn


def available_apsp_methods() -> tuple:
    """Sorted ids of every registered APSP method."""
    return tuple(sorted(_APSP_DISPATCH))


def all_pairs_shortest_paths(
    graph: GraphLike,
    backend: Optional[Union[ParallelBackend, str]] = None,
    method: str = "dijkstra",
    kernel: Optional[str] = None,
    **options,
) -> np.ndarray:
    """All-pairs shortest path distance matrix of a sparse graph.

    ``method`` selects the algorithm from the registry
    (:func:`register_apsp_method`); the built-ins:

    * ``"dijkstra"`` (default) — one Dijkstra per source, the algorithm the
      paper's implementation uses, run as batched CSR kernels with the
      sources chunked over the backend.  ``kernel`` picks the
      implementation (``"python"``/``"numpy"``, default the registry's
      process-wide default; both produce identical distances).
    * ``"floyd"`` — a vectorised Floyd-Warshall on the dense matrix.  O(n^3)
      work but only ``n`` numpy operations, which wins for small ``n``;
      distances may differ from Dijkstra's in the last float ulp because
      path sums associate differently.
    * ``"scipy"`` — SciPy's C implementation
      (``scipy.sparse.csgraph.shortest_path``).  The paper notes that APSP
      becomes the bottleneck of PAR-TDBHT and that a faster APSP would
      directly improve the end-to-end time; this quantifies that head-room
      (see ``benchmarks/bench_apsp_backends.py``).
    * ``"landmark"`` — opt-in approximate upper bounds from ``landmarks=``
      exact SSSP rows (farthest-point-sampled pivots); see
      :func:`_landmark_apsp` for the error model.

    Extra keyword ``options`` are forwarded to the selected method.
    """
    n = graph.num_vertices
    if n == 0:
        return np.zeros((0, 0))
    try:
        fn = _APSP_DISPATCH[method]
    except KeyError:
        valid = ", ".join(repr(name) for name in available_apsp_methods())
        raise ValueError(
            f"unknown APSP method {method!r}; expected one of: {valid}"
        ) from None
    with trace_span("kernel.apsp", method=method, n=int(n)) as probe:
        if kernel is not None:
            probe.set_attribute("kernel", kernel)
        return fn(graph, backend=backend, kernel=kernel, **options)


def shortest_paths_from_sources(
    graph: GraphLike,
    sources: Sequence[int],
    backend: Optional[Union[ParallelBackend, str]] = None,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Distances from a subset of sources (one row per source, in order)."""
    source_array = np.asarray(list(sources), dtype=np.int64)
    if source_array.size == 0:
        return np.zeros((0, graph.num_vertices))
    return _batched_sssp(_as_csr(graph), source_array, backend, kernel)


def _batched_sssp(
    csr: CSRGraph,
    sources: np.ndarray,
    backend: Optional[Union[ParallelBackend, str]],
    kernel: Optional[str],
) -> np.ndarray:
    """Chunk ``sources`` over the backend and run the selected kernel."""
    csr.validate_non_negative()
    if sources.size and (
        int(sources.min()) < 0 or int(sources.max()) >= csr.num_vertices
    ):
        raise IndexError(
            f"source out of range [0, {csr.num_vertices}): "
            f"{[int(s) for s in sources if not 0 <= s < csr.num_vertices]}"
        )
    kernel_name = resolve_kernel_name(kernel, "apsp")
    # A backend given by name is constructed here and therefore owned (and
    # closed) here; instances stay under the caller's control.
    owns_backend = isinstance(backend, str)
    resolved = make_backend(backend) if owns_backend else get_backend(backend)
    try:
        num_chunks = min(len(sources), max(1, resolved.num_workers))
        chunks = np.array_split(sources, num_chunks)
        worker = partial(_sssp_chunk, csr.indptr, csr.indices, csr.weights, kernel_name)
        return np.vstack(resolved.map(worker, chunks))
    finally:
        if owns_backend:
            resolved.close()


def _sssp_chunk(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    kernel_name: str,
    sources: np.ndarray,
) -> np.ndarray:
    """Module-level chunk worker: picklable for the process backend."""
    return get_kernel("apsp", kernel_name)(indptr, indices, weights, sources)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _apsp_python(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: Sequence[int],
) -> np.ndarray:
    """Array-heap Dijkstra per source.

    The CSR arrays are lowered to Python lists once per chunk so the inner
    relaxation loop touches no numpy scalars (which dominate the cost of the
    naive per-edge loop).
    """
    n = indptr.size - 1
    rows = np.full((len(sources), n), np.inf, dtype=float)
    starts = indptr.tolist()
    neighbor_list = indices.tolist()
    weight_list = weights.tolist()
    inf = float("inf")
    for row_index, source in enumerate(sources):
        source = int(source)
        distances = [inf] * n
        distances[source] = 0.0
        visited = [False] * n
        heap = [(0.0, source)]
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            dist_u, u = pop(heap)
            if visited[u]:
                continue
            visited[u] = True
            for arc in range(starts[u], starts[u + 1]):
                v = neighbor_list[arc]
                candidate = dist_u + weight_list[arc]
                if candidate < distances[v]:
                    distances[v] = candidate
                    push(heap, (candidate, v))
        rows[row_index] = distances
    return rows


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


def _apsp_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    sources: Sequence[int],
) -> np.ndarray:
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
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full((sources.size, n), np.inf, dtype=float)
    dist[np.arange(sources.size), sources] = 0.0
    if indices.size == 0 or sources.size == 0:
        return dist
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    positions = np.arange(sources.size)
    if sources.size > _RELAX_BLOCK_SOURCES:
        rank = np.empty(n, dtype=np.int64)
        rank[_locality_order(indptr, indices)] = np.arange(n)
        positions = np.argsort(rank[sources], kind="stable")
    for begin in range(0, sources.size, _RELAX_BLOCK_SOURCES):
        block = positions[begin : begin + _RELAX_BLOCK_SOURCES]
        width = block.size
        transposed = np.full((n, width), np.inf, dtype=float)
        transposed[sources[block], np.arange(width)] = 0.0
        changed = np.zeros(n, dtype=bool)
        changed[sources[block]] = True
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


register_kernel("apsp", "python", _apsp_python)
register_kernel("apsp", "numpy", _apsp_numpy)


def _floyd_warshall(csr: CSRGraph) -> np.ndarray:
    """Vectorised Floyd-Warshall on the dense matrix (small-``n`` fallback)."""
    dist = csr.to_dense(fill=np.inf)
    for k in range(csr.num_vertices):
        np.minimum(dist, np.add.outer(dist[:, k], dist[k, :]), out=dist)
    return dist


def _scipy_apsp(graph: GraphLike) -> np.ndarray:
    """APSP via scipy.sparse.csgraph (identical distances, C speed)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    n = graph.num_vertices
    # Built from (data, indices, indptr), the matrix keeps explicit zeros,
    # which csgraph treats as zero-length edges: zero-dissimilarity edges
    # (exact-1.0 similarities) stay in the graph at their true length.
    csr = _as_csr(graph)
    sparse = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    return shortest_path(sparse, method="D", directed=False)


# ---------------------------------------------------------------------------
# Method registry entries
# ---------------------------------------------------------------------------


def _dijkstra_apsp(graph: GraphLike, backend=None, kernel=None) -> np.ndarray:
    csr = _as_csr(graph)
    return _batched_sssp(csr, np.arange(csr.num_vertices), backend, kernel)


def _floyd_apsp(graph: GraphLike, backend=None, kernel=None) -> np.ndarray:
    csr = _as_csr(graph)
    csr.validate_non_negative()
    return _floyd_warshall(csr)


def _scipy_apsp_method(graph: GraphLike, backend=None, kernel=None) -> np.ndarray:
    return _scipy_apsp(graph)


def select_landmarks(
    graph: GraphLike, count: int, kernel: Optional[str] = None
) -> tuple:
    """Deterministic farthest-point landmark selection.

    Returns ``(landmark ids, their exact SSSP rows)``.  The first landmark
    is the maximum-degree vertex (the TMFG's dominant hub — ties break to
    the lowest id); each subsequent one maximises the distance to the
    already-chosen set.  The sequence is *nested*: the first ``k`` landmarks
    of a ``count=k+1`` run are exactly the ``count=k`` run's, so estimates
    improve pointwise monotonically as ``count`` grows.
    """
    csr = _as_csr(graph)
    csr.validate_non_negative()
    n = csr.num_vertices
    count = int(count)
    if count < 1:
        raise ValueError(f"landmark count must be >= 1, got {count}")
    count = min(count, n)
    kernel_name = resolve_kernel_name(kernel, "apsp")
    sssp = get_kernel("apsp", kernel_name)
    chosen = [int(np.argmax(csr.degrees()))]
    rows = [sssp(csr.indptr, csr.indices, csr.weights, [chosen[0]])[0]]
    nearest = rows[0].copy()
    while len(chosen) < count:
        nearest[chosen] = -np.inf
        # An inf entry is an unreached component; argmax lands there first,
        # giving every component a landmark before refining within one.
        pivot = int(np.argmax(nearest))
        chosen.append(pivot)
        row = sssp(csr.indptr, csr.indices, csr.weights, [pivot])[0]
        rows.append(row)
        np.minimum(nearest, row, out=nearest)
    return tuple(chosen), np.vstack(rows)


def _landmark_apsp(
    graph: GraphLike, backend=None, kernel=None, landmarks: Optional[int] = None
) -> np.ndarray:
    """Approximate APSP from ``landmarks`` exact SSSP rows (opt-in only).

    Runs one exact SSSP per landmark and estimates
    ``d(u, v) ~= min_l d(l, u) + d(l, v)`` — an upper bound that is exact
    whenever some shortest path passes a landmark, clamped by direct edge
    weights so adjacent pairs are never overestimated.  Cost is
    ``O(L * n log n + L * n^2)`` against Dijkstra's ``O(n^2 log n)``; the
    bound tightens monotonically with ``L`` (nested landmark sequence) and
    becomes exact at ``L >= n``.
    """
    csr = _as_csr(graph)
    n = csr.num_vertices
    count = DEFAULT_LANDMARKS if landmarks is None else int(landmarks)
    if count < 1:
        raise ValueError(f"landmark count must be >= 1, got {count}")
    if count >= n:
        return _dijkstra_apsp(csr, backend=backend, kernel=kernel)
    _, rows = select_landmarks(csr, count, kernel=kernel)
    estimate = np.full((n, n), np.inf, dtype=float)
    for row in rows:
        np.minimum(estimate, np.add.outer(row, row), out=estimate)
    # Direct edges beat any over-the-landmark detour for adjacent pairs.
    heads = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    np.minimum.at(estimate, (heads, csr.indices), csr.weights)
    np.fill_diagonal(estimate, 0.0)
    return estimate


register_apsp_method("dijkstra", _dijkstra_apsp)
register_apsp_method("floyd", _floyd_apsp)
register_apsp_method("scipy", _scipy_apsp_method)
register_apsp_method("landmark", _landmark_apsp)

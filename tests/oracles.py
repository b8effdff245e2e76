"""Reference implementations the array-native production paths are checked against.

Each oracle is the straightforward version of a hot path: the frozenset
TMFG builder with its incremental bubble tree (Algorithm 2 as written),
the per-face gain scan, the sort-based round selection, the pairwise
complete-linkage matrix, the scalar Lance-Williams update, the per-vertex
DBHT assignment through the priority write cells of the paper's Table I
(:class:`WriteMin`/:class:`WriteMax`), the per-dict bubble-tree directions
and the per-bubble DFS reachability, the leaf scan behind the
inter-group heights, and three shortest-path references: an array-heap Dijkstra per source, the
adjacency-list Dijkstra and SciPy's csgraph APSP.  Tests assert exact
(byte-level) agreement with them.
"""

from __future__ import annotations

import heapq
import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines import hac
from repro.core.assignment import AssignmentResult
from repro.core.bubble_tree import Bubble, BubbleTree
from repro.core.direction import DirectionResult, compute_directions
from repro.core.tmfg import _initial_clique, construct_tmfg
from repro.dendrogram.node import Dendrogram
from repro.graph.csr import CSRGraph
from repro.graph.faces import Triangle, VertexFacePair, child_faces, triangle_corners, triangle_key
from repro.graph.matrix import validate_similarity_matrix
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.cost_model import WorkSpanTracker, fit_cost


class _WriteCell:
    """A priority concurrent-write cell (Table I): many writers, one kept
    value.  A per-cell lock makes writes from several threads correct."""

    def __init__(self, initial: Any) -> None:
        self.value = initial
        self._lock = threading.Lock()

    def _wins(self, value: Any) -> bool:
        raise NotImplementedError

    def write(self, value: Any) -> bool:
        """Write ``value``; return whether it replaced the current value."""
        with self._lock:
            if self._wins(value):
                self.value = value
                return True
            return False


class WriteMin(_WriteCell):
    """``WRITE_MIN``: keeps the smallest value written (tuples break ties)."""

    def _wins(self, value: Any) -> bool:
        return value < self.value


class WriteMax(_WriteCell):
    """``WRITE_MAX``: keeps the largest value written (tuples break ties)."""

    def _wins(self, value: Any) -> bool:
        return value > self.value


def per_face_best(
    similarity: np.ndarray, face: Iterable[int], remaining: np.ndarray
) -> Tuple[float, Optional[int]]:
    """One face's best ``(gain, vertex)`` by a scan over ``remaining`` (ascending)."""
    if remaining.size == 0:
        return float("-inf"), None
    a, b, c = sorted(face)
    gains = similarity[a, remaining] + similarity[b, remaining] + similarity[c, remaining]
    index = int(np.argmax(gains))
    return float(gains[index]), int(remaining[index])


def select_batch(pairs: List[VertexFacePair], prefix: int) -> List[VertexFacePair]:
    """Lines 9–10 of Algorithm 1 by sorting: sort every face's best pair,
    take the top ``prefix``, keep each vertex's highest-gain face."""
    if not pairs:
        return []
    pairs = sorted(pairs, key=lambda pair: pair.sort_key(), reverse=True)
    chosen: Dict[int, VertexFacePair] = {}
    for pair in pairs[:prefix]:
        current = chosen.get(pair.vertex)
        if current is None or pair.gain > current.gain:
            chosen[pair.vertex] = pair
    return sorted(chosen.values(), key=lambda pair: pair.sort_key(), reverse=True)


class IncrementalBubbleTree:
    """Algorithm 2 as written: the bubble tree grown one insertion at a
    time, with a frozenset face -> owner-bubble map."""

    def __init__(self, initial_clique: Iterable[int], initial_faces: Iterable[Triangle]) -> None:
        clique = frozenset(initial_clique)
        if len(clique) != 4:
            raise ValueError(f"initial clique must have 4 vertices, got {len(clique)}")
        self.bubbles: List[Bubble] = [Bubble(id=0, vertices=clique)]
        self.root_id = 0
        self._face_owner: Dict[Triangle, int] = {}
        for face in initial_faces:
            face = frozenset(face)
            if not face <= clique or len(face) != 3:
                raise ValueError("initial faces must be triangles of the initial clique")
            self._face_owner[face] = 0

    def insert(self, vertex: int, face: Triangle, is_outer_face: bool) -> int:
        """Record the insertion of ``vertex`` into ``face``; returns the new
        bubble's id.  An outer-face insertion makes the new bubble the parent
        of the face's owner (the current root), i.e. the new root."""
        face = frozenset(face)
        if face not in self._face_owner:
            raise KeyError(f"face {set(face)} is not a known face of the bubble tree")
        owner_id = self._face_owner[face]
        new_bubble = Bubble(id=len(self.bubbles), vertices=frozenset(face | {vertex}))
        self.bubbles.append(new_bubble)
        owner = self.bubbles[owner_id]
        if is_outer_face:
            if owner_id != self.root_id:
                raise ValueError("the outer face must belong to the current root bubble")
            owner.parent = new_bubble.id
            new_bubble.children.append(owner_id)
            self.root_id = new_bubble.id
        else:
            new_bubble.parent = owner_id
            owner.children.append(new_bubble.id)
        for new_face in child_faces(face, vertex):
            self._face_owner[new_face] = new_bubble.id
        return new_bubble.id

    def tree(self) -> BubbleTree:
        """The same tree as a production :class:`BubbleTree`."""
        return BubbleTree(
            [bubble.vertices for bubble in self.bubbles],
            [-1 if bubble.parent is None else bubble.parent for bubble in self.bubbles],
        )


class ReferenceTMFG:
    """The frozenset TMFG builder: faces are ``frozenset`` triangles, each
    face's best vertex comes from :func:`per_face_best`, rounds are chosen
    by :func:`select_batch`, and the graph and bubble tree grow edge by
    edge and bubble by bubble."""

    def __init__(self, similarity: np.ndarray, prefix: int) -> None:
        similarity = validate_similarity_matrix(similarity)
        n = similarity.shape[0]
        self.similarity = similarity
        self.tracker = WorkSpanTracker()
        self.clique = tuple(_initial_clique(similarity))
        v1, v2, v3, v4 = self.clique
        self.graph = WeightedGraph(n)
        self.edges: List[Tuple[int, int]] = []
        for i in range(4):
            for j in range(i + 1, 4):
                self._add_edge(self.clique[i], self.clique[j])
        faces = [
            triangle_key(v1, v2, v3),
            triangle_key(v1, v2, v4),
            triangle_key(v1, v3, v4),
            triangle_key(v2, v3, v4),
        ]
        self.outer_face = faces[0]
        self.remaining = np.array([v for v in range(n) if v not in self.clique], dtype=int)
        self.best: Dict[Triangle, Tuple[float, Optional[int]]] = {}
        self._refresh(faces)
        self.bubble_tree = IncrementalBubbleTree(self.clique, faces)
        self.tracker.add(
            "tmfg", work=float(n * n + 4 * n), span=math.log2(n) + 1 if n > 1 else 1.0
        )
        self.insertion_order: List[Tuple[int, Triangle]] = []
        self.batch_sizes: List[int] = []
        self.rounds = 0
        while self.remaining.size:
            pairs = [
                VertexFacePair(vertex=vertex, face=face, gain=gain)
                for face, (gain, vertex) in self.best.items()
                if vertex is not None
            ]
            self.insert_round(select_batch(pairs, prefix))

    def _add_edge(self, u: int, v: int) -> None:
        self.graph.add_edge(u, v, self.similarity[u, v])
        self.edges.append((u, v))

    def _refresh(self, faces: Sequence[Triangle]) -> None:
        for face in faces:
            self.best[face] = per_face_best(self.similarity, face, self.remaining)

    def insert_round(self, batch: Sequence[VertexFacePair]) -> None:
        num_faces, num_remaining = len(self.best), int(self.remaining.size)
        created: List[Triangle] = []
        for pair in batch:
            vertex, face = pair.vertex, pair.face
            for corner in triangle_corners(face):
                self._add_edge(vertex, corner)
            is_outer = face == self.outer_face
            self.bubble_tree.insert(vertex, face, is_outer_face=is_outer)
            new_faces = child_faces(face, vertex)
            if is_outer:
                self.outer_face = new_faces[0]
            del self.best[face]
            created.extend(new_faces)
            self.insertion_order.append((vertex, face))
        inserted = {pair.vertex for pair in batch}
        self.remaining = np.array([v for v in self.remaining if v not in inserted], dtype=int)
        stale = [face for face, (_, vertex) in self.best.items() if vertex in inserted]
        self._refresh(stale + created)
        self.rounds += 1
        self.batch_sizes.append(len(batch))
        affected = 3 * len(batch)
        work = float(
            num_faces * max(1.0, math.log2(max(num_faces, 2)))
            + affected * max(1, num_remaining)
        )
        span = math.log2(max(num_faces, 2)) + math.log2(max(len(batch), 2)) + 1.0
        self.tracker.add("tmfg", work=work, span=span)


def reference_tmfg(similarity: np.ndarray, prefix: int) -> ReferenceTMFG:
    """The TMFG built by the frozenset reference builder."""
    return ReferenceTMFG(similarity, prefix)


def assert_matches_reference_builder(similarity: np.ndarray, prefix: int) -> None:
    """The array-native TMFG equals the frozenset reference builder on every
    output: edges, insertion order, rounds, the bubble tree (ids, parents,
    children, vertex sets in iteration order, root), the direction sums as
    bytes, the edge-weight sum, the per-round batch sizes and the cost
    model's ``"tmfg"`` work and span (against the reference's own formula,
    fed by its live face and remaining vertex counts)."""
    reference = reference_tmfg(similarity, prefix)
    result = construct_tmfg(similarity, prefix=prefix, build_bubble_tree=True)
    assert result.initial_clique == reference.clique
    assert result.edges == reference.edges
    assert result.insertion_order == reference.insertion_order
    assert result.rounds == reference.rounds
    tree, expected_tree = result.bubble_tree, reference.bubble_tree
    assert tree.root_id == expected_tree.root_id
    assert [
        (b.id, b.parent, b.children, list(b.vertices)) for b in tree.bubbles
    ] == [(b.id, b.parent, b.children, list(b.vertices)) for b in expected_tree.bubbles]
    directions = compute_directions(tree, result)
    expected = compute_directions(expected_tree.tree(), reference.graph)
    assert directions.towards_child == expected.towards_child
    for values, expected_values in (
        (directions.in_values, expected.in_values),
        (directions.out_values, expected.out_values),
    ):
        assert list(values) == list(expected_values)
        assert np.array(list(values.values())).tobytes() == (
            np.array(list(expected_values.values())).tobytes()
        )
    assert result.edge_weight_sum().hex() == reference.graph.edge_weight_sum().hex()
    assert result.round_sizes == reference.batch_sizes
    phase, expected_phase = fit_cost(result).phase("tmfg"), reference.tracker.phase("tmfg")
    assert (phase.work, phase.span) == (expected_phase.work, expected_phase.span)


def max_linkage_matrix(
    members: Sequence[Sequence[int]], shortest_paths: np.ndarray
) -> np.ndarray:
    """Complete-linkage distances by one ``np.ix_`` block per vertex-set pair."""
    k = len(members)
    matrix = np.zeros((k, k), dtype=float)
    for i in range(k):
        for j in range(i + 1, k):
            block = shortest_paths[np.ix_(members[i], members[j])]
            value = float(block.max())
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix


def update_distance(
    linkage_name: str, d_ik: float, d_jk: float, size_i: int, size_j: int
) -> float:
    """Scalar Lance-Williams update: distance from the merge of (i, j) to k."""
    if linkage_name == "single":
        return min(d_ik, d_jk)
    if linkage_name == "complete":
        return max(d_ik, d_jk)
    if linkage_name == "average":
        return (size_i * d_ik + size_j * d_jk) / (size_i + size_j)
    if linkage_name == "weighted":
        return 0.5 * (d_ik + d_jk)
    raise ValueError(linkage_name)


def scalar_linkage(monkeypatch, distances: np.ndarray, method: str) -> np.ndarray:
    """``hac.linkage`` with its row update replaced by a per-entry scalar loop."""

    def scalar_rows(linkage_name, d_i, d_j, size_i, size_j):
        return np.array(
            [
                update_distance(linkage_name, float(a), float(b), size_i, size_j)
                for a, b in zip(d_i, d_j)
            ],
            dtype=float,
        )

    with monkeypatch.context() as patch:
        patch.setattr(hac, "_lance_williams", scalar_rows)
        return hac.linkage(distances, method=method)


def _chi(similarity: np.ndarray, vertex: int, members: Set[int]) -> float:
    """Attachment of ``vertex`` to a bubble: sum of similarities to its members."""
    return float(sum(similarity[vertex, u] for u in members if u != vertex))


def _bubble_internal_weight(similarity: np.ndarray, members: Tuple[int, ...]) -> float:
    """Total similarity over the six edges of a 4-clique bubble."""
    total = 0.0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            total += float(similarity[members[i], members[j]])
    return total


def assign_vertices(
    tree: BubbleTree,
    directions: DirectionResult,
    similarity: np.ndarray,
    shortest_paths: np.ndarray,
) -> AssignmentResult:
    """Lines 1–23 of Algorithm 4 vertex by vertex, through ``WriteMax`` /
    ``WriteMin`` cells and one 1-D ``np.mean`` per (bubble, vertex) pair."""
    num_vertices = similarity.shape[0]
    converging = directions.converging_bubbles(tree)
    reach = directions.reachable_converging_bubbles(tree)

    group_cells = [WriteMax((float("-inf"), -1)) for _ in range(num_vertices)]
    for bubble_id in converging:
        members = set(tree.bubble(bubble_id).vertices)
        for vertex in members:
            group_cells[vertex].write((_chi(similarity, vertex, members), bubble_id))

    group = np.full(num_vertices, -1, dtype=int)
    assigned_directly = np.zeros(num_vertices, dtype=bool)
    for vertex in range(num_vertices):
        _, bubble_id = group_cells[vertex].value
        if bubble_id >= 0:
            group[vertex] = bubble_id
            assigned_directly[vertex] = True

    attached: Dict[int, List[int]] = {bubble_id: [] for bubble_id in converging}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            attached[int(group[vertex])].append(vertex)

    min_cells = [WriteMin((float("inf"), -1)) for _ in range(num_vertices)]
    vertex_reachable: Dict[int, Set[int]] = {}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            continue
        reachable: Set[int] = set()
        for bubble_id in tree.bubbles_of_vertex(vertex):
            reachable |= reach[bubble_id]
        vertex_reachable[vertex] = reachable

    for bubble_id in converging:
        members = attached[bubble_id]
        if not members:
            continue
        member_array = np.asarray(members, dtype=int)
        for vertex, reachable in vertex_reachable.items():
            if bubble_id in reachable:
                mean_distance = float(np.mean(shortest_paths[member_array, vertex]))
                min_cells[vertex].write((mean_distance, bubble_id))

    for vertex in vertex_reachable:
        _, bubble_id = min_cells[vertex].value
        if bubble_id >= 0:
            group[vertex] = bubble_id
            continue
        best = (float("inf"), -1)
        for candidate in converging:
            members = np.asarray(list(tree.bubble(candidate).vertices), dtype=int)
            best = min(best, (float(np.mean(shortest_paths[members, vertex])), candidate))
        group[vertex] = best[1]

    bubble_cells = [WriteMax((float("-inf"), -1)) for _ in range(num_vertices)]
    for bubble in tree.bubbles:
        members = tuple(sorted(bubble.vertices))
        total_weight = _bubble_internal_weight(similarity, members)
        if total_weight <= 0:
            total_weight = 1.0
        member_set = set(members)
        for vertex in members:
            score = _chi(similarity, vertex, member_set) / total_weight
            bubble_cells[vertex].write((score, bubble.id))

    bubble_assignment = np.array([cell.value[1] for cell in bubble_cells], dtype=int)
    return AssignmentResult(
        group=group,
        bubble=bubble_assignment,
        converging_bubbles=list(converging),
        assigned_directly=assigned_directly,
    )


def reference_directions(tree: BubbleTree, graph) -> DirectionResult:
    """Algorithm 3 through per-bubble dicts: each bubble's corner sums are a
    ``{corner: sum}`` dict in its separating triangle's iteration order,
    re-derived through :meth:`BubbleTree.separating_triangle` and
    :meth:`BubbleTree.interior_vertex` on every use."""
    towards_child: Dict[int, bool] = {}
    in_values: Dict[int, float] = {}
    out_values: Dict[int, float] = {}
    corner_sums: Dict[int, Dict[int, float]] = {}
    for bubble_id in reversed(tree.topological_order()):
        bubble = tree.bubble(bubble_id)
        if bubble.parent is None:
            continue
        triangle = tree.separating_triangle(bubble_id)
        interior_vertex = tree.interior_vertex(bubble_id)
        sums = {corner: graph.weight(corner, interior_vertex) for corner in triangle}
        for child_id in bubble.children:
            for corner, value in corner_sums.get(child_id, {}).items():
                if corner in sums:
                    sums[corner] += value
        corner_sums[bubble_id] = sums
        vx, vy, vz = sorted(triangle)
        in_value = sum(sums.values())
        triangle_weight = graph.weight(vx, vy) + graph.weight(vx, vz) + graph.weight(vy, vz)
        degree_sum = (
            graph.weighted_degree(vx) + graph.weighted_degree(vy) + graph.weighted_degree(vz)
        )
        out_value = degree_sum - in_value - 2.0 * triangle_weight
        in_values[bubble_id] = in_value
        out_values[bubble_id] = out_value
        towards_child[bubble_id] = in_value > out_value
    return DirectionResult(towards_child, in_values, out_values)


def dfs_converging_bubbles(directions: DirectionResult, tree: BubbleTree) -> List[int]:
    """Bubbles whose out-degree is zero, by id."""
    return [
        bubble.id for bubble in tree.bubbles if directions.out_degree(tree, bubble.id) == 0
    ]


def dfs_reachable_converging_bubbles(
    directions: DirectionResult, tree: BubbleTree
) -> Dict[int, Set[int]]:
    """One DFS per bubble along the directed edges (Lines 5–6 of Algorithm 4)."""
    converging = set(dfs_converging_bubbles(directions, tree))

    def directed_neighbors(bubble_id: int) -> List[int]:
        bubble = tree.bubble(bubble_id)
        result = []
        if bubble.parent is not None and not directions.towards_child[bubble_id]:
            result.append(bubble.parent)
        result.extend(child for child in bubble.children if directions.towards_child[child])
        return result

    reach: Dict[int, Set[int]] = {}
    for bubble in tree.bubbles:
        visited = {bubble.id}
        stack = [bubble.id]
        found: Set[int] = set()
        while stack:
            current = stack.pop()
            if current in converging:
                found.add(current)
            for neighbor in directed_neighbors(current):
                if neighbor not in visited:
                    visited.add(neighbor)
                    stack.append(neighbor)
        reach[bubble.id] = found
    return reach


def count_group_roots(
    dendrogram: Dendrogram, node_id: int, groups: Dict[int, List[int]]
) -> int:
    """Number of groups whose vertices appear under ``node_id`` (a leaf scan)."""
    leaves = set(dendrogram.leaves_under(node_id))
    return sum(1 for vertices in groups.values() if leaves & set(vertices))


def heap_apsp(graph) -> np.ndarray:
    """APSP by an array-heap Dijkstra per source on the CSR arrays.

    The same relaxation order and float arithmetic as :func:`dijkstra`, on
    flat Python lists instead of per-edge tuples; the frontier kernel must
    match it byte for byte.
    """
    csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    n = csr.num_vertices
    rows = np.full((n, n), np.inf, dtype=float)
    starts = csr.indptr.tolist()
    neighbor_list = csr.indices.tolist()
    weight_list = csr.weights.tolist()
    inf = float("inf")
    for source in range(n):
        distances = [inf] * n
        distances[source] = 0.0
        visited = [False] * n
        heap = [(0.0, source)]
        while heap:
            dist_u, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = True
            for arc in range(starts[u], starts[u + 1]):
                v = neighbor_list[arc]
                candidate = dist_u + weight_list[arc]
                if candidate < distances[v]:
                    distances[v] = candidate
                    heapq.heappush(heap, (candidate, v))
        rows[source] = distances
    return rows


def dijkstra(graph: WeightedGraph, source: int) -> np.ndarray:
    """Single-source distances by the adjacency-list Dijkstra (``inf`` when
    unreachable)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
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


def scipy_apsp(graph) -> np.ndarray:
    """APSP by ``scipy.sparse.csgraph.shortest_path`` (Dijkstra, undirected).

    Built from ``(data, indices, indptr)``, the sparse matrix keeps explicit
    zeros, which csgraph treats as zero-length edges, so zero-dissimilarity
    edges (exact-1.0 similarities) stay in the graph at their true length.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    csr = graph if isinstance(graph, CSRGraph) else graph.to_csr()
    n = csr.num_vertices
    sparse = csr_matrix((csr.weights, csr.indices, csr.indptr), shape=(n, n))
    return shortest_path(sparse, method="D", directed=False)

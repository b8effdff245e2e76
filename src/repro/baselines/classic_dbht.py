"""Original DBHT construction for general maximal planar graphs (PMFG-DBHT).

The paper's PMFG-DBHT baseline runs the original DBHT algorithm of Song et
al. on the PMFG.  Unlike the TMFG-specialised algorithm in
:mod:`repro.core`, the original construction

* enumerates all 3-cliques of the planar graph and tests, for every one of
  them, whether removing its vertices disconnects the graph (quadratic
  work), in order to find the separating triangles and the bubbles;
* directs each bubble-tree edge by summing, with a BFS per separating
  triangle, the edge weights from the triangle to each of its two sides.

The vertex-assignment rules and the three-level complete-linkage hierarchy
are the same as in the TMFG-specialised algorithm, so those steps are shared
with :mod:`repro.core.assignment` / :mod:`repro.core.hierarchy` where the
formulas coincide, and re-implemented here where general bubbles (which need
not be 4-cliques) require the graph-edge-based attachment scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dendrogram.node import Dendrogram
from repro.graph.matrix import validate_dissimilarity_matrix
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.traversal import reachable_set
from repro.graph.weighted_graph import WeightedGraph

Triangle = FrozenSet[int]


@dataclass
class GenericBubbleTree:
    """Bubble decomposition of a maximal planar graph.

    ``bubbles[i]`` is the vertex set of bubble ``i``; ``edges`` are
    unordered bubble-tree edges, each carrying its separating triangle.
    """

    bubbles: List[FrozenSet[int]]
    edges: List[Tuple[int, int, Triangle]] = field(default_factory=list)

    @property
    def num_bubbles(self) -> int:
        return len(self.bubbles)

    def bubbles_of_vertex(self, vertex: int) -> List[int]:
        return [index for index, bubble in enumerate(self.bubbles) if vertex in bubble]

    def neighbors(self, bubble_id: int) -> List[Tuple[int, Triangle]]:
        result = []
        for a, b, triangle in self.edges:
            if a == bubble_id:
                result.append((b, triangle))
            elif b == bubble_id:
                result.append((a, triangle))
        return result


# ---------------------------------------------------------------------------
# Bubble decomposition
# ---------------------------------------------------------------------------


def _enumerate_triangles(graph: WeightedGraph, vertices: Set[int]) -> List[Triangle]:
    """All 3-cliques of the induced subgraph on ``vertices``."""
    triangles: Set[Triangle] = set()
    vertex_list = sorted(vertices)
    neighbor_sets = {
        v: {u for u in graph.neighbor_ids(v) if u in vertices} for v in vertex_list
    }
    for u in vertex_list:
        for v in neighbor_sets[u]:
            if v <= u:
                continue
            common = neighbor_sets[u] & neighbor_sets[v]
            for w in common:
                if w > v:
                    triangles.add(frozenset((u, v, w)))
    return sorted(triangles, key=lambda t: tuple(sorted(t)))


def _components_without(
    graph: WeightedGraph, vertices: Set[int], removed: Triangle
) -> List[Set[int]]:
    """Connected components of the induced subgraph on ``vertices`` minus ``removed``."""
    keep = vertices - set(removed)
    components: List[Set[int]] = []
    seen: Set[int] = set()
    for start in sorted(keep):
        if start in seen:
            continue
        stack = [start]
        component = {start}
        while stack:
            current = stack.pop()
            for neighbor in graph.neighbor_ids(current):
                if neighbor in keep and neighbor not in component:
                    component.add(neighbor)
                    stack.append(neighbor)
        seen |= component
        components.append(component)
    return components


def build_bubble_tree_from_graph(graph: WeightedGraph) -> GenericBubbleTree:
    """Bubble decomposition of a connected maximal planar graph.

    Implements the original strategy: find a separating triangle, split the
    graph into the two sides (each keeping a copy of the triangle), and
    recurse; subgraphs without separating triangles are bubbles.  Adjacent
    bubbles are connected by an edge labelled with the separating triangle.
    """
    all_vertices = set(range(graph.num_vertices))
    # Drop isolated vertices (a disconnected input would be invalid anyway).
    all_vertices = {v for v in all_vertices if graph.degree(v) > 0}
    if not all_vertices:
        raise ValueError("graph has no edges; cannot build a bubble tree")

    tree = GenericBubbleTree(bubbles=[])

    def decompose(vertices: Set[int]) -> List[int]:
        """Decompose the induced subgraph; returns the ids of bubbles created."""
        triangles = _enumerate_triangles(graph, vertices)
        separating: Optional[Triangle] = None
        sides: List[Set[int]] = []
        for triangle in triangles:
            components = _components_without(graph, vertices, triangle)
            if len(components) > 1:
                separating = triangle
                sides = components
                break
        if separating is None:
            bubble_id = len(tree.bubbles)
            tree.bubbles.append(frozenset(vertices))
            return [bubble_id]
        created: List[int] = []
        owners: List[int] = []
        for side in sides:
            side_bubbles = decompose(side | set(separating))
            created.extend(side_bubbles)
            owner = _bubble_containing(tree, side_bubbles, separating)
            owners.append(owner)
        # Connect the owners pairwise through the separating triangle; with
        # the expected two sides this is a single tree edge.
        for index in range(1, len(owners)):
            tree.edges.append((owners[0], owners[index], separating))
        return created

    decompose(all_vertices)
    return tree


def _bubble_containing(
    tree: GenericBubbleTree, candidate_ids: Sequence[int], triangle: Triangle
) -> int:
    """The unique bubble among ``candidate_ids`` containing the whole triangle."""
    matches = [index for index in candidate_ids if triangle <= tree.bubbles[index]]
    if len(matches) != 1:
        raise RuntimeError(
            f"expected exactly one bubble containing {set(triangle)}, found {len(matches)}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# Edge direction (BFS per separating triangle, as in the original algorithm)
# ---------------------------------------------------------------------------


@dataclass
class GenericDirections:
    """Direction of each bubble-tree edge: maps edge index to the head bubble."""

    head: Dict[int, int]

    def out_degree(self, tree: GenericBubbleTree, bubble_id: int) -> int:
        degree = 0
        for index, (a, b, _) in enumerate(tree.edges):
            if bubble_id in (a, b) and self.head[index] != bubble_id:
                degree += 1
        return degree

    def converging_bubbles(self, tree: GenericBubbleTree) -> List[int]:
        return [
            bubble_id
            for bubble_id in range(tree.num_bubbles)
            if self.out_degree(tree, bubble_id) == 0
        ]

    def directed_neighbors(self, tree: GenericBubbleTree, bubble_id: int) -> List[int]:
        result = []
        for index, (a, b, _) in enumerate(tree.edges):
            if a == bubble_id and self.head[index] == b:
                result.append(b)
            elif b == bubble_id and self.head[index] == a:
                result.append(a)
        return result

    def reachable_converging_bubbles(self, tree: GenericBubbleTree) -> Dict[int, Set[int]]:
        converging = set(self.converging_bubbles(tree))
        reach: Dict[int, Set[int]] = {}
        for bubble_id in range(tree.num_bubbles):
            visited = {bubble_id}
            stack = [bubble_id]
            found: Set[int] = set()
            while stack:
                current = stack.pop()
                if current in converging:
                    found.add(current)
                for neighbor in self.directed_neighbors(tree, current):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        stack.append(neighbor)
            reach[bubble_id] = found
        return reach


def direct_edges_bfs(tree: GenericBubbleTree, graph: WeightedGraph) -> GenericDirections:
    """Direct every bubble-tree edge towards its more strongly connected side."""
    head: Dict[int, int] = {}
    for index, (bubble_a, bubble_b, triangle) in enumerate(tree.edges):
        seed_a = next(iter(tree.bubbles[bubble_a] - triangle), None)
        seed_b = next(iter(tree.bubbles[bubble_b] - triangle), None)
        side_a: Set[int] = (
            reachable_set(graph, seed_a, blocked=set(triangle)) if seed_a is not None else set()
        )
        sum_a = 0.0
        sum_b = 0.0
        for corner in triangle:
            for neighbor, weight in graph.neighbors(corner):
                if neighbor in triangle:
                    continue
                if neighbor in side_a:
                    sum_a += weight
                else:
                    sum_b += weight
        # The edge points towards the side with the stronger connection.
        head[index] = bubble_a if sum_a > sum_b else bubble_b
    return GenericDirections(head=head)


# ---------------------------------------------------------------------------
# Vertex assignment for general bubbles
# ---------------------------------------------------------------------------


def _graph_attachment(graph: WeightedGraph, vertex: int, bubble: FrozenSet[int]) -> float:
    """Sum of graph edge weights from ``vertex`` to the bubble's members."""
    total = 0.0
    for neighbor, weight in graph.neighbors(vertex):
        if neighbor in bubble and neighbor != vertex:
            total += weight
    return total


def _bubble_edge_weight(graph: WeightedGraph, bubble: FrozenSet[int]) -> float:
    total = 0.0
    members = sorted(bubble)
    member_set = set(members)
    for u in members:
        for neighbor, weight in graph.neighbors(u):
            if neighbor in member_set and neighbor > u:
                total += weight
    return total


def assign_vertices_generic(
    tree: GenericBubbleTree,
    directions: GenericDirections,
    graph: WeightedGraph,
    shortest_paths: np.ndarray,
) -> "AssignmentResult":
    """Group and bubble assignment with the original (general-bubble) scores."""
    # Imported here (not at module level) to avoid a circular import with
    # repro.core.hierarchy, which uses repro.baselines.hac as its linkage
    # subroutine.
    from repro.core.assignment import AssignmentResult

    num_vertices = graph.num_vertices
    converging = directions.converging_bubbles(tree)
    reach = directions.reachable_converging_bubbles(tree)

    group = np.full(num_vertices, -1, dtype=int)
    assigned_directly = np.zeros(num_vertices, dtype=bool)

    best_chi: Dict[int, Tuple[float, int]] = {}
    for bubble_id in converging:
        bubble = tree.bubbles[bubble_id]
        normalizer = max(3 * (len(bubble) - 2), 1)
        for vertex in bubble:
            chi = _graph_attachment(graph, vertex, bubble) / normalizer
            candidate = (chi, bubble_id)
            if vertex not in best_chi or candidate > best_chi[vertex]:
                best_chi[vertex] = candidate
    for vertex, (_, bubble_id) in best_chi.items():
        group[vertex] = bubble_id
        assigned_directly[vertex] = True

    attached: Dict[int, List[int]] = {bubble_id: [] for bubble_id in converging}
    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            attached[int(group[vertex])].append(vertex)

    for vertex in range(num_vertices):
        if assigned_directly[vertex]:
            continue
        reachable: Set[int] = set()
        for bubble_id in tree.bubbles_of_vertex(vertex):
            reachable |= reach[bubble_id]
        best: Tuple[float, int] = (float("inf"), -1)
        candidates = [b for b in reachable if attached.get(b)] or [
            b for b in converging if attached.get(b)
        ] or converging
        for bubble_id in candidates:
            members = attached.get(bubble_id) or list(tree.bubbles[bubble_id])
            mean_distance = float(
                np.mean(shortest_paths[np.asarray(members, dtype=int), vertex])
            )
            best = min(best, (mean_distance, bubble_id))
        group[vertex] = best[1]

    bubble_assignment = np.full(num_vertices, -1, dtype=int)
    best_chi_prime: Dict[int, Tuple[float, int]] = {}
    for bubble_id, bubble in enumerate(tree.bubbles):
        total_weight = _bubble_edge_weight(graph, bubble)
        if total_weight <= 0:
            total_weight = 1.0
        for vertex in bubble:
            score = _graph_attachment(graph, vertex, bubble) / total_weight
            candidate = (score, bubble_id)
            if vertex not in best_chi_prime or candidate > best_chi_prime[vertex]:
                best_chi_prime[vertex] = candidate
    for vertex, (_, bubble_id) in best_chi_prime.items():
        bubble_assignment[vertex] = bubble_id

    return AssignmentResult(
        group=group,
        bubble=bubble_assignment,
        converging_bubbles=list(converging),
        assigned_directly=assigned_directly,
    )


# ---------------------------------------------------------------------------
# End-to-end PMFG + DBHT
# ---------------------------------------------------------------------------


@dataclass
class ClassicDBHTResult:
    """Output of the original DBHT pipeline on a planar graph."""

    dendrogram: Dendrogram
    bubble_tree: GenericBubbleTree
    directions: GenericDirections
    assignment: AssignmentResult
    shortest_paths: np.ndarray

    def cut(self, num_clusters: int) -> np.ndarray:
        from repro.dendrogram.cut import cut_k

        return cut_k(self.dendrogram, num_clusters)


def classic_dbht(
    graph: WeightedGraph,
    dissimilarity: np.ndarray,
) -> ClassicDBHTResult:
    """Original DBHT on an arbitrary maximal planar graph."""
    from repro.core.hierarchy import build_hierarchy

    dissimilarity = validate_dissimilarity_matrix(dissimilarity, size=graph.num_vertices)
    tree = build_bubble_tree_from_graph(graph)
    directions = direct_edges_bfs(tree, graph)
    # Freeze the planar graph into CSR form with the dissimilarity weights
    # swapped in; the APSP kernel runs on the flat arrays.
    distance_graph = graph.to_csr().reweighted(dissimilarity)
    shortest_paths = all_pairs_shortest_paths(distance_graph)
    assignment = assign_vertices_generic(tree, directions, graph, shortest_paths)
    dendrogram = build_hierarchy(assignment, shortest_paths)
    return ClassicDBHTResult(
        dendrogram=dendrogram,
        bubble_tree=tree,
        directions=directions,
        assignment=assignment,
        shortest_paths=shortest_paths,
    )


def pmfg_dbht(
    similarity: np.ndarray,
    dissimilarity: Optional[np.ndarray] = None,
) -> ClassicDBHTResult:
    """The paper's PMFG-DBHT baseline: build the PMFG, then the original DBHT."""
    from repro.baselines.pmfg import construct_pmfg
    from repro.datasets.similarity import default_dissimilarity

    similarity = np.asarray(similarity, dtype=float)
    if dissimilarity is None:
        dissimilarity = default_dissimilarity(similarity)
    pmfg = construct_pmfg(similarity)
    return classic_dbht(pmfg.graph, dissimilarity)

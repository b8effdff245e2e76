"""Tests for the bubble-tree edge direction (Algorithm 3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bubble_tree import BubbleTree
from repro.core.dbht import dbht
from repro.core.direction import DirectionResult, compute_directions, compute_directions_bfs
from repro.core.tmfg import construct_tmfg
from repro.graph.faces import triangle_key
from repro.graph.weighted_graph import WeightedGraph
from repro.parallel.cost_model import fit_cost

from tests import oracles
from tests.conftest import random_similarity_matrix
from tests.oracles import IncrementalBubbleTree


def figure2_graph_and_tree():
    """The TMFG of Figure 2(a) with edge weights 0.8 / 0.4 / 0.2.

    The construction order follows Example 1: start from the 4-clique
    {0,1,2,4}, insert 3 into {0,1,2} (the outer face), then 5 into {1,2,3}
    and 6 into the new outer face {0,1,3}.  The weights are assigned so that
    edges inside the ground-truth-ish core are heavy (0.8), cross edges are
    medium (0.4), and edges to the peripheral vertex 6 are light (0.2),
    consistent with the figure's description.
    """
    weights = {
        (0, 1): 0.8, (0, 2): 0.8, (1, 2): 0.8, (0, 4): 0.8, (1, 4): 0.4,
        (2, 4): 0.4, (0, 3): 0.8, (1, 3): 0.8, (2, 3): 0.4, (1, 5): 0.4,
        (2, 5): 0.4, (3, 5): 0.4, (0, 6): 0.2, (1, 6): 0.2, (3, 6): 0.2,
    }
    graph = WeightedGraph(7)
    for (u, v), w in weights.items():
        graph.add_edge(u, v, w)
    faces = [
        triangle_key(0, 1, 2),
        triangle_key(0, 1, 4),
        triangle_key(0, 2, 4),
        triangle_key(1, 2, 4),
    ]
    tree = IncrementalBubbleTree([0, 1, 2, 4], faces)
    tree.insert(3, triangle_key(0, 1, 2), is_outer_face=True)
    tree.insert(5, triangle_key(1, 2, 3), is_outer_face=False)
    tree.insert(6, triangle_key(0, 1, 3), is_outer_face=True)
    return graph, tree.tree()


class TestPaperExample:
    def test_b2_is_the_only_converging_bubble(self):
        graph, tree = figure2_graph_and_tree()
        directions = compute_directions(tree, graph)
        converging = directions.converging_bubbles(tree)
        converging_sets = [set(tree.bubble(b).vertices) for b in converging]
        assert converging_sets == [{0, 1, 2, 3}]

    def test_example2_inval_exceeds_outval_for_b2(self):
        graph, tree = figure2_graph_and_tree()
        directions = compute_directions(tree, graph)
        b2 = next(b.id for b in tree.bubbles if set(b.vertices) == {0, 1, 2, 3})
        assert directions.in_values[b2] > directions.out_values[b2]
        assert directions.towards_child[b2] is True

    def test_bfs_baseline_gives_same_example_result(self):
        graph, tree = figure2_graph_and_tree()
        fast = compute_directions(tree, graph)
        slow = compute_directions_bfs(tree, graph)
        assert fast.towards_child == slow.towards_child


class TestAgainstBFSBaseline:
    @pytest.mark.parametrize("seed,prefix", [(0, 1), (1, 1), (2, 6), (3, 12)])
    def test_directions_match_on_random_inputs(self, seed, prefix):
        similarity = random_similarity_matrix(35, seed=seed)
        result = construct_tmfg(similarity, prefix=prefix)
        fast = compute_directions(result.bubble_tree, result.graph)
        slow = compute_directions_bfs(result.bubble_tree, result.graph)
        assert fast.towards_child == slow.towards_child

    @pytest.mark.parametrize("prefix", [1, 8])
    def test_in_and_out_values_match_bfs(self, small_matrices, prefix):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=prefix)
        fast = compute_directions(result.bubble_tree, result.graph)
        slow = compute_directions_bfs(result.bubble_tree, result.graph)
        for bubble_id in fast.in_values:
            assert fast.in_values[bubble_id] == pytest.approx(slow.in_values[bubble_id])
            assert fast.out_values[bubble_id] == pytest.approx(slow.out_values[bubble_id])

    @pytest.mark.parametrize("skew", [0.0, 1e-12])
    @pytest.mark.parametrize("prefix", [1, 8])
    def test_tmfg_edge_arrays_give_the_weighted_graph_bytes(self, medium_matrices, prefix, skew):
        """Edge weights, insertion-order degrees and the edge-weight sum read
        from the TMFG's arrays reproduce the adjacency-list graph's sums bit
        for bit (on correlations, where the summation order shows).  A skew
        within the validators' symmetry tolerance makes ``S[u, v]`` and
        ``S[v, u]`` differ: both orientations must still answer the weight
        the edge was inserted with."""
        similarity, _ = medium_matrices
        similarity = similarity + skew * np.triu(np.ones_like(similarity), 1)
        result = construct_tmfg(similarity, prefix=prefix)
        for u, v in result.edges:
            assert result.weight(u, v) == result.weight(v, u) == result.graph.weight(u, v)
        assert result.edge_weight_sum().hex() == result.graph.edge_weight_sum().hex()
        from_arrays = compute_directions(result.bubble_tree, result)
        from_graph = compute_directions(result.bubble_tree, result.graph)
        assert from_arrays.towards_child == from_graph.towards_child
        for values, expected in (
            (from_arrays.in_values, from_graph.in_values),
            (from_arrays.out_values, from_graph.out_values),
        ):
            assert list(values) == list(expected)
            assert np.array(list(values.values())).tobytes() == (
                np.array(list(expected.values())).tobytes()
            )
        degrees = [result.graph.weighted_degree(v) for v in range(result.num_vertices)]
        assert np.array(degrees).tobytes() == np.array(
            [result.weighted_degree(v) for v in range(result.num_vertices)]
        ).tobytes()

    def test_inval_plus_outval_identity(self, small_tmfg):
        # INVAL + OUTVAL + 2 * (triangle weight) = sum of corner degrees.
        graph = small_tmfg.graph
        tree = small_tmfg.bubble_tree
        directions = compute_directions(tree, graph)
        for bubble in tree.bubbles:
            if bubble.parent is None:
                continue
            triangle = tree.separating_triangle(bubble.id)
            vx, vy, vz = sorted(triangle)
            degree_sum = sum(graph.weighted_degree(v) for v in (vx, vy, vz))
            triangle_weight = (
                graph.weight(vx, vy) + graph.weight(vx, vz) + graph.weight(vy, vz)
            )
            total = (
                directions.in_values[bubble.id]
                + directions.out_values[bubble.id]
                + 2 * triangle_weight
            )
            assert total == pytest.approx(degree_sum)


class TestDirectedTreeProperties:
    def test_at_least_one_converging_bubble(self, small_tmfg):
        directions = compute_directions(small_tmfg.bubble_tree, small_tmfg.graph)
        assert len(directions.converging_bubbles(small_tmfg.bubble_tree)) >= 1

    def test_every_bubble_reaches_a_converging_bubble(self, small_tmfg):
        tree = small_tmfg.bubble_tree
        directions = compute_directions(tree, small_tmfg.graph)
        reach = directions.reachable_converging_bubbles(tree)
        for bubble in tree.bubbles:
            assert reach[bubble.id], f"bubble {bubble.id} reaches no converging bubble"

    def test_converging_bubble_reaches_only_itself(self, small_tmfg):
        tree = small_tmfg.bubble_tree
        directions = compute_directions(tree, small_tmfg.graph)
        reach = directions.reachable_converging_bubbles(tree)
        for bubble_id in directions.converging_bubbles(tree):
            assert reach[bubble_id] == {bubble_id}

    def test_out_degree_counts_are_consistent(self, batched_tmfg):
        tree = batched_tmfg.bubble_tree
        directions = compute_directions(tree, batched_tmfg.graph)
        total_out = sum(directions.out_degree(tree, b.id) for b in tree.bubbles)
        # Every tree edge contributes exactly one outgoing endpoint.
        assert total_out == tree.num_bubbles - 1

    def test_fit_cost_records_linear_work(self, small_tmfg, small_matrices):
        similarity, dissimilarity = small_matrices
        result = dbht(small_tmfg, similarity, dissimilarity)
        tree, assignment = small_tmfg.bubble_tree, result.assignment
        phase = fit_cost(small_tmfg, result).phase("bubble-tree")
        # The direction half is one unit per tree edge; the assignment half
        # scores four members per converging bubble and per bubble, plus
        # the mean-distance lookups.
        assert phase.work == (tree.num_bubbles - 1) + (
            4 * len(assignment.converging_bubbles)
            + assignment.distance_terms
            + 4 * tree.num_bubbles
        )
        assert phase.span == (tree.height() + 1) + np.log2(similarity.shape[0])


def _direction_bytes(directions: DirectionResult) -> list:
    """Every key, flag and float (as hex) of a direction result, in order."""
    return [
        list(directions.towards_child.items()),
        [(bubble_id, value.hex()) for bubble_id, value in directions.in_values.items()],
        [(bubble_id, value.hex()) for bubble_id, value in directions.out_values.items()],
    ]


def _dyadic_similarity(n: int, seed: int) -> np.ndarray:
    similarity = np.round(random_similarity_matrix(n, seed) * 4) / 4
    np.fill_diagonal(similarity, 1.0)
    return similarity


class TestAgainstDictOracle:
    """The flat-list post-order gives the per-dict oracle's bytes: same
    corner order, same fold order, same builtin ``sum``.  The oracle runs on
    this interpreter, whose ``sum`` may be the compensated one."""

    def test_paper_example(self):
        graph, tree = figure2_graph_and_tree()
        assert _direction_bytes(compute_directions(tree, graph)) == _direction_bytes(
            oracles.reference_directions(tree, graph)
        )

    @pytest.mark.parametrize("source", ["arrays", "graph"])
    @pytest.mark.parametrize("prefix", [1, 5])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_similarity_matrix(60, seed=2),
            lambda: random_similarity_matrix(200, seed=9),
            lambda: _dyadic_similarity(50, seed=4),
        ],
        ids=["random60", "random200", "dyadic50"],
    )
    def test_fits_match_the_oracle_bytes(self, make, prefix, source):
        result = construct_tmfg(make(), prefix=prefix)
        graph = result if source == "arrays" else result.graph
        assert _direction_bytes(compute_directions(result.bubble_tree, graph)) == (
            _direction_bytes(oracles.reference_directions(result.bubble_tree, graph))
        )

    @pytest.mark.parametrize("prefix", [1, 8])
    def test_correlations_match_the_oracle_bytes(self, medium_matrices, prefix):
        # Correlations, where the order of a sum shows in the last ulp.
        result = construct_tmfg(medium_matrices[0], prefix=prefix)
        assert _direction_bytes(compute_directions(result.bubble_tree, result)) == (
            _direction_bytes(oracles.reference_directions(result.bubble_tree, result))
        )


@st.composite
def directed_bubble_trees(draw):
    """A random rooted tree of dummy bubbles (any root id, any shape) with a
    random direction on every edge."""
    size = draw(st.integers(min_value=1, max_value=60))
    order = draw(st.permutations(range(size)))
    parents = [-1] * size
    for position in range(1, size):
        parents[order[position]] = order[draw(st.integers(0, position - 1))]
    tree = BubbleTree([frozenset(range(4 * b, 4 * b + 4)) for b in range(size)], parents)
    towards_child = {b: draw(st.booleans()) for b in range(size) if parents[b] >= 0}
    return tree, DirectionResult(towards_child, {}, {})


class TestReachabilityAgainstDFS:
    @settings(max_examples=300, deadline=None)
    @given(directed_bubble_trees())
    def test_memoised_reach_sets_match_the_per_bubble_dfs(self, case):
        tree, directions = case
        assert directions.converging_bubbles(tree) == oracles.dfs_converging_bubbles(
            directions, tree
        )
        reach = directions.reachable_converging_bubbles(tree)
        assert list(reach) == list(range(tree.num_bubbles))
        assert reach == oracles.dfs_reachable_converging_bubbles(directions, tree)

    @pytest.mark.parametrize("prefix", [1, 5])
    def test_fit_reach_sets_match_the_per_bubble_dfs(self, medium_matrices, prefix):
        result = construct_tmfg(medium_matrices[0], prefix=prefix)
        directions = compute_directions(result.bubble_tree, result)
        assert directions.reachable_converging_bubbles(result.bubble_tree) == (
            oracles.dfs_reachable_converging_bubbles(directions, result.bubble_tree)
        )

"""Tests for the three-level DBHT hierarchy and height assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import assign_vertices
from repro.core.direction import compute_directions
from repro.core import hierarchy
from repro.core.hierarchy import _Cluster, _max_linkage_matrix, build_hierarchy
from repro.core.tmfg import construct_tmfg
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.weighted_graph import WeightedGraph
from tests.oracles import max_linkage_matrix


@pytest.fixture(scope="module")
def hierarchy_inputs(small_matrices_module):
    similarity, dissimilarity = small_matrices_module
    tmfg = construct_tmfg(similarity, prefix=4)
    directions = compute_directions(tmfg.bubble_tree, tmfg.graph)
    distance_graph = WeightedGraph(tmfg.graph.num_vertices)
    for u, v, _ in tmfg.graph.edges():
        distance_graph.add_edge(u, v, float(dissimilarity[u, v]))
    shortest_paths = all_pairs_shortest_paths(distance_graph)
    assignment = assign_vertices(tmfg.bubble_tree, directions, similarity, shortest_paths)
    dendrogram = build_hierarchy(assignment, shortest_paths)
    return assignment, shortest_paths, dendrogram


@pytest.fixture(scope="module")
def small_matrices_module():
    from repro.datasets.similarity import similarity_and_dissimilarity
    from repro.datasets.synthetic import make_time_series_dataset

    dataset = make_time_series_dataset(
        num_objects=60, length=48, num_classes=3, noise=1.0, seed=11
    )
    return similarity_and_dissimilarity(dataset.data)


class TestDendrogramShape:
    def test_dendrogram_is_complete(self, hierarchy_inputs):
        _, _, dendrogram = hierarchy_inputs
        assert dendrogram.is_complete
        assert dendrogram.num_internal == dendrogram.num_leaves - 1

    def test_heights_are_monotone(self, hierarchy_inputs):
        _, _, dendrogram = hierarchy_inputs
        assert dendrogram.heights_monotone()

    def test_group_roots_at_height_one(self, hierarchy_inputs):
        assignment, _, dendrogram = hierarchy_inputs
        groups = assignment.groups()
        # For every group with more than one vertex there must be a node of
        # height exactly 1 covering precisely that group's vertices.
        for group_id, vertices in groups.items():
            if len(vertices) < 2:
                continue
            found = False
            for node in dendrogram.internal_nodes():
                if node.height == pytest.approx(1.0):
                    leaves = set(dendrogram.leaves_under(node.id))
                    if leaves == set(vertices):
                        found = True
                        break
            assert found, f"group {group_id} has no height-1 root"

    def test_intra_group_heights_in_unit_interval(self, hierarchy_inputs):
        assignment, _, dendrogram = hierarchy_inputs
        num_groups = len(assignment.groups())
        for node in dendrogram.internal_nodes():
            level = node.metadata.get("level")
            if level in ("intra", "inter_bubble"):
                assert 0.0 < node.height <= 1.0 + 1e-12
            elif level == "inter_group":
                assert 2.0 <= node.height <= num_groups

    def test_inter_group_heights_count_groups(self, hierarchy_inputs):
        assignment, _, dendrogram = hierarchy_inputs
        groups = assignment.groups()
        root = dendrogram.node(dendrogram.root)
        if root.metadata.get("level") == "inter_group":
            assert root.height == pytest.approx(len(groups))

    def test_each_group_has_correct_number_of_internal_nodes(self, hierarchy_inputs):
        assignment, _, dendrogram = hierarchy_inputs
        groups = assignment.groups()
        for group_id, vertices in groups.items():
            count = sum(
                1
                for node in dendrogram.internal_nodes()
                if node.metadata.get("group") == group_id
                and node.metadata.get("level") in ("intra", "inter_bubble")
            )
            assert count == len(vertices) - 1

    def test_subgroup_vertices_merge_before_other_vertices(self, hierarchy_inputs):
        assignment, shortest_paths, dendrogram = hierarchy_inputs
        # Any intra-level node contains only vertices of a single subgroup.
        subgroups = assignment.subgroups()
        for node in dendrogram.internal_nodes():
            if node.metadata.get("level") != "intra":
                continue
            leaves = set(dendrogram.leaves_under(node.id))
            key = (node.metadata["group"], node.metadata["bubble"])
            assert leaves <= set(subgroups[key])

    def test_inter_bubble_nodes_contain_only_their_group(self, hierarchy_inputs):
        assignment, _, dendrogram = hierarchy_inputs
        groups = assignment.groups()
        for node in dendrogram.internal_nodes():
            if node.metadata.get("level") != "inter_bubble":
                continue
            leaves = set(dendrogram.leaves_under(node.id))
            assert leaves <= set(groups[node.metadata["group"]])


class TestDegenerateInputs:
    def test_single_group_single_bubble(self):
        # Four vertices: one bubble, one group; the dendrogram is a complete
        # binary merge of the four leaves.
        from repro.core.assignment import AssignmentResult

        assignment = AssignmentResult(
            group=np.zeros(4, dtype=int),
            bubble=np.zeros(4, dtype=int),
            converging_bubbles=[0],
            assigned_directly=np.ones(4, dtype=bool),
        )
        distances = np.array(
            [
                [0.0, 1.0, 2.0, 3.0],
                [1.0, 0.0, 1.5, 2.5],
                [2.0, 1.5, 0.0, 1.0],
                [3.0, 2.5, 1.0, 0.0],
            ]
        )
        dendrogram = build_hierarchy(assignment, distances)
        assert dendrogram.is_complete
        assert dendrogram.heights_monotone()
        root = dendrogram.node(dendrogram.root)
        assert root.height == pytest.approx(1.0)

    def test_two_groups(self):
        from repro.core.assignment import AssignmentResult

        group = np.array([0, 0, 1, 1])
        bubble = np.array([0, 0, 1, 1])
        assignment = AssignmentResult(
            group=group,
            bubble=bubble,
            converging_bubbles=[0, 1],
            assigned_directly=np.ones(4, dtype=bool),
        )
        distances = np.array(
            [
                [0.0, 1.0, 9.0, 9.0],
                [1.0, 0.0, 9.0, 9.0],
                [9.0, 9.0, 0.0, 1.0],
                [9.0, 9.0, 1.0, 0.0],
            ]
        )
        dendrogram = build_hierarchy(assignment, distances)
        assert dendrogram.is_complete
        root = dendrogram.node(dendrogram.root)
        assert root.metadata.get("level") == "inter_group"
        assert root.height == pytest.approx(2.0)
        # Cutting into two clusters recovers the groups.
        from repro.dendrogram.cut import cut_k

        labels = cut_k(dendrogram, 2)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_singleton_group(self):
        from repro.core.assignment import AssignmentResult

        group = np.array([0, 0, 0, 1])
        bubble = np.array([0, 0, 0, 1])
        assignment = AssignmentResult(
            group=group,
            bubble=bubble,
            converging_bubbles=[0, 1],
            assigned_directly=np.ones(4, dtype=bool),
        )
        rng = np.random.default_rng(0)
        raw = rng.uniform(1.0, 2.0, size=(4, 4))
        distances = (raw + raw.T) / 2
        np.fill_diagonal(distances, 0.0)
        dendrogram = build_hierarchy(assignment, distances)
        assert dendrogram.is_complete
        assert dendrogram.heights_monotone()


def _partition(vertices, sizes, rng=None):
    """Clusters of the given sizes over ``vertices`` (shuffled when ``rng``)."""
    order = list(vertices) if rng is None else [int(v) for v in rng.permutation(vertices)]
    clusters, start = [], 0
    for index, size in enumerate(sizes):
        clusters.append(_Cluster(node_id=index, vertices=order[start : start + size]))
        start += size
    return clusters


class TestMaxLinkageMatrix:
    """One gather + ``reduceat`` equals the pairwise ``np.ix_`` loop exactly."""

    @pytest.mark.parametrize("budget", [None, 600, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_oracle(self, hierarchy_inputs, monkeypatch, seed, budget):
        # A small gather budget splits the rows into runs of whole clusters
        # (budget 1: one cluster per run), as the top level does at scale.
        if budget is not None:
            monkeypatch.setattr(hierarchy, "_GATHER_BUDGET", budget)
        _, shortest_paths, _ = hierarchy_inputs
        rng = np.random.default_rng(seed)
        sizes = [1, 3, 7, 2, 12, 1, 20, 14]
        clusters = _partition(range(shortest_paths.shape[0]), sizes, rng)
        expected = max_linkage_matrix(clusters, shortest_paths)
        assert _max_linkage_matrix(clusters, shortest_paths).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_mirrors_the_upper_triangle_of_an_asymmetric_apsp(
        self, hierarchy_inputs, monkeypatch, shuffle, budget
    ):
        if budget is not None:
            monkeypatch.setattr(hierarchy, "_GATHER_BUDGET", budget)
        # APSP rows can differ from columns in the last ulp; the pairwise
        # definition reads rows of cluster i and columns of cluster j > i.
        _, shortest_paths, _ = hierarchy_inputs
        bumped = shortest_paths.copy()
        lower = np.tril_indices(bumped.shape[0], -1)
        bumped[lower] = np.nextafter(bumped[lower], np.inf)
        rng = np.random.default_rng(7) if shuffle else None
        clusters = _partition(range(bumped.shape[0]), [5, 9, 1, 15, 30], rng)
        expected = max_linkage_matrix(clusters, bumped)
        # The bump must be visible, or this test would not pin the mirror.
        assert not np.array_equal(expected, max_linkage_matrix(clusters, bumped.T))
        assert np.array_equal(_max_linkage_matrix(clusters, bumped), expected)

    def test_single_cluster(self, hierarchy_inputs):
        _, shortest_paths, _ = hierarchy_inputs
        clusters = _partition(range(6), [6])
        assert np.array_equal(_max_linkage_matrix(clusters, shortest_paths), np.zeros((1, 1)))

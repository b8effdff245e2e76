"""Tests for the three-level DBHT hierarchy and height assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import assign_vertices
from repro.core.direction import compute_directions
from repro.core import hierarchy
from repro.baselines.hac import linkage
from repro.core.hierarchy import (
    _complete_linkage,
    _group_blocks,
    _inter_group_maxima,
    _mirror_upper,
    _run_level,
    build_hierarchy,
)
from repro.core.tmfg import construct_tmfg
from repro.dendrogram.node import Dendrogram
from repro.graph.shortest_paths import all_pairs_shortest_paths
from repro.graph.weighted_graph import WeightedGraph
from tests.oracles import count_group_roots, max_linkage_matrix


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
    """Vertex sets of the given sizes over ``vertices`` (shuffled when ``rng``)."""
    order = list(vertices) if rng is None else [int(v) for v in rng.permutation(vertices)]
    members, start = [], 0
    for size in sizes:
        members.append(order[start : start + size])
        start += size
    return members


def _max_linkage_matrix(members, shortest_paths):
    """The maxima of both gathers, which must agree, as one array."""
    group_level = np.array(_group_blocks(members, shortest_paths)[0])
    top_level = np.array(_inter_group_maxima(members, shortest_paths))
    assert group_level.tobytes() == top_level.tobytes()
    return top_level


class TestMaxLinkageMatrix:
    """The group level's one gather + ``reduceat`` and the top level's
    column-only runs equal the pairwise ``np.ix_`` loop exactly, mirrored
    from the upper triangle."""

    @pytest.mark.parametrize("budget", [None, 600, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_oracle(self, hierarchy_inputs, monkeypatch, seed, budget):
        # A small gather budget splits the top level's rows into short runs
        # (budget 1: one row per run), as it does at scale.
        if budget is not None:
            monkeypatch.setattr(hierarchy, "_GATHER_BUDGET", budget)
        _, shortest_paths, _ = hierarchy_inputs
        rng = np.random.default_rng(seed)
        sizes = [1, 3, 7, 2, 12, 1, 20, 14]
        members = _partition(range(shortest_paths.shape[0]), sizes, rng)
        expected = max_linkage_matrix(members, shortest_paths)
        assert _max_linkage_matrix(members, shortest_paths).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [None, 600, 1])
    def test_own_blocks_are_each_sets_distances(self, hierarchy_inputs, monkeypatch, budget):
        # The intra-bubble level reads each subgroup's own block out of its
        # group's gather; it must be that subgroup's rows against its
        # columns, mirrored from the upper triangle.
        if budget is not None:
            monkeypatch.setattr(hierarchy, "_GATHER_BUDGET", budget)
        _, shortest_paths, _ = hierarchy_inputs
        bumped = shortest_paths.copy()
        lower = np.tril_indices(bumped.shape[0], -1)
        bumped[lower] = np.nextafter(bumped[lower], np.inf)
        sizes = [4, 1, 3, 2, 25, 4]
        members = _partition(range(bumped.shape[0]), sizes, np.random.default_rng(3))
        _, own = _group_blocks(members, bumped)
        assert len(own) == len(members)
        for vertices, block in zip(members, own):
            expected = _mirror_upper(bumped[np.ix_(vertices, vertices)])
            assert np.array(block).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_mirrors_the_upper_triangle_of_an_asymmetric_apsp(
        self, hierarchy_inputs, monkeypatch, shuffle, budget
    ):
        if budget is not None:
            monkeypatch.setattr(hierarchy, "_GATHER_BUDGET", budget)
        # APSP rows can differ from columns in the last ulp; the pairwise
        # definition reads rows of set i and columns of set j > i.
        _, shortest_paths, _ = hierarchy_inputs
        bumped = shortest_paths.copy()
        lower = np.tril_indices(bumped.shape[0], -1)
        bumped[lower] = np.nextafter(bumped[lower], np.inf)
        rng = np.random.default_rng(7) if shuffle else None
        members = _partition(range(bumped.shape[0]), [5, 9, 1, 15, 30], rng)
        expected = max_linkage_matrix(members, bumped)
        # The bump must be visible, or this test would not pin the mirror.
        assert not np.array_equal(expected, max_linkage_matrix(members, bumped.T))
        assert np.array_equal(_max_linkage_matrix(members, bumped), expected)

    def test_single_cluster(self, hierarchy_inputs):
        _, shortest_paths, _ = hierarchy_inputs
        members = _partition(range(6), [6])
        assert np.array_equal(_max_linkage_matrix(members, shortest_paths), np.zeros((1, 1)))


class TestTwoClusterLevel:
    """A level of two clusters emits the merge ``linkage`` would."""

    @pytest.mark.parametrize("distance", [0.0, 0.75, 3.0])
    def test_matches_linkage_merge(self, distance):
        # The lower triangle is ignored, as in the linkage matrix.
        maxima = np.array([[0.0, distance], [np.nextafter(distance, np.inf), 0.0]])
        dendrogram = Dendrogram(2)
        root, created = _run_level(
            dendrogram, [1, 0], _mirror_upper(maxima).tolist(), level="intra", group=5
        )
        expected = linkage(_mirror_upper(maxima), method="complete")
        assert expected.tolist() == [[0.0, 1.0, distance, 2.0]]
        node = dendrogram.node(2)
        assert (node.left, node.right) == (1, 0)
        assert node.distance == node.height == expected[0, 2]
        assert node.metadata == {"level": "intra", "group": 5}
        assert created == [(expected[0, 2], root, 2)]
        assert root == 2

    @pytest.mark.parametrize("distance", [np.inf, np.nan])
    def test_non_finite_distance_raises_like_linkage(self, distance):
        maxima = np.array([[0.0, distance], [0.0, 0.0]])
        with pytest.raises(ValueError) as expected:
            linkage(_mirror_upper(maxima), method="complete")
        with pytest.raises(ValueError) as raised:
            _run_level(Dendrogram(2), [0, 1], _mirror_upper(maxima).tolist(), level="intra")
        assert str(raised.value) == str(expected.value)


def _tie_heavy_block(k: int, seed: int, levels: int) -> np.ndarray:
    """A symmetric ``k x k`` block of dyadic distances drawn from ``levels``
    values (zero included), with a zero diagonal."""
    rng = np.random.default_rng(seed)
    return _mirror_upper(rng.integers(0, levels, size=(k, k)) / levels)


class TestListChain:
    """The list-based chain against ``hac.linkage`` on the same matrix."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        levels=st.sampled_from([1, 2, 4, 8, 64]),
    )
    def test_merges_are_linkages_bytes(self, k, seed, levels):
        block = _tie_heavy_block(k, seed, levels)
        expected = linkage(block, method="complete")
        merges = np.asarray(_complete_linkage(block.tolist()), dtype=float)
        assert merges.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_non_finite_entry_raises_like_linkage(self, k, seed, bad):
        block = _tie_heavy_block(k, seed, 4)
        rng = np.random.default_rng(seed)
        row = int(rng.integers(0, k - 1))
        column = int(rng.integers(row + 1, k))
        block[row, column] = block[column, row] = bad
        with pytest.raises(ValueError) as expected:
            linkage(block, method="complete")
        with pytest.raises(ValueError) as raised:
            _complete_linkage(block.tolist())
        assert str(raised.value) == str(expected.value)

    def test_one_cluster_has_no_merges(self):
        assert _complete_linkage([[0.0]]) == []


def test_inter_group_heights_add_the_groups_of_both_subtrees():
    # Four groups of two that pair up before the root merge: the root joins
    # two clusters of two groups each, so its height is 4.
    from repro.core.assignment import AssignmentResult

    labels = np.repeat(np.arange(4), 2)
    assignment = AssignmentResult(
        group=labels,
        bubble=labels,
        converging_bubbles=[0, 1, 2, 3],
        assigned_directly=np.ones(8, dtype=bool),
    )
    pair = labels // 2
    distances = np.where(pair[:, None] == pair[None, :], 2.0, 9.0)
    distances[labels[:, None] == labels[None, :]] = 1.0
    np.fill_diagonal(distances, 0.0)
    dendrogram = build_hierarchy(assignment, distances)
    groups = assignment.groups()
    heights = {
        node.id: node.height
        for node in dendrogram.internal_nodes()
        if node.metadata.get("level") == "inter_group"
    }
    assert sorted(heights.values()) == [2.0, 2.0, 4.0]
    for node_id, height in heights.items():
        assert height == float(count_group_roots(dendrogram, node_id, groups))


def test_inter_group_heights_match_leaf_scan(hierarchy_inputs):
    """Each inter-group node's height is the number of groups under it."""
    assignment, _, dendrogram = hierarchy_inputs
    groups = assignment.groups()
    inter_group = [
        node for node in dendrogram.internal_nodes() if node.metadata.get("level") == "inter_group"
    ]
    assert inter_group
    for node in inter_group:
        assert node.height == float(count_group_roots(dendrogram, node.id, groups))

"""Tests for the bubble tree (Algorithm 2).

Hand-built examples grow an :class:`tests.oracles.IncrementalBubbleTree`
(Algorithm 2 as written) and check the production :class:`BubbleTree`
assembled from its parent array; the TMFG's own tree is checked against
the same oracle in ``test_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bubble_tree import BubbleTree
from repro.core.tmfg import construct_tmfg
from repro.graph.faces import triangle_key

from tests.conftest import random_similarity_matrix
from tests.oracles import IncrementalBubbleTree


def manual_tree():
    """The worked example as a production tree."""
    return manual_incremental_tree().tree()


def manual_incremental_tree():
    """The worked example of Section V-A (Example 1, Fig. 2).

    Start from the clique {0,1,2,4} with outer face {0,1,2}; insert 3 into
    {0,1,2}, then 5 into {1,2,3} and 6 into {0,1,3}.
    """
    faces = [
        triangle_key(0, 1, 2),
        triangle_key(0, 1, 4),
        triangle_key(0, 2, 4),
        triangle_key(1, 2, 4),
    ]
    tree = IncrementalBubbleTree([0, 1, 2, 4], faces)
    tree.insert(3, triangle_key(0, 1, 2), is_outer_face=True)
    # After inserting 3 the outer face becomes {0,1,3} (Example 1), so the
    # insertion of 6 is an outer-face insertion while 5 goes into an inner face.
    tree.insert(5, triangle_key(1, 2, 3), is_outer_face=False)
    tree.insert(6, triangle_key(0, 1, 3), is_outer_face=True)
    return tree


class TestPaperExample:
    def test_bubble_vertex_sets(self):
        tree = manual_tree()
        vertex_sets = [set(b.vertices) for b in tree.bubbles]
        assert {0, 1, 2, 4} in vertex_sets
        assert {0, 1, 2, 3} in vertex_sets
        assert {1, 2, 3, 5} in vertex_sets
        assert {0, 1, 3, 6} in vertex_sets

    def test_edges_match_figure_2b(self):
        tree = manual_tree()
        # Figure 2(b): b1={0,1,2,4} and b4={1,2,3,5} are children of
        # b2={0,1,2,3}, and b3={0,1,3,6} is b2's parent (the root).
        b1 = next(b for b in tree.bubbles if set(b.vertices) == {0, 1, 2, 4})
        b2 = next(b for b in tree.bubbles if set(b.vertices) == {0, 1, 2, 3})
        b3 = next(b for b in tree.bubbles if set(b.vertices) == {0, 1, 3, 6})
        b4 = next(b for b in tree.bubbles if set(b.vertices) == {1, 2, 3, 5})
        assert b1.parent == b2.id
        assert b4.parent == b2.id
        assert b2.parent == b3.id
        assert tree.root_id == b3.id

    def test_separating_triangles(self):
        tree = manual_tree()
        b1 = next(b for b in tree.bubbles if set(b.vertices) == {0, 1, 2, 4})
        assert set(tree.separating_triangle(b1.id)) == {0, 1, 2}
        assert tree.interior_vertex(b1.id) == 4

    def test_invariants_hold(self):
        manual_tree().check_invariants()


class TestOuterFaceInsertion:
    def test_outer_face_insertion_changes_root(self):
        faces = [
            triangle_key(0, 1, 2),
            triangle_key(0, 1, 3),
            triangle_key(0, 2, 3),
            triangle_key(1, 2, 3),
        ]
        incremental = IncrementalBubbleTree([0, 1, 2, 3], faces)
        old_root = incremental.root_id
        new_id = incremental.insert(4, triangle_key(0, 1, 2), is_outer_face=True)
        tree = incremental.tree()
        assert tree.root_id == new_id
        assert tree.bubble(old_root).parent == new_id
        assert tree.bubble(new_id).children == [old_root]

    def test_inner_face_insertion_keeps_root(self):
        faces = [
            triangle_key(0, 1, 2),
            triangle_key(0, 1, 3),
            triangle_key(0, 2, 3),
            triangle_key(1, 2, 3),
        ]
        incremental = IncrementalBubbleTree([0, 1, 2, 3], faces)
        root = incremental.root_id
        new_id = incremental.insert(4, triangle_key(0, 1, 3), is_outer_face=False)
        tree = incremental.tree()
        assert tree.root_id == root
        assert tree.bubble(new_id).parent == root

    def test_outer_face_insertion_from_non_root_rejected(self):
        tree = manual_incremental_tree()
        # {1,2,5} is owned by a non-root bubble; claiming it is the outer face
        # must fail the consistency check.
        with pytest.raises(ValueError):
            tree.insert(9, triangle_key(1, 2, 5), is_outer_face=True)

    def test_unknown_face_rejected(self):
        tree = manual_incremental_tree()
        with pytest.raises(KeyError):
            tree.insert(9, triangle_key(0, 4, 6), is_outer_face=False)


class TestConstructionValidation:
    def test_initial_clique_must_have_four_vertices(self):
        with pytest.raises(ValueError):
            BubbleTree([frozenset({0, 1, 2})], [-1])
        with pytest.raises(ValueError):
            IncrementalBubbleTree([0, 1, 2], [triangle_key(0, 1, 2)])

    def test_initial_faces_must_belong_to_clique(self):
        with pytest.raises(ValueError):
            IncrementalBubbleTree([0, 1, 2, 3], [triangle_key(0, 1, 9)])

    def test_exactly_one_root(self):
        bubbles = [frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})]
        with pytest.raises(ValueError):
            BubbleTree(bubbles, [-1, -1])
        with pytest.raises(ValueError):
            BubbleTree(bubbles, [-1])

    def test_children_come_out_in_ascending_id_order(self):
        incremental = manual_incremental_tree()
        tree = incremental.tree()
        for expected, bubble in zip(incremental.bubbles, tree.bubbles):
            assert bubble.children == expected.children == sorted(expected.children)
            assert bubble.parent == expected.parent
            assert list(bubble.vertices) == list(expected.vertices)
        assert tree.root_id == incremental.root_id


class TestFromTMFG:
    @pytest.mark.parametrize("prefix", [1, 4, 16])
    def test_one_bubble_per_inserted_vertex(self, small_matrices, prefix):
        similarity, _ = small_matrices
        n = similarity.shape[0]
        result = construct_tmfg(similarity, prefix=prefix)
        assert result.bubble_tree is not None
        assert result.bubble_tree.num_bubbles == n - 3
        result.bubble_tree.check_invariants()

    @pytest.mark.parametrize("prefix", [1, 8])
    def test_every_vertex_is_in_some_bubble(self, small_matrices, prefix):
        similarity, _ = small_matrices
        result = construct_tmfg(similarity, prefix=prefix)
        tree = result.bubble_tree
        for vertex in range(similarity.shape[0]):
            assert tree.bubbles_of_vertex(vertex), f"vertex {vertex} not in any bubble"

    def test_topological_order_starts_at_root(self, small_tmfg):
        tree = small_tmfg.bubble_tree
        order = tree.topological_order()
        assert order[0] == tree.root_id
        assert sorted(order) == list(range(tree.num_bubbles))

    def test_descendants_of_root_cover_all_vertices(self, small_tmfg):
        tree = small_tmfg.bubble_tree
        n = small_tmfg.graph.num_vertices
        assert tree.descendants_vertices(tree.root_id) == set(range(n))

    def test_tree_height_bounded_by_rounds_times_two(self, batched_tmfg):
        # Each round can increase the height by at most 2 (Section VI).
        tree = batched_tmfg.bubble_tree
        assert tree.height() <= 2 * batched_tmfg.rounds + 1

    def test_tree_edges_form_a_tree(self, small_tmfg):
        tree = small_tmfg.bubble_tree
        assert len(tree.edges()) == tree.num_bubbles - 1

    def test_random_matrix_invariants(self):
        similarity = random_similarity_matrix(40, seed=9)
        result = construct_tmfg(similarity, prefix=6)
        result.bubble_tree.check_invariants()

import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loop_reference as ref
from laakso_lab.errors import CapacityError, DomainError
from laakso_lab.laakso_graph import BLOCK_CELLS
from laakso_lab.tree_space import (
    MAX_ENUMERATED_NODES,
    MIN_BLOCK_ROWS,
    ROOT,
    TreeNode,
    TreeSpace,
    tree_distance,
    to_json_vertices,
)


def tree_parent(node: TreeNode) -> TreeNode | None:
    """Drop the largest element; the root has no parent."""
    return None if node.is_root else TreeNode(node.elements[:-1])


def incr_tuples(max_val=12, max_len=6):
    return st.lists(
        st.integers(min_value=1, max_value=max_val),
        max_size=max_len, unique=True,
    ).map(lambda xs: TreeNode(tuple(sorted(xs))))


class TestTreeNode:
    def test_root_is_empty(self):
        assert ROOT.elements == ()
        assert ROOT.level == 0
        assert ROOT.is_root

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            TreeNode((2, 2))
        with pytest.raises(ValueError):
            TreeNode((3, 1))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            TreeNode((0,))
        with pytest.raises(ValueError):
            TreeNode((-1, 2))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, False, "1", None])
    def test_rejects_non_integer_elements(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            TreeNode((bad,))

    def test_child_appends_element(self):
        n = TreeNode((1, 3))
        assert n.child(4).elements == (1, 3, 4)
        assert n.child(5).elements == (1, 3, 5)
        assert ROOT.child(5).elements == (5,)

    def test_child_rejects_non_increasing_element(self):
        with pytest.raises(ValueError):
            TreeNode((2,)).child(2)

    def test_prefix(self):
        assert ROOT.is_prefix_of(TreeNode((4,)))
        assert TreeNode((1, 2)).is_prefix_of(TreeNode((1, 2, 7)))
        assert not TreeNode((1, 3)).is_prefix_of(TreeNode((1, 2, 7)))

    def test_str(self):
        assert str(TreeNode((1, 2))) == "{1,2}"
        assert str(ROOT) == "{}"

    def test_parent(self):
        assert tree_parent(TreeNode((1, 2))) == TreeNode((1,))
        assert tree_parent(TreeNode((3,))) == ROOT
        assert tree_parent(ROOT) is None


class TestDistance:
    def test_examples(self):
        # |J| + |K| - 2|lcp|
        assert tree_distance(TreeNode((1, 2)), TreeNode((1, 3))) == 2
        assert tree_distance(ROOT, TreeNode((1, 2, 3))) == 3
        assert tree_distance(TreeNode((2,)), TreeNode((2,))) == 0
        assert tree_distance(TreeNode((1, 2, 4)), TreeNode((1, 2, 5, 6))) == 3

    @given(incr_tuples(), incr_tuples())
    def test_is_the_common_prefix_formula(self, a, b):
        # The closest common ancestor is the longest common prefix.
        common = 0
        for x, y in zip(a.elements, b.elements):
            if x != y:
                break
            common += 1
        assert tree_distance(a, b) == a.level + b.level - 2 * common

    @given(incr_tuples(), incr_tuples())
    def test_symmetry(self, a, b):
        assert tree_distance(a, b) == tree_distance(b, a)

    @given(incr_tuples(), incr_tuples(), incr_tuples())
    def test_triangle(self, a, b, c):
        assert tree_distance(a, c) <= tree_distance(a, b) + tree_distance(b, c)

    @given(incr_tuples(), incr_tuples())
    def test_zero_iff_equal(self, a, b):
        assert (tree_distance(a, b) == 0) == (a == b)

    @given(incr_tuples())
    def test_level_is_distance_to_root(self, a):
        assert tree_distance(ROOT, a) == a.level


class TestTreeSpace:
    def test_size_formula(self):
        # sum of b**k for k = 0..d
        assert TreeSpace(2, 3).size() == 1 + 2 + 4 + 8
        assert TreeSpace(3, 2).size() == 1 + 3 + 9

    @pytest.mark.parametrize("b,d", [(b, d) for b in range(1, 5)
                                     for d in range(6)] + [(8, 81)])
    def test_size_is_the_closed_form(self, b, d):
        # the geometric sum in closed form; T(8,81) is above the cap
        want = d + 1 if b == 1 else (b ** (d + 1) - 1) // (b - 1)
        assert TreeSpace(b, d).size() == want

    def test_enumeration_is_sorted_dfs(self):
        space = TreeSpace(2, 2)
        labels = [n.elements for n in space.nodes()]
        assert labels == [
            (), (1,), (1, 2), (1, 3), (2,), (2, 3), (2, 4),
        ]
        # lexicographic on element tuples coincides with DFS preorder here
        assert labels == sorted(labels)

    def test_children(self):
        space = TreeSpace(3, 2)
        kids = space.children(TreeNode((2,)))
        assert [k.elements for k in kids] == [(2, 3), (2, 4), (2, 5)]
        assert space.children(TreeNode((2, 3))) == []  # at depth
        kids = TreeSpace(2, 3).children(TreeNode((1,)))
        assert [k.elements for k in kids] == [(1, 2), (1, 3)]

    def test_contains(self):
        space = TreeSpace(2, 3)
        assert TreeNode((1, 2, 3)) in space
        assert TreeNode((1, 2, 3, 4)) not in space  # too deep
        assert TreeNode((1, 4)) not in space  # offset 3 exceeds branching

    @pytest.mark.parametrize("b,d", [(2, 3), (3, 2)])
    def test_contains_iff_rank_of_accepts(self, b, d):
        space = TreeSpace(b, d)

        def ranked(node):
            try:
                space.rank_of(node)
            except DomainError:
                return False
            return True

        deep = TreeNode(tuple(range(1, d + 2)))  # one level too deep
        wide = TreeNode((b + 1,))  # an increment of b + 1
        for node in space.nodes():
            assert node in space and ranked(node)
        for node in (deep, wide):
            assert node not in space and not ranked(node)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            TreeSpace(2, 40).nodes()
        with pytest.raises(CapacityError):
            TreeSpace(2, 40).distance_block(0, 1)

    def test_json_vertices(self):
        out = to_json_vertices(TreeSpace(2, 1))
        assert out == [
            {"elements": [], "level": 0},
            {"elements": [1], "level": 1},
            {"elements": [2], "level": 1},
        ]


def block_matrix(space, blocks):
    """The full distance matrix written from ``distance_block`` over the
    runs ``blocks``, each block and its transpose."""
    size = space.size()
    out = np.full((size, size), -1, dtype=np.int64)
    for start, stop in blocks:
        block = space.distance_block(start, stop)
        assert np.issubdtype(block.dtype, np.integer)
        assert block.shape == (stop - start, size - start)
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
    return out


def reference_matrix(space):
    return np.array([row for _, row in ref.distance_rows(space)])


class TestDistanceBlocks:
    """The blocks of running minima against three independent routes: the
    closed-form point distance, shortest paths over the parent edges, and
    the slice-write rows of ``loop_reference``."""

    @pytest.mark.parametrize("b,d", [(3, 0), (1, 5), (2, 4), (3, 3), (2, 9)])
    def test_blocks_are_the_point_distances_in_node_order(self, b, d):
        space = TreeSpace(b, d)
        nodes = space.nodes()
        blocks = list(space.rank_blocks())
        assert [r for s, e in blocks for r in range(s, e)] == list(
            range(len(nodes)))
        dist = block_matrix(space, blocks)
        for J, row in zip(nodes, dist):
            assert row.tolist() == [tree_distance(J, K) for K in nodes]

    def test_blocks_build_no_nodes(self, monkeypatch):
        space = TreeSpace(3, 3)
        nodes = space.nodes()

        def refuse(self):
            raise AssertionError("distance_block enumerated the nodes")

        monkeypatch.setattr(TreeSpace, "nodes", refuse)
        dist = block_matrix(space, space.rank_blocks())
        for J, row in zip(nodes, dist):
            assert row.tolist() == [tree_distance(J, K) for K in nodes]

    @pytest.mark.parametrize("b,d", [(2, 4), (3, 3)])
    def test_blocks_are_networkx_path_lengths(self, b, d):
        nx = pytest.importorskip("networkx")
        space = TreeSpace(b, d)
        nodes = space.nodes()
        tree = nx.Graph()
        tree.add_nodes_from(nodes)
        tree.add_edges_from((tree_parent(J), J) for J in nodes[1:])
        lengths = dict(nx.all_pairs_shortest_path_length(tree))
        dist = block_matrix(space, space.rank_blocks())
        for J, row in zip(nodes, dist):
            assert row.tolist() == [lengths[J][K] for K in nodes]

    @pytest.mark.parametrize("b,d", [(1, 5), (2, 4), (3, 3), (2, 9), (4, 3),
                                     (3, 0)])
    @pytest.mark.parametrize("width", [1, 3, 32, None])
    def test_every_block_width_gives_the_reference_matrix(self, b, d, width):
        # None is one block of the whole space; 3 leaves a short last
        # block on T(2,4), T(3,3) and T(4,3), and 32 on T(3,3), T(2,9) and
        # T(4,3).
        space = TreeSpace(b, d)
        size = space.size()
        width = width or size
        blocks = [(s, min(s + width, size)) for s in range(0, size, width)]
        assert block_matrix(space, blocks).tolist() == (
            reference_matrix(space).tolist())

    @pytest.mark.parametrize("b,d", [(3, 0), (2, 4)])
    def test_an_empty_run_is_an_empty_block(self, b, d):
        space = TreeSpace(b, d)
        size = space.size()
        for start in (0, size // 2, size):
            assert space.distance_block(start, start).shape == (
                0, size - start)

    @pytest.mark.parametrize("start,stop", [(-1, 2), (3, 2), (0, 32),
                                            (31, 32)])
    def test_a_run_outside_the_space_is_refused(self, start, stop):
        with pytest.raises(DomainError, match="not a run inside 0..31"):
            TreeSpace(2, 4).distance_block(start, stop)

    @pytest.mark.parametrize("d,dtype", [(63, np.int8), (64, np.int16)])
    def test_the_dtype_holds_the_deepest_values(self, d, dtype):
        # A path of depth d holds the distance d; -2 * depth is formed on
        # the way, and int8 holds -2 * 63 - 1 but not -2 * 64 - 1.
        space = TreeSpace(1, d)
        assert space.distance_dtype == dtype
        assert block_matrix(space, space.rank_blocks()).tolist() == (
            reference_matrix(space).tolist())

    @pytest.mark.parametrize("b,d,step", [(2, 4, 1057), (2, 9, 32),
                                          (3, 9, MIN_BLOCK_ROWS)])
    def test_rank_blocks_hold_the_cell_budget_or_the_row_floor(self, b, d,
                                                               step):
        space = TreeSpace(b, d)
        size = space.size()
        blocks = list(space.rank_blocks())
        assert blocks[0] == (0, min(step, size))
        assert [r for s, e in blocks for r in range(s, e)] == list(range(size))
        for start, stop in blocks:
            cells = (stop - start) * (size - start)
            assert cells <= BLOCK_CELLS or stop - start <= MIN_BLOCK_ROWS
            assert cells < size * size or size * size <= BLOCK_CELLS


class TestRanks:
    """Span arithmetic against the enumeration: ranks are ``nodes()``
    positions, and rank distances are the closed-form point distances."""

    @pytest.mark.parametrize("b,d", [(2, 9), (3, 4), (4, 3)])
    def test_node_at_and_rank_of_round_trip_on_every_node(self, b, d):
        space = TreeSpace(b, d)
        nodes = space.nodes()
        assert [space.rank_of(J) for J in nodes] == list(range(len(nodes)))
        assert [space.node_at(r) for r in range(len(nodes))] == list(nodes)
        assert space.spans[0] == space.size() == len(nodes)

    @pytest.mark.parametrize("b,d", [(3, 0), (1, 5), (2, 4), (3, 3)])
    def test_levels_and_child_ranks_in_node_order(self, b, d):
        # Every non-root node is the k-th child of its parent, k its
        # increment, at the child rank of its parent's rank.
        space = TreeSpace(b, d)
        nodes = space.nodes()
        assert space.levels.tolist() == [J.level for J in nodes]
        for J in nodes[1:]:
            parent = tree_parent(J)
            k = J.elements[-1] - (parent.elements[-1] if parent.level else 0)
            assert space.child_ranks(space.rank_of(parent), J.level - 1,
                                     k) == space.rank_of(J)

    @pytest.mark.parametrize("node,message", [
        ((1, 4), r"increment 3, outside 1\.\.2"),
        ((3,), r"increment 3, outside 1\.\.2"),
        ((1, 2, 3, 4), r"level 4 > depth 3"),
    ])
    def test_rank_of_refuses_a_node_outside_the_space(self, node, message):
        with pytest.raises(DomainError, match=message):
            TreeSpace(2, 3).rank_of(TreeNode(node))

    @pytest.mark.parametrize("rank", [-1, 15, 16, 10**6])
    def test_node_at_refuses_a_rank_outside_the_space(self, rank):
        with pytest.raises(DomainError, match=r"outside 0\.\.14"):
            TreeSpace(2, 3).node_at(rank)

    @pytest.mark.parametrize("i,j,rank", [
        ([0, 0, 3], [15, 10**6, -1], 15),
        ([-1], [0], -1),
        ([3, 10**6], [14, 0], 10**6),
    ])
    def test_rank_distance_refuses_a_rank_outside_the_space(self, i, j,
                                                            rank):
        with pytest.raises(DomainError,
                           match=rf"rank {rank} is outside 0\.\.14"):
            TreeSpace(2, 3).rank_distance(i, j)

    def test_refusals_are_bad_input(self):
        # DomainError is the ValueError that the command line reports as
        # exit 2.
        assert issubclass(DomainError, ValueError)

    def test_rank_arithmetic_runs_above_the_cap(self):
        space = TreeSpace(2, 27)
        node = TreeNode(tuple(range(1, 28)))
        assert space.size() > MAX_ENUMERATED_NODES
        assert space.rank_of(node) == 27
        assert space.node_at(space.size() - 1) == TreeNode(
            tuple(range(2, 56, 2)))
        far = space.rank_of(TreeNode((2, 4)))
        assert space.rank_distance([27, far], [far, 0]).tolist() == [29, 2]
        with pytest.raises(CapacityError):
            space.levels

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rank_distances_of_the_sampled_pairs(self, seed):
        # The pairs verify_projection draws at (2,3): the same seeded stream.
        space = TreeSpace(3, 9)
        nodes = space.nodes()
        i, j = np.array(
            ref.sample_pairs(random.Random(seed), len(nodes), 20_000)).T
        assert space.rank_distance(i, j).tolist() == [
            tree_distance(nodes[a], nodes[b]) for a, b in zip(i, j)
        ]

    @pytest.mark.parametrize("b,d", [(1, 4), (2, 4), (3, 3)])
    def test_rank_distances_of_every_pair(self, b, d):
        space = TreeSpace(b, d)
        nodes = space.nodes()
        i, j = np.indices((len(nodes), len(nodes))).reshape(2, -1)
        assert space.rank_distance(i, j).tolist() == [
            tree_distance(nodes[a], nodes[b]) for a, b in zip(i, j)
        ]

"""Truncated realizations of the countably branching tree of finite sets.

A node is a strictly increasing tuple of positive integers; the empty tuple
is the root.  Children of a node append one element larger than the current
maximum, so the ancestor relation is "is a prefix of", and the graph metric
of the tree has the closed form

    d(J, K) = |J| + |K| - 2 * |lcp(J, K)|

since the unique path between two nodes climbs from J up to the longest
common prefix and then descends to K.

``TreeSpace(b, d)`` truncates the tree to finitely many nodes: increments are
bounded by ``b`` (children of J are J + (max(J)+k,) for k = 1..b, and (k,)
for the root) and levels are bounded by ``d``.  The node count, ``spans[0]``
below, is sum(b**k for k in 0..d).  The distance formula itself is valid
for arbitrary strictly increasing tuples, truncated or not.

Nodes are also addressed by their rank, their index in depth-first
preorder (the order of ``nodes()``), where every subtree is a contiguous
rank range: the subtree of a node at level l spans ``spans[l]`` ranks, and
the k-th child of the node at rank r has rank r + 1 + (k - 1) * spans[l+1].
``node_at`` and ``rank_of`` convert between the two addresses in O(d) of
this span arithmetic, ``child_ranks`` is its child step on arrays of
ranks, and ``rank_distance`` computes distances of rank pairs by it, an
array of pairs at a time, with no node built.  The level of every rank is
built once per space as an array, and whole rows of the metric come from
it a block at a time (``distance_block``): in preorder the lcp depth of
two ranks is bounded by the shallowest level between them, so a run of
consecutive ranks takes its rows against every later rank from running
minima of the levels.  ``rank_blocks`` cuts the ranks into runs whose
blocks hold at most ``BLOCK_CELLS`` cells, the graph's block budget, or
``MIN_BLOCK_ROWS`` rows where the rows are longer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError
from .laakso_graph import BLOCK_CELLS

# Hard ceiling on how many nodes we are willing to materialize at once.
MAX_ENUMERATED_NODES = 2**21
# The fewest ranks one block of ``TreeSpace.rank_blocks`` takes.
MIN_BLOCK_ROWS = 16


@dataclass(frozen=True, order=True)
class TreeNode:
    """A tree vertex: a strictly increasing tuple of positive integers."""

    elements: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        prev = 0
        for m in elems:
            if type(m) is not int:  # a bool is an int subclass: refused
                raise ValueError(
                    f"tree node elements must be integers, got {m!r}"
                )
            if m <= prev:
                raise ValueError(
                    f"elements must be strictly increasing positive integers: {elems!r}"
                )
            prev = m

    @property
    def level(self) -> int:
        return len(self.elements)

    @property
    def is_root(self) -> bool:
        return not self.elements

    def child(self, m: int) -> "TreeNode":
        return TreeNode(self.elements + (m,))

    def is_prefix_of(self, other: "TreeNode") -> bool:
        k = len(self.elements)
        return self.elements == other.elements[:k]

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.elements) + "}"


ROOT = TreeNode()


def tree_distance(a: TreeNode, b: TreeNode) -> int:
    """Graph distance |a| + |b| - 2|lcp(a, b)|. Valid for any two nodes."""
    n = 0
    for x, y in zip(a.elements, b.elements):
        if x != y:
            break
        n += 1
    return len(a.elements) + len(b.elements) - 2 * n


@dataclass(frozen=True)
class TreeSpace:
    """The truncated tree T_{b,d}: increments in 1..b, levels at most d."""

    branching: int
    depth: int

    def __post_init__(self) -> None:
        if self.branching < 1:
            raise ValueError(f"branching must be >= 1, got {self.branching}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    def size(self) -> int:
        return self.spans[0]

    def __contains__(self, node: TreeNode) -> bool:
        """Whether ``rank_of`` gives the node a rank."""
        try:
            self.rank_of(node)
        except DomainError:
            return False
        return True

    def children(self, node: TreeNode) -> list[TreeNode]:
        """Ordered children inside the space; empty at the depth bound."""
        if node.level >= self.depth:
            return []
        base = node.elements[-1] if node.elements else 0
        return [node.child(base + k) for k in range(1, self.branching + 1)]

    def _require_enumerable(self) -> None:
        if self.size() > MAX_ENUMERATED_NODES:
            raise CapacityError(
                f"T_({self.branching},{self.depth}) has {self.size()} nodes, "
                f"above the enumeration cap of {MAX_ENUMERATED_NODES}"
            )

    def nodes(self) -> tuple[TreeNode, ...]:
        """All nodes in lexicographic (depth-first preorder) order."""
        self._require_enumerable()
        out: list[TreeNode] = []
        # Explicit stack, children pushed last-first so the first pops next:
        # a depth-first walk needs no Python frame per level.
        stack = [ROOT]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children(node)))
        return tuple(out)

    @cached_property
    def spans(self) -> tuple[int, ...]:
        """``spans[l]``: the number of nodes in a subtree whose root is at
        level l, for l = 0..depth; ``spans[0]`` is the size."""
        out = [1]
        for _ in range(self.depth):
            out.append(1 + self.branching * out[-1])
        return tuple(reversed(out))

    @cached_property
    def levels(self) -> np.ndarray:
        """The level of every rank, as an int32 array, built from the
        recursion alone: a subtree of height h is its root followed by b
        subtrees of height h - 1, one level deeper.  No node is built; the
        enumeration cap applies."""
        self._require_enumerable()
        root = levels = np.zeros(1, dtype=np.int32)
        for _ in range(self.depth):
            levels = np.concatenate([root] + [levels + 1] * self.branching)
        return levels

    def child_ranks(self, ranks, levels, k) -> np.ndarray:
        """The ranks of the k-th children of the nodes at ``ranks`` on
        ``levels``, r + 1 + (k - 1) * spans[l + 1]: past the parent and the
        subtrees of its k - 1 earlier children.  Each argument is an
        integer or an integer array; arrays broadcast."""
        return ranks + (1 + (k - 1) * np.asarray(self.spans)[levels + 1])

    def rank_of(self, node: TreeNode) -> int:
        """The rank of ``node``: each step down to a k-th child skips the
        node above and the k - 1 subtrees of its earlier children.  A node
        below the depth or with an increment outside 1..b is refused."""
        if node.level > self.depth:
            raise DomainError(
                f"node {node} has level {node.level} > depth {self.depth}")
        rank = prev = 0
        for span, m in zip(self.spans[1:], node.elements):
            k = m - prev
            if not 1 <= k <= self.branching:
                raise DomainError(f"node {node} has increment {k}, outside "
                                  f"1..{self.branching}")
            rank += 1 + (k - 1) * span
            prev = m
        return rank

    def node_at(self, rank: int) -> TreeNode:
        """The node of rank ``rank``, for 0 <= rank < size: from the root,
        each step enters the child whose subtree range holds the rank."""
        rank = operator.index(rank)
        if not 0 <= rank < self.size():
            raise DomainError(
                f"rank {rank} is outside 0..{self.size() - 1}")
        at = last = 0
        elements = []
        for span in self.spans[1:]:
            if at == rank:
                break
            k = (rank - at - 1) // span + 1
            at += 1 + (k - 1) * span
            last += k
            elements.append(last)
        return TreeNode(tuple(elements))

    def rank_distance(self, i, j) -> np.ndarray:
        """Tree distances between the nodes at ranks ``i[k]`` and ``j[k]``,
        by span arithmetic over arrays of ranks: both ancestor chains are
        walked down from the root together, one level per step, each
        entering the child whose range holds its rank until it reaches
        it; the chains agree down to the lcp.  O(d) array steps and O(len)
        memory, no node built, no cap.  A rank outside 0..size - 1 is
        refused, as by ``node_at``."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        ranks = np.concatenate([i.ravel(), j.ravel()])
        outside = ranks[(ranks < 0) | (ranks >= self.size())]
        if len(outside):
            raise DomainError(
                f"rank {outside[0]} is outside 0..{self.size() - 1}")
        ai, aj = np.zeros_like(i), np.zeros_like(j)
        li, lj, lcp = np.zeros_like(i), np.zeros_like(j), np.zeros_like(i)
        for span in self.spans[1:]:
            down_i, down_j = ai != i, aj != j
            ai = np.where(down_i, ai + 1 + (i - ai - 1) // span * span, ai)
            aj = np.where(down_j, aj + 1 + (j - aj - 1) // span * span, aj)
            li += down_i
            lj += down_j
            lcp += down_i & down_j & (ai == aj)
        return li + lj - 2 * lcp

    @property
    def distance_dtype(self) -> np.dtype:
        """The narrowest signed integer dtype that holds -2 * depth - 1 and
        2 * depth + 1, so every value ``distance_block`` forms, and one
        past the diameter 2 * depth."""
        return np.min_scalar_type(-2 * self.depth - 1)

    def rank_blocks(self) -> Iterator[tuple[int, int]]:
        """Consecutive rank ranges ``(start, stop)``, in order and covering
        the space, of max(MIN_BLOCK_ROWS, BLOCK_CELLS // size) ranks each
        (the last may be shorter): a ``distance_block`` holds at most
        BLOCK_CELLS cells, or MIN_BLOCK_ROWS rows where that many rows are
        longer, since below that the per-block overhead dominates."""
        size = self.size()
        step = max(MIN_BLOCK_ROWS, BLOCK_CELLS // size)
        return ((s, min(s + step, size)) for s in range(0, size, step))

    def distance_block(self, start: int, stop: int) -> np.ndarray:
        """Tree distances from each rank i in start..stop - 1 to each rank j
        in start..size - 1, an array of shape (stop - start, size - start)
        in ``distance_dtype``: a run of ranks against itself and every
        later rank; the earlier ranks' columns are the rows of earlier runs,
        by symmetry.

        In preorder the lcp depth of ranks i < j is min(level[i],
        min(level[i+1..j]) - 1): j lies in the subtree of i while every
        rank between is deeper, and otherwise the shallowest rank in
        (i, j] is a child of their deepest common ancestor.  So within the
        run each row is one running minimum, and a later column j >= stop
        takes min(lcp(i, stop - 1), min(level[stop..j]) - 1): one running
        minimum of the levels past the run, shared by every row, against
        one lcp per row.  The distance is level[i] + level[j] - 2 * lcp,
        exact integers.  Only ``levels`` is read, no node is built, and
        the enumeration cap applies."""
        levels = self.levels
        if not 0 <= start <= stop <= len(levels):
            raise DomainError(f"ranks {start}..{stop} are not a run inside "
                              f"0..{len(levels)}")
        later = levels[start:].astype(self.distance_dtype)
        count = stop - start
        rows = later[:count]
        out = np.empty((count, len(later)), dtype=later.dtype)
        if not count:
            return out
        # lcp[i, j] for j > i, and the level of row i itself elsewhere, so
        # the lesser of lcp and its transpose is the run's own lcp table.
        lcp = np.where(np.arange(count) > np.arange(count)[:, None], rows,
                       self.depth + 1)
        np.minimum.accumulate(lcp, axis=1, out=lcp)
        lcp -= 1
        np.minimum(lcp, rows[:, None], out=lcp)
        np.minimum(lcp, lcp.T, out=out[:, :count])
        np.minimum(lcp[:, -1:], np.minimum.accumulate(later[count:]) - 1,
                   out=out[:, count:])
        out *= -2
        out += later
        out += rows[:, None]
        return out


def to_json_vertices(space: TreeSpace) -> list[dict]:
    """JSON form: one record per node, lexicographic order."""
    return [
        {"elements": list(n.elements), "level": n.level} for n in space.nodes()
    ]

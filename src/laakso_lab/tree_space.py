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
for the root) and levels are bounded by ``d``.  The node count is
sum(b**k for k in 0..d).  The distance formula itself is valid for arbitrary
strictly increasing tuples, truncated or not.

Whole rows of the metric come from the enumeration order instead: in
depth-first preorder every subtree is a contiguous index range, so the lcp
depths of one node against all others are the levels of its ancestors
written over their ranges, root first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import CapacityError

# Hard ceiling on how many nodes we are willing to materialize at once.
MAX_ENUMERATED_NODES = 2**21


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


def tree_parent(node: TreeNode) -> Optional[TreeNode]:
    """Drop the largest element; the root has no parent."""
    if node.is_root:
        return None
    return TreeNode(node.elements[:-1])


def tree_lcp(a: TreeNode, b: TreeNode) -> TreeNode:
    """Longest common prefix, i.e. the closest common ancestor."""
    return TreeNode(a.elements[: (a.level + b.level - tree_distance(a, b)) // 2])


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
        b, d = self.branching, self.depth
        if b == 1:
            return d + 1
        return (b ** (d + 1) - 1) // (b - 1)

    def __contains__(self, node: TreeNode) -> bool:
        if node.level > self.depth:
            return False
        prev = 0
        for m in node.elements:
            if not 1 <= m - prev <= self.branching:
                return False
            prev = m
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

        def walk(node: TreeNode) -> None:
            out.append(node)
            for c in self.children(node):
                walk(c)

        walk(ROOT)
        return tuple(out)

    def distance_rows(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(i, row)`` for each node in ``nodes()`` order, where
        ``row[j]`` is the tree distance from node i to node j.

        The subtree of a node at level l is the index range of the next
        ``TreeSpace(b, d - l).size()`` nodes, so the lcp depth of node i
        against every node is built by writing the level of each ancestor
        of i (i included) over its range, root first, and the row is
        level(i) + level - 2 * lcp: exact integers, one slice write per
        ancestor, O(size) memory per row.  The preorder levels come from
        the shape alone: a subtree of height h is its root followed by b
        subtrees of height h - 1, one level deeper; no node is built."""
        self._require_enumerable()
        root = levels = np.zeros(1, dtype=np.int32)
        span = [1]  # span[h]: the nodes of a subtree of height h
        for _ in range(self.depth):
            levels = np.concatenate([root] + [levels + 1] * self.branching)
            span.append(len(levels))
        span.reverse()  # now indexed by the level of the subtree's root
        # (start, level) of the ancestors: in preorder, the latest node
        # seen at each lower level is the current node's ancestor there.
        chain: list[tuple[int, int]] = []
        for i, lv in enumerate(levels.tolist()):
            del chain[lv:]
            chain.append((i, lv))
            row = np.empty_like(levels)  # the lcp depths, then distances
            for a, la in chain:
                row[a:a + span[la]] = la
            row *= -2
            row += levels
            row += lv
            yield i, row


def to_json_vertices(space: TreeSpace) -> list[dict]:
    """JSON form: one record per node, lexicographic order."""
    return [
        {"elements": list(n.elements), "level": n.level} for n in space.nodes()
    ]

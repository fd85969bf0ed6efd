"""Level-preserving projection from a truncated branching tree onto a
recursive graph of matching branching, plus the exact downward lift.

The projection sends the tree root to the graph root and works downward: a
tree child takes the image's unique child when the image does not branch,
and otherwise the image child with the same fraternal index.  The reverse
direction lifts any graph vertex below the image of a tree node back to a
tree descendant, walking the graph's downward path and taking index 1 at
non-branching steps.  The lift lands exactly level-many steps down the
tree, so on ancestor pairs the projection loses no distance at all: it is
1-Lipschitz globally and exactly isometric along descent chains.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import DomainError, RelationError
from .laakso_graph import LaaksoGraph, VertexId
from .tree_space import ROOT, TreeNode, TreeSpace, tree_distance

EXHAUSTIVE_NODE_LIMIT = 2**12
PREIMAGE_SAMPLE = 256


class TreeToGraphMap:
    """The projection T_{b,d} -> G_n with d = 3**n and matching branching.

    The memo of computed images only grows and every query is pure given the
    memo, so instances are safe for concurrent reads.  ``_flip_node`` is a
    test hook: at that one tree node the fraternal index is deliberately
    mis-wired to the next sibling, which verification must catch.
    """

    def __init__(
        self,
        tree: TreeSpace,
        graph: LaaksoGraph,
        _flip_node: Optional[TreeNode] = None,
    ):
        if tree.branching != graph.b:
            raise ValueError(
                f"tree branching {tree.branching} != graph branching {graph.b}"
            )
        if tree.depth != 3**graph.n:
            raise ValueError(
                f"tree depth {tree.depth} != graph span {3 ** graph.n}"
            )
        self.tree = tree
        self.graph = graph
        self._flip_node = _flip_node
        self._memo: dict[TreeNode, VertexId] = {ROOT: graph.root}

    def image(self, node: TreeNode) -> VertexId:
        memo = self._memo
        hit = memo.get(node)
        if hit is not None:
            return hit
        if node.level > self.tree.depth:
            raise DomainError(
                f"node {node} has level {node.level} > depth {self.tree.depth}"
            )
        parent = TreeNode(node.elements[:-1])
        above = self.image(parent)
        kids = self.graph.children(above)
        if len(kids) == 1:
            img = kids[0]
        else:
            base = parent.elements[-1] if parent.elements else 0
            k = node.elements[-1] - base
            if not 1 <= k <= len(kids):
                raise DomainError(
                    f"node {node} has fraternal index {k}, "
                    f"but {self.graph.label(above)} has {len(kids)} children"
                )
            if node == self._flip_node:
                img = kids[k % len(kids)]
            else:
                img = kids[k - 1]
        memo[node] = img
        return img

    def lift(self, node: TreeNode, target: VertexId) -> TreeNode:
        """The tree descendant of ``node`` that projects onto ``target``,
        one level per step, index 1 wherever the image does not branch.
        Tree distance from ``node`` equals graph distance exactly."""
        start = self.image(node)
        path = self.graph.downward_path(start, target)
        cur = node
        for i in range(1, len(path)):
            kids = self.graph.children(path[i - 1])
            k = 1 if len(kids) == 1 else kids.index(path[i]) + 1
            base = cur.elements[-1] if cur.elements else 0
            cur = cur.child(base + k)
        return cur


def verify_projection(
    pm: TreeToGraphMap,
    seed: int = 0,
    samples: Optional[int] = None,
    exhaustive: Optional[bool] = None,
    max_counterexamples: int = 5,
) -> dict:
    """Full property report: level preservation, surjectivity, the
    1-Lipschitz bound over node pairs (exhaustive below 2**12 nodes, else
    ``samples`` seeded pairs, at least one), and lift exactness over every
    ancestor pair of graph vertices with every (or a seeded sample of)
    preimages of the upper one.  Both spaces are graded, so the ancestor
    rule d(u, v) == level(v) - level(u) reads the ancestor pairs off the
    graph distances and tells comparable node pairs by their distance.
    ``exhaustive`` forces the mode; left as None it is chosen by size.
    Failures are report content, never exceptions."""
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    tree, graph = pm.tree, pm.graph
    nodes = tree.nodes()
    if exhaustive is None:
        exhaustive = len(nodes) <= EXHAUSTIVE_NODE_LIMIT and samples is None
    rng = random.Random(seed)

    images = [pm.image(J) for J in nodes]
    levels_ok = []
    for J, mu in zip(nodes, images):
        if graph.level(mu) != J.level:
            levels_ok.append(
                {"check": "level", "node": list(J.elements),
                 "vertex": graph.label(mu), "tree_level": J.level,
                 "graph_level": graph.level(mu)}
            )

    covered = {graph.index(mu) for mu in images}
    missing = [
        graph.label(v) for i, v in enumerate(graph.vertices) if i not in covered
    ]

    # 1-Lipschitz over pairs, stratified into comparable (one node a prefix
    # of the other, so their distance is the level gap) and incomparable
    # pairs; both strata must be nonempty for the bound to have been
    # exercised on both geodesic shapes.
    gdist = [
        [graph.distance(u, v) for v in graph.vertices] for u in graph.vertices
    ]
    gidx = [graph.index(mu) for mu in images]
    lip_bad: list[dict] = []
    comparable = incomparable = 0
    if exhaustive:
        pair_iter = (
            (i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))
        )
        pairs_checked = len(nodes) * (len(nodes) - 1) // 2
    else:
        count = samples if samples is not None else 20_000
        pair_iter = (
            tuple(rng.sample(range(len(nodes)), 2)) for _ in range(count)
        )
        pairs_checked = count
    for i, j in pair_iter:
        J, K = nodes[i], nodes[j]
        dt = tree_distance(J, K)
        dm = gdist[gidx[i]][gidx[j]]
        if dt == abs(J.level - K.level):
            comparable += 1
        else:
            incomparable += 1
        if dm > dt:
            if len(lip_bad) < max_counterexamples:
                lip_bad.append(
                    {"check": "lipschitz", "node": list(J.elements),
                     "other": list(K.elements), "tree_dist": dt,
                     "graph_dist": dm}
                )

    # Lift exactness on every ancestor pair of the graph, over preimages of
    # the upper vertex.
    preimages: dict[int, list[TreeNode]] = {}
    for J, gi in zip(nodes, gidx):
        preimages.setdefault(gi, []).append(J)
    lift_bad: list[dict] = []
    lifts_done = 0
    ancestors = ancestor_pairs(gdist, graph.levels)
    for iu, iv in ancestors:
        v = graph.vertices[iv]
        pool = preimages.get(iu, [])
        if not exhaustive and len(pool) > PREIMAGE_SAMPLE:
            pool = rng.sample(pool, PREIMAGE_SAMPLE)
        for J in pool:
            lifts_done += 1
            K = pm.lift(J, v)
            dt = tree_distance(J, K)
            ok = (
                pm.image(K) == v
                and J.is_prefix_of(K)
                and dt == gdist[iu][iv]
            )
            if not ok and len(lift_bad) < max_counterexamples:
                lift_bad.append(
                    {"check": "lift", "node": list(J.elements),
                     "vertex": graph.label(v),
                     "lifted": list(K.elements),
                     "lifted_image": graph.label(pm.image(K)),
                     "tree_dist": dt, "graph_dist": gdist[iu][iv]}
                )

    checks = {
        "level_preserving": {
            "pass": not levels_ok,
            "checked": len(nodes),
            "counterexamples": levels_ok[:max_counterexamples],
        },
        "surjective": {
            "pass": not missing,
            "covered": len(covered),
            "vertices": len(graph.vertices),
            "counterexamples": missing[:max_counterexamples],
        },
        "lipschitz": {
            "pass": not lip_bad,
            "pairs": pairs_checked,
            "comparable_pairs": comparable,
            "incomparable_pairs": incomparable,
            "counterexamples": lip_bad,
        },
        "lift_exact": {
            "pass": not lift_bad,
            "ancestor_pairs": len(ancestors),
            "lifts": lifts_done,
            "counterexamples": lift_bad,
        },
    }
    return {
        "schema": 1,
        "tree": {"branching": tree.branching, "depth": tree.depth,
                 "nodes": len(nodes)},
        "graph": {"n": graph.n, "b": graph.b,
                  "vertices": len(graph.vertices)},
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def replay_case(pm: TreeToGraphMap, case: dict) -> dict:
    """Re-run one counterexample from a verification report. Accepts the
    dicts produced above (keyed by "check") and returns a small report with
    the recomputed values and a pass flag."""
    kind = case["check"]
    if kind not in ("level", "lipschitz", "lift"):
        raise DomainError(f"unknown counterexample kind {kind!r}")
    node = TreeNode(tuple(case["node"]))
    if kind == "level":
        mu = pm.image(node)
        ok = pm.graph.level(mu) == node.level
        return {"check": kind, "node": list(node.elements),
                "vertex": pm.graph.label(mu),
                "tree_level": node.level,
                "graph_level": pm.graph.level(mu), "pass": ok}
    if kind == "lipschitz":
        other = TreeNode(tuple(case["other"]))
        dt = tree_distance(node, other)
        dm = pm.graph.distance(pm.image(node), pm.image(other))
        return {"check": kind, "node": list(node.elements),
                "other": list(other.elements), "tree_dist": dt,
                "graph_dist": dm, "pass": dm <= dt}
    v = pm.graph.by_label(case["vertex"])
    K = pm.lift(node, v)
    dt = tree_distance(node, K)
    dm = pm.graph.distance(pm.image(node), v)
    ok = pm.image(K) == v and node.is_prefix_of(K) and dt == dm
    return {"check": kind, "node": list(node.elements),
            "vertex": case["vertex"], "lifted": list(K.elements),
            "tree_dist": dt, "graph_dist": dm, "pass": ok}


def sibling_lift_separation(pm: TreeToGraphMap, depths=(1, 2)) -> dict:
    """Lifting two targets through distinct children of a branching vertex
    from a common tree node forces tree distance exactly twice the descent
    depth, whatever the targets do in the graph.  Checked at every branching
    vertex for each depth, with the deterministic first-child descent."""
    graph = pm.graph
    bad: list[dict] = []
    checked = 0
    for mu1 in graph.vertices:
        kids = graph.children(mu1)
        if len(kids) < 2:
            continue
        if graph.level(mu1) + max(depths) > 3**graph.n:
            continue
        try:
            n1 = pm.lift(ROOT, mu1)
        except RelationError as exc:
            bad.append({"center": graph.label(mu1), "error": str(exc)})
            continue
        for m in depths:
            targets = []
            for c in kids:
                nu = c
                for _ in range(m - 1):
                    nu = graph.children(nu)[0]
                targets.append(nu)
            try:
                lifted = [
                    pm.lift(child, nu)
                    for child, nu in zip(pm.tree.children(n1), targets)
                ]
            except RelationError as exc:
                # A corrupted image surfaces here as a lift that walks off
                # the ancestor chain; that is a failure, not a crash.
                bad.append({"center": graph.label(mu1), "depth": m,
                            "error": str(exc)})
                continue
            for a in range(len(kids)):
                for b_ in range(a + 1, len(kids)):
                    checked += 1
                    dt = tree_distance(lifted[a], lifted[b_])
                    dm = graph.distance(targets[a], targets[b_])
                    if dt != 2 * m or dm > dt:
                        bad.append(
                            {"center": graph.label(mu1), "depth": m,
                             "tree_dist": dt, "graph_dist": dm,
                             "expected_tree_dist": 2 * m}
                        )
    return {"checked": checked, "counterexamples": bad[:5], "pass": not bad}


def ancestor_pairs(dist, levels) -> list[list[int]]:
    """The strict ancestor pairs [i, j] of a graded space, in row-major
    order: i is an ancestor of j iff dist[i][j] == levels[j] - levels[i]."""
    return [
        [i, j]
        for i, (row, li) in enumerate(zip(dist, levels))
        for j, lj in enumerate(levels)
        if i != j and row[j] == lj - li
    ]


def as_map_table(pm: TreeToGraphMap) -> dict:
    """Materialize the projection as a plain map table: full distance
    matrices, index assignment, and both strict ancestor relations, read
    off the distance matrices by the ancestor rule of ``ancestor_pairs``.
    Only feasible at desk scale; the tree enumeration enforces its own
    cap."""
    nodes = pm.tree.nodes()
    verts = pm.graph.vertices
    ns = len(nodes)
    sdist = [[0] * ns for _ in range(ns)]
    for i in range(ns):
        for j in range(i + 1, ns):
            d = tree_distance(nodes[i], nodes[j])
            sdist[i][j] = d
            sdist[j][i] = d
    tdist = [[pm.graph.distance(u, v) for v in verts] for u in verts]
    assign = [pm.graph.index(pm.image(J)) for J in nodes]
    return {
        "schema": 1,
        "source": {"n": ns, "dist": sdist},
        "target": {"n": len(verts), "dist": tdist},
        "assign": assign,
        "source_order": ancestor_pairs(sdist, [J.level for J in nodes]),
        "target_order": ancestor_pairs(tdist, pm.graph.levels),
    }


def lifted_fork(pm: TreeToGraphMap, fork: tuple) -> dict:
    """Pull a graph-side fork (r, head, center, arms) back through the
    projection: lift the head from the tree root, the center from the lifted
    head, and each arm from the lifted center.  Because the arms pairwise
    realize distance 2r, their downward paths leave the center through
    distinct children, so the lifted arms diverge immediately and inherit
    the exact arm length r and spread 2r in the tree."""
    r, head, center, arms = fork
    graph = pm.graph
    s0 = pm.lift(ROOT, head)
    s1 = pm.lift(s0, center)
    s2 = [pm.lift(s1, a) for a in arms]
    problems = []
    if tree_distance(s0, s1) != r:
        problems.append("head-to-center lift length != r")
    for K, a in zip(s2, arms):
        if tree_distance(s1, K) != r:
            problems.append(f"center-to-{graph.label(a)} lift length != r")
        if tree_distance(s0, K) != 2 * r:
            problems.append(f"head-to-{graph.label(a)} lift length != 2r")
    for i in range(len(s2)):
        for j in range(i + 1, len(s2)):
            if tree_distance(s2[i], s2[j]) != 2 * r:
                problems.append(f"lifted arms {i},{j} not at spread 2r")
    return {
        "r": r,
        "head": graph.label(head),
        "center": graph.label(center),
        "arms": [graph.label(a) for a in arms],
        "sigma0": list(s0.elements),
        "sigma1": list(s1.elements),
        "sigma2": [list(K.elements) for K in s2],
        "problems": problems,
        "pass": not problems,
    }

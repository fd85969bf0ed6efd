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
from itertools import accumulate, combinations
from typing import Optional

import numpy as np

from .errors import DomainError, RelationError
from .laakso_graph import LaaksoGraph, VertexId
from .quotient_analysis import FiniteMetricSpace, MetricMapTable
from .tree_space import ROOT, TreeNode, TreeSpace, tree_distance

EXHAUSTIVE_NODE_LIMIT = 2**12
DEFAULT_SAMPLES = 20_000
PREIMAGE_SAMPLE = 256
MAX_COUNTEREXAMPLES = 5
SIBLING_DEPTHS = (1, 2)
# What replay_case needs of each kind of record: key -> JSON type.
RECORD_KEYS = {"level": {"node": list},
               "lipschitz": {"node": list, "other": list},
               "lift": {"node": list, "vertex": str}}


class TreeToGraphMap:
    """The projection T_{b,d} -> G_n with d = 3**n and matching branching.

    A child's image is one step from its parent's image (``_child_image``)
    with two drivers: ``image_index`` for one node of any tree, enumerable
    or not, and ``rank_images`` for every node by rank; images are indices
    in ``graph.vertices``.  An instance holds only its tree, its graph and
    ``_flip_node`` and never changes after construction, so every query is
    pure and instances are safe for concurrent reads.  ``_flip_node`` is a
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

    def image(self, node: TreeNode) -> VertexId:
        return self.graph.vertices[self.image_index(node.elements)]

    def image_index(self, elements: tuple[int, ...]) -> int:
        """The index in ``graph.vertices`` of the image of the node with
        these elements, stepped down from the root one element at a time.
        Every step must add an increment in 1..b, branching or not, and
        the node may not lie below the depth."""
        tree, flip = self.tree, self._flip_node
        if len(elements) > tree.depth:
            raise DomainError(f"node {TreeNode(elements)} has level "
                              f"{len(elements)} > depth {tree.depth}")
        img = self.graph.index(self.graph.root)
        for level, (prev, m) in enumerate(zip((0,) + elements, elements), 1):
            k = m - prev
            if not 1 <= k <= tree.branching:
                raise DomainError(
                    f"node {TreeNode(elements[:level])} has fraternal index "
                    f"{k}, outside 1..{tree.branching}")
            img = self._child_image(img, k, flip is not None
                                    and elements[:level] == flip.elements)
        return img

    def _child_image(self, above: int, k: int, flip: bool = False) -> int:
        """The image of a k-th child of a node imaged at vertex ``above``:
        the unique child of ``above`` when it does not branch, else its
        k-th child, or the next sibling's where ``flip`` mis-wires it."""
        kids = self.graph.child_table[above]
        if len(kids) == 1:
            return kids[0]
        return kids[k % len(kids)] if flip else kids[k - 1]

    def rank_images(self) -> np.ndarray:
        """The image index of every tree node, by rank, equal to
        ``image_index`` on every node.  Level by level from the root: the
        k-th children of every node, at their ``TreeSpace.child_ranks``,
        take its image's step through the |V| x b table of ``_child_image``;
        then the flip node, if it is a tree node, takes its ``image_index``,
        the mis-wired step, and its descendants step from that.  The
        enumeration cap applies.
        The rank layout is checked as it is read: every child rank must lie
        in 0..size - 1 before it is written, and the walk must write every
        rank exactly once; otherwise ``AssertionError`` names the first bad
        rank, since a layout that misses ranks is a program fault, not bad
        input."""
        tree, graph, b = self.tree, self.graph, self.tree.branching
        step = np.array([
            [self._child_image(v, k) if kids else -1 for k in range(1, b + 1)]
            for v, kids in enumerate(graph.child_table)
        ], dtype=np.intp)
        flip = self._flip_node
        if flip is not None and flip not in tree:
            flip = None
        size = len(tree.levels)
        out = np.full(size, -1, dtype=np.intp)
        out[0] = graph.index(graph.root)
        at = np.zeros(1, dtype=np.intp)
        written = [at]
        for lv in range(tree.depth):
            below = [tree.child_ranks(at, lv, k) for k in range(1, b + 1)]
            ranks = np.concatenate(below)
            if ranks.min() < 0 or ranks.max() >= size:
                bad = ranks[(ranks < 0) | (ranks >= size)][0]
                raise AssertionError(f"child rank {bad} at level {lv + 1} "
                                     f"is outside 0..{size - 1}")
            above = out[at]
            for col, kth in enumerate(below):
                out[kth] = step[above, col]
            if flip is not None and lv + 1 == flip.level:
                out[tree.rank_of(flip)] = self.image_index(flip.elements)
            at = ranks
            written.append(at)
        times = np.bincount(np.concatenate(written), minlength=size)
        if (times != 1).any():
            r = int(np.argmax(times != 1))
            raise AssertionError(f"rank {r} is written {times[r]} times, "
                                 f"not once")
        return out

    def lift(self, node: TreeNode, target: VertexId) -> TreeNode:
        """The tree descendant of ``node`` that projects onto ``target``:
        ``node`` extended by the fraternal increments of one
        ``graph.descent``, index 1 wherever the image does not branch.
        Tree distance from ``node`` equals graph distance exactly."""
        return _extend(node, accumulate(self.graph.descent(self.image(node),
                                                         target)))


def _extend(node: TreeNode, offsets) -> TreeNode:
    """``node`` with one element appended per offset: its last element
    (0 at the root) plus the offset."""
    last = node.elements[-1] if node.elements else 0
    return TreeNode(node.elements + tuple(last + o for o in offsets))


def verify_projection(
    pm: TreeToGraphMap,
    seed: int = 0,
    samples: Optional[int] = None,
    exhaustive: bool = False,
) -> dict:
    """Full property report: level preservation, surjectivity, the
    1-Lipschitz bound over node pairs (exhaustive below 2**12 nodes, else
    ``samples`` seeded pairs, at least one, by default ``DEFAULT_SAMPLES``),
    and lift exactness over every ancestor pair of graph vertices with every
    (or a seeded sample of) preimages of the upper one.  Both spaces are
    graded, so the ancestor rule d(u, v) == level(v) - level(u) reads the
    ancestor pairs off the graph distances and tells comparable node pairs
    by their distance.
    Nodes are handled by rank, as arrays: levels from ``tree.levels`` and
    images from ``pm.rank_images``, counted once per vertex for both the
    coverage and the preimage pools.  The exhaustive sweep reads the tree
    distances a block at a time from ``TreeSpace.distance_block`` over
    ``TreeSpace.rank_blocks``, a run of ranks against itself and every
    later rank, compares them with the images' graph distances in the
    blocks' narrow dtype, and records the first Lipschitz failures in
    row-major order; the sampled sweep draws its seeded pairs with
    ``_sample_pairs``, pair by pair the stream of
    ``random.Random(seed).sample(range(size), 2)``, read off the
    generator's own word stream for 21 < size < 2**32 and by the per-pair
    loop at other sizes, and computes them by ``TreeSpace.rank_distance``.
    Both feed ``_lipschitz_block``, which counts the comparable pairs and
    records the counterexamples.  The lifts of one ancestor pair share its
    one ``graph.descent``: a lift's rank is its preimage's rank advanced by
    ``TreeSpace.child_ranks`` along the descent's increments, which stays
    inside the preimage's subtree once a lift below the depth is refused,
    and each lift is judged on its own.  ``TreeNode``s are built only for
    counterexample records.
    ``exhaustive=True`` forces the exhaustive sweep; otherwise the mode is
    chosen by size, and passing ``samples`` chooses sampling.
    Failures are report content, never exceptions."""
    if samples is not None and samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    tree, graph = pm.tree, pm.graph
    levels = tree.levels
    size = len(levels)
    exhaustive = exhaustive or (size <= EXHAUSTIVE_NODE_LIMIT
                                and samples is None)
    rng = random.Random(seed)

    gsel = pm.rank_images()
    level_bad = np.flatnonzero(np.take(graph.levels, gsel) != levels)
    counts = np.bincount(gsel, minlength=len(graph.vertices))
    covered = counts > 0
    missing = [label for label, c in zip(graph.labels, covered) if not c]

    # 1-Lipschitz over pairs, stratified into comparable (one node a prefix
    # of the other, so their distance is the level gap) and incomparable
    # pairs; both strata must be nonempty for the bound to have been
    # exercised on both geodesic shapes, and the exhaustive verdict
    # requires both.  Exhaustive: each run of ranks of ``tree.rank_blocks``
    # against itself and every later rank, with only the pairs above the
    # run's diagonal checked, so that the runs visit each pair once and in
    # row-major order.  Sampled: the whole sample, whose verdict reads the
    # counterexamples alone.
    garr = graph.distance_matrix()
    lip_bad: list[dict] = []
    if exhaustive:
        pairs = size * (size - 1) // 2
        comparable = 0
        # The graph distances saturated one past the tree's diameter, which
        # keeps every comparison with a tree distance, in the blocks' dtype.
        near = np.clip(garr, 0, 2 * tree.depth + 1).astype(
            tree.distance_dtype)
        for start, stop in tree.rank_blocks():
            i, j = np.arange(start, stop)[:, None], np.arange(start, size)
            comparable += _lipschitz_block(
                pm, i, j, tree.distance_block(start, stop),
                np.take(near[gsel[start:stop]], gsel[start:], axis=1),
                j > i, lip_bad)
    else:
        i, j = _sample_pairs(rng, size, samples or DEFAULT_SAMPLES)
        pairs = len(i)
        comparable = _lipschitz_block(pm, i, j, tree.rank_distance(i, j),
                                      garr[gsel[i], gsel[j]], True, lip_bad)

    # Lift exactness on every ancestor pair of the graph, over preimages of
    # the upper vertex, ascending by rank.  Every preimage J of u has image
    # u, so its lift towards v is J's rank advanced to the k-th child for
    # each increment k of the one descent from u to v.  A step to a child
    # adds an offset set by the level and k alone, so the offsets add up;
    # each is at most spans[l] - spans[l + 1], so their sum stays inside
    # J's subtree.
    pools = np.split(np.argsort(gsel, kind="stable"), np.cumsum(counts)[:-1])
    lift_bad: list[dict] = []
    lifts_done = 0
    ancestors = ancestor_pairs(garr, graph.levels)
    for iu, iv in ancestors:
        pool = pools[iu]
        if not exhaustive and len(pool) > PREIMAGE_SAMPLE:
            pool = np.array(rng.sample(pool.tolist(), PREIMAGE_SAMPLE))
        u, v = graph.vertices[iu], graph.vertices[iv]
        steps = graph.descent(u, v)
        dm = int(garr[iu, iv])
        lifts_done += len(pool)
        top = levels[pool]
        deep = pool[top + len(steps) > tree.depth]
        if len(deep):
            # Only a map that breaks levels lifts a node below the depth:
            # the point route refuses that lift, and says how.
            pm.image(_extend(tree.node_at(deep[0]), accumulate(steps)))
        step_levels = top[:, None] + np.arange(len(steps))
        K = pool + tree.child_ranks(0, step_levels, np.array(steps)).sum(1)
        ok = (gsel[K] == iv) & (levels[K] - top == dm)
        for J in pool[~ok][:MAX_COUNTEREXAMPLES - len(lift_bad)]:
            J = tree.node_at(J)
            lift_bad.append(_lift_record(pm, J, _extend(J, accumulate(steps)),
                                         v, dm))

    checks = {
        "level_preserving": {
            "pass": not len(level_bad),
            "checked": size,
            "counterexamples": [
                _level_record(graph, tree.node_at(r), graph.vertices[gsel[r]])
                for r in level_bad[:MAX_COUNTEREXAMPLES]
            ],
        },
        "surjective": {
            "pass": not missing,
            "covered": int(np.count_nonzero(covered)),
            "vertices": len(graph.vertices),
            "counterexamples": missing[:MAX_COUNTEREXAMPLES],
        },
        "lipschitz": {
            "pass": not lip_bad and (not exhaustive
                                     or 0 < comparable < pairs),
            "pairs": pairs,
            "comparable_pairs": comparable,
            "incomparable_pairs": pairs - comparable,
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
                 "nodes": size},
        "graph": {"n": graph.n, "b": graph.b,
                  "vertices": len(graph.vertices)},
        "mode": "exhaustive" if exhaustive else "sampled",
        "seed": seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def _lipschitz_block(pm: TreeToGraphMap, i, j, dt: np.ndarray,
                     dg: np.ndarray, checked, records: list[dict]) -> int:
    """One block of the Lipschitz sweep: the rank pairs (i, j) broadcast,
    their tree distances ``dt`` and the graph distances ``dg`` of their
    images, of which only the pairs marked ``checked`` count.  Appends the
    pairs whose images lie farther apart than they do, in row-major order,
    to ``records`` until it holds MAX_COUNTEREXAMPLES, and returns how many
    checked pairs are comparable: at the distance of their level gap."""
    levels = pm.tree.levels
    checked = np.broadcast_to(checked, dt.shape)
    gap = levels[i] - levels[j]
    same = np.count_nonzero(checked & (dt == np.abs(gap, out=gap)))
    room = MAX_COUNTEREXAMPLES - len(records)
    for k in np.flatnonzero(checked & (dg > dt))[:room]:
        J = pm.tree.node_at(np.broadcast_to(i, dt.shape).flat[k])
        K = pm.tree.node_at(np.broadcast_to(j, dt.shape).flat[k])
        records.append(_lipschitz_record(pm, J, K))
    return int(same)


def _sample_pairs(rng: random.Random, size: int,
                  count: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ``count`` calls of ``rng.sample(range(size), 2)``, as
    two int64 arrays, leaving ``rng`` in the state those calls leave.

    It mirrors two CPython ``Random`` internals.  ``sample`` takes its
    pool path for populations up to its ``setsize`` of 21 (k = 2 adds no
    table size), and otherwise draws ``_randbelow(size)`` and redraws
    while the value is already selected.  ``_randbelow_with_getrandbits``
    draws ``getrandbits(size.bit_length())`` until the value is below
    ``size``, and below 2**32 each of those is one 32-bit Mersenne word
    shifted right by ``32 - size.bit_length()``.  So for 21 < size < 2**32
    the pairs are read off one word stream: the words ``rng`` yields by
    ``randbytes``, shifted, with the values of at least ``size`` dropped,
    and then each pair's second value dropped while it equals the first
    (``_kept``).  Each round reads exactly as many words as values are
    still missing, and scans only its own words, led by the first value of
    a pair left open.  Every missing value takes at least one word, so no
    round reads a word that the loop would not, and a round that completes
    the pairs has kept the value of every word it read: the draw ends on
    the last kept value, in the state the loop leaves.  Other sizes keep
    the per-pair ``sample`` loop."""
    bits = size.bit_length()
    if size <= 21 or bits > 32:
        return np.array([rng.sample(range(size), 2) for _ in range(count)]).T
    need = 2 * count
    chunks = []
    have = 0
    # The first value of a pair whose second is still missing, if any: it
    # leads the next round's stream, so ``_kept`` sees only new words.
    lead = np.empty(0, dtype=np.int64)
    while have < need:
        draw = np.frombuffer(rng.randbytes(4 * (need - have)),
                             dtype="<u4") >> (32 - bits)
        stream = np.concatenate([lead, draw[draw < size]])
        kept = stream[_kept(stream)]
        chunks.append(kept[len(lead):])
        have += len(kept) - len(lead)
        lead = kept[-1:] if have % 2 else kept[:0]
    return np.concatenate(chunks).reshape(count, 2).T


def _kept(values: np.ndarray) -> np.ndarray:
    """The positions in a stream of accepted ``_randbelow`` values that
    ``sample`` keeps when it reads the stream two distinct values a pair:
    a value is dropped when it equals its pair's first.  Only equal
    neighbours can be dropped, so only they are visited, in order."""
    drop: list[int] = []
    for k in np.flatnonzero(values[1:] == values[:-1]).tolist():
        # k - len(drop) is even iff k is a pair's first or a dropped
        # redraw of it, and then k + 1 repeats that first.
        if (k - len(drop)) % 2 == 0:
            drop.append(k + 1)
    return np.delete(np.arange(len(values)), drop)


# One record per counterexample kind, built by the sweep and by replay_case.
def _level_record(graph: LaaksoGraph, J: TreeNode, mu: VertexId) -> dict:
    return {"check": "level", "node": list(J.elements),
            "vertex": graph.label(mu), "tree_level": J.level,
            "graph_level": graph.level(mu)}


def _lipschitz_record(pm: TreeToGraphMap, J: TreeNode, K: TreeNode) -> dict:
    return {"check": "lipschitz", "node": list(J.elements),
            "other": list(K.elements), "tree_dist": tree_distance(J, K),
            "graph_dist": pm.graph.distance(pm.image(J), pm.image(K))}


def _lift_record(pm: TreeToGraphMap, J: TreeNode, K: TreeNode,
                 v: VertexId, dm: int) -> dict:
    return {"check": "lift", "node": list(J.elements),
            "vertex": pm.graph.label(v), "lifted": list(K.elements),
            "lifted_image": pm.graph.label(pm.image(K)),
            "tree_dist": tree_distance(J, K), "graph_dist": dm}


def _lift_exact(pm: TreeToGraphMap, J: TreeNode, K: TreeNode,
                v: VertexId, dm: int) -> bool:
    """The lift verdict: K, lifted from J towards v, projects onto v, is a
    descendant of J, and lies exactly the graph distance dm below it."""
    return pm.image(K) == v and J.is_prefix_of(K) and tree_distance(J, K) == dm


def replay_case(pm: TreeToGraphMap, case) -> dict:
    """Re-run one counterexample record of a verification report against
    ``pm``: the record the report would hold for that candidate, plus a
    pass flag.  A record that is not a JSON object, names an unknown kind,
    lacks a key its kind needs, holds it as another JSON type, or lists
    anything but JSON integers (no floats, booleans, strings or nulls) as
    a node raises DomainError."""
    if not isinstance(case, dict):
        raise DomainError(f"replay record must be a JSON object, got {case!r}")
    kind = case.get("check")
    if not isinstance(kind, str) or kind not in RECORD_KEYS:
        raise DomainError(f"unknown counterexample kind {kind!r}")
    for key, json_type in RECORD_KEYS[kind].items():
        value = case.get(key)
        if not isinstance(value, json_type):
            raise DomainError(f"a {kind} record needs the key {key!r} "
                              f"(a {json_type.__name__})")
        if json_type is list and not all(
            isinstance(m, int) and not isinstance(m, bool) for m in value
        ):
            raise DomainError(f"the {key!r} of a {kind} record must list "
                              f"JSON integers, got {value!r}")
    node = TreeNode(tuple(case["node"]))
    if kind == "level":
        rec = _level_record(pm.graph, node, pm.image(node))
        ok = rec["graph_level"] == rec["tree_level"]
    elif kind == "lipschitz":
        rec = _lipschitz_record(pm, node, TreeNode(tuple(case["other"])))
        ok = rec["graph_dist"] <= rec["tree_dist"]
    else:
        v = pm.graph.by_label(case["vertex"])
        K = pm.lift(node, v)
        rec = _lift_record(pm, node, K, v, pm.graph.distance(pm.image(node), v))
        ok = _lift_exact(pm, node, K, v, rec["graph_dist"])
    return {**rec, "pass": ok}


def sibling_lift_separation(pm: TreeToGraphMap) -> dict:
    """Lifting two targets through distinct children of a branching vertex
    from a common tree node forces tree distance exactly twice the descent
    depth, whatever the targets do in the graph.  Checked at every branching
    vertex for each of the SIBLING_DEPTHS, with the deterministic
    first-child descent."""
    graph = pm.graph
    bad: list[dict] = []
    checked = 0
    for mu1 in graph.vertices:
        kids = graph.children(mu1)
        if len(kids) < 2:
            continue
        if graph.level(mu1) + max(SIBLING_DEPTHS) > 3**graph.n:
            continue
        try:
            n1 = pm.lift(ROOT, mu1)
        except RelationError as exc:
            bad.append({"center": graph.label(mu1), "error": str(exc)})
            continue
        for m in SIBLING_DEPTHS:
            targets = kids
            for _ in range(m - 1):
                targets = [graph.children(nu)[0] for nu in targets]
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
            for a, b_ in combinations(range(len(kids)), 2):
                checked += 1
                dt = tree_distance(lifted[a], lifted[b_])
                dm = graph.distance(targets[a], targets[b_])
                if dt != 2 * m or dm > dt:
                    bad.append({"center": graph.label(mu1), "depth": m,
                                "tree_dist": dt, "graph_dist": dm,
                                "expected_tree_dist": 2 * m})
    return {"checked": checked, "counterexamples": bad[:5], "pass": not bad}


def ancestor_pairs(dist, levels) -> list[list[int]]:
    """The strict ancestor pairs [i, j] of a graded space, in row-major
    order: i is an ancestor of j iff dist[i][j] == levels[j] - levels[i].
    `dist` is a square table (nested lists, a list of rows or one array)
    and `levels` a sequence of the same length.  The level gaps are formed
    in the table's dtype."""
    return _ancestor_array(dist, levels).tolist()


def _ancestor_array(dist, levels) -> np.ndarray:
    """``ancestor_pairs`` as the (m, 2) int64 array of ``np.argwhere``."""
    d = np.asarray(dist).reshape(len(levels), len(levels))
    lv = np.asarray(levels, dtype=d.dtype)
    below = d == lv[None, :] - lv[:, None]
    np.fill_diagonal(below, False)
    return np.argwhere(below)


def map_table(pm: TreeToGraphMap) -> MetricMapTable:
    """The projection as a map table, built from arrays: the tree matrix is
    written from the blocks of ``TreeSpace.distance_block`` over
    ``TreeSpace.rank_blocks``, each block and its transpose, in the blocks'
    ``TreeSpace.distance_dtype``; the graph matrix is
    ``LaaksoGraph.distance_matrix``, int32.  Both strict ancestor relations
    are read off them by the rule of ``ancestor_pairs``, with the tree
    levels from ``TreeSpace.levels``, and given as (m, 2) arrays; the
    assignment is ``pm.rank_images``.  Every input check of
    ``FiniteMetricSpace`` and ``MetricMapTable`` runs.  Only feasible at
    desk scale; the tree levels enforce the enumeration cap."""
    tree = pm.tree
    levels = tree.levels
    sdist = np.empty((len(levels), len(levels)), dtype=tree.distance_dtype)
    for start, stop in tree.rank_blocks():
        block = tree.distance_block(start, stop)
        sdist[start:stop, start:] = block
        sdist[start:, start:stop] = block.T
    tdist = pm.graph.distance_matrix()
    source = FiniteMetricSpace(sdist, order=_ancestor_array(sdist, levels))
    target = FiniteMetricSpace(
        tdist, order=_ancestor_array(tdist, pm.graph.levels)
    )
    return MetricMapTable(source, target, pm.rank_images().tolist())


def as_map_table(pm: TreeToGraphMap) -> dict:
    """``map_table`` as the plain JSON shape that ``analyze map`` and
    ``fork`` read: full distance matrices, index assignment, and both
    strict ancestor relations in row-major order."""
    return map_table(pm).to_dict()


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
    for i, j in combinations(range(len(s2)), 2):
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

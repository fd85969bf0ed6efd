"""Pure-Python loop references for refactored routes.

The profile route of `quotient_analysis`: the nested loops over the
distance tables that the array-backed profiles replaced, kept verbatim in
behaviour: same iteration order, same strict comparisons, and the tables'
own entries as results.  Where equal entries differ in type, both moduli
report the first target entry, in row-major order, of their value: omega
through the set of realized distances, Omega by a scan for its maximum.
`atd_pairs` tests the target order on a set of the pairs that `to_dict`
writes, not on the library's relation matrix.  The tests require the
library to agree with them exactly (`==`, and equal Python types for the
moduli pair).

The two staircase bound verifiers, as they were before they shared one
pair sweep with integer comparisons: each filters all |sets|**2 pairs for
J below K and builds one Fraction bound per pair.  They read the staircase
helpers through the module, and `v_of` and `_max_count_diff` both read the
per-set count `_counts`, as the library's count matrix does, so a test
that patches `_counts` patches both sides, and counterexamples can be
compared.  The prefix-exactness verifier, as it was when it compared one
pair of Fractions per pair, reads `_max_count_diff` the same way, and so
does the shared pair sweep as it was before it read the count matrix,
which returns every failing pair, not only the first five.

The map-table export of `tree_to_laakso`, as it was when it derived both
ancestor relations pair by pair from `is_prefix_of` and `is_ancestor`
instead of reading them off the distance matrices.  The ancestor rule of
`tree_to_laakso`, as it was when it was a comprehension over the rows and
levels instead of one array comparison.

The projection verifier of `tree_to_laakso`, as it was when its
1-Lipschitz sweep called `tree_distance` once per node pair in both
modes, before the exhaustive mode read whole rows of the tree metric.  It
builds its records through the module's own record builders, so reports
compare with `==`.  Its sampled pairs come from `sample_pairs`, one
`random.Random.sample` call per pair, as they were before the sweep read
them off a bulk word stream.

The image and lift of `TreeToGraphMap`, as they were before the map
worked on vertex indices: `image` recurses on the parent `TreeNode`
through `graph.children`, with no memo, and honours the `_flip_node`
hook; it checks every increment against 1..b, as the map now does.
`lift` walks `downward_path` child by child, building one `TreeNode` per
step.  `downward_path` is the graph's descent as it was before it walked
the child table on vertex indices: a list of vertices, each the first
child, by `children`, that stays above the target.  `child_indices` is
the neighbour filter that `children` ran on every call before the graph
kept a child table.

The analytic metric of `laakso_graph`, as it was when `_dist` descended
the address words by recursion, with three special cases and a `_portals`
helper that recomputed each vertex's level from its address, and read the
distance between two block positions from `_block_distance`.  It takes
vertices as (word, pos) and the scale n of the whole graph.  It shares no
metric rule with the package, whose place rule needs no block distance.

The BFS oracle of `laakso_graph`, as it was before the sources of a block
advanced together as bits over a CSR adjacency: `bfs_levels` walks a
`deque` of vertex indices from one source over `neighbors`, -1 where a
vertex is not reached.  `oracle_agreement_report` is the oracle report as
it was before it compared whole blocks: it runs that BFS once per row of
the package's `distance_blocks`, so a fault planted in the analytic rows
shows in both reports, compares the row's later vertices one by one,
reading vertex j of a band at column j - sources.start, and appends a
record for every mismatching pair before keeping the first 10.

The tree metric rows of `tree_space`, as they were before a run of ranks
came from one block of running minima over the levels: `distance_rows`
yields one row per rank, the lcp depths written as the level of each
ancestor over its subtree's rank range, root first, one slice write per
ancestor.

The integer list reader of `quotient_analysis`, as it was before it read
a list a block of rows at a time: `integer_table` reads the whole list
with one `np.array` call, keeps it only when numpy reads it as a 2-D
signed integer array, and narrows it once, on its least and greatest
entry.
"""

import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import inf
from typing import Iterator, Optional

import numpy as np

from laakso_lab import staircase
from laakso_lab.errors import DomainError, RelationError
from laakso_lab.laakso_graph import (
    ROOT_POS,
    _edge_dst,
    _edge_src,
    _is_arm,
    _level_of,
    _pos_level,
    _sink_pos,
)
from laakso_lab.tree_space import TreeNode, tree_distance
from laakso_lab.tree_to_laakso import (
    EXHAUSTIVE_NODE_LIMIT,
    MAX_COUNTEREXAMPLES,
    PREIMAGE_SAMPLE,
    TreeToGraphMap,
    _level_record,
    _lift_exact,
    _lift_record,
    _lipschitz_record,
)


def lipschitz_constant(m):
    if m.source.n < 2:
        raise DomainError("need at least two source points")
    sdist, tdist, assign = m.source.dist, m.target.dist, m.assign
    best = 0.0
    for i in range(m.source.n):
        for j in range(i + 1, m.source.n):
            ratio = tdist[assign[i]][assign[j]] / sdist[i][j]
            if ratio > best:
                best = ratio
    return best


def quotient_moduli(m, r):
    if not m.surjective:
        raise DomainError("moduli require a surjective assignment")
    sdist, tdist, assign = m.source.dist, m.target.dist, m.assign
    omega_big = 0.0
    for i in range(m.source.n):
        for j in range(i + 1, m.source.n):
            if sdist[i][j] <= r:
                d = tdist[assign[i]][assign[j]]
                if d > omega_big:
                    omega_big = d
    if omega_big > 0:
        # the stored entry: the first target cell, in row-major order,
        # that equals it, as for omega
        omega_big = next(d for row in tdist for d in row if d == omega_big)
    threshold = inf
    for x in range(m.source.n):
        fx = assign[x]
        for y in range(m.target.n):
            rho = min(sdist[x][p] for p in m.preimages(y))
            if rho > r and tdist[fx][y] < threshold:
                threshold = tdist[fx][y]
    realized = sorted({tdist[i][j] for i in range(m.target.n)
                       for j in range(m.target.n)})
    omega_small = max(s for s in realized if s < threshold)
    return omega_small, omega_big


def atd_pairs(m):
    if m.target.order is None or m.source.order is None:
        raise DomainError("relation-restricted analysis needs both orders")
    if not m.surjective:
        raise DomainError("relation-restricted analysis needs surjectivity")
    order = {tuple(p) for p in m.to_dict()["target_order"]}
    out = []
    sdist, tdist = m.source.dist, m.target.dist
    for x in range(m.source.n):
        fx = m.assign[x]
        for y in range(m.target.n):
            if (fx, y) not in order:
                continue
            rho = min(sdist[x][p] for p in m.preimages(y))
            out.append((x, y, tdist[fx][y], rho))
    return out


def all_pairs(m):
    out = []
    sdist, tdist = m.source.dist, m.target.dist
    for x in range(m.source.n):
        fx = m.assign[x]
        for y in range(m.target.n):
            if y == fx:
                continue
            pre = m.preimages(y)
            if not pre:
                continue
            rho = min(sdist[x][p] for p in pre)
            out.append((x, y, tdist[fx][y], rho))
    return out


def co_constant(pairs, delta):
    vals = [D / rho for _, _, D, rho in pairs if rho > delta]
    return min(vals) if vals else inf


def coarse_profile(m, delta_grid):
    """(lip, L, c, c_atd, c_atd_inf) as the seed's `coarse_profile`."""
    if not m.surjective:
        raise DomainError("coarse profile requires a surjective assignment")
    deltas = sorted(set(float(d) for d in delta_grid))
    if any(d <= 0 for d in deltas):
        raise DomainError("delta grid must be positive")
    sdist, tdist, assign = m.source.dist, m.target.dist, m.assign
    lip = lipschitz_constant(m) if m.source.n >= 2 else 0.0
    ratios = []
    for i in range(m.source.n):
        for j in range(i + 1, m.source.n):
            ratios.append((sdist[i][j], tdist[assign[i]][assign[j]]))
    L = {}
    for d in deltas:
        far = [t / s for s, t in ratios if s >= d]
        L[d] = max(far) if far else 0.0
    plain = all_pairs(m)
    c = {d: co_constant(plain, d) for d in deltas}
    c_atd = None
    c_atd_inf = None
    if m.source.order is not None and m.target.order is not None:
        restricted = atd_pairs(m)
        c_atd = {d: co_constant(restricted, d) for d in deltas}
        finite = [v for v in c_atd.values() if v < inf]
        c_atd_inf = max(finite) if finite else inf
    return lip, L, c, c_atd, c_atd_inf


def c_atd_infinity(m):
    pairs = atd_pairs(m)
    if not pairs:
        return inf
    steps = sorted({rho for _, _, _, rho in pairs})
    best = 0.0
    for step in steps:
        vals = [D / rho for _, _, D, rho in pairs if rho >= step]
        best = max(best, min(vals))
    return best


def verify_staircase_bounds(theta, index_bound, size_bound):
    if not 0 < theta < 1:
        raise DomainError("theta must lie in (0,1)")
    theta = Fraction(theta)
    sets = staircase.enumerate_index_sets(index_bound, size_bound)
    bad = []

    seen = {}
    for J in sets:
        key = staircase.v_of(J, theta).coords
        if key in seen:
            bad.append({"check": "injective", "J": list(seen[key]), "K": list(J)})
        seen[key] = J

    tight_norm = None
    for J in sets:
        if not J:
            continue
        norm = staircase.sup_norm(staircase.v_of(J, theta))
        if not theta * len(J) <= norm <= len(J):
            bad.append({"check": "norm", "J": list(J), "norm": str(norm)})
        ratio = norm / len(J)
        if tight_norm is None or ratio < tight_norm:
            tight_norm = ratio

    pairs = 0
    tight_pair = None
    for K in sets:
        if not K:
            continue
        limit = K[0]
        for J in sets:
            if J and J[-1] >= limit:
                continue
            pairs += 1
            norm = theta * staircase._max_count_diff(J, K)
            lower = theta / 3 * (len(J) + len(K))
            upper = Fraction(len(J) + len(K))
            if not lower <= norm <= upper:
                bad.append(
                    {"check": "pair", "J": list(J), "K": list(K),
                     "norm": str(norm), "lower": str(lower),
                     "upper": str(upper)}
                )
            ratio = norm / lower
            if tight_pair is None or ratio < tight_pair:
                tight_pair = ratio

    return {
        "theta": str(theta),
        "sets": len(sets),
        "pairs": pairs,
        "tightest_norm_ratio": str(tight_norm),
        "tightest_pair_ratio": str(tight_pair),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_quarter_bounds(index_bound, size_bound):
    theta = Fraction(3, 4)
    quarter = Fraction(1, 4)
    sets = staircase.enumerate_index_sets(index_bound, size_bound)
    bad = []
    for J in sets:
        if not J:
            continue
        norm = staircase.sup_norm(staircase.v_of(J, theta))
        if not quarter * len(J) <= norm <= len(J):
            bad.append({"check": "norm", "J": list(J), "norm": str(norm)})
    pairs = 0
    tight = None
    for K in sets:
        if not K:
            continue
        limit = K[0]
        for J in sets:
            if J and J[-1] >= limit:
                continue
            pairs += 1
            norm = theta * staircase._max_count_diff(J, K)
            lower = quarter * (len(J) + len(K))
            if not lower <= norm <= len(J) + len(K):
                bad.append(
                    {"check": "pair", "J": list(J), "K": list(K),
                     "norm": str(norm), "lower": str(lower)}
                )
            ratio = norm / lower
            if tight is None or ratio < tight:
                tight = ratio
    return {
        "theta": str(theta),
        "sets": len(sets),
        "pairs": pairs,
        "tightest_pair_ratio": str(tight),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def pair_sweep(sets, theta):
    below = {}
    pairs = 0
    failed = []
    tight = None
    for K in sets:
        if not K:
            continue
        if K[0] not in below:
            below[K[0]] = [J for J in sets if not J or J[-1] < K[0]]
        for J in below[K[0]]:
            pairs += 1
            count = staircase._max_count_diff(J, K)
            size = len(J) + len(K)
            if not (size <= 3 * count
                    and theta.numerator * count <= theta.denominator * size):
                failed.append((J, K, count))
            if tight is None or 3 * count * tight[1] < tight[0] * size:
                tight = (3 * count, size)
    return pairs, failed, None if tight is None else Fraction(*tight)


def verify_prefix_exactness(theta, index_bound, size_bound):
    theta = Fraction(theta)
    sets = staircase.enumerate_index_sets(index_bound, size_bound)
    bad = []
    pairs = 0
    for K in sets:
        for p in range(len(K) + 1):
            J = K[:p]
            pairs += 1
            norm = theta * staircase._max_count_diff(J, K)
            if norm != theta * (len(K) - p):
                bad.append(
                    {"check": "prefix", "J": list(J), "K": list(K),
                     "norm": str(norm), "expected": str(theta * (len(K) - p))}
                )
    return {
        "theta": str(theta),
        "pairs": pairs,
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def as_map_table(pm):
    nodes = pm.tree.nodes()
    verts = pm.graph.vertices
    ns = len(nodes)
    sdist = [[0] * ns for _ in range(ns)]
    for i in range(ns):
        for j in range(i + 1, ns):
            d = tree_distance(nodes[i], nodes[j])
            sdist[i][j] = d
            sdist[j][i] = d
    source_order = [
        [i, j]
        for i in range(ns)
        for j in range(ns)
        if i != j and nodes[i].is_prefix_of(nodes[j])
    ]
    nt = len(verts)
    tdist = [[pm.graph.distance(u, v) for v in verts] for u in verts]
    target_order = [
        [i, j]
        for i in range(nt)
        for j in range(nt)
        if i != j and pm.graph.is_ancestor(verts[i], verts[j])
    ]
    assign = [pm.graph.index(pm.image(J)) for J in nodes]
    return {
        "schema": 1,
        "source": {"n": ns, "dist": sdist},
        "target": {"n": nt, "dist": tdist},
        "assign": assign,
        "source_order": source_order,
        "target_order": target_order,
    }


def ancestor_pairs(dist, levels):
    return [
        [i, j]
        for i, (row, li) in enumerate(zip(dist, levels))
        for j, lj in enumerate(levels)
        if i != j and row[j] == lj - li
    ]


def sample_pairs(rng: random.Random, size: int,
                 count: int) -> list[tuple[int, int]]:
    """The seeded pairs of the sampled sweep, one ``rng.sample(range(size),
    2)`` call per pair."""
    return [tuple(rng.sample(range(size), 2)) for _ in range(count)]


def verify_projection(
    pm: TreeToGraphMap,
    seed: int = 0,
    samples: Optional[int] = None,
    exhaustive: Optional[bool] = None,
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
    level_bad = [
        _level_record(graph, J, mu)
        for J, mu in zip(nodes, images) if graph.level(mu) != J.level
    ]

    covered = {graph.index(mu) for mu in images}
    missing = [
        graph.label(v) for i, v in enumerate(graph.vertices) if i not in covered
    ]

    # 1-Lipschitz over pairs, stratified into comparable (one node a prefix
    # of the other, so their distance is the level gap) and incomparable
    # pairs; both strata must be nonempty for the bound to have been
    # exercised on both geodesic shapes, and the exhaustive verdict
    # requires both.
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
        pair_iter = sample_pairs(rng, len(nodes), count)
        pairs_checked = count
    for i, j in pair_iter:
        J, K = nodes[i], nodes[j]
        dt = tree_distance(J, K)
        dm = gdist[gidx[i]][gidx[j]]
        if dt == abs(J.level - K.level):
            comparable += 1
        else:
            incomparable += 1
        if dm > dt and len(lip_bad) < MAX_COUNTEREXAMPLES:
            lip_bad.append(_lipschitz_record(pm, J, K))

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
            dm = gdist[iu][iv]
            ok = _lift_exact(pm, J, K, v, dm)
            if not ok and len(lift_bad) < MAX_COUNTEREXAMPLES:
                lift_bad.append(_lift_record(pm, J, K, v, dm))

    checks = {
        "level_preserving": {
            "pass": not level_bad,
            "checked": len(nodes),
            "counterexamples": level_bad[:MAX_COUNTEREXAMPLES],
        },
        "surjective": {
            "pass": not missing,
            "covered": len(covered),
            "vertices": len(graph.vertices),
            "counterexamples": missing[:MAX_COUNTEREXAMPLES],
        },
        "lipschitz": {
            "pass": not lip_bad and (not exhaustive or (
                comparable > 0 and incomparable > 0)),
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


def image(pm, node):
    if node.level > pm.tree.depth:
        raise DomainError(f"node {node} is below the depth")
    if node.is_root:
        return pm.graph.root
    parent = TreeNode(node.elements[:-1])
    above = image(pm, parent)
    base = parent.elements[-1] if parent.elements else 0
    k = node.elements[-1] - base
    if not 1 <= k <= pm.tree.branching:
        raise DomainError(f"node {node} has fraternal index {k}")
    kids = pm.graph.children(above)
    if len(kids) == 1:
        return kids[0]
    if node == pm._flip_node:
        return kids[k % len(kids)]
    return kids[k - 1]


def downward_path(g, u, v):
    if not g.is_ancestor(u, v):
        raise RelationError(f"{g.label(u)} is not an ancestor of {g.label(v)}")
    path = [u]
    cur = u
    while cur != v:
        for c in g.children(cur):
            if g.is_ancestor(c, v):
                cur = c
                path.append(cur)
                break
        else:
            raise AssertionError(
                f"no child of {g.label(cur)} stays above {g.label(v)}"
            )
    return path


def lift(pm, node, target):
    path = downward_path(pm.graph, image(pm, node), target)
    cur = node
    for i in range(1, len(path)):
        kids = pm.graph.children(path[i - 1])
        k = 1 if len(kids) == 1 else kids.index(path[i]) + 1
        base = cur.elements[-1] if cur.elements else 0
        cur = cur.child(base + k)
    return cur


def child_indices(g, i):
    return tuple(j for j in g.neighbors[i] if g.levels[j] == g.levels[i] + 1)


def _block_distance(p: int, q: int, b: int) -> int:
    if p == q:
        return 0
    if _is_arm(p, b) and _is_arm(q, b):
        return 2
    return abs(_pos_level(p, b) - _pos_level(q, b))


@lru_cache(maxsize=1 << 18)
def _dist(scale: int, b: int, u: tuple, v: tuple) -> int:
    if u == v:
        return 0
    if v < u:
        u, v = v, u
    wu, pu = u
    wv, pv = v
    unit = 3 ** (scale - 1)
    if not wu and not wv:
        return unit * _block_distance(pu, pv, b)
    # Same copy at this scale: strip the shared edge and recurse.
    if wu and wv and wu[0] == wv[0]:
        return _dist(scale - 1, b, (wu[1:], pu), (wv[1:], pv))
    # A glue vertex that bounds the other vertex's copy enters that copy
    # as the copy's root or sink.
    if not wu and wv:
        e = wv[0]
        if pu == _edge_src(e, b):
            return _dist(scale - 1, b, ((), ROOT_POS), (wv[1:], pv))
        if pu == _edge_dst(e, b):
            return _dist(scale - 1, b, ((), _sink_pos(b)), (wv[1:], pv))
    # Distinct copies: any path crosses copy boundaries at glue vertices,
    # so route through the four portal combinations.
    best = None
    for p, cp in _portals(scale, b, u):
        for q, cq in _portals(scale, b, v):
            cand = cp + unit * _block_distance(p, q, b) + cq
            if best is None or cand < best:
                best = cand
    return best


def _portals(scale: int, b: int, u: tuple) -> list[tuple[int, int]]:
    word, pos = u
    if not word:
        return [(pos, 0)]
    e = word[0]
    inner_level = _level_of(word[1:], pos, scale - 1, b)
    return [
        (_edge_src(e, b), inner_level),
        (_edge_dst(e, b), 3 ** (scale - 1) - inner_level),
    ]


def bfs_levels(g, v) -> list[int]:
    src = g.index(v)
    dist = [-1] * len(g.vertices)
    dist[src] = 0
    queue = deque([src])
    while queue:
        i = queue.popleft()
        for j in g.neighbors[i]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def oracle_agreement_report(g) -> dict:
    verts, labels = g.vertices, g.labels
    mismatches = []
    for sources, band in g.distance_blocks():
        first = sources.start
        for i, row in zip(sources, band.tolist()):
            bfs = bfs_levels(g, verts[i])
            for j in range(i + 1, len(verts)):
                if row[j - first] != bfs[j]:
                    mismatches.append(
                        {"u": labels[i], "v": labels[j],
                         "analytic": row[j - first], "bfs": bfs[j]}
                    )
    total = len(verts) * (len(verts) - 1) // 2
    return {
        "n": g.n,
        "b": g.b,
        "pairs_checked": total,
        "mismatches": mismatches[:10],
        "mismatch_count": len(mismatches),
        "pass": not mismatches,
    }


def distance_rows(space) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(i, row)`` for each rank i of ``space``, where ``row[j]``
    is the int32 tree distance from node i to node j, from ``levels`` and
    ``spans`` alone."""
    levels = space.levels
    span = space.spans
    # (start, level) of the ancestors: in preorder, the latest node seen at
    # each lower level is the current node's ancestor there.
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


def integer_table(dist) -> Optional[np.ndarray]:
    """A list or tuple table that numpy reads, whole, as a 2-D signed
    integer array, in the smallest signed dtype that holds its least and
    greatest entry; None for any other table."""
    if not isinstance(dist, (list, tuple)):
        return None
    try:
        table = np.array(dist)
    except ValueError:  # ragged
        return None
    if table.ndim != 2 or not np.issubdtype(table.dtype, np.signedinteger):
        return None
    if table.size:
        lo, hi = table.min(), table.max()
        for dtype in (np.int8, np.int16, np.int32):
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
                return table.astype(dtype)
    return table

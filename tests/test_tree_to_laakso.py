import json
import random
from pathlib import Path

import numpy as np
import pytest

import loop_reference as ref
from laakso_lab import cli
from laakso_lab import quotient_analysis as qa
from laakso_lab import tree_to_laakso as ttl
from laakso_lab.errors import DomainError
from laakso_lab.laakso_graph import LaaksoGraph, build_laakso, find_forks
from laakso_lab.tree_space import ROOT, TreeNode, TreeSpace, tree_distance
from laakso_lab.tree_to_laakso import (
    DEFAULT_SAMPLES,
    MAX_COUNTEREXAMPLES,
    TreeToGraphMap,
    ancestor_pairs,
    as_map_table,
    lifted_fork,
    map_table,
    replay_case,
    sibling_lift_separation,
    verify_projection,
)


@pytest.fixture(scope="module")
def pm_small():
    return TreeToGraphMap(TreeSpace(2, 3), build_laakso(1, 2))


class Planted(TreeToGraphMap):
    """A projection with faulty images planted at some nodes: ``planted``
    maps element tuples to vertex indices.  Both drivers return the
    planted image of a planted node and the true image of every other
    node, descendants of planted nodes included."""

    def __init__(self, tree, graph, planted):
        super().__init__(tree, graph)
        self.planted = planted

    def image_index(self, elements):
        hit = self.planted.get(elements)
        return super().image_index(elements) if hit is None else hit

    def rank_images(self):
        out = super().rank_images()
        for elements, img in self.planted.items():
            out[self.tree.rank_of(TreeNode(elements))] = img
        return out


@pytest.fixture(scope="module")
def pm_folded():
    """phi(1,2) with the subtree of {1} pushed one level down: {1} onto w1
    and its descendants onto the sink.  Levels, the 1-Lipschitz bound and
    lift exactness all fail, and every image and lift stays defined."""
    tree, g = TreeSpace(2, 3), build_laakso(1, 2)
    return Planted(tree, g, {
        J.elements: g.index(g.by_label("w1") if J.level == 1 else g.sink)
        for J in tree.nodes() if J.elements[:1] == (1,)
    })


@pytest.fixture(scope="module")
def pm_mid():
    return TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))


@pytest.fixture(scope="module")
def pm_mid_folded(pm_mid):
    """phi(2,2) with {1,2,3,4,5} pushed one level down onto the image of
    its first child.  Each of its five ancestors, from the root down, and
    the node itself against later nodes break the 1-Lipschitz bound: twelve
    failures over six rows, every image and lift still defined."""
    node = TreeNode((1, 2, 3, 4, 5))
    return Planted(pm_mid.tree, pm_mid.graph, {
        node.elements: pm_mid.image_index(node.child(6).elements)})


DATA = Path(__file__).parent / "data"


class TestConstruction:
    def test_depth_must_match(self):
        with pytest.raises(ValueError):
            TreeToGraphMap(TreeSpace(2, 4), build_laakso(1, 2))

    def test_branching_must_match(self):
        with pytest.raises(ValueError):
            TreeToGraphMap(TreeSpace(3, 3), build_laakso(1, 2))


class TestImage:
    def test_root_to_root(self, pm_small):
        assert pm_small.image(ROOT) == pm_small.graph.root

    def test_single_steps(self, pm_small):
        g = pm_small.graph
        assert g.label(pm_small.image(TreeNode((1,)))) == "v"
        assert g.label(pm_small.image(TreeNode((2,)))) == "v"
        # at the branching level the fraternal index picks the arm
        assert g.label(pm_small.image(TreeNode((1, 2)))) == "w1"
        assert g.label(pm_small.image(TreeNode((1, 3)))) == "w2"
        assert g.label(pm_small.image(TreeNode((2, 3)))) == "w1"
        assert g.label(pm_small.image(TreeNode((1, 2, 3)))) == "s"

    def test_deeper_example(self, pm_mid):
        # second fraternal choice at the first branching level of the
        # two-step graph lands on the second arm of the finest top block
        g = pm_mid.graph
        assert g.label(pm_mid.image(TreeNode((1, 3)))) == "t.w2"
        assert g.label(pm_mid.image(TreeNode((1, 2)))) == "t.w1"

    def test_level_preserved(self, pm_mid):
        for node in pm_mid.tree.nodes():
            assert pm_mid.graph.level(pm_mid.image(node)) == node.level

    def test_too_deep_raises(self, pm_small):
        with pytest.raises(DomainError):
            pm_small.image(TreeNode((1, 2, 3, 4)))

    def test_out_of_range_offset_raises(self, pm_small):
        with pytest.raises(DomainError):
            pm_small.image(TreeNode((1, 4)))  # offset 3 > branching 2

    @pytest.mark.parametrize("node", [(7,), (1, 2, 5), (1, 4)])
    def test_increment_above_b_raises_at_every_step(self, pm_mid, node):
        # (7,) leaves the root and (1, 2, 5) an arm, neither of which
        # branches; (1, 4) leaves the branching t.v
        with pytest.raises(DomainError, match=r"outside 1\.\.2"):
            pm_mid.image(TreeNode(node))
        with pytest.raises(DomainError):
            ref.image(pm_mid, TreeNode(node))


class TestLift:
    def test_lift_reaches_target(self, pm_mid):
        g = pm_mid.graph
        for target in g.vertices:
            n = pm_mid.lift(ROOT, target)
            assert pm_mid.image(n) == target
            assert tree_distance(ROOT, n) == g.level(target)

    def test_lift_from_interior(self, pm_mid):
        g = pm_mid.graph
        base = pm_mid.lift(ROOT, g.by_label("t.v"))
        target = g.by_label("t.w2")
        lifted = pm_mid.lift(base, target)
        assert pm_mid.image(lifted) == target
        assert tree_distance(base, lifted) == g.distance(
            g.by_label("t.v"), target
        )

    def test_lift_prefers_first_child_on_non_branching(self, pm_small):
        # the only descent below an arm is the sink edge; a lift through it
        # must append offset 1
        g = pm_small.graph
        base = pm_small.lift(ROOT, g.by_label("w1"))
        lifted = pm_small.lift(base, g.sink)
        assert lifted.elements == base.elements + (base.elements[-1] + 1,)


    def test_lift_from_a_node_outside_the_tree_raises(self, pm_mid):
        with pytest.raises(DomainError, match=r"outside 1\.\.2"):
            pm_mid.lift(TreeNode((7,)), pm_mid.graph.sink)


class TestIndexRoutesMatchReference:
    """The index-keyed image and the one-descent lift against the
    TreeNode-keyed recursion and the child-by-child walk."""

    @pytest.mark.parametrize("n,flip", [(1, None), (2, None),
                                        (2, cli.FAULT_NODE)])
    def test_image_on_every_node(self, n, flip):
        pm = TreeToGraphMap(TreeSpace(2, 3**n), build_laakso(n, 2),
                            _flip_node=flip)
        for J in pm.tree.nodes():
            assert pm.image(J) == ref.image(pm, J)

    def test_lift_on_every_preimage_and_ancestor_target(self, pm_mid):
        g = pm_mid.graph
        preimages = {}
        for J in pm_mid.tree.nodes():
            preimages.setdefault(g.index(pm_mid.image(J)), []).append(J)
        dist = [[g.distance(u, v) for v in g.vertices] for u in g.vertices]
        lifts = 0
        for iu, iv in ancestor_pairs(dist, g.levels):
            v = g.vertices[iv]
            for J in preimages[iu]:
                assert pm_mid.lift(J, v) == ref.lift(pm_mid, J, v)
                lifts += 1
        rep = verify_projection(pm_mid)
        assert lifts == rep["checks"]["lift_exact"]["lifts"] > 0

    def test_one_downward_path_per_ancestor_pair(self, monkeypatch):
        calls = 0
        walk = LaaksoGraph.descent

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return walk(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "descent", counted)
        pm = TreeToGraphMap(TreeSpace(3, 9), build_laakso(2, 3))
        rep = verify_projection(pm, seed=0)
        lift = rep["checks"]["lift_exact"]
        assert rep["mode"] == "sampled"
        assert (calls, lift["ancestor_pairs"], lift["lifts"]) == (
            297, 297, 12_354)


class TestRankImages:
    """The rank driver of the image step against the point driver, node by
    node, clean, mis-wired and on planted maps."""

    @pytest.mark.parametrize("flip", [None, cli.FAULT_NODE])
    @pytest.mark.parametrize("n,b", [(1, 2), (2, 2), (2, 3)])
    def test_equal_image_index_on_every_node(self, n, b, flip):
        pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b),
                            _flip_node=flip)
        images = pm.rank_images()
        assert images.tolist() == [pm.image_index(J.elements)
                                   for J in pm.tree.nodes()]

    @pytest.mark.parametrize("fixture", ["pm_folded", "pm_mid_folded"])
    def test_equal_image_index_on_planted_maps(self, fixture, request):
        pm = request.getfixturevalue(fixture)
        images = pm.rank_images()
        assert images.tolist() == [pm.image_index(J.elements)
                                   for J in pm.tree.nodes()]

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3)])
    def test_every_flip_moves_both_drivers(self, n, b):
        # The flip node in turn at every node of the tree, at the root and
        # at two nodes outside it (an increment above b): both drivers
        # agree with each other and with the reference recursion, and the
        # root and the outside nodes change no image.
        tree, g = TreeSpace(b, 3**n), build_laakso(n, b)
        nodes = tree.nodes()
        clean = TreeToGraphMap(tree, g).rank_images().tolist()
        moved = 0
        for flip in [*nodes, TreeNode((b + 1,)), TreeNode((1, b + 2))]:
            pm = TreeToGraphMap(tree, g, _flip_node=flip)
            images = pm.rank_images().tolist()
            assert images == [pm.image_index(J.elements) for J in nodes]
            assert images == [g.index(ref.image(pm, J)) for J in nodes]
            if flip.is_root or flip not in tree:
                assert images == clean
            moved += images != clean
            if (n, b) == (1, 2):
                assert verify_projection(pm) == ref.verify_projection(pm)
        assert moved > 0

    def test_a_lift_below_the_depth_is_refused_as_by_the_point_route(self):
        # A leaf planted on the root: lifting it towards any vertex leaves
        # the tree, which both verifiers refuse.
        g = build_laakso(1, 2)
        pm = Planted(TreeSpace(2, 3), g, {(1, 2, 3): g.index(g.root)})
        with pytest.raises(DomainError, match=r"level 4 > depth 3"):
            ref.verify_projection(pm)
        with pytest.raises(DomainError, match=r"level 4 > depth 3"):
            verify_projection(pm)


class TestNoEnumeration:
    """The sweep and the map table run on ranks: with ``TreeSpace.nodes``
    refused they still give the pair-by-pair reference's results."""

    @staticmethod
    def refuse_nodes(monkeypatch):
        def refuse(self):
            raise AssertionError("the sweep enumerated the nodes")

        monkeypatch.setattr(TreeSpace, "nodes", refuse)

    @pytest.mark.parametrize("n,b,fault,mode", [(2, 3, False, "sampled"),
                                                (2, 2, True, "exhaustive")])
    def test_verify_projection(self, monkeypatch, n, b, fault, mode):
        want = ref.verify_projection(cli._phi_map(n, b, fault), seed=0)
        self.refuse_nodes(monkeypatch)
        got = verify_projection(cli._phi_map(n, b, fault), seed=0)
        assert got["mode"] == mode
        assert got["pass"] is not fault
        assert got == want

    def test_verify_phi_cli(self, monkeypatch, tmp_path):
        self.refuse_nodes(monkeypatch)
        out = tmp_path / "phi.json"
        assert cli.main(["verify", "phi", "--n", "2", "--b", "2",
                         "--inject-fault", "--out", str(out)]) == 1
        golden = DATA / "verify_phi_n2_b2_inject_fault.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_map_table(self, monkeypatch):
        want = ref.as_map_table(cli._phi_map(1, 3, False))
        self.refuse_nodes(monkeypatch)
        assert map_table(cli._phi_map(1, 3, False)).to_dict() == want


class TestVerifyProjection:
    def test_exhaustive_small(self, pm_small):
        rep = verify_projection(pm_small, seed=0)
        assert rep["mode"] == "exhaustive"
        assert rep["pass"], rep

    def test_mid_passes(self, pm_mid):
        rep = verify_projection(pm_mid, seed=0)
        assert rep["pass"]
        assert rep["checks"]["surjective"]["covered"] == 20
        assert rep["checks"]["lipschitz"]["comparable_pairs"] > 0
        assert rep["checks"]["lipschitz"]["incomparable_pairs"] > 0

    def test_sampled_mode_deterministic(self):
        pm = TreeToGraphMap(TreeSpace(3, 9), build_laakso(2, 3))
        a = verify_projection(pm, seed=7, samples=500)
        b = verify_projection(pm, seed=7, samples=500)
        assert a == b
        assert a["mode"] == "sampled"
        assert a["pass"]

    @pytest.mark.parametrize("flip", [None, (1, 2)])
    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2)])
    def test_exhaustive_matches_pairwise_reference(self, n, b, flip):
        pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b),
                            _flip_node=flip and TreeNode(flip))
        rep = verify_projection(pm)
        assert rep["mode"] == "exhaustive"
        assert rep["pass"] == (flip is None)
        assert rep == ref.verify_projection(pm)

    def test_folded_matches_pairwise_reference(self, pm_folded):
        assert verify_projection(pm_folded) == ref.verify_projection(pm_folded)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_matches_pairwise_reference(self, seed):
        pm = TreeToGraphMap(TreeSpace(3, 9), build_laakso(2, 3))
        rep = verify_projection(pm, seed=seed)
        assert rep["mode"] == "sampled"
        assert rep == ref.verify_projection(pm, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_failures_match_pairwise_reference(self, seed):
        # phi(2,2) with the subtree of {1} pushed one level down, leaves
        # onto the sink: Lipschitz failures common enough to be sampled.
        clean = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))
        pm = Planted(clean.tree, clean.graph, {
            J.elements: (
                clean.image_index(J.child(J.elements[-1] + 1).elements)
                if J.level < 9 else clean.graph.index(clean.graph.sink))
            for J in clean.tree.nodes() if J.elements[:1] == (1,)
        })
        rep = verify_projection(pm, seed=seed, samples=DEFAULT_SAMPLES)
        assert rep["mode"] == "sampled"
        assert len(rep["checks"]["lipschitz"]["counterexamples"]) == 5
        assert rep == ref.verify_projection(pm, seed=seed, exhaustive=False)

    def test_first_lipschitz_failures_in_row_major_order(self, pm_mid_folded):
        rep = verify_projection(pm_mid_folded)
        assert rep == ref.verify_projection(pm_mid_folded)
        lip = rep["checks"]["lipschitz"]
        assert not lip["pass"]
        assert (lip["pairs"], lip["comparable_pairs"],
                lip["incomparable_pairs"]) == (522_753, 8_194, 514_559)
        pushed = [1, 2, 3, 4, 5]
        assert [(c["node"], c["other"], c["tree_dist"], c["graph_dist"])
                for c in lip["counterexamples"]] == [
            (pushed[:k], pushed, 5 - k, 6 - k) for k in range(5)
        ]

    def test_first_lipschitz_failures_across_blocks(self, pm_mid):
        # phi(2,2) with the images of {1,...,8} (rank 8) and
        # {1,2,3,5,6,7,8,9} (rank 71), both on level 8, swapped: the first
        # four failures lie in the first block of 32 ranks, the fifth in
        # the block of ranks 64..95, and that block fails again after it,
        # so the cut lands inside a block.
        tree, graph = pm_mid.tree, pm_mid.graph
        a, b = tree.node_at(8), tree.node_at(71)
        pm = Planted(tree, graph, {
            a.elements: pm_mid.image_index(b.elements),
            b.elements: pm_mid.image_index(a.elements)})
        rep = verify_projection(pm)
        want = ref.verify_projection(pm)
        assert rep == want
        lip, lip_want = rep["checks"]["lipschitz"], want["checks"]["lipschitz"]
        assert (lip["comparable_pairs"], lip["incomparable_pairs"]) == (
            lip_want["comparable_pairs"], lip_want["incomparable_pairs"])
        assert lip["counterexamples"] == lip_want["counterexamples"]
        records = [(tree.rank_of(TreeNode(tuple(c["node"]))),
                    tree.rank_of(TreeNode(tuple(c["other"]))))
                   for c in lip["counterexamples"]]
        assert len(records) == MAX_COUNTEREXAMPLES
        blocks = list(tree.rank_blocks())
        assert blocks[:3] == [(0, 32), (32, 64), (64, 96)]
        assert [i // 32 for i, _ in records] == [0, 0, 0, 0, 2]
        # The failing pairs of the fifth record's block, from the tables.
        m = map_table(pm)
        sdist, tdist = np.array(m.source.dist), np.array(m.target.dist)
        assign = np.array(m.assign)
        failing = [(i, j) for i in range(64, 96)
                   for j in range(i + 1, tree.size())
                   if tdist[assign[i], assign[j]] > sdist[i, j]]
        assert failing[0] == records[-1] and len(failing) > 1

    def test_graph_distances_past_the_block_dtype_saturate(self, monkeypatch):
        # The sweep compares in the tree blocks' narrow dtype; graph
        # distances above it must still read as farther, not wrap around.
        pm = TreeToGraphMap(TreeSpace(2, 3), build_laakso(1, 2))
        assert pm.tree.distance_dtype == np.int8
        far = pm.graph.distance_matrix() + 250
        np.fill_diagonal(far, 0)
        monkeypatch.setattr(pm.graph, "distance_matrix", lambda: far)
        lip = verify_projection(pm)["checks"]["lipschitz"]
        assert not lip["pass"]
        assert [(c["node"], c["other"]) for c in lip["counterexamples"]] == [
            ([], list(K.elements)) for K in pm.tree.nodes()[1:6]]

    def test_fault_is_caught_and_replayable(self):
        pm_bad = TreeToGraphMap(
            TreeSpace(2, 9), build_laakso(2, 2), _flip_node=TreeNode((1, 2))
        )
        rep = verify_projection(pm_bad, seed=0)
        assert not rep["pass"]
        cases = [
            c
            for chk in rep["checks"].values()
            for c in chk.get("counterexamples", [])
        ]
        assert cases
        replay = replay_case(pm_bad, cases[0])
        assert not replay["pass"]
        pm_good = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))
        assert replay_case(pm_good, cases[0])["pass"]

    def test_replay_rejects_unknown_kind(self, pm_small):
        with pytest.raises(DomainError):
            replay_case(pm_small, {"check": "nonsense"})

    @pytest.mark.parametrize(
        "case,message",
        [([1], "JSON object"),
         ("level", "JSON object"),
         ({"node": [1]}, "unknown counterexample kind None"),
         ({"check": ["lift"], "node": [1]}, "unknown counterexample kind"),
         ({"check": "level"}, r"level record needs the key 'node' \(a list\)"),
         ({"check": "lipschitz", "node": [1]},
          r"lipschitz record needs the key 'other' \(a list\)"),
         ({"check": "lift", "node": [1]},
          r"lift record needs the key 'vertex' \(a str\)"),
         ({"check": "level", "node": 5}, "needs the key 'node'"),
         ({"check": "lift", "node": [], "vertex": ["t"]},
          "needs the key 'vertex'")],
    )
    def test_replay_rejects_malformed_records(self, pm_small, case, message):
        with pytest.raises(DomainError, match=message):
            replay_case(pm_small, case)

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", None, [1]])
    @pytest.mark.parametrize("kind,key", [("level", "node"),
                                          ("lipschitz", "node"),
                                          ("lipschitz", "other"),
                                          ("lift", "node")])
    def test_replay_rejects_non_integer_elements(self, pm_small, kind, key,
                                                 bad):
        case = {"check": kind, "node": [1], "other": [2], "vertex": "s"}
        case[key] = [bad]
        with pytest.raises(DomainError, match=f"'{key}' of a {kind} record "
                                              "must list JSON integers"):
            replay_case(pm_small, case)

    @pytest.mark.parametrize("check", ["level_preserving", "lipschitz",
                                       "lift_exact"])
    def test_replay_returns_the_report_record(self, pm_folded, pm_small,
                                              check):
        cases = verify_projection(pm_folded)["checks"][check]["counterexamples"]
        assert cases
        g = pm_small.graph
        for case in cases:
            assert replay_case(pm_folded, case) == {**case, "pass": False}
            J = TreeNode(tuple(case["node"]))
            if case["check"] == "level":
                fixed = {"vertex": g.label(pm_small.image(J)),
                         "graph_level": J.level}
            elif case["check"] == "lipschitz":
                K = TreeNode(tuple(case["other"]))
                fixed = {"graph_dist": g.distance(pm_small.image(J),
                                                  pm_small.image(K))}
            else:
                K = pm_small.lift(J, g.by_label(case["vertex"]))
                fixed = {"lifted": list(K.elements),
                         "lifted_image": case["vertex"],
                         "tree_dist": case["graph_dist"]}
            assert replay_case(pm_small, case) == {**case, **fixed,
                                                   "pass": True}

    @pytest.mark.parametrize(
        "kind,case,code",
        [("level", {"check": "level", "node": [1, 2]}, 0),
         ("lipschitz",
          {"check": "lipschitz", "node": [1, 2], "other": [1, 3]}, 0),
         ("lift", {"check": "lift", "node": [], "vertex": "t.w1"}, 1)],
    )
    def test_replay_is_golden(self, tmp_path, kind, case, code):
        out = tmp_path / "replay.json"
        assert cli.main(["verify", "phi", "--n", "2", "--b", "2",
                         "--inject-fault", "--replay", json.dumps(case),
                         "--out", str(out)]) == code
        golden = DATA / f"replay_phi_n2_b2_inject_fault_{kind}.json"
        if kind != "lift":
            assert out.read_bytes() == golden.read_bytes()
        else:
            got = json.loads(out.read_text())
            assert got.pop("lifted_image") == "t.w2"
            assert got == json.loads(golden.read_text())

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_is_rejected(self, pm_small, samples):
        with pytest.raises(DomainError, match="samples must be >= 1"):
            verify_projection(pm_small, samples=samples)

    @pytest.mark.parametrize(
        "name,argv,code",
        [("n2_b3_seed0", ["--n", "2", "--b", "3", "--seed", "0"], 0),
         ("n2_b2_inject_fault", ["--n", "2", "--b", "2", "--inject-fault"], 1)],
    )
    def test_verify_phi_report_is_golden(self, tmp_path, name, argv, code):
        out = tmp_path / "phi.json"
        assert cli.main(["verify", "phi", *argv, "--out", str(out)]) == code
        golden = DATA / f"verify_phi_{name}.json"
        assert out.read_bytes() == golden.read_bytes()


class TestSamplePairs:
    """The bulk pair draw against the per-pair ``rng.sample`` loop: the
    same pairs, the same generator state, and so the same next draw.
    Sizes 21 and 2**32 keep the loop; 22 and 23 redraw repeats often."""

    class Counting(random.Random):
        """Counts ``_randbelow`` calls, each past two per pair a redraw of
        a pair's repeated second value, and the 32-bit words that
        ``getrandbits`` reads."""

        calls = words = 0

        def _randbelow(self, n):
            self.calls += 1
            return super()._randbelow(n)

        def getrandbits(self, k):
            self.words += -(-k // 32)
            return super().getrandbits(k)

    @pytest.mark.parametrize("count", [1, 2, 500, 20_000])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("size", [21, 22, 23, 30, 1_023, 29_524,
                                      2**28 - 1, 2**32 - 1, 2**32])
    def test_equals_the_loop(self, size, seed, count):
        want_rng, got_rng = self.Counting(seed), random.Random(seed)
        want = ref.sample_pairs(want_rng, size, count)
        redraws = want_rng.calls - 2 * count
        i, j = ttl._sample_pairs(got_rng, size, count)
        assert (i.dtype, j.dtype) == (np.int64, np.int64)
        assert list(zip(i.tolist(), j.tolist())) == want
        assert got_rng.getstate() == want_rng.getstate()
        assert (got_rng.sample(range(1000), 256)
                == want_rng.sample(range(1000), 256))
        if size in (22, 23) and count >= 500:
            assert redraws > 0

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_short_chunks_top_up_to_the_same_pairs(self, monkeypatch, seed):
        # Every read capped at 16 words: the 1,000 values of 500 pairs take
        # more than 1000 / 16 top-ups.
        reads = []
        randbytes = random.Random.randbytes

        def capped(self, n):
            reads.append(n)
            return randbytes(self, min(n, 64))

        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = ref.sample_pairs(want_rng, 22, 500)
        monkeypatch.setattr(random.Random, "randbytes", capped)
        i, j = ttl._sample_pairs(got_rng, 22, 500)
        assert len(reads) > 1000 // 16
        assert list(zip(i.tolist(), j.tolist())) == want
        assert got_rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("size", [22, 32, 33, 29_524, 2**31, 2**32 - 1])
    def test_reads_exactly_the_words_of_the_loop(self, monkeypatch, size):
        # randbytes hands out no word that the per-pair loop does not read.
        reads = []
        randbytes = random.Random.randbytes

        def counted(self, n):
            reads.append(n // 4)
            return randbytes(self, n)

        count = 20_000
        want_rng = self.Counting(0)
        ref.sample_pairs(want_rng, size, count)
        monkeypatch.setattr(random.Random, "randbytes", counted)
        ttl._sample_pairs(random.Random(0), size, count)
        assert sum(reads) == want_rng.words >= 2 * count


@pytest.fixture(scope="module")
def pm_b3():
    return TreeToGraphMap(TreeSpace(3, 3), build_laakso(1, 3))


@pytest.fixture(scope="module")
def pm_b3_folded(pm_b3):
    """phi(1,3) with the subtree of {1} pushed one level down: {1} onto
    the image of its first child and its descendants onto the sink."""
    g = pm_b3.graph
    return Planted(pm_b3.tree, g, {
        J.elements: (
            pm_b3.image_index(J.child(2).elements) if J.level == 1
            else g.index(g.sink))
        for J in pm_b3.tree.nodes() if J.elements[:1] == (1,)
    })


class TestSampledSweepAtTheBoundary:
    """The sampled sweep against the pair-by-pair verifier on both sides of
    the bulk draw's lower bound: T(2,3) has 15 nodes and keeps the loop,
    T(3,3) has 40 and draws in bulk.  (A depth-4 tree has no graph.)"""

    @pytest.mark.parametrize("samples", [1, 2, 500])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name,nodes,fault", [
        ("pm_small", 15, False), ("pm_folded", 15, True),
        ("pm_b3", 40, False), ("pm_b3_folded", 40, True)])
    def test_matches_pairwise_reference(self, request, name, nodes, fault,
                                        seed, samples):
        pm = request.getfixturevalue(name)
        rep = verify_projection(pm, seed=seed, samples=samples)
        assert rep["tree"]["nodes"] == nodes
        assert rep["mode"] == "sampled"
        assert rep["checks"]["lipschitz"]["pairs"] == samples
        assert rep["pass"] is not fault
        assert rep == ref.verify_projection(pm, seed=seed, samples=samples,
                                            exhaustive=False)


class TestAncestorPairs:
    """The ancestor rule read off distance tables, against the relations
    computed without it: prefixes in the tree, `is_ancestor` on BFS rows
    of the graph."""

    @pytest.mark.parametrize("b,d", [(2, 4), (3, 3)])
    def test_tree_distances_give_the_prefix_relation(self, b, d):
        nodes = TreeSpace(b, d).nodes()
        dist = [[tree_distance(J, K) for K in nodes] for J in nodes]
        assert ancestor_pairs(dist, [J.level for J in nodes]) == [
            [i, j]
            for i, J in enumerate(nodes)
            for j, K in enumerate(nodes)
            if i != j and J.is_prefix_of(K)
        ]

    @pytest.mark.parametrize("b,d", [(2, 4), (3, 3)])
    def test_numpy_rows_give_the_prefix_relation(self, b, d):
        space = TreeSpace(b, d)
        nodes = space.nodes()
        levels = [J.level for J in nodes]
        rows = [row for _, row in ref.distance_rows(space)]
        prefix = [
            [i, j]
            for i, J in enumerate(nodes)
            for j, K in enumerate(nodes)
            if i != j and J.is_prefix_of(K)
        ]
        assert ancestor_pairs(rows, levels) == prefix
        assert ancestor_pairs(np.array(rows), np.array(levels)) == prefix

    @pytest.mark.parametrize("b,d", [(2, 0), (2, 4), (3, 3)])
    def test_matches_the_comprehension(self, b, d):
        # The array rule equals the former comprehension on nested lists
        # and on arrays; depth 0 is the one-node space.
        space = TreeSpace(b, d)
        levels = [J.level for J in space.nodes()]
        rows = [row.tolist() for _, row in ref.distance_rows(space)]
        for dist, lv in [(rows, levels), (np.array(rows), np.array(levels))]:
            assert ancestor_pairs(dist, lv) == ref.ancestor_pairs(dist, lv)

    def test_empty_and_one_point_spaces(self):
        for dist, levels in [([], []), ([[0]], [0]),
                             (np.zeros((0, 0), int), np.zeros(0, int)),
                             (np.zeros((1, 1), int), [3])]:
            assert ancestor_pairs(dist, levels) == []
            assert ref.ancestor_pairs(dist, levels) == []

    @pytest.mark.parametrize("n,b", [(2, 2), (2, 3), (3, 2)])
    def test_graph_distances_give_is_ancestor(self, n, b):
        g = build_laakso(n, b)
        dist = [g.bfs_levels_from(u) for u in g.vertices]
        assert ancestor_pairs(dist, g.levels) == [
            [i, j]
            for i, u in enumerate(g.vertices)
            for j, v in enumerate(g.vertices)
            if i != j and g.is_ancestor(u, v)
        ]


class TestSiblingLiftSeparation:
    def test_clean_map_passes(self, pm_mid):
        rep = sibling_lift_separation(pm_mid)
        assert rep["pass"]
        assert rep["checked"] > 0

    def test_faulty_map_fails(self):
        pm_bad = TreeToGraphMap(
            TreeSpace(2, 9), build_laakso(2, 2), _flip_node=TreeNode((1, 2))
        )
        rep = sibling_lift_separation(pm_bad)
        assert not rep["pass"]


class TestMapTable:
    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2)])
    def test_matches_pairwise_reference(self, n, b):
        pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b))
        want = ref.as_map_table(pm)
        assert map_table(pm).to_dict() == want
        assert as_map_table(pm) == want

    def test_entries_are_python_ints(self, pm_small):
        m = map_table(pm_small)
        table = m.to_dict()
        for side in ("source", "target"):
            space = getattr(m, side)
            assert {type(d) for row in space.dist for d in row} == {int}
            pairs = table[f"{side}_order"]
            assert {type(i) for pair in pairs for i in pair} == {int}
        assert {type(a) for a in m.assign} == {int}

    def test_sampled_triangle_check_passes_the_phi_source(self):
        # 1023 points: above the exhaustive limit, so the seeded sample
        # checks the tree metric while map_table builds the source, and
        # the metric must pass it.
        pm = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))
        assert map_table(pm).source.n == 1023 > qa.TRIANGLE_EXHAUSTIVE_LIMIT

    def test_round_trip(self, pm_small):
        from laakso_lab.quotient_analysis import MetricMapTable

        d = as_map_table(pm_small)
        assert d["schema"] == 1
        assert d["source"]["n"] == pm_small.tree.size()
        assert d["target"]["n"] == len(pm_small.graph.vertices)
        assert len(d["assign"]) == d["source"]["n"]
        m = MetricMapTable.from_dict(d)
        assert m.surjective
        assert m.to_dict()["assign"] == d["assign"]

    def test_orders_are_strict_partial(self, pm_small):
        d = as_map_table(pm_small)
        pairs = {tuple(p) for p in d["source_order"]}
        for i, j in pairs:
            assert i != j
            assert (j, i) not in pairs
        # transitivity spot check on the tree side: root precedes everything
        n = d["source"]["n"]
        root_successors = {j for i, j in pairs if i == 0}
        assert root_successors == set(range(1, n))


class TestLiftedFork:
    def test_g1_fork_lifts_exactly(self, pm_small):
        fork = next(find_forks(pm_small.graph, r_min=1))
        rep = lifted_fork(pm_small, fork)
        assert rep["pass"], rep["problems"]
        assert rep["r"] == 1
        assert rep["sigma0"] == []
        assert rep["sigma1"] == [1]
        assert rep["sigma2"] == [[1, 2], [1, 3]]

    def test_g3_b4_radius_three(self):
        g = build_laakso(3, 4)
        fork = next(find_forks(g, r_min=3))
        pm = TreeToGraphMap(TreeSpace(4, 27), g)
        rep = lifted_fork(pm, fork)
        assert rep["pass"], rep["problems"]
        assert rep["r"] == 3
        assert rep["center"] == "t.v"
        assert rep["sigma1"] == [1, 2, 3]
        assert rep["sigma2"][0] == [1, 2, 3, 4, 5, 6]
        assert rep["sigma2"][-1] == [1, 2, 3, 7, 8, 9]
        # lifted tines pairwise at spread exactly 2r
        tines = [TreeNode(tuple(s)) for s in rep["sigma2"]]
        for i in range(len(tines)):
            for j in range(i + 1, len(tines)):
                assert tree_distance(tines[i], tines[j]) == 6


@pytest.mark.parametrize("flip", [None, cli.FAULT_NODE])
def test_queries_leave_the_map_unchanged(flip):
    # A map holds its tree, its graph and its flip node, and no query
    # writes to it: no image is remembered between calls.
    pm = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2), _flip_node=flip)
    before = dict(vars(pm))
    assert set(before) == {"tree", "graph", "_flip_node"}
    g = pm.graph
    pm.image(TreeNode((1, 2, 3)))
    pm.lift(ROOT, g.sink)
    pm.rank_images()
    rep = verify_projection(pm)
    cases = [c for chk in rep["checks"].values()
             for c in chk["counterexamples"] if isinstance(c, dict)]
    for case in cases + [{"check": "level", "node": [1, 2]},
                         {"check": "lipschitz", "node": [1, 2],
                          "other": [1, 3]},
                         {"check": "lift", "node": [], "vertex": "t.w1"}]:
        replay_case(pm, case)
    map_table(pm)
    sibling_lift_separation(pm)
    lifted_fork(pm, next(find_forks(g, r_min=1)))
    assert vars(pm) == before
    assert all(vars(pm)[key] is value for key, value in before.items())

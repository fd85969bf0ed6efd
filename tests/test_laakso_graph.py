import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from laakso_lab.errors import CapacityError, RelationError
from laakso_lab import laakso_graph as lg
from laakso_lab.laakso_graph import (
    LaaksoGraph,
    VertexId,
    branch_level_law,
    build_laakso,
    expected_edge_count,
    expected_vertex_count,
    find_forks,
    lowest_nonzero_base3_digit,
    oracle_agreement_report,
    structure_report,
    to_dot,
    to_json_dict,
)
from laakso_lab.tree_to_laakso import ancestor_pairs

# Vertex counts satisfy V_1 = b + 3 and V_{k+1} = (2b+1)(V_k - 2) + (b + 3):
# the skeleton block contributes its own b + 3 vertices and each of its
# 2b + 1 edges carries a copy sharing both glue vertices.
FROZEN_COUNTS = {
    (1, 2): 5, (2, 2): 20, (3, 2): 95, (4, 2): 470,
    (1, 3): 6, (2, 3): 34, (3, 3): 230,
    (1, 4): 7, (2, 4): 52, (3, 4): 457,
    (1, 8): 11, (2, 8): 164,
}


class TestCounts:
    @pytest.mark.parametrize("nb,count", sorted(FROZEN_COUNTS.items()))
    def test_expected_vertex_count_frozen(self, nb, count):
        n, b = nb
        assert expected_vertex_count(n, b) == count

    @pytest.mark.parametrize("n,b", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 4)])
    def test_built_graph_matches(self, n, b):
        g = build_laakso(n, b)
        assert len(g.vertices) == expected_vertex_count(n, b)
        assert g.edge_count == expected_edge_count(n, b) == (2 * b + 1) ** n

    def test_recurrence(self):
        for b in (2, 3, 5):
            v = expected_vertex_count(1, b)
            assert v == b + 3
            for n in range(1, 4):
                nxt = (2 * b + 1) * (v - 2) + (b + 3)
                assert expected_vertex_count(n + 1, b) == nxt
                v = nxt


def replay_descent(g, u, v):
    """The vertices that ``g.descent(u, v)`` passes, u first: each
    increment enters the only child, or the child at that 1-based place."""
    path = [u]
    for k in g.descent(u, v):
        kids = g.children(path[-1])
        path.append(kids[0] if len(kids) == 1 else kids[k - 1])
    return path


class TestStructure:
    def test_level_one_graph(self):
        g = build_laakso(1, 2)
        assert [g.label(v) for v in g.vertices] == ["r", "v", "w1", "w2", "s"]
        assert list(g.levels) == [0, 1, 2, 2, 3]
        assert g.label(g.root) == "r"
        assert g.label(g.sink) == "s"

    def test_block_distances(self):
        g = build_laakso(1, 3)
        w1, w2 = g.by_label("w1"), g.by_label("w2")
        assert g.distance(g.root, g.sink) == 3
        assert g.distance(w1, w2) == 2  # arms only connect through v or s
        assert g.distance(g.root, w1) == 2
        assert g.distance(g.by_label("v"), w1) == 1

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_structure_report_passes(self, n, b):
        rep = structure_report(build_laakso(n, b))
        assert rep["pass"], rep["problems"]
        assert rep["diameter"] == 3**n

    def test_diameter_realized_only_by_root_sink(self):
        g = build_laakso(2, 2)
        top = 3**g.n
        extremal = [
            (u, v)
            for u, v in itertools.combinations(g.vertices, 2)
            if g.distance(u, v) == top
        ]
        assert extremal == [(g.root, g.sink)]

    def test_branch_levels_follow_ternary_law(self):
        # branching happens exactly where the lowest nonzero ternary digit
        # of the level is 1; for n = 2 that is {1, 3, 4, 7}
        g = build_laakso(2, 2)
        assert {g.level(v) for v in g.vertices if g.is_branching(v)} == {
            1, 3, 4, 7,
        }
        for lvl in range(0, 9):
            expected = branch_level_law(lvl, 2)
            have = any(
                g.is_branching(v) for v in g.vertices if g.level(v) == lvl
            )
            assert have == expected, lvl

    def test_lowest_nonzero_base3_digit(self):
        assert lowest_nonzero_base3_digit(1) == 1
        assert lowest_nonzero_base3_digit(2) == 2
        assert lowest_nonzero_base3_digit(3) == 1
        assert lowest_nonzero_base3_digit(6) == 2
        assert lowest_nonzero_base3_digit(9) == 1
        assert lowest_nonzero_base3_digit(18) == 2

    def test_down_degrees(self):
        g = build_laakso(2, 3)
        for v in g.vertices:
            kids = g.children(v)
            if g.level(v) == 3**g.n:
                assert kids == []
            elif g.is_branching(v):
                assert len(kids) == g.b
            else:
                assert len(kids) == 1

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                     (3, 4)])
    def test_child_table_is_the_neighbour_filter(self, n, b):
        # every graph that verify all builds
        g = build_laakso(n, b)
        assert g.child_table == tuple(
            ref.child_indices(g, i) for i in range(len(g.vertices))
        )


@functools.lru_cache(maxsize=None)
def _graph(n, b):
    return build_laakso(n, b)


def _portal_case(u, v):
    """(u's word ends at k, v's word ends at k, k), where k is the length of
    the prefix the two words share: whether each vertex is a block position
    of the copy the two share, or inside one of its edge copies."""
    k = 0
    for eu, ev in zip(u.word, v.word):
        if eu != ev:
            break
        k += 1
    return len(u.word) == k, len(v.word) == k, k


class TestDistanceOracle:
    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_analytic_equals_bfs(self, n, b):
        rep = oracle_agreement_report(build_laakso(n, b))
        assert rep["pass"], rep["mismatches"]

    @pytest.mark.parametrize("n,b", [(3, 3), (4, 2)])
    def test_every_ordered_pair_equals_bfs(self, n, b):
        g = build_laakso(n, b)
        for u in g.vertices:
            row = [g.distance(u, v) for v in g.vertices]
            assert row == g.bfs_levels_from(u), g.label(u)

    @pytest.mark.parametrize("n,b", [(2, 5), (2, 7), (3, 2), (3, 3), (4, 2)])
    def test_portal_formula_equals_recursive_reference(self, n, b):
        # (4, 2) reaches a three-letter word, and (2, 7) a block of ten
        # positions, seven of them arms.
        g = build_laakso(n, b)
        got = [[g.distance(u, v) for v in g.vertices] for u in g.vertices]
        want = [
            [ref._dist(n, b, (u.word, u.pos), (v.word, v.pos))
             for v in g.vertices]
            for u in g.vertices
        ]
        assert got == want
        # The row formula gives the same matrix.  The all-pairs walks of
        # G(2,5), G(2,7) and G(3,2), one source block each, never read the
        # rows; those of G(3,3) and G(4,2) read nothing else.
        rows = [g.distance_row(u) for u in g.vertices]
        assert {row.dtype for row in rows} == {np.dtype(np.int64)}
        assert [row.tolist() for row in rows] == got
        # Every kind of pair the place rule meets is among the pairs just
        # checked, at every shared-prefix length k it can take.  Below
        # k = n - 1 both vertices can be block positions of the copy they
        # share, either one alone, or neither (both inside edge copies);
        # at k = n - 1 both words have length n - 1, so both are block
        # positions.
        cases = {_portal_case(u, v) for u in g.vertices for v in g.vertices}
        assert cases == (
            {(True, True, k) for k in range(n)}
            | {(eu, ev, k) for eu, ev in [(True, False), (False, True),
                                          (False, False)]
               for k in range(n - 1)})

    @pytest.mark.parametrize("b", range(2, 7))
    @pytest.mark.parametrize("unit", [1, 3, 9])
    def test_copy_distance_is_the_portal_minimum(self, b, unit):
        # Every pair of places in one copy of span 3 * unit that the copy's
        # block rule decides, at two root levels: each block position is
        # its own portal at cost 0, and a vertex inside edge e at cost c
        # below the edge's upper end has the two ends as portals, at costs
        # c and unit - c.  The place rule must give the least cost_u +
        # unit * block distance + cost_v over the portal pairs, the block
        # distance from the reference.  Two vertices inside one edge share
        # a longer prefix, so a smaller copy decides them.
        span = 3 * unit
        for top in (0, span):
            places = [((), p, top + lg._pos_level(p, b) * unit, [(p, 0)])
                      for p in range(b + 3)]
            places += [
                ((e,), lg.MID_POS,
                 top + lg._pos_level(lg._edge_src(e, b), b) * unit + c,
                 [(lg._edge_src(e, b), c), (lg._edge_dst(e, b), unit - c)])
                for e in range(2 * b + 1) for c in range(1, unit)]
            for wu, pu, lu, portals_u in places:
                hu, au = lg._place(wu, pu, lu, 0, unit, b)
                for wv, pv, lv, portals_v in places:
                    if wu and wu == wv:
                        continue
                    hv, av = lg._place(wv, pv, lv, 0, unit, b)
                    want = min(cu + unit * ref._block_distance(p, q, b) + cv
                               for p, cu in portals_u
                               for q, cv in portals_v)
                    assert lg._copy_distance(hu, au, hv, av, unit) == want

    @pytest.mark.parametrize("n,b", [(2, 19), (1, 722), (3, 5)])
    def test_distance_row_is_bfs_past_the_memo(self, n, b):
        # G(1,722) is the smallest G(1,b) whose pairs overflow the memo.
        g = _graph(n, b)
        assert len(g.vertices) * (len(g.vertices) - 1) // 2 > lg._MEMO_PAIRS
        for u in g.vertices:
            assert g.distance_row(u).tolist() == g.bfs_levels_from(u), u

    def test_distance_row_at_g45(self):
        # G(4,5) has 8,786 vertices; three sources of each word length,
        # against BFS and the recursive reference.
        g = build_laakso(4, 5)
        assert len(g.vertices) == 8_786
        by_length = {}
        for v in g.vertices:
            by_length.setdefault(len(v.word), []).append(v)
        assert sorted(by_length) == [0, 1, 2, 3]
        for group in by_length.values():
            for u in (group[0], group[len(group) // 2], group[-1]):
                row = g.distance_row(u).tolist()
                assert row == g.bfs_levels_from(u), u
                assert row == [ref._dist(4, 5, (u.word, u.pos),
                                         (v.word, v.pos))
                               for v in g.vertices], u

    # Both graphs have more pairs than the memo holds; their point queries
    # still read it.
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(3, 5), (4, 3)]), st.data())
    def test_random_pairs_equal_recursive_reference(self, nb, data):
        n, b = nb
        g = _graph(n, b)
        idx = st.integers(min_value=0, max_value=len(g.vertices) - 1)
        u = g.vertices[data.draw(idx)]
        v = g.vertices[data.draw(idx)]
        assert g.distance(u, v) == ref._dist(n, b, (u.word, u.pos),
                                             (v.word, v.pos))

    def test_unknown_vertex_is_rejected(self):
        g = build_laakso(2, 2)
        stranger = VertexId((0, 0), lg.MID_POS)
        message = "is not in this graph"
        with pytest.raises(KeyError, match=message):
            g.distance(g.root, stranger)
        with pytest.raises(KeyError, match=message):
            g.distance(stranger, g.root)
        with pytest.raises(KeyError, match=message):
            g.distance(stranger, stranger)

    def test_networkx_third_route(self):
        nx = pytest.importorskip("networkx")
        g = build_laakso(3, 2)
        G = nx.Graph()
        for i, nbrs in enumerate(g.neighbors):
            for j in nbrs:
                G.add_edge(i, j)
        sp = dict(nx.all_pairs_shortest_path_length(G))
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(g.vertices):
                assert g.distance(u, v) == sp[i][j]

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                     (3, 4), (4, 2), (2, 9), (3, 5)])
    def test_distance_matrix_is_the_bfs_rows(self, n, b):
        # every graph that verify all builds, G(4,2), G(2,9), whose bands
        # are a 162-source block and a short 40-source one, and G(3,5):
        # the bands and their transposes fill every cell.
        g = build_laakso(n, b)
        mat = g.distance_matrix()
        assert mat.dtype == np.int32
        assert mat.tolist() == [g.bfs_levels_from(u) for u in g.vertices]

    def test_distance_blocks_compute_each_pair_once(self, monkeypatch):
        # G(2,3) is one source block: its one block walks each unordered
        # pair once, in row-major order, and mirrors the result.
        g = build_laakso(2, 3)
        calls = []
        real = LaaksoGraph.distance

        def counted(self, u, v):
            calls.append((self.index(u), self.index(v)))
            return real(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "distance", counted)
        blocks = list(g.distance_blocks())
        n = len(g.vertices)
        assert calls == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert [sources for sources, _ in blocks] == [range(n)]
        (_, rows), = blocks
        assert rows.dtype == g.distance_rows([]).dtype
        assert rows.tolist() == [g.bfs_levels_from(v) for v in g.vertices]

    def test_reports_walk_the_blocks_once(self, monkeypatch):
        # Each report reads every pair once, in row-major order, so the
        # oracle pass finds in the memo every pair the structure pass put
        # there.
        g = build_laakso(2, 2)
        pairs = len(g.vertices) * (len(g.vertices) - 1) // 2
        walks = []
        calls = 0
        blocks, dist = LaaksoGraph.distance_blocks, LaaksoGraph.distance

        def counted_blocks(self):
            walks.append(self)
            return blocks(self)

        def counted_dist(self, u, v):
            nonlocal calls
            calls += 1
            return dist(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "distance_blocks", counted_blocks)
        monkeypatch.setattr(LaaksoGraph, "distance", counted_dist)
        assert structure_report(g)["pass"]
        hits = lg._dist.cache_info().hits
        assert oracle_agreement_report(g)["pass"]
        assert lg._dist.cache_info().hits - hits == pairs
        assert walks == [g, g]
        assert calls == 2 * pairs

    def test_reports_fill_then_reread_the_memo(self):
        # The structure pass misses once per pair and the oracle pass then
        # hits once per pair: G(3,2)'s pairs fit the memo.
        g = build_laakso(3, 2)
        pairs = len(g.vertices) * (len(g.vertices) - 1) // 2
        lg._dist.cache_clear()
        assert structure_report(g)["pass"]
        assert oracle_agreement_report(g)["pass"]
        info = lg._dist.cache_info()
        assert (info.misses, info.hits) == (pairs, pairs)

    def test_graph_at_the_memo_capacity_uses_the_memo(self):
        # G(2,18) has 724 vertices, the most whose pairs fit the memo.
        g = _graph(2, 18)
        pairs = len(g.vertices) * (len(g.vertices) - 1) // 2
        assert (len(g.vertices), pairs) == (724, 261_726)
        assert pairs <= lg._MEMO_PAIRS == 1 << 18
        u, v = g.vertices[5], g.vertices[-7]
        lg._dist.cache_clear()
        assert g.distance(u, v) == ref._dist(2, 18, (u.word, u.pos),
                                             (v.word, v.pos))
        info = lg._dist.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)

    def test_graph_over_the_memo_capacity_reads_it_per_query_not_per_block(
            self, monkeypatch):
        # G(2,19) is the smallest G(2,b) whose pairs overflow the memo: each
        # of its point queries reads the memo once, and its blocks never
        # do.
        g = _graph(2, 19)
        verts, levels = g.vertices, g.levels
        pairs = len(verts) * (len(verts) - 1) // 2
        assert (len(verts), pairs) == (802, 321_201)
        assert pairs > lg._MEMO_PAIRS
        calls = 0
        real = LaaksoGraph.distance

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return real(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "distance", counted)
        lg._dist.cache_clear()
        picks = list(range(0, len(verts), 37)) + [len(verts) - 1]
        ancestors = 0
        for i in picks:
            bfs = g.bfs_levels_from(verts[i])
            for j in picks:
                u, v = verts[i], verts[j]
                d = g.distance(u, v)
                assert d == bfs[j] == ref._dist(2, 19, (u.word, u.pos),
                                                (v.word, v.pos))
                below = bfs[j] == levels[j] - levels[i]
                assert g.is_ancestor(u, v) == below
                ancestors += below
        assert ancestors > len(picks)
        before = lg._dist.cache_info()
        blocks = g.distance_blocks()
        next(blocks)
        sources, band = next(blocks)
        assert lg._dist.cache_info() == before
        assert sources == range(40, 80)
        assert band.tolist() == g.bfs_rows(sources)[:, 40:].tolist()
        assert band.tolist() == g.distance_rows(sources)[:, 40:].tolist()
        path = replay_descent(g, g.root, g.sink)
        from_root = g.bfs_levels_from(g.root)
        from_sink = g.bfs_levels_from(g.sink)
        top = 3**g.n
        assert [from_root[g.index(p)] for p in path] == list(range(top + 1))
        assert [from_sink[g.index(p)] for p in path] == list(range(top, -1,
                                                                   -1))
        info = lg._dist.cache_info()
        assert info.hits + info.misses == calls > len(picks) ** 2

    def test_blocks_past_the_memo_skip_the_point_formula(self, monkeypatch):
        # G(2,19)'s pairs overflow the memo, so its all-pairs walks read
        # bands of ``distance_rows`` blocks, from each block's first
        # source's column on: no ``distance`` call and no memo traffic.
        g = _graph(2, 19)
        calls = 0
        real = LaaksoGraph.distance

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return real(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "distance", counted)
        lg._dist.cache_clear()
        size = len(g.vertices)
        covered = 0
        for sources, band in g.distance_blocks():
            assert sources.start == covered
            assert band.dtype == np.min_scalar_type(-2 * 3**g.n)
            assert band.shape == (len(sources), size - sources.start)
            assert (band == g.bfs_rows(sources)[:, covered:]).all()
            assert (band == g.distance_rows(sources)[:, covered:]).all()
            covered = sources.stop
        assert covered == size
        assert structure_report(g)["pass"]
        assert oracle_agreement_report(g)["pass"]
        assert calls == 0
        info = lg._dist.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_largest_one_block_graph_fills_then_rereads_the_memo(self):
        # G(2,8) has 164 vertices, the largest G(2,b) whose rows are one
        # source block: its reports walk the pairs through the memo.
        g = build_laakso(2, 8)
        size = len(g.vertices)
        pairs = size * (size - 1) // 2
        assert size == 164 and size ** 2 <= lg.BLOCK_CELLS
        assert [len(s) for s in g.source_blocks()] == [size]
        lg._dist.cache_clear()
        assert structure_report(g)["pass"]
        info = lg._dist.cache_info()
        assert (info.hits, info.misses) == (0, pairs)
        assert oracle_agreement_report(g)["pass"]
        info = lg._dist.cache_info()
        assert (info.hits, info.misses) == (pairs, pairs)

    @pytest.mark.parametrize("n,b,size,blocks", [(2, 9, 202, [162, 40]),
                                                 (4, 2, 470, [69] * 6 + [56])])
    def test_graphs_of_two_blocks_or_more_read_rows_not_pairs(
            self, monkeypatch, n, b, size, blocks):
        # G(2,9) is two source blocks, though its 20,301 pairs fit the memo,
        # and G(4,2) is seven: both reports read ``distance_rows`` blocks,
        # with no ``distance`` call and no memo traffic.
        g = build_laakso(n, b)
        assert len(g.vertices) == size
        assert size * (size - 1) // 2 <= lg._MEMO_PAIRS
        assert [len(s) for s in g.source_blocks()] == blocks
        calls = 0
        real = LaaksoGraph.distance

        def counted(self, u, v):
            nonlocal calls
            calls += 1
            return real(self, u, v)

        monkeypatch.setattr(LaaksoGraph, "distance", counted)
        lg._dist.cache_clear()
        assert structure_report(g)["pass"]
        assert oracle_agreement_report(g)["pass"]
        assert calls == 0
        info = lg._dist.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_bfs_matches_levels_from_root(self):
        g = build_laakso(2, 3)
        dists = g.bfs_levels_from(g.root)
        assert dists == list(g.levels)


# Every source of these graphs meets the reference BFS: one to three
# scales, two to seven arms, the 81 levels of G(4,2), blocks of more than
# one 64-bit word of sources (G(2,7), G(3,4), G(4,2)), and G(2,19), past
# the memo.
BFS_GRAPHS = ([(1, b) for b in range(2, 6)] + [(2, b) for b in range(2, 8)]
              + [(3, b) for b in range(2, 5)] + [(4, 2), (2, 19)])


class TestBlockKernels:
    @pytest.mark.parametrize("n,b", BFS_GRAPHS)
    def test_block_bfs_equals_reference_bfs(self, n, b):
        g = _graph(n, b)
        verts = g.vertices
        covered = []
        for sources in g.source_blocks():
            rows = g.bfs_rows(sources)
            assert rows.dtype == np.int32
            assert rows.tolist() == [ref.bfs_levels(g, verts[i])
                                     for i in sources]
            covered.extend(sources)
        assert covered == list(range(len(verts)))

    @pytest.mark.parametrize("n,b", [(2, 19), (1, 722), (3, 5)])
    def test_distance_blocks_equal_bfs_blocks(self, n, b):
        g = _graph(n, b)
        for sources in g.source_blocks():
            rows = g.distance_rows(sources)
            assert rows.dtype == np.min_scalar_type(-2 * 3**n)
            assert (rows == g.bfs_rows(sources)).all()

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                     (3, 4), (2, 9), (4, 2), (3, 5)])
    def test_distance_blocks_are_the_bfs_blocks(self, n, b):
        # every graph that verify all builds, and G(2,9), G(4,2) and G(3,5):
        # the analytic bands are the BFS bands, with the same sources, and
        # each is its block's rows from the block's first source's column
        # on (all of them on a graph of one block).
        g = _graph(n, b)
        size = len(g.vertices)
        blocks = list(g.source_blocks())
        analytic = list(g.distance_blocks())
        bfs = list(g.bfs_blocks())
        assert [s for s, _ in analytic] == [s for s, _ in bfs] == blocks
        for (sources, band), (_, bfs_band) in zip(analytic, bfs, strict=True):
            first = sources.start
            assert band.dtype == np.min_scalar_type(-2 * 3**n)
            assert bfs_band.dtype == np.int32
            assert band.shape == bfs_band.shape == (len(sources), size - first)
            assert (band == bfs_band).all()
            assert (band == g.distance_rows(sources)[:, first:]).all()
            assert (bfs_band == g.bfs_rows(sources)[:, first:]).all()

    @pytest.mark.parametrize("n,b,block,width", [(4, 2, 69, 128),
                                                 (3, 5, 40, 64)])
    def test_wide_search_decodes_every_block(self, monkeypatch, n, b, block,
                                             width):
        # A pass searches the fewest whole 64-bit words of sources that hold
        # a block: at G(4,2) one pass of 128 covers a 69-source block, and at
        # G(3,5) 40-source blocks straddle 64-source passes.  Each pass is
        # searched once, over consecutive sources, and every block, whole
        # or straddling, decodes its band to the reference BFS rows from
        # the block's first source's column on; unsorted and repeated
        # sources that straddle passes decode to the full reference rows.
        g = _graph(n, b)
        size = len(g.vertices)
        blocks = list(g.source_blocks())
        assert len(blocks[0]) == block and g._bfs_width == width
        assert any(s[0] // width != s[-1] // width for s in blocks)
        passes = []
        real = LaaksoGraph._bfs_planes

        def counted(self, sources):
            passes.append(sources.tolist())
            return real(self, sources)

        monkeypatch.setattr(LaaksoGraph, "_bfs_planes", counted)
        want = [ref.bfs_levels(g, v) for v in g.vertices]
        bands = list(g.bfs_blocks())
        assert [sources for sources, _ in bands] == blocks
        for sources, band in bands:
            assert band.dtype == np.int32
            assert band.tolist() == [want[i][sources.start:] for i in sources]
        assert passes == [list(range(s, min(s + width, size)))
                          for s in range(0, size, width)]
        sources = list(range(size - 1, size - 200, -1)) + [5, 5, size - 1]
        assert g.bfs_rows(sources).tolist() == [want[i] for i in sources]
        for sources, band in bands:
            assert (band == g.bfs_rows(sources)[:, sources.start:]).all()

    def test_structure_report_evaluates_only_the_bands(self, monkeypatch):
        # G(3,5) is 20 blocks of 40 sources over 800 vertices, and every
        # block holds a vertex of the deepest word, two letters: so each
        # block evaluates ``_copy_distance`` three times, once per
        # shared-prefix length, on its band of 40 * (800 - start) cells.
        # That is 1,008,000 cells, where full rows would be 1,920,000.
        g = _graph(3, 5)
        size = len(g.vertices)
        blocks = list(g.source_blocks())
        assert [len(s) for s in blocks] == [40] * 20
        assert all(max(len(g.vertices[i].word) for i in s) == 2
                   for s in blocks)
        cells = []
        real = lg._copy_distance

        def counted(hu, au, hv, av, unit):
            cells.append(np.broadcast(hu, hv).size)
            return real(hu, au, hv, av, unit)

        monkeypatch.setattr(lg, "_copy_distance", counted)
        assert structure_report(g)["pass"]
        assert len(cells) == 3 * len(blocks)
        band = sum(3 * len(s) * (size - s.start) for s in blocks)
        assert sum(cells) == band == 1_008_000
        assert band / (3 * size * size) == 0.525

    def test_bfs_levels_from_is_a_list(self):
        g = _graph(3, 2)
        for v in (g.root, g.vertices[40], g.sink):
            levels = g.bfs_levels_from(v)
            assert type(levels) is list
            assert {type(x) for x in levels} == {int}
            assert levels == ref.bfs_levels(g, v)

    def test_kernels_take_any_sources(self):
        # Unsorted and repeated sources, more than one 64-bit word of them,
        # and none.
        g = _graph(3, 3)
        sources = list(range(229, 100, -1)) + [5, 5, 229]
        want = [ref.bfs_levels(g, g.vertices[i]) for i in sources]
        assert g.bfs_rows(sources).tolist() == want
        assert g.distance_rows(sources).tolist() == want
        empty = (0, len(g.vertices))
        assert g.bfs_rows([]).shape == g.distance_rows([]).shape == empty

    def test_bfs_marks_unreached_vertices(self, monkeypatch):
        # Cutting every edge of the root (the first vertex) and of the sink
        # (the last) leaves both isolated: each reads the empty sentinel
        # row, and the reduction's last segment is the sink's.
        g = build_laakso(2, 3)
        last = len(g.vertices) - 1
        cut = {0, last}
        monkeypatch.setattr(g, "neighbors", tuple(
            () if i in cut else tuple(j for j in nb if j not in cut)
            for i, nb in enumerate(g.neighbors)))
        rows = g.bfs_rows(range(len(g.vertices)))
        assert rows.tolist() == [ref.bfs_levels(g, v) for v in g.vertices]
        assert rows[0].tolist() == [0] + [-1] * last
        assert rows[-1].tolist() == [-1] * last + [0]
        assert (rows[1:-1, 1:-1] >= 0).all()

    def test_largest_block_at_g45(self):
        # G(4,5) has 8,786 vertices: a block takes BLOCK_CELLS // 8,786 = 3
        # sources, and neither kernel allocates near one byte per pair.
        g = _graph(4, 5)
        size = len(g.vertices)
        assert size == 8_786
        blocks = list(g.source_blocks())
        assert [len(s) for s in blocks] == [3] * 2928 + [2]
        assert [i for s in blocks for i in s] == list(range(size))
        largest = blocks[0]
        assert len(largest) * size == 26_358 <= lg.BLOCK_CELLS
        # Build the per-graph arrays outside the traced calls.
        g.bfs_rows([0])
        g.distance_rows([0])
        for kernel in (g.bfs_rows, g.distance_rows):
            tracemalloc.start()
            try:
                rows = kernel(largest)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rows.shape == (3, size)
            assert peak < size * size // 16
            assert rows.tolist() == [ref.bfs_levels(g, g.vertices[i])
                                     for i in largest]

    def test_first_block_at_g1_3000(self):
        # G(1,3000) has 3,003 block positions, and rows read each vertex's
        # place, so the first call, which also builds the per-graph
        # arrays, holds no table over pairs of positions.
        g = build_laakso(1, 3000)
        first = next(g.source_blocks())
        tracemalloc.start()
        try:
            rows = g.distance_rows(first)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert (rows == g.bfs_rows(first)).all()


class TestNesting:
    @pytest.mark.parametrize("n,b", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_first_copy_embeds_isometrically(self, n, b):
        """The copy carried by the first skeleton edge of the next
        generation is an isometrically embedded copy of the whole graph;
        its glue vertices take the outer addresses."""
        small = build_laakso(n, b)
        big = build_laakso(n + 1, b)

        def up(v: VertexId) -> VertexId:
            if v == small.root:
                return big.root
            if v == small.sink:
                return VertexId((), lg.MID_POS)
            return VertexId((0,) + v.word, v.pos)

        for u in small.vertices:
            for v in small.vertices:
                assert small.distance(u, v) == big.distance(up(u), up(v))

    def test_scaling_by_three(self):
        # levels triple: the embedded copy sits above the root with the
        # same combinatorics but the big graph is 3 times as deep
        small = build_laakso(1, 2)
        big = build_laakso(2, 2)
        assert big.distance(big.root, big.sink) == 3 * small.distance(
            small.root, small.sink
        )


class TestVertexId:
    def test_is_the_address_tuple(self):
        # Hashing, equality and order are those of the tuple (word, pos), as
        # they were for the frozen dataclass it replaced, so set and dict
        # orders are unchanged; the plain tuple names the same vertex.
        g = build_laakso(3, 5)
        for v in g.vertices:
            address = (v.word, v.pos)
            assert hash(v) == hash(address)
            assert v == address
            assert repr(v) == f"VertexId(word={v.word!r}, pos={v.pos!r})"
            with pytest.raises(AttributeError):
                v.pos = 0
            assert g.index(address) == g.index(v)
            assert g.distance(address, g.sink) == g.distance(v, g.sink)
        assert sorted(g.vertices) == [
            VertexId(*a) for a in sorted((v.word, v.pos) for v in g.vertices)]


class TestAddressing:
    def test_by_label_round_trips(self):
        g = build_laakso(2, 2)
        for v in g.vertices:
            assert g.by_label(g.label(v)) == v

    def test_labels_unique(self):
        g = build_laakso(2, 3)
        labels = [g.label(v) for v in g.vertices]
        assert len(set(labels)) == len(labels)

    def test_seam_vertices_have_outer_addresses(self):
        # the inner copy on edge 0 of the skeleton shares its root with the
        # global root: no vertex carries an address ending at an inner glue
        g = build_laakso(2, 2)
        for v in g.vertices:
            if v.word:
                assert v.pos not in (lg.ROOT_POS, lg.ROOT_POS + g.b + 2)

    def test_is_ancestor_and_downward_path(self):
        g = build_laakso(2, 2)
        assert g.is_ancestor(g.root, g.sink)
        path = replay_descent(g, g.root, g.sink)
        assert len(path) == 3**g.n + 1
        assert path[0] == g.root and path[-1] == g.sink
        for a, b_ in zip(path, path[1:]):
            assert g.distance(a, b_) == 1
        w1 = g.by_label("t.w1")
        w2 = g.by_label("t.w2")
        assert not g.is_ancestor(w1, w2)
        with pytest.raises(RelationError):
            g.descent(w1, w2)

    def test_descent_is_the_downward_path_as_increments(self):
        g = build_laakso(2, 2)
        assert g.descent(g.root, g.sink) == [1] * 3**g.n
        assert g.descent(g.root, g.by_label("t.w2")) == [1, 2]
        assert g.descent(g.by_label("t.v"), g.by_label("t.v")) == []
        with pytest.raises(RelationError):
            g.descent(g.by_label("t.w1"), g.by_label("t.w2"))

    @pytest.mark.parametrize("n,b", [(2, 2), (2, 3), (3, 2)])
    def test_descent_equals_the_child_by_child_walk(self, n, b):
        # Every ancestor pair, told by BFS rows, against the reference
        # walk over `children`; every other ordered pair is refused by both.
        g = build_laakso(n, b)
        dist = [g.bfs_levels_from(u) for u in g.vertices]
        ancestors = {tuple(p) for p in ancestor_pairs(dist, g.levels)}
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(g.vertices):
                if i == j or (i, j) in ancestors:
                    want = ref.downward_path(g, u, v)
                    assert replay_descent(g, u, v) == want
                else:
                    with pytest.raises(RelationError):
                        g.descent(u, v)
                    with pytest.raises(RelationError):
                        ref.downward_path(g, u, v)


class TestCapacity:
    def test_depth_guard(self):
        with pytest.raises(CapacityError):
            build_laakso(7, 2)

    @pytest.mark.parametrize("n,b", [(1, 9), (5, 2)])
    def test_default_cap_admits_by_vertex_count(self, monkeypatch, n, b):
        # b = 9 and n = 5 are fine while the vertex count stays under the cap
        monkeypatch.delenv(lg.MAX_VERTICES_ENV, raising=False)
        g = build_laakso(n, b)
        assert len(g.vertices) == expected_vertex_count(n, b)

    @pytest.mark.parametrize("n,b,count", [(4, 9, 72_402), (7, 2, 58_595)])
    def test_default_cap_refuses_by_vertex_count(self, monkeypatch, n, b,
                                                 count):
        monkeypatch.delenv(lg.MAX_VERTICES_ENV, raising=False)
        assert expected_vertex_count(n, b) == count
        with pytest.raises(CapacityError) as exc:
            build_laakso(n, b)
        assert f"needs {count} vertices" in str(exc.value)
        assert f"cap is {lg.DEFAULT_MAX_VERTICES}" in str(exc.value)

    def test_env_override_allows_more(self, monkeypatch):
        monkeypatch.setenv(lg.MAX_VERTICES_ENV, "3000")
        g = build_laakso(2, 9)  # 202 vertices, under the raised cap
        assert len(g.vertices) == expected_vertex_count(2, 9)

    def test_env_override_can_restrict(self, monkeypatch):
        monkeypatch.setenv(lg.MAX_VERTICES_ENV, "10")
        with pytest.raises(CapacityError):
            build_laakso(2, 2)


class TestExports:
    def test_json_shape(self):
        g = build_laakso(1, 2)
        d = to_json_dict(g)
        assert d["schema"] == 1
        assert len(d["vertices"]) == 5
        assert len(d["edges"]) == 5
        index = {row["id"]: k for k, row in enumerate(d["vertices"])}
        seen = set()
        for a, b in d["edges"]:
            assert index[a] < index[b]  # each edge listed once, low id first
            seen.add((a, b))
        assert len(seen) == 5

    def test_json_deterministic(self):
        a = json.dumps(to_json_dict(build_laakso(2, 2)), sort_keys=True)
        b = json.dumps(to_json_dict(build_laakso(2, 2)), sort_keys=True)
        assert a == b

    def test_dot_contains_all_vertices(self):
        g = build_laakso(1, 3)
        dot = to_dot(g)
        assert dot.startswith("graph laakso_n1_b3 {")
        for v in g.vertices:
            assert f'"{g.label(v)}"' in dot


class TestForks:
    def test_first_fork_g1(self):
        g = build_laakso(1, 2)
        r, head, center, arms = next(find_forks(g, r_min=1))
        assert r == 1
        assert g.label(head) == "r"
        assert g.label(center) == "v"
        assert [g.label(a) for a in arms] == ["w1", "w2"]

    def test_fork_geometry(self):
        g = build_laakso(2, 2)
        for r, head, center, arms in itertools.islice(find_forks(g), 8):
            assert g.distance(head, center) == r
            assert len(arms) >= 2
            for a in arms:
                assert g.distance(center, a) == r
                assert g.distance(head, a) == 2 * r
            for a, b_ in itertools.combinations(arms, 2):
                assert g.distance(a, b_) == 2 * r

    def test_radius_three_fork_in_g3_b4(self):
        g = build_laakso(3, 4)
        r, head, center, arms = next(find_forks(g, r_min=3))
        assert r == 3
        assert g.label(head) == "r"
        assert g.label(center) == "t.v"
        assert [g.label(a) for a in arms] == ["t.w1", "t.w2", "t.w3", "t.w4"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1, 2), (1, 3), (2, 2)]), st.data())
def test_distance_is_a_metric(nb, data):
    g = build_laakso(*nb)
    idx = st.integers(min_value=0, max_value=len(g.vertices) - 1)
    u = g.vertices[data.draw(idx)]
    v = g.vertices[data.draw(idx)]
    w = g.vertices[data.draw(idx)]
    duv = g.distance(u, v)
    assert duv == g.distance(v, u)
    assert (duv == 0) == (u == v)
    assert g.distance(u, w) <= duv + g.distance(v, w)

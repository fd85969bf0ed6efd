"""Planted faults that a dual route must catch.

One row per (route pair, planted fault, check that must fail).  Each
fault is planted with ``monkeypatch`` in one implementation only, and each
row first runs its check unfaulted, as a control, on a space built the
same way.

The graph rows run on three graphs.  G(2,3) is one source block, so its
analytic rows walk the pairs through ``distance`` and the ``_dist`` memo.
G(2,9) is two blocks, though its pairs fit the memo, and G(2,19) is many
blocks with more pairs than the memo holds; both read their analytic rows
from ``distance_rows``.  A faulted report must also equal the reference
loop's report, record for record.  The two rows that plant a fault in the
place rule plant it once, so a row that failed on only some of the graphs
would show a second copy of the rule.

Those rows record only mismatches of the first source block.  The
late-arms row plants a fault in ``_copy_distance`` that lengthens only
pairs of the last level on the top copy's last two arms, so on G(2,9)
and G(2,19) every recorded mismatch lies past the first block, and its
``u`` and ``v`` labels are read through the offset of the block's band.

The structure rows plant a fault in ``_copy_distance`` at the top copy
only, the copy of span 3**n that the whole graph is, on G(2,3), whose
report walks the pairs, and on G(2,9), whose report reads blocks.
Lengthening the root-sink pair by one makes the diameter 3**n + 1;
raising every pair at distance 3**n - 1 to 3**n leaves the diameter but
not the one pair that attains it, which BFS counts.

The tree row plants a running minimum off by one in
``TreeSpace.distance_block``, whose blocks the exhaustive projection sweep
reads, and checks the blocks against the closed form ``tree_distance``.
Planted one level too deep, the minima make lcp depths one too deep and
tree distances two too short, so ``verify_projection`` at T(2,9) -> G(2,2)
fails its Lipschitz check, and the first counterexample replays as
passing, since the replay measures the pair by the closed form.  Planted
one level too shallow, the minima make tree distances two too long, so
every image pair still lies within its tree distance, but no pair reads as
comparable: the exhaustive Lipschitz check fails on its empty comparable
stratum (0 pairs, against 8,194 unfaulted).

The child-ranks row plants a wrong subtree span in
``TreeSpace.child_ranks``, which ``rank_images`` reads to place every
node's image: span - 1, span + 1 or the next level's span.  Each layout
misses ranks, so under ``verify_projection`` at T(2,9) -> G(2,2)
``rank_images`` refuses it with an ``AssertionError`` naming the first
bad rank, the same on every run, and no unwritten rank reaches an index
(an ``IndexError`` would fail the row).

The restricted row plants a rho column shifted by one in
``MetricMapTable._nearest_preimage``, which the profile route
(``restricted_profile``) reads and the predicate route (``atd_pairs``)
does not.  ``cross_validate_atd`` must then disagree on the phi tables of
the atd suite of ``verify all``, and that suite's check of c_atd on
phi(2,2) must fail.

The reader row plants an off-by-one in one cell that the numpy route of
``MetricMapTable.from_json`` decodes: entry (0, 1) of the source of the
stored phi(2,2) table, in ``_dist_rows`` only.  The differential check of
the reader against ``json.loads`` must name that cell, and ``analyze map``
on the stored table must refuse it as bad input (exit 2): the source is no
longer symmetric.

Known gaps, not rows:

- The pair half of the profile route (the Lipschitz constant, L(delta)
  and Omega, masked maxima over ``MetricMapTable._pairs``) has no second
  route in the package: the predicate route decides c_atd only.  A fault
  planted there is caught by the loops of ``tests/loop_reference.py``, the
  ``analyze map`` golden of phi(2,2) and the values the unit tests state,
  never by a check of the program itself.
- A wrong span in ``TreeSpace.child_ranks`` is refused, but fails no
  report check: ``verify_projection`` raises ``AssertionError`` from
  ``rank_images`` before any check runs (the child-ranks row above).
"""

import json
import types

import numpy as np
import pytest

import loop_reference as ref
from conftest import first_difference
from laakso_lab import cli
from laakso_lab import laakso_graph as lg
from laakso_lab import quotient_analysis as qa
from laakso_lab import tree_space as ts
from laakso_lab import tree_to_laakso as tl


def arm_arm_distance_one(monkeypatch, g):
    """Two distinct arms meet one unit early: the place rule gives them a
    distance one unit short, in ``_copy_distance``, which both analytic
    routes read."""
    real = lg._copy_distance

    def faulty(hu, au, hv, av, unit):
        apart = (au != av) & (au != 0) & (av != 0)
        return real(hu, au, hv, av, unit) - apart * unit

    monkeypatch.setattr(lg, "_copy_distance", faulty)


def inner_height_off_by_one(monkeypatch, g):
    """A vertex strictly inside an edge copy sits one level too low in the
    copy it shares with the other vertex: its height in ``_place``, which
    both analytic routes read, is off by one."""
    real = lg._place

    def faulty(word, pos, level, k, unit, b):
        height, arm = real(word, pos, level, k, unit, b)
        return height + (len(word) > k), arm

    monkeypatch.setattr(lg, "_place", faulty)


def one_edge_dropped(monkeypatch, g):
    """The adjacency loses the edge from the first branching vertex to its
    first child, so BFS detours where the formula does not."""
    i = next(i for i, kids in enumerate(g.child_table) if len(kids) > 1)
    j = g.child_table[i][0]
    monkeypatch.setattr(g, "neighbors", tuple(
        tuple(x for x in nb if {k, x} != {i, j})
        for k, nb in enumerate(g.neighbors)))


@pytest.fixture
def clear_memos():
    """Empties the ``_dist`` memo before and after the test; the test calls
    the returned function to empty it again between its control and its
    faulted run."""
    clear = lg._dist.cache_clear
    clear()
    yield clear
    clear()


@pytest.mark.parametrize("fault", [arm_arm_distance_one,
                                   inner_height_off_by_one, one_edge_dropped])
@pytest.mark.parametrize("n,b,walks", [(2, 3, True), (2, 9, False),
                                       (2, 19, False)])
def test_oracle_agreement_catches(fault, n, b, walks, monkeypatch,
                                  clear_memos):
    control = lg.build_laakso(n, b)
    assert (len(list(control.source_blocks())) == 1) == walks
    assert lg.oracle_agreement_report(control)["pass"]
    clear_memos()
    g = lg.build_laakso(n, b)
    fault(monkeypatch, g)
    rep = lg.oracle_agreement_report(g)
    assert not rep["pass"]
    assert rep["mismatch_count"] > 0
    assert rep == ref.oracle_agreement_report(g)


def last_arms_apart_one_more(monkeypatch, g):
    """In the top copy, two vertices one step above the sink on its last
    two arms, b - 1 and b, read one step further apart in
    ``_copy_distance``.  They are the last level's vertices but the sink,
    so every such pair lies past the first source block."""
    real, top, b = lg._copy_distance, 3 ** (g.n - 1), g.b

    def faulty(hu, au, hv, av, unit):
        d = real(hu, au, hv, av, unit)
        if unit != top:
            return d
        low = 3 * unit - 1
        return d + ((au != av) & (au >= b - 1) & (av >= b - 1)
                    & (hu == low) & (hv == low))

    monkeypatch.setattr(lg, "_copy_distance", faulty)


@pytest.mark.parametrize("n,b,first", [(2, 9, 162), (2, 19, 760)])
def test_oracle_agreement_records_mismatches_past_the_first_block(
        n, b, first, monkeypatch, clear_memos):
    # Each of the b vertices one step above the sink on arm b - 1 is one
    # step too far from each on arm b.  Every recorded pair lies in a
    # block that starts at ``first``, past the first block, so its labels
    # are read through the band's column offset.
    control = lg.build_laakso(n, b)
    assert lg.oracle_agreement_report(control)["pass"]
    clear_memos()
    g = lg.build_laakso(n, b)
    last_arms_apart_one_more(monkeypatch, g)
    rep = lg.oracle_agreement_report(g)
    assert rep["mismatch_count"] == b * b
    assert len(rep["mismatches"]) == 10
    starts = [s.start for s in g.source_blocks()]
    assert first in starts[1:]
    for m in rep["mismatches"]:
        u, v = g.index(g.by_label(m["u"])), g.index(g.by_label(m["v"]))
        assert first <= u < v
        assert (m["analytic"], m["bfs"]) == (3, 2)
    assert rep == ref.oracle_agreement_report(g)


def root_sink_lengthened(monkeypatch, g):
    """The root and the sink, heights 0 and 3**n of the top copy, lie one
    step further apart in ``_copy_distance``, which both analytic routes
    read."""
    real, top = lg._copy_distance, 3 ** (g.n - 1)

    def faulty(hu, au, hv, av, unit):
        d = real(hu, au, hv, av, unit)
        return d + (abs(hu - hv) == 3 * unit) if unit == top else d

    monkeypatch.setattr(lg, "_copy_distance", faulty)


def near_diameter_raised(monkeypatch, g):
    """Every pair at distance 3**n - 1 in the top copy reads 3**n in
    ``_copy_distance``."""
    real, top = lg._copy_distance, 3 ** (g.n - 1)

    def faulty(hu, au, hv, av, unit):
        d = real(hu, au, hv, av, unit)
        return d + (d == 3 * unit - 1) if unit == top else d

    monkeypatch.setattr(lg, "_copy_distance", faulty)


@pytest.mark.parametrize("fault,problem", [
    (root_sink_lengthened, "diameter {over} != 3^n = {top}"),
    (near_diameter_raised, "diameter attained by {raised} pairs, expected 1"),
])
@pytest.mark.parametrize("n,b,walks,raised", [(2, 3, True, 11),
                                              (2, 9, False, 83)])
def test_structure_report_catches(fault, problem, n, b, walks, raised,
                                  monkeypatch, clear_memos):
    control = lg.build_laakso(n, b)
    assert (len(list(control.source_blocks())) == 1) == walks
    assert lg.structure_report(control)["pass"]
    # raised: the root-sink pair and every pair BFS puts at 3**n - 1.
    bfs = control.bfs_rows(range(len(control.vertices)))
    assert raised == 1 + np.count_nonzero(np.triu(bfs == 3**n - 1, 1))
    clear_memos()
    g = lg.build_laakso(n, b)
    fault(monkeypatch, g)
    assert lg.structure_report(g)["problems"] == [
        problem.format(over=3**n + 1, top=3**n, raised=raised)]


class _ShiftedMinimum:
    """numpy's ``minimum``, except that every running minimum it
    accumulates comes out ``shift`` higher."""

    def __init__(self, shift):
        self.shift = shift

    def __call__(self, *args, **kwargs):
        return np.minimum(*args, **kwargs)

    def accumulate(self, *args, **kwargs):
        out = np.minimum.accumulate(*args, **kwargs)
        out += self.shift
        return out


def running_minimum_off_by_one(monkeypatch, shift):
    """Each running minimum of the levels in ``TreeSpace.distance_block``
    reads ``shift`` levels too deep: the module's numpy, as that method
    sees it, accumulates minima off by one and is otherwise numpy."""
    faulty = types.SimpleNamespace(**vars(np))
    faulty.minimum = _ShiftedMinimum(shift)
    monkeypatch.setattr(ts, "np", faulty)


def _phi(n, b):
    return tl.TreeToGraphMap(ts.TreeSpace(b, 3**n), lg.build_laakso(n, b))


def _blocks_match_closed_form(tree):
    """Whether the first two runs of ``rank_blocks``, against every later
    rank, equal ``tree_distance`` pair by pair."""
    nodes = [tree.node_at(r) for r in range(len(tree.levels))]
    for start, stop in list(tree.rank_blocks())[:2]:
        want = [[ts.tree_distance(nodes[i], nodes[j])
                 for j in range(start, len(nodes))]
                for i in range(start, stop)]
        if tree.distance_block(start, stop).tolist() != want:
            return False
    return True


@pytest.mark.parametrize("shift", [1, -1])
def test_tree_blocks_catch_running_minimum_off_by_one(shift, monkeypatch):
    control = _phi(2, 2)
    assert len(control.tree.levels) == 1023
    assert _blocks_match_closed_form(control.tree)
    assert tl.verify_projection(control)["pass"]
    running_minimum_off_by_one(monkeypatch, shift)
    pm = _phi(2, 2)
    assert not _blocks_match_closed_form(pm.tree)
    rep = tl.verify_projection(pm)
    assert rep["mode"] == "exhaustive"
    assert not rep["pass"]
    failed = [name for name, check in rep["checks"].items()
              if not check["pass"]]
    assert failed == ["lipschitz"]
    lip = rep["checks"]["lipschitz"]
    if shift < 0:
        # Every pair is within its lengthened tree distance, and none reads
        # as comparable: the verdict fails on the empty stratum.
        assert lip["counterexamples"] == []
        assert lip["comparable_pairs"] == 0
        assert lip["incomparable_pairs"] == lip["pairs"] == 522_753
        return
    first = lip["counterexamples"][0]
    assert first["graph_dist"] <= first["tree_dist"]
    assert tl.replay_case(pm, first) == {**first, "pass": True}


WRONG_SPANS = {
    "span - 1": lambda spans, lv: spans[lv + 1] - 1,
    "span + 1": lambda spans, lv: spans[lv + 1] + 1,
    "next level's span": lambda spans, lv: spans[lv + 2],
}


def child_ranks_misplaced(monkeypatch, wrong):
    """``TreeSpace.child_ranks`` skips k - 1 subtrees of the span that
    ``WRONG_SPANS[wrong]`` gives, instead of the children's own span; a
    subtree below the depth spans 0 nodes."""
    span = WRONG_SPANS[wrong]

    def faulty(self, ranks, levels, k):
        spans = np.asarray(self.spans + (0,))
        return ranks + (1 + (k - 1) * span(spans, np.asarray(levels)))

    monkeypatch.setattr(ts.TreeSpace, "child_ranks", faulty)


@pytest.mark.parametrize("wrong,message", [
    ("span - 1", "rank 9 is written 2 times, not once"),
    ("span + 1", "child rank 1023 at level 7 is outside 0..1022"),
    ("next level's span", "rank 9 is written 3 times, not once"),
])
def test_rank_images_refuse_a_misplaced_child_rank(wrong, message,
                                                   monkeypatch):
    assert tl.verify_projection(_phi(2, 2))["pass"]
    child_ranks_misplaced(monkeypatch, wrong)
    seen = []
    for _ in range(2):
        with pytest.raises(AssertionError) as err:
            tl.verify_projection(_phi(2, 2))
        seen.append(str(err.value))
    assert seen == [message, message]


def rho_column_shifted(monkeypatch):
    """Each column of the nearest-preimage matrix rho holds the distances
    to the preimages of the previous target point, in
    ``MetricMapTable._nearest_preimage`` only."""
    real = qa.MetricMapTable._nearest_preimage.func

    def faulty(self):
        return np.roll(real(self), 1, axis=1)

    monkeypatch.setattr(qa.MetricMapTable, "_nearest_preimage",
                        property(faulty))


ATD_C_GRID = [0.05, 0.15, 0.25, 1 / 3, 0.45, 0.55, 0.7, 0.85, 1.0, 1.25]
ATD_DELTAS = [float(d) for d in range(1, 9)]


@pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2)])
def test_cross_validation_catches_shifted_rho_column(n, b, monkeypatch):
    control = tl.map_table(_phi(n, b))
    assert qa.cross_validate_atd(control, ATD_C_GRID, ATD_DELTAS)["pass"]
    rho_column_shifted(monkeypatch)
    rep = qa.cross_validate_atd(tl.map_table(_phi(n, b)), ATD_C_GRID,
                                ATD_DELTAS)
    assert not rep["pass"]
    assert rep["checked"] == len(ATD_C_GRID) * len(ATD_DELTAS)
    assert len(rep["disagreements"]) == 5


def test_atd_suite_catches_shifted_rho_column(monkeypatch):
    # The record's c_atd_inf is restricted_profile's, on phi(2,2).
    control = cli._suite_atd()["phi_c_atd_all_one"]
    assert control["pass"] and control["c_atd_inf"] == 1.0
    rho_column_shifted(monkeypatch)
    suite = cli._suite_atd()
    assert not suite["phi_c_atd_all_one"]["pass"]
    assert suite["phi_c_atd_all_one"]["c_atd_inf"] == 0.1
    assert not suite["pass"]


def decoded_cell_off_by_one(monkeypatch, width):
    """Entry (0, 1) of a table ``width`` entries wide reads one too high in
    ``_dist_rows``, the numpy route's decode of a block of rows: in the
    block that holds row 0, the one row that opens with a zero."""
    real = qa._dist_rows

    def faulty(text, sep, m):
        rows = real(text, sep, m)
        if rows is not None and m == width and rows[0, 0] == 0:
            rows[0, 1] += 1
        return rows

    monkeypatch.setattr(qa, "_dist_rows", faulty)


def test_reader_check_catches_a_decoded_cell_off_by_one(tmp_path, capsys,
                                                        monkeypatch):
    path = tmp_path / "phi_T2_9_G2_2.json"
    path.write_text(json.dumps(tl.as_map_table(_phi(2, 2))))
    text = path.read_text()
    argv = ["analyze", "map", "--input", str(path), "--delta-grid", "1,2"]
    assert first_difference(text) is None
    assert cli.main(argv) == 0
    capsys.readouterr()
    decoded_cell_off_by_one(monkeypatch, 1023)
    assert first_difference(text) == (
        "document['source']['dist'][0][1] is 2, json gives 1")
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: distance table is not symmetric\n"

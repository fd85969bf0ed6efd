"""Planted faults that a dual route must catch.

One row per (route pair, planted fault, check that must fail).  Each
fault is planted with ``monkeypatch`` in one implementation only, and each
row first runs its check unfaulted, as a control, on a graph built the same
way.  The graph rows run on G(2,3), whose pairs fit the ``_dist`` memo so
its analytic rows walk the pairs through ``distance``, and on G(2,19),
whose analytic rows come from ``distance_rows``; a faulted report must also
equal the reference loop's report, record for record.  The two rows that
plant a fault in the place rule plant it once, so a row that failed on only
one of the two graphs would show a second copy of the rule.
"""

import pytest

import loop_reference as ref
from laakso_lab import laakso_graph as lg


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
@pytest.mark.parametrize("n,b,walks", [(2, 3, True), (2, 19, False)])
def test_oracle_agreement_catches(fault, n, b, walks, monkeypatch,
                                  clear_memos):
    control = lg.build_laakso(n, b)
    pairs = len(control.vertices) * (len(control.vertices) - 1) // 2
    assert (pairs <= lg._MEMO_PAIRS) == walks
    assert lg.oracle_agreement_report(control)["pass"]
    clear_memos()
    g = lg.build_laakso(n, b)
    fault(monkeypatch, g)
    rep = lg.oracle_agreement_report(g)
    assert not rep["pass"]
    assert rep["mismatch_count"] > 0
    assert rep == ref.oracle_agreement_report(g)

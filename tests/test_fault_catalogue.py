"""Planted faults that a dual route must catch.

One row per (route pair, planted fault, check that must fail).  Each
fault is planted with ``monkeypatch`` in one implementation only, and each
row first runs its check unfaulted, as a control, on a graph built the same
way.  The graph rows run on G(2,3), whose pairs fit the ``_dist`` memo so
its analytic rows walk the pairs through ``distance``, and on G(2,19),
whose analytic rows come from ``distance_rows``; a faulted report must also
equal the reference loop's report, record for record.
"""

import pytest

import loop_reference as ref
from laakso_lab import laakso_graph as lg


def arm_arm_distance_one(monkeypatch, g):
    """The block rule gives two distinct arms distance 1 instead of 2, so
    ``_block_tables`` hands both analytic routes a wrong block."""
    real = lg._block_distance

    def faulty(p, q, b):
        if p != q and lg._is_arm(p, b) and lg._is_arm(q, b):
            return 1
        return real(p, q, b)

    monkeypatch.setattr(lg, "_block_distance", faulty)


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
    """Empties the ``_dist`` memo and the ``_block_tables`` cache before and
    after the test; the test calls the returned function to empty them
    again between its control and its faulted run."""
    def clear():
        lg._dist.cache_clear()
        lg._block_tables.cache_clear()

    clear()
    yield clear
    clear()


@pytest.mark.parametrize("fault", [arm_arm_distance_one, one_edge_dropped])
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

"""Acceptance sweep: one test per acceptance item, each printing a single
pass/fail line via pytest, at the stated tolerance (zero where exact).

Known red: the branching-levels clause of item 1 asserts levels congruent
to 1 mod 3, which already fails at the two-step graph (level 3 branches).
The clause is kept as stated rather than weakened; the ternary-digit law
that the construction actually satisfies is asserted separately right
below it, so the failure is isolated and explained by its message.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from laakso_lab import moduli as md
from laakso_lab import quotient_analysis as qa
from laakso_lab import staircase as st
from laakso_lab.laakso_graph import (
    branch_level_law,
    build_laakso,
    expected_vertex_count,
    oracle_agreement_report,
)
from laakso_lab.tree_space import TreeSpace
from laakso_lab.tree_to_laakso import (
    TreeToGraphMap,
    as_map_table,
    verify_projection,
)

from conftest import check_verify_all_runs


def phi_table(n: int, b: int) -> qa.MetricMapTable:
    pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b))
    return qa.MetricMapTable.from_dict(as_map_table(pm))


# -- 1: structure --------------------------------------------------------------


def test_c1_structure_counts_and_diameter():
    start = time.perf_counter()
    for b in (2, 3):
        v = expected_vertex_count(1, b)
        assert v == b + 3
        for n in (1, 2, 3):
            g = build_laakso(n, b)
            assert len(g.vertices) == expected_vertex_count(n, b)
            if n > 1:
                prev = expected_vertex_count(n - 1, b)
                assert len(g.vertices) == (2 * b + 1) * (prev - 2) + (b + 3)
            assert g.distance(g.root, g.sink) == 3**n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"structure sweep took {elapsed:.1f}s"


def test_c1_branching_iff_level_1_mod_3():
    # As stated.  Expected to fail: in the two-step graph the vertices at
    # level 3 branch (each arm top of the coarse block is the root of a
    # splitting copy) yet 3 % 3 == 0.  The law that does hold is checked in
    # the next test.
    for b in (2, 3):
        for n in (1, 2, 3):
            g = build_laakso(n, b)
            for v in g.vertices:
                lvl = g.level(v)
                assert g.is_branching(v) == (lvl % 3 == 1), (
                    f"n={n} b={b} level {lvl}: branching={g.is_branching(v)} "
                    f"but level % 3 == {lvl % 3}; first failure is the "
                    f"branching vertex at level 3 of the n=2 graph"
                )


def test_c1_branching_iff_lowest_ternary_digit_one():
    # the law the construction satisfies: a level branches exactly when the
    # lowest nonzero digit of its ternary expansion is 1
    for b in (2, 3):
        for n in (1, 2, 3):
            g = build_laakso(n, b)
            for v in g.vertices:
                assert g.is_branching(v) == branch_level_law(g.level(v), n)


# -- 2: distances --------------------------------------------------------------


def test_c2_analytic_distance_equals_bfs_everywhere():
    start = time.perf_counter()
    for n, b in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        rep = oracle_agreement_report(build_laakso(n, b))
        assert rep["mismatch_count"] == 0, rep["mismatches"]
        assert rep["pass"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"distance sweep took {elapsed:.1f}s"


# -- 3: projection -------------------------------------------------------------


def test_c3_projection_exhaustive_with_exact_lifts():
    pm = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))
    rep = verify_projection(pm, seed=0, exhaustive=True)
    assert rep["mode"] == "exhaustive"
    checks = rep["checks"]
    assert checks["level_preserving"]["pass"]
    assert checks["level_preserving"]["checked"] == pm.tree.size()
    assert checks["lipschitz"]["pass"]
    assert checks["lift_exact"]["pass"]
    assert rep["pass"]


# -- 4: restricted co-Lipschitz constants --------------------------------------


def test_c4_atd_constants_and_grid_agreement(floor_by_3, identity_path,
                                             collapse_pair):
    m = phi_table(2, 2)
    realized = [float(d) for d in range(1, 9)]
    prof = qa.coarse_profile(m, realized + [9.0])
    # every threshold below the diameter is pinned to exactly 1
    assert {prof.c_atd[d] for d in realized} == {1.0}
    # at the diameter no related pair is separated further, so the
    # constraint set is empty and the profile reports its vacuous sentinel
    assert prof.c_atd[9.0] == float("inf")
    assert prof.c_atd_inf == 1.0

    prof_floor = qa.coarse_profile(floor_by_3, [1e-9, 0.5, 1.0])
    assert prof_floor.c_atd[1e-9] == 1 / 3

    c_grid = [0.05, 0.15, 0.25, 1 / 3, 0.45, 0.55, 0.7, 0.85, 1.0, 1.25]
    d_grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0]
    maps = [phi_table(1, 2), phi_table(1, 3), floor_by_3, identity_path,
            collapse_pair]
    assert len(c_grid) == len(d_grid) == 10 and len(maps) == 5
    for table in maps:
        rep = qa.cross_validate_atd(table, c_grid, d_grid)
        assert rep["pass"], rep


# -- 5: forks ------------------------------------------------------------------


def test_c5_exact_fork_witness_and_bounds():
    m = phi_table(1, 2)
    w = qa.fork_search(m, eps=0.0, r_min=1.0)
    assert w is not None
    r = w.r
    src, tgt = m.source.rows(), m.target.rows()
    for arm, lift in zip(w.mu2, w.sigma2):
        assert tgt[w.mu1][arm] == r
        assert tgt[w.mu0][arm] == 2 * r
        assert src[w.sigma1][lift] == r  # arms exactly r, no epsilon slack
    for i in range(len(w.sigma2)):
        for j in range(i + 1, len(w.sigma2)):
            assert src[w.sigma2[i]][w.sigma2[j]] == 2 * r  # spread exact
    assert w.self_check(m) == []

    assert qa.beta_bound_from_fork(0) == 0
    assert qa.beta_bound_from_fork(Fraction(1, 80)) == 1


# -- 6: staircase vectors ------------------------------------------------------


def test_c6_staircase_exact_rational_suite():
    start = time.perf_counter()
    theta = Fraction(3, 4)
    m = st.count_matrix(12, 6)
    bounds = st.verify_staircase_bounds(m, theta)
    assert bounds["pass"] and bounds["counterexamples"] == []
    quarter = st.verify_quarter_bounds(m)
    assert quarter["pass"] and quarter["counterexamples"] == []
    prefix = st.verify_prefix_exactness(m, theta)
    assert prefix["pass"], prefix
    ortho = st.verify_biorthogonality(theta, 12)
    assert ortho["pass"], ortho
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"staircase sweep took {elapsed:.1f}s"


# -- 7: moduli -----------------------------------------------------------------


def test_c7_modulus_models_oracles_and_power_types():
    grid = [0.5 * k / 50 for k in range(1, 51)]
    for p in (1.5, 2.0, 3.0, 4.0):
        m = md.LpModel(p)
        rep = md.check_beta_leq_auc(m, grid)
        assert rep["pass"], rep

    import random

    rng = random.Random(0)
    for _ in range(100):
        m = md.LpModel(1.2 + 3.3 * rng.random())
        t = 0.05 + 0.95 * rng.random()
        assert abs(md.auc_model(m, t) - md.auc_oracle(m, t)) <= 1e-9
        tb = (0.05 + 0.9 * rng.random()) * m.separation_cap()
        assert abs(md.beta_model(m, tb) - md.beta_oracle(m, tb)) <= 1e-6

    for kind, p in (("auc", 1.5), ("auc", 3.0), ("beta", 2.0), ("beta", 4.0)):
        table = md.tabulate(md.LpModel(p), kind, np.geomspace(1e-3, 0.1, 40))
        _, p_hat = md.power_type_fit(table)
        assert abs(p_hat - p) / p <= 0.05, (kind, p, p_hat)

    for p in (1.5, 2.0, 3.0):
        ratios = [
            abs(md.composed_power_type(p, e) - p) / e
            for e in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        # the ratio decreases toward (1 + p)/(p - 1) as eps shrinks, so the
        # value at the coarsest eps bounds the sweep
        cap = (1 + p - 0.1) / (p - 1 - 0.1)
        assert all(r <= ratios[0] for r in ratios)
        assert ratios[0] == pytest.approx(cap)
        assert ratios[-1] == pytest.approx((1 + p) / (p - 1), rel=1e-3)


# -- 8: determinism ------------------------------------------------------------


def test_c8_verify_all_byte_identical(verify_all_runs):
    check_verify_all_runs(verify_all_runs)

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from laakso_lab import moduli as md
from laakso_lab.errors import DomainError
from laakso_lab.moduli import (
    AUC_ORACLE_TOL,
    BETA_ORACLE_TOL,
    LpModel,
    ModulusTable,
    auc_model,
    auc_oracle,
    beta_model,
    beta_oracle,
    check_beta_leq_auc,
    composed_power_type,
    power_type_fit,
    tabulate,
)


class TestLpModel:
    def test_rejects_bad_p(self):
        for p in (1.0, 0.5, 0, -2, math.inf):
            with pytest.raises(DomainError):
                LpModel(p)

    def test_separation_cap(self):
        assert LpModel(2.0).separation_cap() == pytest.approx(math.sqrt(2))


class TestClosedForms:
    def test_auc_hilbert_point(self):
        assert auc_model(LpModel(2.0), 1.0) == pytest.approx(math.sqrt(2) - 1)

    def test_aus_same_expression_in_model(self):
        m = LpModel(3.0)
        grid = (0.1, 0.5, 1.0)
        assert md._KINDS["aus"] is auc_model
        assert tabulate(m, "aus", grid).samples == tuple(
            (t, auc_model(m, t)) for t in grid
        )

    def test_beta_hilbert_full_separation(self):
        # t = sqrt(2) forces s = 1, w = 0: value 1 - sqrt(2)/2
        m = LpModel(2.0)
        assert beta_model(m, math.sqrt(2)) == pytest.approx(1 - math.sqrt(2) / 2)

    def test_beta_sign_conventions_agree(self):
        # only the oracle takes the sign; the closed form has one convention
        m = LpModel(2.5)
        for t in (0.2, 0.7, 1.1):
            assert beta_oracle(m, t, "plus") == beta_oracle(m, t, "minus")

    def test_domains(self):
        m = LpModel(2.0)
        with pytest.raises(DomainError):
            auc_model(m, 0.0)
        with pytest.raises(DomainError):
            auc_model(m, 1.5)
        with pytest.raises(DomainError):
            beta_model(m, m.separation_cap() + 0.01)

    def test_near_one_p_degenerates(self):
        # as p -> 1 the gain from a disjoint bump approaches the full bump
        m = LpModel(1.001)
        assert auc_model(m, 0.5) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_in_t(self):
        m = LpModel(2.0)
        ts = np.linspace(0.01, 1.0, 40)
        vals = [auc_model(m, t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestOracles:
    def test_auc_agreement_random(self):
        rng = random.Random(11)
        for _ in range(100):
            m = LpModel(1.2 + 3.3 * rng.random())
            t = 0.05 + 0.95 * rng.random()
            assert abs(auc_model(m, t) - auc_oracle(m, t)) <= AUC_ORACLE_TOL

    def test_beta_agreement_random(self):
        rng = random.Random(12)
        for _ in range(100):
            m = LpModel(1.2 + 3.3 * rng.random())
            t = (0.05 + 0.9 * rng.random()) * m.separation_cap()
            assert abs(beta_model(m, t) - beta_oracle(m, t)) <= BETA_ORACLE_TOL

    def test_beta_oracle_rejects_unknown_sign(self):
        with pytest.raises(DomainError):
            beta_oracle(LpModel(2.0), 0.3, sign="other")

    def test_oracles_not_trusting_the_model(self):
        # the oracle is a genuine optimizer: it recovers the value from the
        # raw objective even where the closed form is least flat
        m = LpModel(4.0)
        t = 0.99 * m.separation_cap()
        assert beta_oracle(m, t) == pytest.approx(beta_model(m, t),
                                                  abs=BETA_ORACLE_TOL)


class TestPolish:
    """The one polish, compass search, on its own.  Every optimum of the
    oracles' objectives sits at a grid point, so the search is driven here
    on objectives whose optimum lies strictly inside a grid cell, or at an
    end or a corner of the box, with the oracles' own cells, steps and
    stopping widths: in one parameter as `auc_oracle` polishes, in two as
    `beta_oracle` does."""

    @pytest.mark.parametrize("c", [0.30041, 1.7312, 3.99962])
    def test_compass_1d_inside_a_cell(self, c):
        zs = np.linspace(0.3, 4.0, 4097)
        k = int(np.searchsorted(zs, c))  # zs[k - 1] < c < zs[k]
        assert zs[k - 1] < c < zs[k]
        lo, hi = float(zs[k - 1]), float(zs[k])

        def f(z):
            return math.cosh(3 * (z - c)) - 0.25

        best = -md._compass_max(lambda z: -f(z), (lo,), (lo,), (hi,),
                                (hi - lo,), 1e-12)
        assert abs(best - 0.75) <= AUC_ORACLE_TOL

    def test_compass_1d_at_a_boundary(self):
        zs = np.linspace(0.25, 4.0, 4097)
        lo, hi = float(zs[0]), float(zs[1])

        def f(z):
            return (1 + z**3) ** (1 / 3) - 1

        # from the far end of the cell, the search must walk to its start
        best = -md._compass_max(lambda z: -f(z), (hi,), (lo,), (hi,),
                                (hi - lo,), 1e-12)
        assert f(lo) <= best <= f(lo) + AUC_ORACLE_TOL

    @pytest.mark.parametrize("kinked", [False, True],
                             ids=["coupled", "kinked"])
    @pytest.mark.parametrize("a0,w0", [(0.5234, 0.1177), (0.0312, 0.3891),
                                       (0.9761, 0.0107)])
    def test_compass_inside_a_cell(self, a0, w0, kinked):
        w_cap = 0.4
        step = (1 / 20, w_cap / 20)

        # concave, best at (a0, w0), off the grid: a coupled quadratic, or
        # a kinked one that a coarse final step leaves short by the step
        def f(a, w):
            da, dw = a - a0, w - w0
            if kinked:
                return 1 - abs(da) - 2 * abs(dw)
            return 1 - da * da - 3 * dw * dw - da * dw

        start = (round(a0 / step[0]) * step[0], round(w0 / step[1]) * step[1])
        assert start != (a0, w0)
        best = md._compass_max(f, start, (0.0, 0.0), (1.0, w_cap), step,
                               1e-10)
        assert 1 - BETA_ORACLE_TOL <= best <= 1

    @pytest.mark.parametrize("sign", [1, -1], ids=["far", "origin"])
    def test_compass_at_a_corner(self, sign):
        # increasing in both coordinates on the box, or decreasing
        w_cap = 0.7
        best = md._compass_max(lambda a, w: sign * (a + w - a * w / 4),
                               (0.35, 0.21), (0.0, 0.0), (1.0, w_cap),
                               (1 / 20, w_cap / 20), 1e-10)
        assert best == (1.0 + w_cap - w_cap / 4 if sign > 0 else 0.0)


class TestLemmaGrid:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_beta_below_auc(self, p):
        grid = [0.5 * k / 50 for k in range(1, 51)]
        rep = check_beta_leq_auc(LpModel(p), grid)
        assert rep["pass"], rep
        assert rep["max_slack"] <= 0  # slack = beta - auc(2t), never positive

    def test_rejects_grid_outside_half(self):
        with pytest.raises(DomainError):
            check_beta_leq_auc(LpModel(2.0), [0.6])

    @pytest.mark.parametrize("grid", [[], iter([])])
    def test_rejects_empty_grid(self, grid):
        with pytest.raises(DomainError, match="empty t grid"):
            check_beta_leq_auc(LpModel(2.0), grid)

    def test_counts_a_generator_grid(self):
        rep = check_beta_leq_auc(LpModel(2.0), (0.05 * k for k in range(1, 11)))
        assert rep["points"] == 10


class TestTables:
    def test_tabulate_and_validate(self):
        t = tabulate(LpModel(2.0), "auc", np.geomspace(0.01, 0.5, 20))
        assert t.kind == "auc"
        assert len(t.samples) == 20

    def test_table_rejects_bad_kind(self):
        with pytest.raises(DomainError):
            ModulusTable(kind="bogus", samples=((0.1, 0.01),))

    def test_table_rejects_empty_grid(self):
        with pytest.raises(DomainError, match="at least one sample"):
            tabulate(LpModel(2.0), "beta", [])

    def test_table_rejects_disorder(self):
        with pytest.raises(ValueError):
            ModulusTable(kind="auc", samples=((0.2, 0.1), (0.1, 0.2)))

    @pytest.mark.parametrize("kind,p", [("auc", 1.5), ("auc", 3.0),
                                        ("beta", 2.0), ("beta", 4.0)])
    def test_power_type_recovered(self, kind, p):
        table = tabulate(LpModel(p), kind, np.geomspace(1e-3, 0.1, 40))
        _, p_hat = power_type_fit(table)
        assert abs(p_hat - p) / p <= 0.05

    def test_fit_needs_points(self):
        t = tabulate(LpModel(2.0), "auc", [0.1, 0.2])
        with pytest.raises(DomainError):
            power_type_fit(t)


class TestComposedPowerType:
    def test_frozen_value(self):
        # (p - e)(p + e - 1)/(p - e - 1) at p = 2, e = 0.1: 2.09 / 0.9
        assert composed_power_type(2.0, 0.1) == pytest.approx(2.09 / 0.9)

    def test_ratio_monotone_and_bounded(self):
        eps = [1e-1, 1e-2, 1e-3, 1e-4]
        ratios = [abs(composed_power_type(2.0, e) - 2.0) / e for e in eps]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        # the limit ratio is (1 + p) / (p - 1) = 3 at p = 2
        assert ratios[-1] == pytest.approx(3.0, rel=1e-3)
        assert ratios[0] <= 3.5

    @pytest.mark.parametrize("q", [10, 100, 1000, 10000])
    def test_exact_ratio(self, q):
        # |f - p| / eps = (p + 1 - eps) / (p - 1 - eps), in exact arithmetic
        p, eps = Fraction(2), Fraction(1, q)
        f = composed_power_type(p, eps)
        assert isinstance(f, Fraction)
        assert abs(f - p) / eps == (p + 1 - eps) / (p - 1 - eps)

    def test_report_ratios_are_the_exact_ones(self, verify_all_runs):
        exact = [(3 - eps) / (1 - eps)
                 for eps in (Fraction(1, 10 ** k) for k in range(1, 5))]
        assert exact[0] == Fraction(29, 9) < Fraction(7, 2)
        report = json.loads(verify_all_runs[0][1])
        ratios = report["suites"]["moduli"]["composed_exponent"]["ratios"]
        assert len(ratios) == len(exact)
        for got, want in zip(ratios, exact):
            assert got == pytest.approx(float(want), rel=1e-9)

    def test_rejects_collapsing_eps(self):
        with pytest.raises(DomainError):
            composed_power_type(1.5, 0.6)

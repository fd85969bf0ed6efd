"""Asymptotic convexity, smoothness, and midpoint-drop modulus models for
l_p, on the disjoint-support extremal configuration.

The genuine moduli are asymptotic quantities over finite-codimensional
subspaces and cannot live in finite dimension.  What is computed here is the
standard extremal model for l_p: perturbations disjointly supported from the
base vector, which turns each modulus into a closed-form expression in one
scalar.  Every closed form is validated against an independent numerical
optimization over the model's free parameters, never trusted bare.  The
model values are not claimed to be the Banach-space moduli themselves; they
are the l_p surrogates the inequalities of interest are checked on.

Closed forms, for 1 < p < infinity:

  convexity  (t in (0,1]):      (1 + t**p)**(1/p) - 1
  smoothness (t in (0,1]):      (1 + t**p)**(1/p) - 1   (the same expression
                                 in this model, so the "aus" kind is
                                 computed by `auc_model`; it enters only
                                 through its power type)
  midpoint drop (t in (0, 2**(1/p)]):
      1 - ((1 + (1-s**p)**(1/p))**p + s**p)**(1/p) / 2,  s = t * 2**(-1/p),
  where s is the per-vector scale forced by pairwise separation t between
  the disjoint perturbations: ||s*e_n - s*e_m|| = s * 2**(1/p).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Sequence

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import DomainError

AUC_ORACLE_TOL = 1e-9
BETA_ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class LpModel:
    p: float

    def __post_init__(self):
        if not 1 < self.p < inf:
            raise DomainError(f"p must lie in (1, inf), got {self.p}")

    @property
    def conjugate(self) -> float:
        return self.p / (self.p - 1)

    def separation_cap(self) -> float:
        """Largest achievable pairwise separation of the unit-ball
        perturbations: s = 1 gives 2**(1/p)."""
        return 2 ** (1 / self.p)


def auc_model(m: LpModel, t: float) -> float:
    """Worst-case norm gain from adding a disjoint perturbation of size at
    least t to a unit vector."""
    if not 0 < t <= 1:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    return (1 + t**m.p) ** (1 / m.p) - 1


def auc_oracle(m: LpModel, t: float) -> float:
    """Independent route: minimize ||x + z|| - 1 over the perturbation size
    ||z|| in [t, 4] numerically instead of arguing monotonicity.  Dense grid
    including both endpoints, then a local polish of the best cell; the
    bounded polisher alone stalls ~sqrt(eps) away from a boundary minimum,
    so the endpoint evaluations are what make the tight tolerance reachable."""
    if not 0 < t <= 1:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    p = m.p

    def f(z: float) -> float:
        return (1 + abs(z) ** p) ** (1 / p) - 1

    zs = np.linspace(t, 4.0, 4097)
    vals = np.array([f(z) for z in zs])
    k = int(np.argmin(vals))
    best = float(vals[k])
    lo = zs[max(k - 1, 0)]
    hi = zs[min(k + 1, len(zs) - 1)]
    if hi > lo:
        res = minimize_scalar(f, bounds=(float(lo), float(hi)),
                              method="bounded", options={"xatol": 1e-12})
        best = min(best, float(res.fun))
    return best


def beta_model(m: LpModel, t: float) -> float:
    """Midpoint-drop modulus of the model: 1 minus the best achievable
    inf_n ||x + x_n|| / 2 over unit x and separated unit-ball sequences
    x_n = w + s*e_n.  The ||x - x_n|| convention gives the same value by
    ball symmetry; `beta_oracle` computes both conventions, so that
    equality stays tested."""
    p = m.p
    if not 0 < t <= 2 ** (1 / p):
        raise DomainError(f"t must lie in (0, 2**(1/p)], got {t}")
    s = t * 2 ** (-1 / p)
    w = (1 - s**p) ** (1 / p)
    return 1 - ((1 + w) ** p + s**p) ** (1 / p) / 2


def beta_oracle(m: LpModel, t: float, sign: str = "plus") -> float:
    """Independent route: maximize inf_n ||x +/- x_n|| over the model's
    three free parameters by grid scan plus local polish.

    Parameters: a = the component of x along the common part w of the
    sequence (the rest of x goes to a fresh disjoint direction, and filling
    the norm is always optimal, so ||x|| = 1 is built in); W = ||w|| in
    [0, (1-s**p)**(1/p)]; align = the sign of the x-to-w alignment.  Then
    inf_n ||x + x_n||**p = |a*align + W|**p + (1-a**p) + s**p for the plus
    convention, with W negated for minus."""
    if sign not in ("plus", "minus"):
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    p = m.p
    if not 0 < t <= 2 ** (1 / p):
        raise DomainError(f"t must lie in (0, 2**(1/p)], got {t}")
    s = t * 2 ** (-1 / p)
    w_cap = (1 - s**p) ** (1 / p)
    flip = 1.0 if sign == "plus" else -1.0

    def midpoint(a: float, W: float, align: float) -> float:
        a = min(max(a, 0.0), 1.0)
        W = min(max(W, 0.0), w_cap)
        body = abs(align * a + flip * W) ** p + (1 - a**p) + s**p
        return body ** (1 / p) / 2

    best = -inf
    best_arg = (0.0, 0.0, 1.0)
    for align in (1.0, -1.0):
        for a in np.linspace(0.0, 1.0, 21):
            for W in np.linspace(0.0, w_cap, 21):
                val = midpoint(a, W, align)
                if val > best:
                    best = val
                    best_arg = (a, W, align)
    a0, W0, align0 = best_arg
    res = minimize(
        lambda v: -midpoint(v[0], v[1], align0),
        x0=np.array([a0, W0]),
        bounds=[(0.0, 1.0), (0.0, max(w_cap, 1e-12))],
        method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-12},
    )
    best = max(best, float(-res.fun))
    return 1 - best


def check_beta_leq_auc(m: LpModel, t_grid: Sequence[float]) -> dict:
    """Pointwise check of midpoint-drop(t) <= convexity(2t) on a grid in
    (0, 1/2]; violations reported, never raised."""
    t_grid = list(t_grid)
    if not t_grid:
        raise DomainError("empty t grid: nothing to check")
    bad = []
    max_slack = -inf
    for t in t_grid:
        if not 0 < t <= 0.5:
            raise DomainError(f"grid point {t} outside (0, 1/2]")
        slack = beta_model(m, t) - auc_model(m, 2 * t)
        max_slack = max(max_slack, slack)
        if slack > 0:
            bad.append({"t": t, "beta": beta_model(m, t),
                        "auc_at_2t": auc_model(m, 2 * t)})
    return {
        "p": m.p,
        "points": len(t_grid),
        "max_slack": max_slack,
        "violations": bad[:5],
        "pass": not bad,
    }


@dataclass(frozen=True)
class ModulusTable:
    kind: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown modulus kind {self.kind!r}")
        if not self.samples:
            raise DomainError("a modulus table needs at least one sample")
        ts = [t for t, _ in self.samples]
        vals = [v for _, v in self.samples]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("sample abscissae must be strictly increasing")
        if any(v < 0 for v in vals):
            raise ValueError("modulus values must be non-negative")
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("modulus values must be non-decreasing")


_KINDS = {"auc": auc_model, "aus": auc_model, "beta": beta_model}


def tabulate(m: LpModel, kind: str, t_grid: Sequence[float]) -> ModulusTable:
    if kind not in _KINDS:
        raise DomainError(f"unknown modulus kind {kind!r}")
    fn = _KINDS[kind]
    samples = tuple((float(t), fn(m, float(t))) for t in t_grid)
    return ModulusTable(kind=kind, samples=samples)


def power_type_fit(table: ModulusTable) -> tuple[float, float]:
    """Least-squares fit of log(value) against log(t); returns (C, p_hat)
    with value ~ C * t**p_hat.  Exact power laws are recovered to
    round-off."""
    if len(table.samples) < 3:
        raise DomainError("need at least 3 samples to fit")
    if any(v <= 0 for _, v in table.samples):
        raise DomainError("power-type fit needs strictly positive values")
    ts = np.log([t for t, _ in table.samples])
    vs = np.log([v for _, v in table.samples])
    slope, intercept = np.polyfit(ts, vs, 1)
    return float(np.exp(intercept)), float(slope)


def composed_power_type(p: float, eps: float) -> float:
    """Exponent produced by composing a power-type (p - eps) lower bound
    through a power-type (p + eps) interpolation: the displayed rational
    expression.  Off by O(eps) from p, with |f - p| / eps bounded."""
    denom = (p - eps) - 1
    if denom <= 0:
        raise DomainError(f"p - eps must exceed 1, got p={p}, eps={eps}")
    return ((p - eps) * (p + eps) - (p - eps)) / denom

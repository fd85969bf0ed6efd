"""Asymptotic convexity, smoothness, and midpoint-drop modulus models for
l_p, on the disjoint-support extremal configuration.

The genuine moduli are asymptotic quantities over finite-codimensional
subspaces and cannot live in finite dimension.  What is computed here is the
standard extremal model for l_p: perturbations disjointly supported from the
base vector, which turns each modulus into a closed-form expression in one
scalar.  Every closed form is validated against an independent numerical
optimization over the model's free parameters, never trusted bare: a
dense grid of the raw objective in numpy, polished in pure Python by one
compass search, in one parameter or in two.  The model values are not
claimed to be the Banach-space moduli themselves; they are the l_p
surrogates the inequalities of interest are checked on.

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
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

AUC_ORACLE_TOL = 1e-9
BETA_ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class LpModel:
    p: float

    def __post_init__(self):
        if not 1 < self.p < inf:
            raise DomainError(f"p must lie in (1, inf), got {self.p}")

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
    ||z|| in [t, 4] numerically instead of arguing monotonicity.  A dense
    grid including both endpoints, evaluated in one array expression; the
    best grid point is re-evaluated by the scalar objective, since an
    array power may differ from a scalar one in the last place.  Then the
    compass search polishes it on [t, 4], from a step of one grid spacing
    down to 1e-12."""
    if not 0 < t <= 1:
        raise DomainError(f"t must lie in (0, 1], got {t}")
    p = m.p

    def f(z: float) -> float:
        return (1 + abs(z) ** p) ** (1 / p) - 1

    zs = np.linspace(t, 4.0, 4097)
    k = int(np.argmin((1 + np.abs(zs) ** p) ** (1 / p) - 1))
    return -_compass_max(lambda z: -f(z), (float(zs[k]),), (t,), (4.0,),
                         ((4.0 - t) / 4096,), 1e-12)


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
    convention, with W negated for minus.  The 2 x 21 x 21 grid over
    (align, a, W) is evaluated in one array expression, its best cell is
    re-evaluated by the scalar objective, and a compass search in the
    (a, W) box polishes it at that alignment."""
    if sign not in ("plus", "minus"):
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
    p = m.p
    if not 0 < t <= 2 ** (1 / p):
        raise DomainError(f"t must lie in (0, 2**(1/p)], got {t}")
    s = t * 2 ** (-1 / p)
    w_cap = (1 - s**p) ** (1 / p)
    flip = 1.0 if sign == "plus" else -1.0

    aligns = np.array([1.0, -1.0])[:, None, None]
    a_grid = np.linspace(0.0, 1.0, 21)[None, :, None]
    w_grid = np.linspace(0.0, w_cap, 21)[None, None, :]
    body = (np.abs(aligns * a_grid + flip * w_grid) ** p
            + (1 - a_grid**p) + s**p)
    i, j, k = np.unravel_index(int(np.argmax(body ** (1 / p) / 2)),
                               body.shape)
    align = float(aligns[i, 0, 0])

    def midpoint(a: float, W: float) -> float:
        body = abs(align * a + flip * W) ** p + (1 - a**p) + s**p
        return body ** (1 / p) / 2

    start = (float(a_grid[0, j, 0]), float(w_grid[0, 0, k]))
    return 1 - _compass_max(midpoint, start, (0.0, 0.0), (1.0, w_cap),
                            (1 / 20, w_cap / 20), 1e-10)


def _compass_max(f: Callable[..., float], start: Sequence[float],
                 lower: Sequence[float], upper: Sequence[float],
                 step: Sequence[float], tol: float) -> float:
    """The greatest value compass search finds for f(*x) over the box
    lower <= x <= upper, of any dimension, from start: a move of the
    current step along one axis, up or down, clipped to the box, is taken
    when it improves strictly, the moves tried in the order (axis 0, up),
    (axis 0, down), (axis 1, up), ...; when none does, every step halves,
    until each is at most tol.  The value at start is evaluated first, so
    the result is never below it."""
    x = list(start)
    step = list(step)
    moves = [(axis, sgn) for axis in range(len(x)) for sgn in (1.0, -1.0)]
    best = f(*x)
    while max(step) > tol:
        for axis, sgn in moves:
            y = list(x)
            y[axis] = min(max(x[axis] + sgn * step[axis], lower[axis]),
                          upper[axis])
            val = f(*y)
            if val > best:
                x, best = y, val
                break
        else:
            step = [h / 2 for h in step]
    return best


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

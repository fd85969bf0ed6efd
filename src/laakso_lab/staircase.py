"""Exact-rational staircase vectors under the sup norm.

The building blocks are u_k = theta*(e_1 + ... + e_k) in finitely supported
sequences, with the n-th coordinate functional as the biorthogonal partner:
coordinate n of u_k is theta when n <= k and 0 otherwise.  An increasing
index set J = {n_1 < ... < n_k} gets the vector v_J = u_{n_1} + ... + u_{n_k},
whose i-th coordinate is theta times the number of elements of J that are
at least i.  Sup-norm arithmetic on such vectors therefore reduces to
counting; nothing is floating point.

The verification entry points enumerate all increasing subsets of
{1..index_bound} up to a size bound and check, exhaustively: injectivity
and the two-sided norm bounds with constants theta and theta/3; the same
shape of bounds with the fixed constant 1/4; exact prefix-pair norms
theta * (level difference); and the biorthogonality table itself.
`verify_james` runs all four.  The three checks that sweep the sets take
one exact integer count matrix (`count_matrix`), whose row for J holds the
counts at i = 1..index_bound, i.e. v_J / theta; `verify_james` builds it
once for all three, and the matrix computes the pair counts once for the
two pair checks.  With count = ||v_J - v_K|| / theta the pair bounds are
integer tests: |J|+|K| <= 3*count for theta/3 and for 1/4 at theta = 3/4
(theta cancels), and theta*count <= |J|+|K|.  Every bound is decided once
per distinct (count, size) in exact Python arithmetic and looked up for
each set or pair; numpy holds only the counts, so a huge theta stays
exact, and no Fraction is built per set or pair, only for reported values
and the few distinct (count, size).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError

THETA_DEFAULT = Fraction(3, 4)

# Cells in the difference block of one chunk of the pair sweep (int64,
# 2 MiB), unless a single K row against its J block is larger.
_CHUNK_CELLS = 1 << 18

IndexSet = Union[tuple[int, ...], Iterable[int]]


def _elements(J) -> tuple[int, ...]:
    els = tuple(getattr(J, "elements", J))
    if any(int(e) != e or e < 1 for e in els):
        raise DomainError(f"index set {els} must contain positive integers")
    if any(els[i] >= els[i + 1] for i in range(len(els) - 1)):
        raise DomainError(f"index set {els} is not strictly increasing")
    return els


def _counts(J: tuple[int, ...], points: Iterable[int]) -> list[int]:
    """|{n in J : n >= i}| for each i in points: coordinate i of v_J over
    theta.  The one per-set count that v_of, _max_count_diff and the count
    matrix all read."""
    n = len(J)
    return [n - bisect_left(J, i) for i in points]


@dataclass(frozen=True)
class StaircaseVector:
    """Finitely supported coordinates, index 1..len(coords)."""

    coords: tuple[Fraction, ...]

    def coordinate(self, n: int) -> Fraction:
        if n < 1:
            raise DomainError("coordinates are indexed from 1")
        return self.coords[n - 1] if n <= len(self.coords) else Fraction(0)


def step_vector(k: int, theta: Fraction = THETA_DEFAULT) -> StaircaseVector:
    if k < 1:
        raise DomainError("step index must be >= 1")
    return StaircaseVector(coords=(Fraction(theta),) * k)


def v_of(J: IndexSet, theta: Fraction) -> StaircaseVector:
    """v_J, coordinate by coordinate: the vector route, which the staircase
    tests compare with the counting route of `diff_norm`."""
    els = _elements(J)
    if not els:
        return StaircaseVector(coords=())
    theta = Fraction(theta)
    return StaircaseVector(
        coords=tuple(theta * c for c in _counts(els, range(1, els[-1] + 1)))
    )


def sup_norm(v: StaircaseVector) -> Fraction:
    """The sup norm of a vector of the vector route (`v_of`)."""
    return max((abs(c) for c in v.coords), default=Fraction(0))


def _max_count_diff(J: tuple[int, ...], K: tuple[int, ...]) -> int:
    # Coordinate i of v_J - v_K is theta * (count_J(i) - count_K(i)); both
    # counts are constant between consecutive elements, so the extremes
    # sit at element values.
    points = sorted(set(J) | set(K))
    return max(
        (abs(a - b) for a, b in zip(_counts(J, points), _counts(K, points))),
        default=0,
    )


def diff_norm(J: IndexSet, K: IndexSet) -> Fraction:
    """Exact sup norm of v_J - v_K at THETA_DEFAULT by the counting route
    (no vectors built); the staircase tests compare it with the vector
    route, `v_of` subtracted coordinate by coordinate."""
    return THETA_DEFAULT * _max_count_diff(_elements(J), _elements(K))


def enumerate_index_sets(index_bound: int, size_bound: int) -> list[tuple[int, ...]]:
    """All increasing subsets of {1..index_bound} with at most size_bound
    elements, by size then lexicographically; deterministic."""
    out: list[tuple[int, ...]] = []
    for k in range(0, min(size_bound, index_bound) + 1):
        out.extend(combinations(range(1, index_bound + 1), k))
    return out


def exact_theta(theta) -> Fraction:
    """theta as an exact Fraction, which must lie in (0, 1)."""
    try:
        theta = Fraction(theta)
    except (ArithmeticError, ValueError):
        raise DomainError(f"theta {theta!r} is not a finite rational") from None
    if not 0 < theta < 1:
        raise DomainError("theta must lie in (0,1)")
    return theta


def _require_bounds(index_bound: int, size_bound: int = 0) -> None:
    if index_bound < 1 or size_bound < 0:
        raise DomainError(f"bounds must be index >= 1 and size >= 0, got "
                          f"{index_bound} and {size_bound}")


@dataclass(frozen=True)
class CountMatrix:
    """The sets of enumerate_index_sets(index_bound, size_bound), in that
    order, with row r of `counts` holding _counts(sets[r], 1..index_bound)
    and `sizes[r]` = |sets[r]|.  Both arrays are int64 and read-only; no
    entry exceeds index_bound, so no difference of two entries overflows."""

    sets: list[tuple[int, ...]]
    counts: np.ndarray
    sizes: np.ndarray

    @cached_property
    def pair_counts(self) -> tuple[np.ndarray, ...]:
        """Every pair of a nonempty K and a J wholly below it (max J <
        min K), K then J in row order: the rows of K and of J, the count
        max|row K - row J| = ||v_K - v_J|| / theta and |J| + |K|, as int32
        arrays.  Built on first use, in chunks of at most _CHUNK_CELLS
        cells per group of K sharing K[0], and shared by the pair checks,
        which differ only in their verdict tables."""
        C, sizes = self.counts, self.sizes
        first = np.array([K[0] if K else 0 for K in self.sets])
        last = np.array([J[-1] if J else 0 for J in self.sets])
        parts: list[tuple[np.ndarray, ...]] = [(np.empty(0, np.intp),) * 3]
        # A set, not np.unique: numpy's unique imports numpy.ma on first use.
        for k in sorted(set(first[first > 0].tolist())):
            Ks = np.flatnonzero(first == k)
            Js = np.flatnonzero(last < k)
            below = C[Js][None, :, :]
            step = max(1, _CHUNK_CELLS // below.size)
            for lo in range(0, len(Ks), step):
                K = Ks[lo:lo + step]
                count = np.abs(C[K][:, None, :] - below).max(axis=-1)
                ki, ji = np.indices(count.shape).reshape(2, -1)
                parts.append((K[ki], Js[ji], count.ravel()))
        ks, js, count = (np.concatenate(a) for a in zip(*parts))
        order = np.lexsort((js, ks))
        ks, js, count = ks[order], js[order], count[order]
        out = tuple(a.astype(np.int32)
                    for a in (ks, js, count, sizes[ks] + sizes[js]))
        for a in out:
            a.setflags(write=False)
        return out


def count_matrix(index_bound: int, size_bound: int) -> CountMatrix:
    """The count matrix of every index set within the bounds."""
    _require_bounds(index_bound, size_bound)
    sets = enumerate_index_sets(index_bound, size_bound)
    cols = range(1, index_bound + 1)
    counts = np.array([_counts(J, cols) for J in sets], dtype=np.int64)
    sizes = np.array([len(J) for J in sets], dtype=np.int64)
    counts.setflags(write=False)
    sizes.setflags(write=False)
    return CountMatrix(sets, counts, sizes)


def _table(ok, rows: int, cols: int) -> np.ndarray:
    """ok(r, c) for every r < rows and c < cols, in exact arithmetic."""
    return np.array([[bool(ok(r, c)) for c in range(cols)]
                     for r in range(rows)], dtype=bool)


def _tightest(seen: np.ndarray, ratio) -> Optional[Fraction]:
    """The least ratio(r, c) over the cells of `seen` that are set."""
    rows, cols = (a.tolist() for a in np.nonzero(seen))
    return min(map(ratio, rows, cols), default=None)


def _injectivity(m: CountMatrix) -> list[dict]:
    """theta > 0, so v_J = v_K exactly when the count rows are equal: each
    set whose row repeats an earlier one, against the latest such set."""
    bad: list[dict] = []
    seen: dict[tuple, tuple] = {}
    for row, J in zip(map(tuple, m.counts.tolist()), m.sets):
        if row in seen:
            bad.append({"check": "injective", "J": list(seen[row]), "K": list(J)})
        seen[row] = J
    return bad


def _norm_sweep(m: CountMatrix, theta: Fraction, lower: Fraction):
    """lower*|J| <= ||v_J|| = theta * max|row J| <= |J| over the nonempty
    sets: the counterexamples and the tightest ratio ||v_J|| / |J|."""
    peak = np.abs(m.counts).max(axis=1)
    ok = _table(lambda c, k: lower * k <= theta * c <= k,
                int(peak.max()) + 1, int(m.sizes.max()) + 1)
    seen = np.zeros_like(ok)
    nonempty = m.sizes > 0
    seen[peak[nonempty], m.sizes[nonempty]] = True
    failing = np.flatnonzero(nonempty & ~ok[peak, m.sizes]).tolist()
    bad = [{"check": "norm", "J": list(m.sets[r]),
            "norm": str(theta * int(peak[r]))} for r in failing]
    return bad, _tightest(seen, lambda c, k: theta * c / k)


def _pair_sweep(m: CountMatrix, theta: Fraction):
    """The pairs of a nonempty K and a J wholly below it, K then J in
    enumeration order, under the integer bounds of the module docstring:
    the pair count, the failing (J, K, count), the least 3*count/(|J|+|K|).
    Only the verdict table depends on theta; the pair counts come from the
    matrix, which computes them once."""
    ks, js, count, size = m.pair_counts
    ok = _table(lambda c, s: s <= 3 * c
                and theta.numerator * c <= theta.denominator * s,
                int(m.counts.max() - m.counts.min()) + 1,
                2 * int(m.sizes.max()) + 1)
    seen = np.zeros_like(ok)
    seen[count, size] = True
    fail = np.flatnonzero(~ok[count, size])
    failed = [(m.sets[j], m.sets[k], c) for k, j, c in
              zip(ks[fail].tolist(), js[fail].tolist(), count[fail].tolist())]
    return len(ks), failed, _tightest(seen, lambda c, s: Fraction(3 * c, s))


def verify_biorthogonality(theta: Fraction = THETA_DEFAULT, index_bound: int = 12) -> dict:
    """Coordinate functional n on u_k must give theta for n <= k, else 0."""
    _require_bounds(index_bound)
    theta = Fraction(theta)
    bad = []
    checked = 0
    for k in range(1, index_bound + 1):
        u = step_vector(k, theta)
        for n in range(1, index_bound + 1):
            checked += 1
            want = theta if n <= k else Fraction(0)
            if u.coordinate(n) != want:
                bad.append({"n": n, "k": k, "got": str(u.coordinate(n))})
    return {
        "checked": checked,
        "counterexamples": bad[:5],
        "pass": not bad,
    }


def verify_staircase_bounds(m: CountMatrix, theta: Fraction) -> dict:
    """Injectivity of J -> v_J, the per-set bounds theta*k <= ||v_J|| <= k,
    and for every ordered pair with max J < min J' the two-sided bound
    (theta/3)*(|J|+|J'|) <= ||v_J - v_J'|| <= |J|+|J'|, over the sets of
    the count matrix m.  Exact arithmetic; reports the tightest ratios
    observed."""
    theta = exact_theta(theta)
    bad = _injectivity(m)
    norm_bad, tight_norm = _norm_sweep(m, theta, theta)
    bad += norm_bad
    pairs, failed, tight_pair = _pair_sweep(m, theta)
    for J, K, count in failed:
        size = len(J) + len(K)
        bad.append(
            {"check": "pair", "J": list(J), "K": list(K),
             "norm": str(theta * count), "lower": str(theta / 3 * size),
             "upper": str(size)}
        )
    return {
        "theta": str(theta),
        "sets": len(m.sets),
        "pairs": pairs,
        "tightest_norm_ratio": str(tight_norm),
        "tightest_pair_ratio": str(tight_pair),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_quarter_bounds(m: CountMatrix) -> dict:
    """The sets of the count matrix m against the fixed constant 1/4 at
    theta = 3/4: (1/4)|J| <= ||v_J|| <= |J| for each set, and for
    max J < min J' the bound (1/4)(|J|+|J'|) <= ||v_J - v_J'|| <= |J|+|J'|."""
    theta = Fraction(3, 4)
    bad, _ = _norm_sweep(m, theta, Fraction(1, 4))
    pairs, failed, tight = _pair_sweep(m, theta)
    for J, K, count in failed:
        bad.append(
            {"check": "pair", "J": list(J), "K": list(K),
             "norm": str(theta * count),
             "lower": str(Fraction(len(J) + len(K), 4))}
        )
    return {
        "theta": str(theta),
        "sets": len(m.sets),
        "pairs": pairs,
        "tightest_pair_ratio": str(tight),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_prefix_exactness(m: CountMatrix, theta: Fraction) -> dict:
    """For prefix-comparable sets J below J' of the count matrix m the norm
    of the difference is exactly theta times the level gap: the map
    J -> v_J distorts ancestor-to-descendant distances by the single factor
    theta.  Theta is nonzero, so it cancels and the check compares integer
    counts: the pairs are (K[:p], K) for every K and p <= |K|, taken by gap
    |K| - p with the rows of K[:p] found by climbing parent indices."""
    theta = exact_theta(theta)
    C, sizes = m.counts, m.sizes
    index = {J: r for r, J in enumerate(m.sets)}
    parent = np.array([index[J[:-1]] if J else 0 for J in m.sets])
    K = np.arange(len(m.sets))
    J = K
    pairs = 0
    fails = []
    for gap in range(int(sizes.max()) + 1):
        live = sizes >= gap
        count = np.abs(C[J[live]] - C[K[live]]).max(axis=1)
        pairs += int(live.sum())
        wrong = np.flatnonzero(count != gap)
        fails.append((K[live][wrong], np.full(len(wrong), gap), count[wrong]))
        J = parent[J]
    ks, gaps, counts = (np.concatenate(a) for a in zip(*fails))
    first = np.lexsort((-gaps, ks))[:5]
    bad = [
        {"check": "prefix", "J": list(m.sets[k][:len(m.sets[k]) - gap]),
         "K": list(m.sets[k]), "norm": str(theta * count),
         "expected": str(theta * gap)}
        for k, gap, count in zip(ks[first].tolist(), gaps[first].tolist(),
                                 counts[first].tolist())
    ]
    return {
        "theta": str(theta),
        "pairs": pairs,
        "counterexamples": bad,
        "violations": len(ks),
        "pass": not len(ks),
    }


def verify_james(
    theta: Fraction = THETA_DEFAULT, index_bound: int = 12, size_bound: int = 6
) -> dict:
    """The four staircase checks of the james suite, and whether all pass.
    The three checks that take the bounds share one count matrix."""
    theta = exact_theta(theta)
    m = count_matrix(index_bound, size_bound)
    out = {
        "staircase_bounds": verify_staircase_bounds(m, theta),
        "quarter_bounds": verify_quarter_bounds(m),
        "prefix_exactness": verify_prefix_exactness(m, theta),
        "biorthogonality": verify_biorthogonality(theta, index_bound),
    }
    out["pass"] = all(rep["pass"] for rep in out.values())
    return out


def exponent_for_radius(r: int) -> int:
    """The exponent N with 3**(N-2) = r, for fork radii that are powers
    of three."""
    if r < 1:
        raise DomainError("radius must be a positive integer")
    k = 0
    m = r
    while m % 3 == 0:
        m //= 3
        k += 1
    if m != 1:
        raise DomainError(f"radius {r} is not a power of 3")
    return k + 2


def sibling_separation_report(nodes: Sequence[IndexSet], exponent: int) -> dict:
    """Cardinality and separation bounds at THETA_DEFAULT for index sets
    branching off a common prefix.  With tails I_k (the elements past the
    longest common prefix), requires each |I_k| >= 3**(exponent-2) and
    pairwise ||v_J - v_J'|| >= (1/4)(|I_k|+|I_j|) >= (1/2)*3**(exponent-2).

    Preconditions (nonempty tails, ranges disjoint and ordered) are
    reported as violations, never raised; bounds are still evaluated so a
    failing witness shows exactly which part breaks."""
    if exponent < 2:
        raise DomainError("exponent must be >= 2")
    tuples = [_elements(n) for n in nodes]
    if len(tuples) <= 1:
        return {
            "nodes": len(tuples), "pairs": 0, "precondition_ok": True,
            "cardinality_ok": True, "separation_ok": True,
            "violations": [], "pass": True,
        }
    prefix_len = 0
    while all(len(t) > prefix_len for t in tuples) and len(
        {t[prefix_len] for t in tuples}
    ) == 1:
        prefix_len += 1
    tails = [t[prefix_len:] for t in tuples]

    violations: list[str] = []
    precondition_ok = True
    if any(not tail for tail in tails):
        precondition_ok = False
        violations.append("empty tail: some node equals the common prefix")
    else:
        by_min = sorted(range(len(tails)), key=lambda i: tails[i][0])
        for a, b in zip(by_min, by_min[1:]):
            if tails[a][-1] >= tails[b][0]:
                precondition_ok = False
                violations.append(
                    f"tail ranges overlap: {list(tails[a])} and {list(tails[b])}"
                )

    bound = 3 ** (exponent - 2)
    cardinality_ok = True
    for tail in tails:
        if len(tail) < bound:
            cardinality_ok = False
            violations.append(
                f"tail {list(tail)} has {len(tail)} < {bound} elements"
            )

    separation_ok = True
    pairs = 0
    half_bound = Fraction(bound, 2)
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            pairs += 1
            norm = THETA_DEFAULT * _max_count_diff(tuples[i], tuples[j])
            lower = Fraction(1, 4) * (len(tails[i]) + len(tails[j]))
            if norm < lower:
                separation_ok = False
                violations.append(
                    f"pair {i},{j}: norm {norm} < quarter bound {lower}"
                )
            if lower < half_bound:
                separation_ok = False
                violations.append(
                    f"pair {i},{j}: quarter bound {lower} < {half_bound}"
                )
    return {
        "nodes": len(tuples),
        "pairs": pairs,
        "common_prefix": list(tuples[0][:prefix_len]),
        "tails": [list(t) for t in tails],
        "required_cardinality": bound,
        "precondition_ok": precondition_ok,
        "cardinality_ok": cardinality_ok,
        "separation_ok": separation_ok,
        "violations": violations[:10],
        "pass": precondition_ok and cardinality_ok and separation_ok,
    }

"""Exact-rational staircase vectors under the sup norm.

The building blocks are u_k = theta*(e_1 + ... + e_k) in finitely supported
sequences, with the n-th coordinate functional as the biorthogonal partner:
coordinate n of u_k is theta when n <= k and 0 otherwise.  An increasing
index set J = {n_1 < ... < n_k} gets the vector v_J = u_{n_1} + ... + u_{n_k},
whose i-th coordinate is theta times the number of elements of J that are
at least i.  Sup-norm arithmetic on such vectors therefore reduces to
counting, and every check in this module runs in exact integers and
Fractions; nothing is floating point.

The verification entry points enumerate all increasing subsets of
{1..index_bound} up to a size bound and check, exhaustively: injectivity
and the two-sided norm bounds with constants theta and theta/3; the same
shape of bounds with the fixed constant 1/4; exact prefix-pair norms
theta * (level difference); and the biorthogonality table itself.
`verify_james` runs all four.  Both bound checks share one sweep over the
pairs with J wholly below K, where with count = ||v_J - v_K|| / theta the
bounds are integer tests: |J|+|K| <= 3*count for theta/3 and for 1/4 at
theta = 3/4 (theta cancels), and theta*count <= |J|+|K|.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import DomainError

THETA_DEFAULT = Fraction(3, 4)

IndexSet = Union[tuple[int, ...], Iterable[int]]


def _elements(J) -> tuple[int, ...]:
    els = tuple(getattr(J, "elements", J))
    if any(int(e) != e or e < 1 for e in els):
        raise DomainError(f"index set {els} must contain positive integers")
    if any(els[i] >= els[i + 1] for i in range(len(els) - 1)):
        raise DomainError(f"index set {els} is not strictly increasing")
    return els


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


def v_of(J: IndexSet, theta: Fraction = THETA_DEFAULT) -> StaircaseVector:
    els = _elements(J)
    if not els:
        return StaircaseVector(coords=())
    theta = Fraction(theta)
    coords = tuple(
        theta * (len(els) - bisect_left(els, i)) for i in range(1, els[-1] + 1)
    )
    return StaircaseVector(coords=coords)


def sup_norm(v: StaircaseVector) -> Fraction:
    return max((abs(c) for c in v.coords), default=Fraction(0))


def _max_count_diff(J: tuple[int, ...], K: tuple[int, ...]) -> int:
    # Coordinate i of v_J - v_K is theta * (count_J(i) - count_K(i)) with
    # count(i) = |{n : n >= i}|; both counts are constant between
    # consecutive elements, so the extremes sit at element values.
    best = 0
    for i in sorted(set(J) | set(K)):
        cj = len(J) - bisect_left(J, i)
        ck = len(K) - bisect_left(K, i)
        if abs(cj - ck) > best:
            best = abs(cj - ck)
    return best


def diff_norm(J: IndexSet, K: IndexSet) -> Fraction:
    """Exact sup norm of v_J - v_K at THETA_DEFAULT by the counting route
    (no vectors built)."""
    return THETA_DEFAULT * _max_count_diff(_elements(J), _elements(K))


def enumerate_index_sets(index_bound: int, size_bound: int) -> list[tuple[int, ...]]:
    """All increasing subsets of {1..index_bound} with at most size_bound
    elements, by size then lexicographically; deterministic."""
    out: list[tuple[int, ...]] = []
    for k in range(0, size_bound + 1):
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


def _norm_sweep(vectors, sets, lower):
    """lower*|J| <= ||v_J|| <= |J| over the nonempty sets: the
    counterexamples and the tightest ratio ||v_J|| / |J|."""
    bad: list[dict] = []
    tight = None
    for v, J in zip(vectors, sets):
        if not J:
            continue
        norm = sup_norm(v)
        if not lower * len(J) <= norm <= len(J):
            bad.append({"check": "norm", "J": list(J), "norm": str(norm)})
        ratio = norm / len(J)
        if tight is None or ratio < tight:
            tight = ratio
    return bad, tight


def _pair_sweep(sets, theta: Fraction):
    """The pairs of a nonempty K and a J wholly below it, K then J in
    enumeration order, under the integer bounds of the module docstring:
    the pair count, the failing (J, K, count), the least 3*count/(|J|+|K|)."""
    below: dict[int, list[tuple[int, ...]]] = {}
    pairs = 0
    failed = []
    tight = None
    for K in sets:
        if not K:
            continue
        if K[0] not in below:
            below[K[0]] = [J for J in sets if not J or J[-1] < K[0]]
        for J in below[K[0]]:
            pairs += 1
            count = _max_count_diff(J, K)
            size = len(J) + len(K)
            if not (size <= 3 * count
                    and theta.numerator * count <= theta.denominator * size):
                failed.append((J, K, count))
            if tight is None or 3 * count * tight[1] < tight[0] * size:
                tight = (3 * count, size)
    return pairs, failed, None if tight is None else Fraction(*tight)


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


def verify_staircase_bounds(
    theta: Fraction = THETA_DEFAULT, index_bound: int = 12, size_bound: int = 6
) -> dict:
    """Injectivity of J -> v_J, the per-set bounds theta*k <= ||v_J|| <= k,
    and for every ordered pair with max J < min J' the two-sided bound
    (theta/3)*(|J|+|J'|) <= ||v_J - v_J'|| <= |J|+|J'|.  Exact arithmetic;
    reports the tightest ratios observed."""
    theta = exact_theta(theta)
    _require_bounds(index_bound, size_bound)
    sets = enumerate_index_sets(index_bound, size_bound)
    vectors = [v_of(J, theta) for J in sets]
    bad: list[dict] = []

    seen: dict[tuple, tuple] = {}
    for v, J in zip(vectors, sets):
        key = v.coords
        if key in seen:
            bad.append({"check": "injective", "J": list(seen[key]), "K": list(J)})
        seen[key] = J

    norm_bad, tight_norm = _norm_sweep(vectors, sets, theta)
    bad += norm_bad
    pairs, failed, tight_pair = _pair_sweep(sets, theta)
    for J, K, count in failed:
        size = len(J) + len(K)
        bad.append(
            {"check": "pair", "J": list(J), "K": list(K),
             "norm": str(theta * count), "lower": str(theta / 3 * size),
             "upper": str(size)}
        )
    return {
        "theta": str(theta),
        "sets": len(sets),
        "pairs": pairs,
        "tightest_norm_ratio": str(tight_norm),
        "tightest_pair_ratio": str(tight_pair),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_quarter_bounds(index_bound: int = 12, size_bound: int = 6) -> dict:
    """The same enumeration against the fixed constant 1/4 at theta = 3/4:
    (1/4)|J| <= ||v_J|| <= |J| for each set, and for max J < min J' the
    bound (1/4)(|J|+|J'|) <= ||v_J - v_J'|| <= |J|+|J'|."""
    theta = Fraction(3, 4)
    _require_bounds(index_bound, size_bound)
    sets = enumerate_index_sets(index_bound, size_bound)
    bad, _ = _norm_sweep([v_of(J, theta) for J in sets], sets, Fraction(1, 4))
    pairs, failed, tight = _pair_sweep(sets, theta)
    for J, K, count in failed:
        bad.append(
            {"check": "pair", "J": list(J), "K": list(K),
             "norm": str(theta * count),
             "lower": str(Fraction(len(J) + len(K), 4))}
        )
    return {
        "theta": str(theta),
        "sets": len(sets),
        "pairs": pairs,
        "tightest_pair_ratio": str(tight),
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_prefix_exactness(
    theta: Fraction = THETA_DEFAULT, index_bound: int = 12, size_bound: int = 6
) -> dict:
    """For prefix-comparable sets J below J' the norm of the difference is
    exactly theta times the level gap: the map J -> v_J distorts
    ancestor-to-descendant distances by the single factor theta.  Theta is
    nonzero, so it cancels and the check compares integer counts."""
    theta = exact_theta(theta)
    _require_bounds(index_bound, size_bound)
    sets = enumerate_index_sets(index_bound, size_bound)
    bad = []
    pairs = 0
    for K in sets:
        for p in range(len(K) + 1):
            J = K[:p]
            pairs += 1
            count = _max_count_diff(J, K)
            if count != len(K) - p:
                bad.append(
                    {"check": "prefix", "J": list(J), "K": list(K),
                     "norm": str(theta * count),
                     "expected": str(theta * (len(K) - p))}
                )
    return {
        "theta": str(theta),
        "pairs": pairs,
        "counterexamples": bad[:5],
        "violations": len(bad),
        "pass": not bad,
    }


def verify_james(
    theta: Fraction = THETA_DEFAULT, index_bound: int = 12, size_bound: int = 6
) -> dict:
    """The four staircase checks of the james suite, and whether all pass."""
    out = {
        "staircase_bounds": verify_staircase_bounds(theta, index_bound, size_bound),
        "quarter_bounds": verify_quarter_bounds(index_bound, size_bound),
        "prefix_exactness": verify_prefix_exactness(theta, index_bound, size_bound),
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

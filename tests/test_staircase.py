from fractions import Fraction
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from laakso_lab.errors import DomainError
from laakso_lab.tree_space import TreeNode
from laakso_lab import staircase
from laakso_lab.staircase import (
    count_matrix,
    diff_norm,
    enumerate_index_sets,
    exponent_for_radius,
    sibling_separation_report,
    step_vector,
    sup_norm,
    v_of,
    verify_biorthogonality,
    verify_james,
    verify_prefix_exactness,
    verify_quarter_bounds,
    verify_staircase_bounds,
)

THETA = Fraction(3, 4)


def index_sets(max_val=10, max_len=5):
    return st.lists(
        st.integers(min_value=1, max_value=max_val), max_size=max_len,
        unique=True,
    ).map(lambda xs: tuple(sorted(xs)))


class TestVectors:
    def test_empty_set(self):
        assert sup_norm(v_of([], THETA)) == 0

    def test_singleton(self):
        # v_{2} = theta * (e_1 + e_2): count of elements >= i is 1 for i <= 2
        v = v_of([2], THETA)
        assert v.coordinate(1) == THETA
        assert v.coordinate(2) == THETA
        assert v.coordinate(3) == 0
        assert sup_norm(v) == THETA

    def test_norm_examples(self):
        assert sup_norm(v_of([1, 2], THETA)) == Fraction(3, 2)
        assert sup_norm(v_of([1, 2, 3], THETA)) == Fraction(9, 4)
        assert sup_norm(v_of([5], THETA)) == THETA

    def test_norm_is_theta_times_size(self):
        for J in enumerate_index_sets(8, 4):
            assert sup_norm(v_of(J, THETA)) == THETA * len(J)

    def test_diff_example_is_tight(self):
        # adjacent blocks meeting the lower constant: J = {1,2}, J' = {3}
        assert diff_norm([1, 2], [3]) == THETA
        # and the lower bound (1/4)(|J|+|J'|) = 3/4 is met with equality
        assert THETA == Fraction(1, 4) * (2 + 1)

    def test_accepts_tree_nodes(self):
        assert diff_norm(TreeNode((1, 2)), TreeNode((3,))) == THETA

    def test_diff_matches_vector_route(self):
        # counting route against literal coordinatewise subtraction
        for J in enumerate_index_sets(6, 3):
            for K in enumerate_index_sets(6, 3):
                vj, vk = v_of(J, THETA), v_of(K, THETA)
                width = max(len(vj.coords), len(vk.coords))
                direct = max(
                    (
                        abs(vj.coordinate(i) - vk.coordinate(i))
                        for i in range(1, width + 1)
                    ),
                    default=Fraction(0),
                )
                assert diff_norm(J, K) == direct

    def test_step_vector(self):
        u = step_vector(3, THETA)
        assert u.coordinate(2) == THETA
        assert u.coordinate(3) == THETA
        assert u.coordinate(4) == 0

    def test_rejects_bad_sets(self):
        with pytest.raises(DomainError):
            v_of([0, 1], THETA)
        with pytest.raises(DomainError):
            v_of([2, 2], THETA)

    @given(index_sets(), index_sets())
    def test_diff_norm_symmetric(self, J, K):
        assert diff_norm(J, K) == diff_norm(K, J)

    @given(index_sets(), index_sets(), index_sets())
    def test_diff_norm_triangle(self, J, K, L):
        assert diff_norm(J, L) <= diff_norm(J, K) + diff_norm(K, L)


class TestEnumeration:
    def test_count(self):
        # sum_{k<=6} C(12, k)
        sets = enumerate_index_sets(12, 6)
        assert len(sets) == sum(
            len(list(combinations(range(12), k))) for k in range(7)
        )
        assert len(sets) == 2510

    def test_deterministic_order(self):
        assert enumerate_index_sets(3, 2) == [
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        ]


class TestVerifiers:
    def test_staircase_bounds_pass(self):
        rep = verify_staircase_bounds(count_matrix(12, 6), THETA)
        assert rep["pass"], rep
        assert rep["sets"] == 2510
        assert rep["counterexamples"] == []

    def test_quarter_bounds_pass(self):
        rep = verify_quarter_bounds(count_matrix(12, 6))
        assert rep["pass"], rep

    def test_prefix_exactness(self):
        rep = verify_prefix_exactness(count_matrix(12, 6), THETA)
        assert rep["pass"], rep

    def test_biorthogonality(self):
        rep = verify_biorthogonality()
        assert rep["pass"], rep

    def test_other_theta_still_passes_theta_bounds(self):
        rep = verify_staircase_bounds(count_matrix(8, 4), Fraction(1, 2))
        assert rep["pass"], rep

    def test_biorthogonality_counts_its_checks(self):
        assert verify_biorthogonality(THETA, 3)["checked"] == 9

    @pytest.mark.parametrize("index_bound,size_bound", [(-3, 2), (0, 0), (3, -1)])
    def test_rejects_empty_bounds(self, index_bound, size_bound):
        for run in (
            lambda: count_matrix(index_bound, size_bound),
            lambda: verify_james(THETA, index_bound, size_bound),
        ):
            with pytest.raises(DomainError):
                run()
        if index_bound < 1:
            with pytest.raises(DomainError):
                verify_biorthogonality(THETA, index_bound)

    @pytest.mark.parametrize("theta", ["1/0", float("nan")])
    def test_rejects_theta_that_is_not_a_rational(self, theta):
        with pytest.raises(DomainError, match="is not a finite rational"):
            verify_james(theta, 4, 2)

    def test_james_runs_the_four_checks(self):
        rep = verify_james(Fraction(1, 2), 6, 3)
        m = count_matrix(6, 3)
        assert rep == {
            "staircase_bounds": verify_staircase_bounds(m, Fraction(1, 2)),
            "quarter_bounds": verify_quarter_bounds(m),
            "prefix_exactness": verify_prefix_exactness(m, Fraction(1, 2)),
            "biorthogonality": verify_biorthogonality(Fraction(1, 2), 6),
            "pass": True,
        }


    def test_james_builds_one_count_matrix(self, monkeypatch):
        calls = {"count_matrix": 0, "enumerate_index_sets": 0}
        for name in calls:
            real = getattr(staircase, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(staircase, name, counted)
        assert verify_james(THETA, 6, 3)["pass"]
        assert calls == {"count_matrix": 1, "enumerate_index_sets": 1}

    def test_james_computes_the_pair_counts_once(self, monkeypatch):
        # Both pair checks read the counts of one sweep; only their
        # verdict tables differ, and each report keeps its own pairs.
        sweeps = []
        real = staircase.CountMatrix.pair_counts.func

        def counted(m):
            sweeps.append(m)
            return real(m)

        spy = cached_property(counted)
        spy.__set_name__(staircase.CountMatrix, "pair_counts")
        monkeypatch.setattr(staircase.CountMatrix, "pair_counts", spy)
        rep = verify_james(THETA, 12, 6)
        assert len(sweeps) == 1
        assert rep["staircase_bounds"]["pairs"] == 20_618
        assert rep["quarter_bounds"]["pairs"] == 20_618
        checks = ("staircase_bounds", "quarter_bounds", "prefix_exactness")
        assert sum(rep[k]["pairs"] for k in checks) == 56_034

    def test_size_bound_past_index_bound_adds_no_sets(self):
        assert enumerate_index_sets(4, 10**12) == enumerate_index_sets(4, 4)
        assert verify_james(THETA, 4, 10**12)["staircase_bounds"] == \
            verify_james(THETA, 4, 4)["staircase_bounds"]


class TestCountMatrix:
    def test_rows_are_the_vectors_over_theta(self):
        m = count_matrix(7, 4)
        assert m.sets == enumerate_index_sets(7, 4)
        assert m.counts.shape == (len(m.sets), 7)
        for J, row, size in zip(m.sets, m.counts.tolist(), m.sizes.tolist()):
            coords = v_of(J, THETA).coords
            assert row == [c / THETA for c in coords] + [0] * (7 - len(coords))
            assert size == len(J)

    def test_arrays_are_read_only(self):
        m = count_matrix(3, 2)
        with pytest.raises(ValueError):
            m.counts[0, 0] = 1
        with pytest.raises(ValueError):
            m.sizes[0] = 1
        for a in m.pair_counts:
            with pytest.raises(ValueError):
                a[0] = 1


class TestExponentForRadius:
    def test_powers_of_three(self):
        assert exponent_for_radius(1) == 2
        assert exponent_for_radius(3) == 3
        assert exponent_for_radius(9) == 4

    def test_rejects_non_powers(self):
        with pytest.raises(DomainError):
            exponent_for_radius(2)
        with pytest.raises(DomainError):
            exponent_for_radius(0)


class TestSiblingSeparation:
    def test_unit_radius_pair_passes(self):
        # tines diverging at the root of a branching-2 tree, radius 1
        rep = sibling_separation_report(
            [TreeNode((1, 2)), TreeNode((1, 3))], exponent_for_radius(1)
        )
        assert rep["pass"], rep
        assert rep["common_prefix"] == [1]
        assert rep["required_cardinality"] == 1

    def test_radius_three_adjacent_tines_violate_precondition(self):
        # adjacent fraternal choices give overlapping tail ranges, so the
        # disjointness precondition fails and is reported, not raised
        a = TreeNode((1, 2, 3, 4, 5, 6))
        b = TreeNode((1, 2, 3, 5, 6, 7))
        rep = sibling_separation_report([a, b], exponent_for_radius(3))
        assert not rep["pass"]
        assert not rep["precondition_ok"]

    def test_radius_three_extreme_tines_pass(self):
        # first and last fraternal choice below a branching-4 center
        a = TreeNode((1, 2, 3, 4, 5, 6))
        b = TreeNode((1, 2, 3, 7, 8, 9))
        rep = sibling_separation_report([a, b], exponent_for_radius(3))
        assert rep["pass"], rep
        assert rep["tails"] == [[4, 5, 6], [7, 8, 9]]
        assert rep["required_cardinality"] == 3
        # the guaranteed norm (1/4)(3+3) = 3/2 is exactly half 3**1 * theta*...
        assert diff_norm(a, b) >= Fraction(3, 2)

    def test_single_node_vacuous(self):
        rep = sibling_separation_report([TreeNode((1, 2))], 2)
        assert rep["pass"]

    def test_rejects_tiny_exponent(self):
        with pytest.raises(DomainError):
            sibling_separation_report([TreeNode((1,))], 1)


@settings(max_examples=60, deadline=None)
@given(index_sets(max_val=9, max_len=4), index_sets(max_val=9, max_len=4))
def test_separated_blocks_meet_lower_bound(J, K):
    # whenever J's range ends before K's begins (empty sets included), the
    # quarter lower bound applies; the verifiers sweep this exhaustively
    if not J or not K or max(J) < min(K):
        lower = Fraction(1, 4) * (len(J) + len(K))
        assert diff_norm(J, K) >= lower

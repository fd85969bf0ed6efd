"""The shared pair sweep of the staircase bound verifiers and the integer
prefix-exactness check against the per-pair Fraction loops in
`loop_reference`, exactly, including under injected faults, and the
`verify james` reports against committed golden files."""

from fractions import Fraction
from pathlib import Path

import pytest

import loop_reference as ref
from laakso_lab import cli
from laakso_lab import staircase as st
from laakso_lab.errors import DomainError

DATA = Path(__file__).parent / "data"

POINTS = [
    (Fraction(3, 4), 12, 6),
    (Fraction(1, 2), 8, 4),
    (Fraction(2, 3), 10, 5),
    (Fraction(3, 4), 1, 0),
]

REAL_COUNT = st._max_count_diff
REAL_V_OF = st.v_of


def count_too_small(J, K):
    last = K[-1] if K else 0
    return REAL_COUNT(J, K) - (1 if (last + len(J)) % 3 == 0 else 0)


def count_too_large(J, K):
    return REAL_COUNT(J, K) + 2 * (len(J) + len(K))


def first_element_only(J, theta=st.THETA_DEFAULT):
    return REAL_V_OF(tuple(J)[:1], theta)


def assert_matches_reference(theta, index_bound, size_bound):
    got = st.verify_staircase_bounds(theta, index_bound, size_bound)
    assert got == ref.verify_staircase_bounds(theta, index_bound, size_bound)
    quarter = st.verify_quarter_bounds(index_bound, size_bound)
    assert quarter == ref.verify_quarter_bounds(index_bound, size_bound)
    prefix = st.verify_prefix_exactness(theta, index_bound, size_bound)
    assert prefix == ref.verify_prefix_exactness(theta, index_bound, size_bound)
    return got, quarter, prefix


@pytest.mark.parametrize("theta,index_bound,size_bound", POINTS)
def test_bound_reports_match_reference(theta, index_bound, size_bound):
    assert_matches_reference(theta, index_bound, size_bound)


@pytest.mark.parametrize("theta", [Fraction(3, 4), Fraction(2, 3)])
@pytest.mark.parametrize(
    "name,fault",
    [("_max_count_diff", count_too_small),
     ("_max_count_diff", count_too_large),
     ("v_of", first_element_only)],
)
def test_counterexamples_match_reference(monkeypatch, theta, name, fault):
    monkeypatch.setattr(st, name, fault)
    got, quarter, prefix = assert_matches_reference(theta, 8, 4)
    assert got["violations"] > 5 and quarter["violations"] > 5
    if name == "_max_count_diff":
        assert prefix["violations"] > 5


def test_theta_domain_matches_reference():
    for theta in (Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            st.verify_staircase_bounds(theta, 4, 2)
        with pytest.raises(DomainError):
            ref.verify_staircase_bounds(theta, 4, 2)


@pytest.mark.parametrize(
    "theta", [Fraction(0), Fraction(-1), Fraction(1), Fraction(3, 2)]
)
def test_prefix_exactness_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(DomainError, match="theta must lie in"):
        st.verify_prefix_exactness(theta, 4, 2)


@pytest.mark.parametrize(
    "name,argv",
    [("default", []),
     ("theta_1_2_indices_8_maxsize_4",
      ["--theta", "1/2", "--indices", "8", "--maxsize", "4"])],
)
def test_verify_james_report_is_golden(tmp_path, name, argv):
    out = tmp_path / "james.json"
    assert cli.main(["verify", "james", *argv, "--out", str(out)]) == 0
    golden = DATA / f"verify_james_{name}.json"
    assert out.read_bytes() == golden.read_bytes()

"""The count-matrix sweeps of the staircase bound verifiers and of the
prefix-exactness check against the per-pair Fraction loops in
`loop_reference`, exactly, including under injected faults and split
chunks, and the `verify james` reports against committed golden files."""

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

REAL_COUNTS = st._counts


# Faults in the per-set count that v_of, _max_count_diff and the count
# matrix all read, so both routes see them.  Each keeps the count 0 past
# the last element and >= 1 at it, and depends on i only through the true
# count, so the element-value and all-column maxima still agree and the
# vectors stay without trailing zeros.
def last_element_only(J, points):
    return REAL_COUNTS(J[-1:], points)


def counts_doubled(J, points):
    return [2 * c for c in REAL_COUNTS(J, points)]


def counts_lowered(J, points):
    return [c - 1 if c > 1 and (c + len(J)) % 3 == 0 else c
            for c in REAL_COUNTS(J, points)]


def assert_matches_reference(theta, index_bound, size_bound):
    m = st.count_matrix(index_bound, size_bound)
    got = st.verify_staircase_bounds(m, theta)
    assert got == ref.verify_staircase_bounds(theta, index_bound, size_bound)
    quarter = st.verify_quarter_bounds(m)
    assert quarter == ref.verify_quarter_bounds(index_bound, size_bound)
    prefix = st.verify_prefix_exactness(m, theta)
    assert prefix == ref.verify_prefix_exactness(theta, index_bound, size_bound)
    return got, quarter, prefix


@pytest.mark.parametrize("theta,index_bound,size_bound", POINTS)
def test_bound_reports_match_reference(theta, index_bound, size_bound):
    assert_matches_reference(theta, index_bound, size_bound)


@pytest.mark.parametrize("theta", [Fraction(3, 4), Fraction(2, 3)])
@pytest.mark.parametrize(
    "fault", [last_element_only, counts_doubled, counts_lowered])
def test_counterexamples_match_reference(monkeypatch, theta, fault):
    monkeypatch.setattr(st, "_counts", fault)
    got, quarter, prefix = assert_matches_reference(theta, 8, 4)
    assert got["violations"] > 5 and quarter["violations"] > 5
    assert prefix["violations"] > 5


@pytest.mark.parametrize(
    "fault", [last_element_only, counts_doubled, counts_lowered])
@pytest.mark.parametrize("index_bound,size_bound", [(3, 3), (4, 3), (5, 5)])
def test_counterexample_order_matches_reference(monkeypatch, fault,
                                                index_bound, size_bound):
    # Few sets, so the first five counterexamples reach the repeated rows
    # and the sets with more than one failing prefix.
    monkeypatch.setattr(st, "_counts", fault)
    assert_matches_reference(Fraction(2, 3), index_bound, size_bound)


def counts_negated(J, points):
    return [-c for c in REAL_COUNTS(J, points)]


def test_negated_counts_change_no_norm(monkeypatch):
    # The sup norm takes absolute values, so v_J -> -v_J passes every check.
    monkeypatch.setattr(st, "_counts", counts_negated)
    reports = assert_matches_reference(Fraction(2, 3), 8, 4)
    assert all(rep["pass"] for rep in reports)


@pytest.mark.parametrize(
    "fault", [REAL_COUNTS, last_element_only, counts_doubled, counts_lowered])
@pytest.mark.parametrize("cells", [1, 200, st._CHUNK_CELLS])
def test_pair_sweep_matches_reference(monkeypatch, cells, fault):
    # At (8, 4) the K with K[0] = 2 are 42 rows against 2 J rows of 8
    # cells, so 200 cells split them into chunks of 12, and 1 cell into
    # one K per chunk.  The sweep returns every failing pair in order.
    monkeypatch.setattr(st, "_counts", fault)
    monkeypatch.setattr(st, "_CHUNK_CELLS", cells)
    theta = Fraction(2, 3)
    sets = st.enumerate_index_sets(8, 4)
    got = st._pair_sweep(st.count_matrix(8, 4), theta)
    assert got == ref.pair_sweep(sets, theta)
    assert_matches_reference(theta, 8, 4)


def test_huge_theta_stays_exact():
    theta = Fraction(2**70 - 1, 2**70)
    m = st.count_matrix(6, 3)
    got = st.verify_staircase_bounds(m, theta)
    assert got == ref.verify_staircase_bounds(theta, 6, 3)
    prefix = st.verify_prefix_exactness(m, theta)
    assert prefix == ref.verify_prefix_exactness(theta, 6, 3)
    assert got["pass"] and prefix["pass"]


def test_theta_domain_matches_reference():
    for theta in (Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            st.verify_staircase_bounds(st.count_matrix(4, 2), theta)
        with pytest.raises(DomainError):
            ref.verify_staircase_bounds(theta, 4, 2)


@pytest.mark.parametrize(
    "theta", [Fraction(0), Fraction(-1), Fraction(1), Fraction(3, 2)]
)
def test_prefix_exactness_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(DomainError, match="theta must lie in"):
        st.verify_prefix_exactness(st.count_matrix(4, 2), theta)


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

import io
import json
from contextlib import redirect_stdout

import pytest

from laakso_lab import cli
from laakso_lab import quotient_analysis as qa
from laakso_lab.quotient_analysis import path_space


@pytest.fixture(scope="session")
def verify_all_runs() -> list[tuple[int, bytes]]:
    """Two `verify all --seed 0` runs, made once for the whole session:
    the exit code and the stdout bytes of each."""
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["verify", "all", "--seed", "0"])
        runs.append((code, buf.getvalue().encode()))
    return runs


def check_verify_all_runs(runs: list[tuple[int, bytes]]) -> None:
    """The determinism contract of `verify all --seed 0`: both runs exit 0
    with the same bytes, a passing report over all six suites and no
    timings."""
    (code1, first), (code2, second) = runs
    assert code1 == code2 == 0
    assert first == second
    rep = json.loads(first)
    assert rep["pass"]
    assert set(rep["suites"]) == {
        "graphs", "projection", "atd", "fork", "james", "moduli",
    }
    assert "timings_seconds" not in rep


@pytest.fixture
def floor_by_3() -> qa.MetricMapTable:
    """Ten-point path collapsed onto a four-point path by i -> i // 3.
    Lipschitz 1, co-Lipschitz only at scale 3."""
    return qa.MetricMapTable(path_space(10), path_space(4),
                             [i // 3 for i in range(10)])


@pytest.fixture
def identity_path() -> qa.MetricMapTable:
    return qa.MetricMapTable(path_space(10), path_space(10), list(range(10)))


@pytest.fixture
def collapse_pair() -> qa.MetricMapTable:
    two = qa.FiniteMetricSpace([[0, 1], [1, 0]], order=[(0, 1)])
    one = qa.FiniteMetricSpace([[0]], order=[])
    return qa.MetricMapTable(two, one, [0, 0])

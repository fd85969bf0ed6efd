import pytest

from laakso_lab import quotient_analysis as qa
from laakso_lab.quotient_analysis import path_space


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

import io
import json
from contextlib import redirect_stdout

import numpy as np
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


# json.dump's default layout and its compact one, which the map-table
# reader decodes with numpy, and indent=2, which it leaves to json.
LAYOUTS = {"default": {}, "compact": {"separators": (",", ":")},
           "indent": {"indent": 2}}


def _attempt(read, text):
    """What ``read(text)`` returns, or the exception it raises."""
    try:
        return read(text)
    except Exception as exc:  # every failure is compared, type and message
        return exc


def _value_difference(got, want, path: str):
    """None when ``got``, a value the map-table reader decoded, is what
    `json.loads` read as ``want``: the same value, or the same exception,
    or for a numpy-decoded `dist` the array `_integer_table` gives for
    ``want``; else the first difference, naming its path and cell."""
    if isinstance(got, Exception) or isinstance(want, Exception):
        if type(got) is type(want) and str(got) == str(want):
            return None
        return f"{path} gives {got!r}, json gives {want!r}"
    if isinstance(got, np.ndarray):
        expected = qa._integer_table(want)
        if expected is None or expected.shape != got.shape:
            return f"{path} is a {got.shape} array, json gives {want!r:.80}"
        if expected.dtype != got.dtype:
            return f"{path} is {got.dtype}, json's list is {expected.dtype}"
        cells = np.argwhere(got != expected)
        if len(cells):
            i, j = cells[0]
            return (f"{path}[{i}][{j}] is {got[i, j]}, "
                    f"json gives {expected[i, j]}")
        return None
    if isinstance(got, dict) and isinstance(want, dict):
        if list(got) != list(want):
            return f"{path} has keys {list(got)}, json gives {list(want)}"
        for key in got:
            problem = _value_difference(got[key], want[key], f"{path}[{key!r}]")
            if problem:
                return problem
        return None
    return None if repr(got) == repr(want) else (
        f"{path} is {got!r:.80}, json gives {want!r:.80}")


def _space_difference(got: qa.FiniteMetricSpace, want: qa.FiniteMetricSpace,
                      side: str):
    a, b = got._given, want._given
    if a.dtype != b.dtype:
        return f"{side} table is {a.dtype}, expected {b.dtype}"
    # An object table is compared by the repr of its entries, so that an
    # int and a float of one value still differ.
    if a.dtype == object and repr(a.tolist()) != repr(b.tolist()):
        return (f"{side} table is {a.tolist()!r:.80}, "
                f"expected {b.tolist()!r:.80}")
    if a.dtype != object and not np.array_equal(a, b):
        i, j = np.argwhere(a != b)[0]
        return f"{side} table ({i},{j}) is {a[i, j]}, expected {b[i, j]}"
    if (got.order is None) != (want.order is None) or (
            got.order is not None
            and not np.array_equal(got.order, want.order)):
        return f"{side} order differs"
    return None


def first_difference(text: str):
    """None when `MetricMapTable.from_json(text)` reads ``text`` as
    `from_dict(json.loads(text))` does; else the first difference.  The
    decoded documents are compared first, value by value and cell by cell,
    so a wrong decoded entry is named by its key path and (i, j); then
    the tables: each side's stored table, with its type and dtype, its
    order and the assignment, or the exception, type and message."""
    problem = _value_difference(
        _attempt(lambda s: json.loads(s, cls=qa._TableDecoder), text),
        _attempt(json.loads, text), "document")
    if problem:
        return problem
    got = _attempt(qa.MetricMapTable.from_json, text)
    want = _attempt(lambda s: qa.MetricMapTable.from_dict(json.loads(s)),
                    text)
    if isinstance(got, Exception) or isinstance(want, Exception):
        return _value_difference(got, want, "table")
    for side in ("source", "target"):
        problem = _space_difference(getattr(got, side), getattr(want, side),
                                    side)
        if problem:
            return problem
    if got.assign != want.assign:
        return f"assign is {got.assign!r:.80}, expected {want.assign!r:.80}"
    return None

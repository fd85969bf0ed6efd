"""`MetricMapTable.from_json` reads a stored map table as
`from_dict(json.loads(text))` does, table for table and error for error.

Documents are small map tables with `dist` entries drawn from integers of
one to twenty digits, negatives, floats, bools, strings and nulls, in
square, ragged, empty and rectangular tables, written in `json.dump`'s
default and compact layouts and with `indent=2`, with `dist` keys where
`from_dict` never reads them (at the top level, duplicated, in an extra
object, as the tail of a key with an escaped quote, inside a string), with
stray whitespace, and with one character replaced, deleted or inserted.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laakso_lab import quotient_analysis as qa

from conftest import LAYOUTS, first_difference

ENTRIES = [0, 1, 9, 10, 99, 100, 12345, 10**18, 10**19, -1, 1.5, True, "1",
           None]
# Characters a mutation writes: JSON's structural and numeric characters,
# whitespace, an escape, and a letter.
MUTANTS = '0159,: []{}"-.e\\\nx'


@st.composite
def tables(draw):
    kind = draw(st.sampled_from(["path", "square", "ragged", "empty"]))
    if kind == "path":
        k = draw(st.integers(1, 4))
        scale = draw(st.sampled_from([1, 9, 10, 99, 12345, 10**17, 10**18]))
        return [[abs(i - j) * scale for j in range(k)] for i in range(k)]
    if kind == "square":
        k = draw(st.integers(1, 3))
        return [draw(st.lists(st.sampled_from(ENTRIES), min_size=k,
                              max_size=k)) for _ in range(k)]
    if kind == "ragged":
        return draw(st.lists(st.lists(st.sampled_from(ENTRIES), max_size=3),
                             max_size=3))
    return []


@st.composite
def documents(draw) -> str:
    source, target = draw(tables()), draw(tables())
    doc = {"source": {"n": len(source), "dist": source},
           "target": {"dist": target}}
    doc["assign"] = [draw(st.integers(0, max(len(target), 1) - 1))
                     for _ in source]
    if draw(st.booleans()):
        doc["source_order"] = [[i, i + 1] for i in range(len(source) - 1)]
    if draw(st.booleans()):
        doc["target_order"] = [[0, j] for j in range(1, len(target))]
    extras = draw(st.sets(st.sampled_from(
        ["top", "extra object", "escaped quote", "string", "duplicate"])))
    if "top" in extras:
        doc["dist"] = draw(tables())
    if "extra object" in extras:
        doc["source"]["extra"] = {"dist": draw(tables())}
    if "escaped quote" in extras:
        doc["target"]['a"dist'] = draw(tables())
    if "string" in extras:
        doc["target"]["note"] = '"dist": [[0, 1], [1, 0]]'
    if "duplicate" in extras:
        doc["source"]["duplicate"] = draw(tables())
    text = json.dumps(doc, **LAYOUTS[draw(st.sampled_from(list(LAYOUTS)))])
    # The later of two equal keys wins: here the duplicate, placed last.
    text = text.replace('"duplicate"', '"dist"')
    if draw(st.booleans()):
        at = draw(places(len(text) + 1))
        text = text[:at] + draw(st.sampled_from([" ", "\n", "\t\r"])) + \
            text[at:]
    return text


def places(k: int):
    """An index below k, spread over the text: Hypothesis leans its integer
    draws towards the ends of their range, so the index is drawn through a
    seeded `random.Random`."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: random.Random(seed).randrange(k))


@st.composite
def mutated(draw, text: str) -> str:
    at = draw(places(len(text)))
    char = draw(st.sampled_from(MUTANTS))
    edit = draw(st.sampled_from(["replace", "delete", "insert"]))
    if edit == "replace":
        return text[:at] + char + text[at + 1:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    return text[:at] + char + text[at:]


@settings(max_examples=250, derandomize=True, deadline=None)
@given(st.data())
def test_reader_equals_json_loads(data):
    text = data.draw(documents())
    assert first_difference(text) is None, text
    text = data.draw(mutated(text))
    assert first_difference(text) is None, text


@pytest.mark.parametrize("text,route", [
    ('{"dist": [[0, 1], [1, 0]]}', np.ndarray),
    ('{"dist":[[0,1],[1,0]]}', np.ndarray),
    ('{"dist" :\n [[0, 1], [1, 0]]}', np.ndarray),
    ('{"dist": [[7]]}', np.ndarray),
    ('{"dist": [[0, 1, 2]]}', np.ndarray),
    ('{"dist": [[0, 999999999999999999]]}', np.ndarray),
    ('{"dist": [[0, 1000000000000000000]]}', list),
    ('{"dist": [[0,1], [1,0]]}', list),
    ('{"dist": [[0, 1],\n [1, 0]]}', list),
    ('{"dist": [ [0, 1], [1, 0]]}', list),
    ('{"dist": [[0, 01], [1, 0]]}', ValueError),
    # The brackets and separators are all there and so are four numbers,
    # but one sits outside its row.
    ('{"dist": [[0, 1], 5[, 3]]}', ValueError),
    ('{"dist": [[0, 1]5, [, 3]]}', ValueError),
    ('{"dist": [[0, -1], [1, 0]]}', list),
    ('{"dist": [[0, 1.0], [1, 0]]}', list),
    ('{"dist": [[0, 1], [1]]}', list),
    ('{"dist": [[], []]}', list),
    ('{"dist": [[1, [2]], [3, 4]]}', list),
    ('{"dist": []}', list),
    ('{"a\\"dist": [[0, 1], [1, 0]]}', list),
    ('{"dist": [[0, ١], [1, 0]]}', ValueError),
])
def test_dist_route(text, route):
    """Which route reads a `dist`: numpy for json.dump's layouts of
    non-negative integers of at most 18 digits, `json` for the rest, and
    the same error as `json` for text that is not JSON."""
    assert first_difference(text) is None
    try:
        doc = json.loads(text, cls=qa._TableDecoder)
    except ValueError:
        assert route is ValueError
        return
    assert type(next(iter(doc.values()))) is route


def test_blocks_join_into_the_table(monkeypatch):
    """A table decoded a few rows at a time equals the table in one block,
    and its dtype is the smallest for the whole table, not for a block."""
    rows = [[abs(i - j) * (1 + 100 * (i == 37 or j == 37)) for j in range(50)]
            for i in range(50)]
    text = json.dumps({"dist": rows})
    monkeypatch.setattr(qa, "DIST_BLOCK_CHARS", 300)
    calls = []
    real = qa._dist_rows
    monkeypatch.setattr(qa, "_dist_rows",
                        lambda *args: calls.append(1) or real(*args))
    table = json.loads(text, cls=qa._TableDecoder)["dist"]
    assert len(calls) > 10
    assert table.dtype == np.int16
    assert np.array_equal(table, np.array(rows))

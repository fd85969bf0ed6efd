import json
import math
import random
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from laakso_lab.errors import DomainError
from laakso_lab.laakso_graph import build_laakso
from laakso_lab.tree_space import TreeSpace
from laakso_lab import tree_to_laakso as tl
from laakso_lab.tree_to_laakso import TreeToGraphMap, as_map_table
from laakso_lab import quotient_analysis as qa
from laakso_lab.quotient_analysis import (
    FiniteMetricSpace,
    MetricMapTable,
    atd_violation,
    beta_bound_from_fork,
    c_atd_infinity,
    coarse_profile,
    cross_validate_atd,
    fork_search,
    json_ready,
    lipschitz_constant,
    quotient_moduli,
)

import loop_reference as ref
from conftest import path_space


def phi_table(n: int, b: int) -> MetricMapTable:
    pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b))
    return MetricMapTable.from_dict(as_map_table(pm))


def order_pairs(space: FiniteMetricSpace) -> list:
    """The pairs of the space's order as `to_dict` writes them."""
    m = MetricMapTable(space, space, range(space.n))
    return m.to_dict()["source_order"]


ORDER_REJECTIONS = [
    ([(0, 1), (2, 3)], r"order pair \(2,3\) out of range"),
    ([(0, 1), (-1, 2)], r"order pair \(-1,2\) out of range"),
    ([(0, 10**30)], r"order pair \(0,10{30}\) out of range"),
    ([(0, 1), (2, 2)], "order is not irreflexive at 2"),
    ([(1, 2), (2, 1)], r"order is not antisymmetric on \(1,2\)"),
    ([(1, 2), (0, 1)], r"order is not transitive: \(0,1\),\(1,2\)"),
]


class TestFiniteMetricSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 1]])  # not square
        with pytest.raises(ValueError):
            FiniteMetricSpace([[1]])  # nonzero diagonal
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 1], [2, 0]])  # asymmetric
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 0], [0, 0]])  # zero off-diagonal
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]])  # triangle

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_distance(self, bad):
        with pytest.raises(ValueError, match="non-finite distance"):
            FiniteMetricSpace([[0, bad], [bad, 0]])

    def test_array_is_read_only_copy(self):
        space = path_space(3)
        assert space._table is space._given
        assert space._table.tolist() == space.rows()
        with pytest.raises(ValueError):
            space._table[0, 1] = 5

    def test_order_validation(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 1], [1, 0]], order=[(0, 0)])  # reflexive
        with pytest.raises(ValueError):
            FiniteMetricSpace([[0, 1], [1, 0]], order=[(0, 1), (1, 0)])
        d3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises(ValueError):
            # 0 < 1 and 1 < 2 but the closure pair is missing
            FiniteMetricSpace(d3, order=[(0, 1), (1, 2)])
        ok = FiniteMetricSpace(d3, order=[(0, 1), (1, 2), (0, 2)])
        assert ok.order[0, 2] and not ok.order[2, 0]

    @pytest.mark.parametrize("order,message", ORDER_REJECTIONS)
    def test_each_order_rejection_names_its_first_failure(self, order,
                                                          message):
        d3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(d3, order=order)

    def test_transitivity_is_checked_past_the_first_chunk(self):
        # The star 0 -> 2..n-1 is transitive; (n-1, 1) breaks it, and the
        # pair (0, n-1) that it completes lies in a later chunk.
        n = 1100
        assert n - 3 >= qa.CHUNK_CELLS // n
        dist = np.ones((n, n)) - np.eye(n)
        star = [(0, j) for j in range(2, n)]
        space = FiniteMetricSpace(dist, order=star)
        assert order_pairs(space) == [list(p) for p in star]
        with pytest.raises(ValueError, match=r"not transitive: "
                                             rf"\(0,{n - 1}\),\({n - 1},1\)"):
            FiniteMetricSpace(dist, order=star + [(n - 1, 1)])

    def test_star_as_an_array_fails_at_the_same_pair(self):
        n = 1100
        dist = np.ones((n, n)) - np.eye(n)
        star = [(0, j) for j in range(2, n)] + [(n - 1, 1)]
        with pytest.raises(ValueError) as given:
            FiniteMetricSpace(dist, order=star)
        with pytest.raises(ValueError) as as_array:
            FiniteMetricSpace(dist, order=np.array(star, dtype=np.int64))
        assert str(as_array.value) == str(given.value)
        assert str(given.value) == (f"order is not transitive: "
                                    f"(0,{n - 1}),({n - 1},1)")

    def test_order_keeps_python_int_pairs_once(self):
        space = FiniteMetricSpace([[0, 1], [1, 0]],
                                  order=[[0, 1], (0, 1), np.array([0, 1])])
        assert order_pairs(space) == [[0, 1]]
        assert {type(i) for pair in order_pairs(space) for i in pair} == {int}

    def test_order_is_a_read_only_relation_matrix(self):
        space = FiniteMetricSpace([[0, 1], [1, 0]], order=[(0, 1)])
        assert space.order.dtype == bool
        assert space.order.tolist() == [[False, True], [False, False]]
        with pytest.raises(ValueError):
            space.order[1, 0] = True

    def test_large_space_sampled_triangle_check(self):
        k = 300  # past the exhaustive limit; still validates by sampling
        space = path_space(k)
        assert space.n == k

    def test_sampled_triangle_check_catches_a_dense_fault(self):
        # 300 points at distance 1, except the pairs with i + j = 0 mod 10
        # at distance 3: every such pair breaks the triangle inequality via
        # any k at distance 1 from both, which is well over 1 % of triples.
        k = 300
        i, j = np.indices((k, k))
        dist = np.where((i + j) % 10 == 0, 3, 1)
        np.fill_diagonal(dist, 0)
        assert k > qa.TRIANGLE_EXHAUSTIVE_LIMIT
        broken = sum(np.count_nonzero(dist > dist[:, [m]] + dist[[m], :])
                     for m in range(k))
        assert broken >= 0.01 * k**3
        # The first failing triple in sample order, found one by one: the
        # draw's 32-bit little-endian words, reduced mod k, in thirds.
        samples = qa.TRIANGLE_SAMPLES
        draw = random.Random(0).randbytes(12 * samples)
        words = [int.from_bytes(draw[4 * w:4 * w + 4], "little") % k
                 for w in range(3 * samples)]
        a, b, c = words[:samples], words[samples:-samples], words[-samples:]
        s = next(s for s in range(samples)
                 if dist[a[s], b[s]] > dist[a[s], c[s]] + dist[c[s], b[s]])
        message = rf"fails via {c[s]} for pair \({a[s]},{b[s]}\)"
        for table in (dist, dist.tolist()):
            with pytest.raises(ValueError, match=message):
                FiniteMetricSpace(table)


def order_message(order, n=3):
    """The message with which a path space on n points refuses ``order``,
    or None if it accepts it."""
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    try:
        FiniteMetricSpace(dist, order=order)
    except ValueError as err:
        return str(err)
    return None


# The orders of the rejection and validation tests that int64 holds, and
# three it accepts.
REJECTED_ORDERS = [order for order, _ in ORDER_REJECTIONS
                   if order != [(0, 10**30)]] + [
    [(0, 0)], [(0, 1), (1, 0)], [(0, 1), (1, 2)],
]
ACCEPTED_ORDERS = [[(0, 1), (1, 2), (0, 2)], [], [(2, 0), (1, 0), (2, 1)]]


class TestArrayOrders:
    """An (m, 2) array of a signed integer dtype skips the per-pair type
    scan; every other check, and every message, is that of its pairs."""

    @pytest.mark.parametrize("order", REJECTED_ORDERS)
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8])
    def test_same_message_as_the_pairs(self, order, dtype):
        given = np.array(order, dtype=dtype)
        assert order_message(order) is not None
        assert order_message(given) == order_message(order)

    @pytest.mark.parametrize("order", ACCEPTED_ORDERS)
    def test_same_relation_as_the_pairs(self, order):
        d3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        want = FiniteMetricSpace(d3, order=order).order
        given = np.array(order, dtype=np.int64).reshape(-1, 2)
        got = FiniteMetricSpace(d3, order=given)
        assert np.array_equal(got.order, want)

    def test_signed_arrays_skip_the_pair_scan(self, monkeypatch):
        def scanned(given):
            raise AssertionError("the pairs were scanned one by one")

        monkeypatch.setattr(qa, "_pair_array", scanned)
        d3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        order = np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int32)
        assert FiniteMetricSpace(d3, order=order).order[0, 2]
        tl.map_table(TreeToGraphMap(TreeSpace(2, 3), build_laakso(1, 2)))

    @pytest.mark.parametrize("given,message", [
        (np.array([[0, 1], [1, 2]], dtype=np.uint8),
         "order is not transitive: (0,1),(1,2)"),
        (np.array([[0, 3]], dtype=np.uint32), "order pair (0,3) out of range"),
        (np.array([[0, 1], [0, 2**63]], dtype=np.uint64),
         "order pair (0,9223372036854775808) out of range"),
        (np.array([[0, 1], [0, 2**64 - 1]], dtype=np.uint64),
         "order pair (0,18446744073709551615) out of range"),
        (np.array([[0., 1.]]),
         "order pair [np.float64(0.0), np.float64(1.0)] holds "
         "np.float64(0.0), not an integer index"),
        (np.array([[True, False]]),
         "order pair [np.True_, np.False_] holds np.True_, not an integer "
         "index"),
    ], ids=["uint8", "uint32", "uint64-2**63", "uint64-max", "float", "bool"])
    def test_other_dtypes_take_the_pair_path(self, given, message):
        assert order_message(given) == message

    def test_map_table_orders_equal_the_ancestor_pair_lists(self):
        pm = TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))
        m = tl.map_table(pm)
        for space, levels in ((m.source, pm.tree.levels),
                              (m.target, pm.graph.levels)):
            pairs = tl.ancestor_pairs(space.rows(), levels)
            assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
            want = FiniteMetricSpace(space.rows(), order=pairs).order
            assert np.array_equal(space.order, want)
            assert np.argwhere(space.order).tolist() == pairs.tolist()
        assert m.source.order.sum() == 8_194


BAD_TABLES = [
    ([[0, 1]], "not square"),
    ([0, 1], "not square"),
    ([[0, math.nan], [math.nan, 0]], "non-finite distance nan at"),
    ([[1]], "nonzero diagonal"),
    ([[0, 1], [2, 0]], "not symmetric"),
    ([[0, 0], [0, 0]], "non-positive distance"),
    ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], "non-positive distance between "
                                        "distinct points"),
    ([[0, 1, 2], [1, 0, -1], [2, -1, 0]], "non-positive distance between "
                                          "distinct points"),
    ([[0, -0.5], [-0.5, 0]], "non-positive distance between distinct points"),
    ([[0, -1, 2], [-1, 1, 1], [2, 1, 0]], "nonzero diagonal"),
    ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "triangle inequality fails via 1"),
]

# Tables whose entries are not numbers, and whose numpy array holds the
# same entries: a <U1 array and a bool array.
NOT_NUMBER_TABLES = [
    ([["0", "1"], ["1", "0"]], "distance '0' at (0,0) is not a number"),
    ([[False, True], [True, False]],
     "distance False at (0,0) is not a number"),
]


class TestFiniteMetricSpaceFromArray:
    @pytest.mark.parametrize("table,message",
                             BAD_TABLES + NOT_NUMBER_TABLES)
    def test_rejects_what_a_list_rejects(self, table, message):
        for given in (table, np.array(table), np.array(table, dtype=object)):
            with pytest.raises(ValueError, match=re.escape(message)):
                FiniteMetricSpace(given)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2), (0, 3)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="not square"):
            FiniteMetricSpace(np.zeros(shape))

    def test_int_array_gives_python_ints(self):
        dist = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int32)
        order = np.array([[0, 1], [1, 2], [0, 2]])
        space = FiniteMetricSpace(dist, order=order)
        assert space.rows() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        assert {type(d) for row in space.rows() for d in row} == {int}
        assert order_pairs(space) == [[0, 1], [0, 2], [1, 2]]
        assert {type(i) for pair in order_pairs(space) for i in pair} == {int}
        assert space._table is space._given
        assert space._table.dtype == np.int32
        assert space.to_dict() == FiniteMetricSpace(dist.tolist()).to_dict()

    def test_array_is_copied(self):
        dist = np.array([[0, 1], [1, 0]])
        space = FiniteMetricSpace(dist)
        dist[0, 1] = 7
        assert space.rows() == [[0, 1], [1, 0]]
        assert space._table[0, 1] == 1
        assert not np.shares_memory(space._table, dist)
        assert dist.flags.writeable

    def test_empty_and_one_point(self):
        assert FiniteMetricSpace(np.zeros((0, 0), dtype=int)).n == 0
        assert FiniteMetricSpace(np.zeros((1, 1), dtype=int)).rows() == [[0]]

    @pytest.mark.parametrize("given", [
        [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]],
        np.array([[0, 3, 4], [3, 0, 5], [4, 5, 0]], dtype=np.int64),
        np.array([[0, 0.5, 1], [0.5, 0, 0.75], [1, 0.75, 0]]),
    ], ids=["list", "int-array", "float-array"])
    def test_rows_equal_the_eager_form(self, given):
        is_array = isinstance(given, np.ndarray)
        eager = [list(row) for row in (given.tolist() if is_array else given)]
        space = FiniteMetricSpace(given)
        assert space.rows() == eager
        assert [list(map(type, row)) for row in space.rows()] == [
            list(map(type, row)) for row in eager]
        assert space.rows() is not space.rows()  # one tolist(), not kept
        assert [[space.entry(i, j) for j in range(3)]
                for i in range(3)] == eager
        assert space.to_dict() == {"n": 3, "dist": eager}


# Three points whose triangle inequality fails by 1 near 2**60.
NEAR_2_60 = [[0, 2**60, 2**61 + 1], [2**60, 0, 2**60],
             [2**61 + 1, 2**60, 0]]

INTEGER_BAD_TABLES = [(table, message) for table, message in BAD_TABLES
                      if np.array(table).dtype.kind == "i"]


class TestExactIntegerTables:
    """An integer table is validated on its own integers, exactly: an
    integer array, and nested lists that numpy reads as signed integers,
    which are kept in the smallest signed dtype that holds them.  Float
    tables and every other list (floats, mixed ints and floats, ints past
    int64), kept as an object array of real numbers, are validated on
    float64, and their triangle inequality with a tolerance of 1e-12."""

    @pytest.mark.parametrize("table", [
        np.array([[0, 2**53], [2**53 + 1, 0]]),
        np.array([[0, 2**64 - 1], [2**64 - 2, 0]], dtype=np.uint64),
        [[0, 2**53], [2**53 + 1, 0]],
    ], ids=["int64", "uint64", "list"])
    def test_asymmetry_that_float64_rounds_away_is_refused(self, table):
        as_float = np.array(table, dtype=float)
        assert np.array_equal(as_float, as_float.T)
        with pytest.raises(ValueError, match="not symmetric"):
            FiniteMetricSpace(table)

    @pytest.mark.parametrize("table", [
        np.array(NEAR_2_60, dtype=np.int64),
        np.array(NEAR_2_60, dtype=np.uint64),
        NEAR_2_60,
    ], ids=["int64", "uint64", "list"])
    def test_triangle_violation_that_float64_rounds_away_is_refused(
            self, table):
        # d(0,2) exceeds d(0,1) + d(1,2) by 1, which float64 rounds away.
        as_float = np.array(table, dtype=float)
        assert as_float[0, 2] == as_float[0, 1] + as_float[1, 2]
        assert len(NEAR_2_60) <= qa.TRIANGLE_EXHAUSTIVE_LIMIT
        with pytest.raises(ValueError,
                           match=r"fails via 1 for pair \(0,2\)"):
            FiniteMetricSpace(table)
        FiniteMetricSpace(as_float)  # the float table passes

    def test_float_tables_keep_the_tolerance(self):
        slack = [[0, 1, 2 + 1e-13], [1, 0, 1], [2 + 1e-13, 1, 0]]
        for table in (slack, np.array(slack)):
            assert FiniteMetricSpace(table).n == 3
        over = [[0, 1, 2 + 1e-9], [1, 0, 1], [2 + 1e-9, 1, 0]]
        with pytest.raises(ValueError, match="triangle inequality fails"):
            FiniteMetricSpace(over)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int8])
    def test_unsigned_tables_do_not_wrap(self, dtype):
        # A path metric truncated at 100: d(i,k) > d(i,j) on many triples,
        # where an unsigned d(i,j) - d(i,k) would wrap to a huge value.
        for k in (10, 300):
            path = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
            table = np.minimum(path, 100).astype(dtype)
            assert FiniteMetricSpace(table).n == k

    @pytest.mark.parametrize("top,dtype", [
        (1, np.int8), (127, np.int8), (128, np.int16), (2**15, np.int32),
        (2**31, np.int64), (2**63 - 1, np.int64),
    ])
    def test_integer_lists_take_the_smallest_signed_dtype(self, top, dtype):
        space = FiniteMetricSpace([[0, top], [top, 0]])
        assert space._given.dtype == dtype
        assert space.entry(0, 1) == top and type(space.entry(0, 1)) is int
        assert space.rows() == [[0, top], [top, 0]]
        assert {type(d) for row in space.rows() for d in row} == {int}
        assert space._table is space._given
        assert space._table.tolist() == [[0, top], [top, 0]]

    def test_bools_among_ints_read_as_ints(self):
        # numpy reads True among ints as 1, so rows() shows 1 where the
        # list held True.
        space = FiniteMetricSpace([[0, True], [1, 0]])
        assert space._given.dtype == np.int8
        assert space.rows() == [[0, 1], [1, 0]]
        assert {type(d) for row in space.rows() for d in row} == {int}

    @pytest.mark.parametrize("table", [
        [[0, 1.5], [1.5, 0]],
        [[0, 1], [1.0, 0]],
        [[0, 2**63], [2**63, 0]],
        [[0, 2**64], [2**64, 0]],
    ], ids=["floats", "mixed", "past-int64", "past-uint64"])
    def test_other_lists_keep_the_list_path(self, table):
        space = FiniteMetricSpace(table)
        assert space._given.dtype == object
        assert not space._given.flags.writeable
        assert space.rows() == table
        assert [list(map(type, row)) for row in space.rows()] == [
            list(map(type, row)) for row in table]
        assert space.entry(0, 1) is space.rows()[0][1]

    @pytest.mark.parametrize("table,message", [
        ([[False, True], [True, False]], "distance False at (0,0)"),
        ([["0", "1"], ["1", "0"]], "distance '0' at (0,0)"),
        ([[0, "1"], [1, 0]], "distance '1' at (0,1)"),
        ([[0, 1.5], [True, 0]], "distance True at (1,0)"),
        ([[0.0, np.bool_(True)], [1, 0]], "distance np.True_ at (0,1)"),
        ([[0, 1, 2], [1, 0, 1], [2, 1, np.str_("0")]],
         "distance np.str_('0') at (2,2)"),
    ], ids=["bools", "strings", "string-among-ints", "bool-among-floats",
            "numpy-bool", "numpy-string"])
    def test_strings_and_bools_off_the_integer_path_are_refused(
            self, table, message):
        # Through np.asarray(..., dtype=float), "1" would read as 1.0 and
        # True as 1.0; the number rule names the first such entry instead.
        with pytest.raises(ValueError) as err:
            FiniteMetricSpace(table)
        assert str(err.value) == f"{message} is not a number"

    @pytest.mark.parametrize("value", [
        "1", np.str_("1"), True, np.bool_(True), None, [1], {}, Decimal(1),
        1j, np.complex128(1),
    ], ids=["string", "numpy-string", "bool", "numpy-bool", "none", "list",
            "dict", "decimal", "complex", "numpy-complex"])
    def test_entries_that_are_not_real_numbers_are_refused(self, value):
        # The same rule for every container: a list, a tuple, and an
        # object array holding the entry as given.
        rows = [[0.0, value], [value, 0.0]]
        boxed = np.empty((2, 2), dtype=object)
        for i, j in np.ndindex(2, 2):
            boxed[i, j] = rows[i][j]
        for given in (rows, tuple(map(tuple, rows)), boxed):
            with pytest.raises(ValueError) as err:
                FiniteMetricSpace(given)
            assert str(err.value) == (f"distance {value!r} at (0,1) "
                                      f"is not a number")

    @pytest.mark.parametrize("value", [
        Fraction(1, 2), np.float32(0.5), np.int8(1), 2**70,
    ], ids=["fraction", "float32", "int8", "past-int64"])
    def test_real_numbers_of_any_type_are_kept_as_given(self, value):
        space = FiniteMetricSpace([[0.0, value], [value, 0.0]])
        assert space.entry(0, 1) is space.rows()[0][1] is value
        assert space.entry(0, 1) == value
        assert space._table.dtype == np.float64
        assert space._table[0, 1] == float(value)

    @pytest.mark.parametrize("value", [
        10**400, -10**400, Fraction(10**400, 3),
    ], ids=["int", "negative-int", "fraction"])
    def test_entries_past_the_float_range_are_refused(self, value):
        # The first such entry is named in any container, past the float
        # entries before it.
        rows = [[0, 1.5, 2], [1.5, 0, value], [2, value, 0]]
        boxed = np.empty((3, 3), dtype=object)
        for i, j in np.ndindex(3, 3):
            boxed[i, j] = rows[i][j]
        for given in (rows, tuple(map(tuple, rows)), boxed):
            with pytest.raises(ValueError) as err:
                FiniteMetricSpace(given)
            assert str(err.value) == (f"distance {value!r} at (1,2) "
                                      f"is outside the float range")

    def test_json_entry_past_the_float_range_is_refused(self):
        d = path_space(3)
        doc = {"source": d.to_dict(), "target": d.to_dict(),
               "assign": [0, 1, 2]}
        doc["target"]["dist"][0][1] = 10**400
        with pytest.raises(ValueError,
                           match=rf"distance {10**400} at \(0,1\) is "
                                 rf"outside the float range"):
            MetricMapTable.from_json(json.dumps(doc))

    def test_stored_entry_keeps_the_stored_type(self):
        space = FiniteMetricSpace([[0, 1, 2.0], [1, 0, 1.0], [2.0, 1.0, 0]])
        assert type(qa._stored_entry(space, 1.0)) is int
        assert type(qa._stored_entry(space, 2.0)) is float

    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1], 1]],
                             ids=["ragged", "int-row"])
    def test_ragged_lists_are_not_square(self, table):
        with pytest.raises(ValueError, match="not square"):
            FiniteMetricSpace(table)

    @pytest.mark.parametrize("table,message", INTEGER_BAD_TABLES)
    def test_integer_arrays_give_the_list_message(self, table, message):
        dtypes = [np.int8, np.int32, np.int64]
        if np.min(table) >= 0:
            dtypes.append(np.uint64)
        for dtype in dtypes:
            with pytest.raises(ValueError, match=message):
                FiniteMetricSpace(np.array(table, dtype=dtype))

    @pytest.mark.parametrize("table,message", BAD_TABLES)
    def test_float_arrays_give_the_list_message(self, table, message):
        with pytest.raises(ValueError, match=message):
            FiniteMetricSpace(np.array(table, dtype=float))

    @pytest.mark.parametrize("n,b", [(1, 2), (1, 3), (2, 2)])
    def test_map_table_tree_matrix(self, n, b):
        pm = TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b))
        m = tl.map_table(pm)
        assert m.source._given.dtype == pm.tree.distance_dtype
        assert m.target._given.dtype == np.int32
        size = len(pm.tree.levels)
        i, j = np.indices((size, size))
        want = pm.tree.rank_distance(i, j).tolist()
        assert m.source.rows() == want
        assert {type(d) for row in m.source.rows() for d in row} == {int}
        assert m.source._table is m.source._given
        assert m.source._table.tolist() == want


def _odd_rows(row):
    """Rows that change what numpy reads a table of int rows as, each
    with the int ``row`` it replaces."""
    return {
        "bool-only": [bool(d % 2) for d in row],
        "float": [float(d) for d in row],
        "ragged": row[:-1],
        "wider": row + [7],
        "wide-int": [d + 2**40 for d in row],
        "past-int64": [d + 2**63 for d in row],
        "past-uint64": [d + 2**64 for d in row],
        "numpy-uint8": [np.uint8(d + 200) for d in row],
        "string": [str(d) for d in row],
    }


# Six rows of the path metric, read two rows a block at 12 cells.
SIX = [[abs(i - j) for j in range(6)] for i in range(6)]
ODD_KINDS = list(_odd_rows(SIX[0]))


def _traced_peak(run) -> float:
    """The peak, in MiB, of the memory that `run()` holds past what was
    held when it started, by `tracemalloc`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def phi_document():
    """The phi map table T(2,9) -> G(2,2) as `json.dump` writes it."""
    return json.dumps(as_map_table(TreeToGraphMap(TreeSpace(2, 9),
                                                  build_laakso(2, 2))))


class TestIntegerTableBlocks:
    """`_integer_table` reads a list a block of rows at a time and gives
    the array, dtype and None that numpy's read of the whole list gives
    (`loop_reference.integer_table`)."""

    @staticmethod
    def assert_same(table):
        got, want = qa._integer_table(table), ref.integer_table(table)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("kind", ODD_KINDS)
    @pytest.mark.parametrize("at", [2, 3, 5], ids=lambda at: f"row{at}")
    @pytest.mark.parametrize("cells", [6, 12], ids=["row-blocks",
                                                    "two-row-blocks"])
    def test_odd_row_in_a_later_block(self, monkeypatch, kind, at, cells):
        # At 12 cells the blocks are rows 0-1, 2-3 and 4-5: row 2 opens a
        # later block, row 3 closes one, and row 5 closes the table.  At 6
        # cells each row is a block of its own.
        monkeypatch.setattr(qa, "CHUNK_CELLS", cells)
        table = [list(row) for row in SIX]
        table[at] = _odd_rows(table[at])[kind]
        self.assert_same(table)
        self.assert_same(tuple(table))

    @pytest.mark.parametrize("kind", ODD_KINDS)
    def test_a_table_of_odd_rows(self, monkeypatch, kind):
        monkeypatch.setattr(qa, "CHUNK_CELLS", 12)
        self.assert_same([_odd_rows(row)[kind] for row in SIX])

    @pytest.mark.parametrize("cells", [1, 6, 12, 18, 36, 1 << 18])
    def test_each_block_is_narrowed_on_its_own(self, monkeypatch, cells):
        # The widest block sets the dtype, wherever it lies.
        monkeypatch.setattr(qa, "CHUNK_CELLS", cells)
        for top, dtype in [(100, np.int8), (300, np.int16),
                           (2**20, np.int32), (2**40, np.int64)]:
            for at in range(6):
                table = [list(row) for row in SIX]
                table[at] = [top] * 6
                assert self.assert_same(table).dtype == dtype

    @pytest.mark.parametrize("table", [
        [], [[]], [[], []], [[True, False], [False, True]], [[0]], [1, 2],
        [[[0]]], "01",
    ], ids=["empty", "empty-row", "empty-rows", "bools", "one", "flat",
            "three-d", "string"])
    def test_tables_that_are_not_int_rows(self, table):
        self.assert_same(table)

    def test_phi_table_crosses_blocks(self, phi_document):
        dist = json.loads(phi_document)["source"]["dist"]
        assert qa.CHUNK_CELLS // len(dist) < len(dist)
        assert self.assert_same(dist).dtype == np.int8
        # One int64 block (2 MiB) at a time beside the int8 table (1 MiB);
        # the whole list read as int64 would take 8 MiB.
        assert _traced_peak(lambda: qa._integer_table(dist)) < 3.5


class TestIntegerTablesStayNarrow:
    """An integer table keeps only its integer array, and the checks and
    the profile route read it; only an object table has a float64 copy."""

    def test_from_dict_and_coarse_profile_hold_little_memory(
            self, phi_document):
        # 1023 points: the int8 table is 1 MiB, its float64 copy 8 MiB.
        doc = json.loads(phi_document)
        peak = _traced_peak(lambda: coarse_profile(
            MetricMapTable.from_dict(doc), range(1, 9)))
        assert peak < 12

    def test_from_json_and_fork_search_hold_little_memory(self,
                                                          phi_document):
        peak = _traced_peak(lambda: fork_search(
            MetricMapTable.from_json(phi_document), 0, 1))
        assert peak < 8

    @pytest.mark.parametrize("run", [
        lambda m: coarse_profile(m, range(1, 9)),
        lambda m: qa.restricted_profile(m, range(1, 9)),
        lambda m: cross_validate_atd(m, [0.5, 1, 2], range(1, 9)),
        lambda m: fork_search(m, 0, 1),
        lambda m: [quotient_moduli(m, r) for r in range(1, 9)],
        lipschitz_constant,
    ], ids=["coarse_profile", "restricted_profile", "cross_validate_atd",
            "fork_search", "quotient_moduli", "lipschitz_constant"])
    @pytest.mark.parametrize("read", ["from_json", "map_table"])
    def test_analysis_builds_no_float_copy(self, phi_document, run, read):
        if read == "from_json":
            m = MetricMapTable.from_json(phi_document)
        else:
            m = tl.map_table(TreeToGraphMap(TreeSpace(2, 3),
                                            build_laakso(1, 2)))
        run(m)
        for space in (m.source, m.target):
            assert space._given.dtype.kind == "i"
            # One table held after the analysis: no float64
            # copy and no Python copy.
            assert set(vars(space)) == {"_given", "n", "_table", "order"}
            assert space._table is space._given
            assert not space._table.flags.writeable
            assert np.array_equal(space._table, np.array(space.rows()))

    @pytest.mark.parametrize("table", [
        [[0, 1.5], [1.5, 0]], np.array([[0, 0.5], [0.5, 0]]),
        [[0, Fraction(1, 2)], [Fraction(1, 2), 0]],
    ], ids=["float-list", "float-array", "fraction-list"])
    def test_other_tables_are_checked_on_their_float_copy(self, table):
        # A float64 array is copied once at ingest and that copy is the
        # table; a list of floats or Fractions is an object table with a
        # float64 copy beside it.
        space = FiniteMetricSpace(table)
        assert set(vars(space)) == {"_given", "n", "_table", "order"}
        assert (space._table is space._given) == isinstance(table,
                                                            np.ndarray)
        assert space._table.dtype == np.float64
        assert not space._table.flags.writeable
        assert space._table.tolist() == [[float(d) for d in row]
                                         for row in space.rows()]
        assert not np.shares_memory(space._table, table)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_float_arrays_are_held_once(self, dtype):
        # A float array that float64 holds exactly is kept as one float64
        # array, which the checks read and which gives its entries as
        # Python floats.
        table = np.array([[0, 0.5, 1.25], [0.5, 0, 1], [1.25, 1, 0]],
                         dtype=dtype)
        space = FiniteMetricSpace(table)
        assert space._table is space._given
        assert space._table.dtype == np.float64
        assert set(vars(space)) == {"_given", "n", "_table", "order"}
        assert space.rows() == table.tolist()
        assert type(space.entry(0, 2)) is float
        with pytest.raises(ValueError, match=r"non-finite distance inf"):
            FiniteMetricSpace(np.array([[0, np.inf], [np.inf, 0]],
                                       dtype=dtype))

    def test_cross_validation_reads_the_source_a_row_at_a_time(
            self, monkeypatch, phi_document):
        m = MetricMapTable.from_json(phi_document)
        read = []
        real = FiniteMetricSpace.rows

        def rows(self):
            read.append(self)
            return real(self)

        monkeypatch.setattr(FiniteMetricSpace, "rows", rows)
        rep = cross_validate_atd(m, [0.5, 1, 2], range(1, 9))
        assert rep["pass"]
        assert read == [m.target]
        monkeypatch.undo()
        assert list(qa.atd_pairs(m)) == ref.atd_pairs(m)
        assert len(qa.atd_pairs(m)) == 1407
        peak = _traced_peak(lambda: MetricMapTable(m.source, m.target,
                                                   m.assign)._atd_pairs)
        assert peak < 2  # the source's rows() alone would hold 8 MiB


NON_INDICES = [True, False, 1.0, 1.5, "1", None]


class TestIntegerIndices:
    """Indices that are not integers are refused, not rounded by int()."""

    def test_float_and_bool_assignment_is_refused(self):
        three, two = path_space(3), path_space(2)
        with pytest.raises(ValueError, match=r"assign\[0\] is 0\.9"):
            MetricMapTable(three, two, [0.9, True, 1.5])

    @pytest.mark.parametrize("bad", NON_INDICES)
    def test_assignment_entries(self, bad):
        three, two = path_space(3), path_space(2)
        with pytest.raises(ValueError, match=r"assign\[1\] is"):
            MetricMapTable(three, two, [0, bad, 1])

    def test_float_order_is_refused(self):
        with pytest.raises(ValueError, match=r"order pair \[0\.2, 1\.9\]"):
            FiniteMetricSpace([[0, 1], [1, 0]], order=[[0.2, 1.9]])

    @pytest.mark.parametrize("bad", NON_INDICES)
    def test_order_entries(self, bad):
        d3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        for pair in ([bad, 1], [0, bad]):
            with pytest.raises(ValueError, match="not an integer index"):
                FiniteMetricSpace(d3, order=[pair])

    def test_from_dict_refuses_them(self):
        d = {
            "source": {"n": 3, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            "target": {"n": 2, "dist": [[0, 1], [1, 0]]},
            "assign": [0.9, True, 1.5],
        }
        with pytest.raises(ValueError, match="not an integer index"):
            MetricMapTable.from_dict(d)
        d["assign"] = [0, 1, 1]
        d["source_order"] = [[0.2, 1.9]]
        with pytest.raises(ValueError, match="not an integer index"):
            MetricMapTable.from_dict(d)

    def test_numpy_integers_are_accepted(self):
        three, two = path_space(3), path_space(2)
        m = MetricMapTable(three, two, np.array([0, 1, 1], dtype=np.int64))
        assert m.assign == (0, 1, 1)
        assert {type(a) for a in m.assign} == {int}
        order = [(np.int32(0), np.int64(1))]
        space = FiniteMetricSpace([[0, 1], [1, 0]], order=order)
        assert order_pairs(space) == [[0, 1]]


class TestMetricMapTable:
    def test_assign_validation(self):
        two = path_space(2)
        with pytest.raises(ValueError):
            MetricMapTable(two, two, [0])  # not total
        with pytest.raises(ValueError):
            MetricMapTable(two, two, [0, 5])  # out of range

    def test_surjectivity_flag(self):
        three, two = path_space(3), path_space(2)
        assert MetricMapTable(three, two, [0, 0, 1]).surjective
        assert not MetricMapTable(three, two, [0, 0, 0]).surjective

    def test_preimages(self, floor_by_3):
        assert floor_by_3.preimages(0) == (0, 1, 2)
        assert floor_by_3.preimages(3) == (9,)

    def test_preimages_of_an_interleaved_assignment(self):
        # Targets taken out of order and in turns, with two left uncovered:
        # each preimage tuple lists its source points in increasing order,
        # an uncovered target has none, and the tuples partition the source.
        assign = [4, 1, 4, 0, 1, 4, 0, 6, 1, 4]
        m = MetricMapTable(path_space(10), path_space(7), assign)
        assert m.preimages(4) == (0, 2, 5, 9)
        assert m.preimages(1) == (1, 4, 8)
        assert m.preimages(0) == (3, 6)
        assert m.preimages(6) == (7,)
        assert m.preimages(2) == m.preimages(3) == m.preimages(5) == ()
        for t in range(7):
            assert m.preimages(t) == tuple(
                i for i, a in enumerate(assign) if a == t)
        assert not m.surjective

    def test_dict_round_trip(self, floor_by_3):
        d = floor_by_3.to_dict()
        assert d["schema"] == 1
        m = MetricMapTable.from_dict(d)
        assert m.assign == floor_by_3.assign
        assert m.to_dict()["source_order"] == d["source_order"]
        assert m.to_dict()["target_order"] == d["target_order"]

    def test_from_dict_without_orders(self):
        d = {
            "source": {"n": 2, "dist": [[0, 1], [1, 0]]},
            "target": {"n": 1, "dist": [[0]]},
            "assign": [0, 0],
        }
        m = MetricMapTable.from_dict(d)
        assert m.source.order is None
        with pytest.raises(DomainError):
            qa.atd_pairs(m)

    def test_atd_pairs_built_once(self, floor_by_3):
        pairs = qa.atd_pairs(floor_by_3)
        assert isinstance(pairs, tuple)
        assert qa.atd_pairs(floor_by_3) is pairs

    def test_pair_arrays_built_once(self, monkeypatch, floor_by_3,
                                    identity_path):
        # The pair half (Lipschitz, L over a grid, Omega at each radius)
        # reads one set of pair arrays per table.
        built = []
        real = MetricMapTable._pairs.func

        def counting(table):
            built.append(table)
            return real(table)

        cached = cached_property(counting)
        cached.__set_name__(MetricMapTable, "_pairs")
        monkeypatch.setattr(MetricMapTable, "_pairs", cached)
        grid = [1, 2, 3, 4, 5]
        for m in (floor_by_3, identity_path):
            lipschitz_constant(m)
            coarse_profile(m, grid)
            for r in grid:
                quotient_moduli(m, r)
            lipschitz_constant(m)
        assert built == [floor_by_3, identity_path]

    def test_pair_arrays_equal_the_triu_index_route(self, floor_by_3,
                                                    identity_path):
        mixed = MetricMapTable(
            FiniteMetricSpace([[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]),
            path_space(2), [0, 0, 1])
        phi = MetricMapTable.from_dict(json.loads(json.dumps(
            as_map_table(TreeToGraphMap(TreeSpace(2, 9), build_laakso(2, 2))))))
        for m in (floor_by_3, identity_path, mixed, phi):
            i, j = np.triu_indices(m.source.n, 1)
            a = np.array(m.assign)
            sdist = np.array(m.source.rows(), dtype=float)[i, j]
            tdist = np.array(m.target.rows(), dtype=float)[a[i], a[j]]
            want = (sdist, tdist, tdist / sdist)
            for got, expected in zip(m._pairs, want, strict=True):
                assert np.array_equal(got, expected)
            # The distances keep their table's own dtype; the ratio is
            # float64.
            assert [got.dtype for got in m._pairs] == [
                m.source._table.dtype, m.target._table.dtype, np.float64]
        assert [d.dtype for d in phi._pairs[:2]] == [np.int8, np.int8]
        assert [d.dtype for d in mixed._pairs[:2]] == [np.float64, np.int8]


class TestQuotientModuli:
    def test_floor_map_values(self, floor_by_3):
        omega2, _ = quotient_moduli(floor_by_3, 2)
        omega3, _ = quotient_moduli(floor_by_3, 3)
        _, Omega1 = quotient_moduli(floor_by_3, 1)
        assert omega2 == 0
        assert omega3 == 1
        assert Omega1 == 1

    def test_identity(self, identity_path):
        omega, Omega = quotient_moduli(identity_path, 1)
        assert omega == 1 and Omega == 1

    def test_reports_the_first_stored_entry_of_each_value(self):
        # Distance 2 is stored as the float at (0, 2) and the int at (2, 0).
        # Both moduli report the first entry of their value in row-major
        # order, though the one pair that moves 2 apart maps onto (2, 0).
        target = FiniteMetricSpace([[0, 1, 2.0], [1, 0, 1], [2, 1, 0]])
        m = MetricMapTable(path_space(3), target, [2, 1, 0])
        got = quotient_moduli(m, 2)
        assert [(v, type(v)) for v in got] == [(2.0, float), (2.0, float)]

    def test_needs_surjective(self):
        three, two = path_space(3), path_space(2)
        m = MetricMapTable(three, two, [0, 0, 0])
        with pytest.raises(DomainError):
            quotient_moduli(m, 1)

    def test_needs_a_non_empty_target(self):
        empty = FiniteMetricSpace([])
        m = MetricMapTable(empty, empty, [])
        assert m.surjective
        with pytest.raises(DomainError, match="non-empty target"):
            quotient_moduli(m, 1)

    def test_rejects_negative_radius(self, floor_by_3):
        with pytest.raises(DomainError, match="non-negative"):
            quotient_moduli(floor_by_3, -1.0)
        assert quotient_moduli(floor_by_3, 0) == (0, 0.0)


class TestCoarseProfile:
    def test_rejects_nan_delta(self, floor_by_3):
        with pytest.raises(DomainError, match="positive"):
            coarse_profile(floor_by_3, [1.0, math.nan])

    def test_phi_is_colipschitz_constant_one(self):
        m = phi_table(2, 2)
        assert lipschitz_constant(m) == 1.0
        prof = coarse_profile(m, [float(d) for d in range(1, 9)])
        assert set(prof.c_atd.values()) == {1.0}
        assert prof.c_atd_inf == 1.0

    def test_floor_map_third(self, floor_by_3):
        prof = coarse_profile(floor_by_3, [0.5, 1.0, 2.0])
        for v in prof.c_atd.values():
            assert v == pytest.approx(1 / 3)
        assert c_atd_infinity(floor_by_3) == pytest.approx(1 / 3)

    def test_non_decreasing_in_delta(self, floor_by_3):
        grid = [0.5, 1.0, 2.0, 3.0, 5.0]
        prof = coarse_profile(floor_by_3, grid)
        vals = [prof.c_atd[g] for g in grid]
        assert vals == sorted(vals)

    def test_rejects_bad_delta(self, floor_by_3):
        with pytest.raises(DomainError):
            coarse_profile(floor_by_3, [0.0])

    def test_profile_without_orders(self):
        d = {
            "source": {"n": 3, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            "target": {"n": 3, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            "assign": [0, 1, 2],
        }
        m = MetricMapTable.from_dict(d)
        prof = coarse_profile(m, [1.0])
        assert prof.c_atd is None
        assert prof.c[1.0] > 0  # plain co-Lipschitz still computed


class TestRestrictedProfile:
    @pytest.mark.parametrize("orders", [(False, False), (True, False),
                                        (False, True)])
    def test_needs_both_orders(self, floor_by_3, orders):
        spaces = [
            space if keep else FiniteMetricSpace(space.rows())
            for space, keep in zip((floor_by_3.source, floor_by_3.target),
                                   orders)
        ]
        m = MetricMapTable(*spaces, floor_by_3.assign)
        with pytest.raises(DomainError, match="needs both orders"):
            qa.restricted_profile(m, [1.0])

    def test_needs_surjectivity(self):
        m = MetricMapTable(path_space(3), path_space(2), [0, 0, 0])
        with pytest.raises(DomainError, match="needs surjectivity"):
            qa.restricted_profile(m, [1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_delta(self, floor_by_3, bad):
        with pytest.raises(DomainError, match="positive"):
            qa.restricted_profile(floor_by_3, [1.0, bad])


class TestAtdPredicate:
    def test_identity_has_no_violation(self, identity_path):
        assert atd_violation(identity_path, 1.0, 0.5) is None

    def test_violation_found_when_constant_too_large(self, floor_by_3):
        # the floor map only admits the restricted condition up to 1/3;
        # claiming 1/2 pulls the required radius below the true preimage gap
        case = atd_violation(floor_by_3, 0.5, 0.5)
        assert case is not None
        # while any constant below the profile value is honored
        assert atd_violation(floor_by_3, 0.1, 0.5) is None
        assert atd_violation(floor_by_3, 1 / 3, 0.5) is None

    def test_predicate_matches_optimized_constant(self, floor_by_3,
                                                  identity_path,
                                                  collapse_pair):
        c_grid = [0.05, 0.2, 1 / 3, 0.5, 0.9, 1.0, 1.3]
        d_grid = [0.5, 1.0, 1.5, 2.0, 3.0]
        for m in (floor_by_3, identity_path, phi_table(1, 2), collapse_pair):
            rep = cross_validate_atd(m, c_grid, d_grid)
            assert rep["pass"], rep


class TestAtdBoundary:
    """At c equal to the tabulated constant, the two routes must agree about
    the map, not about rounding: collapsing a path of 2k points onto two by
    i -> i // k has c_atd = 1/k, and a float D / (D/rho) may round below
    rho."""

    @staticmethod
    def collapse(k):
        return MetricMapTable(path_space(2 * k), path_space(2),
                              [i // k for i in range(2 * k)])

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_collapse_of_210_points(self, delta):
        m = self.collapse(105)
        c = coarse_profile(m, [delta]).c_atd[delta]
        assert c == 1 / 105
        assert cross_validate_atd(m, [c], [delta])["pass"]

    def test_collapses_at_and_beside_the_constant(self):
        for k in range(2, 61):
            m = self.collapse(k)
            prof = coarse_profile(m, [0.5, 1.0])
            for delta, c in prof.c_atd.items():
                grid = [math.nextafter(c, 0), c, math.nextafter(c, 1)]
                rep = cross_validate_atd(m, grid, [delta])
                assert rep["disagreements"] == [], (k, delta)

    def test_violation_scale_is_exactly_below_the_preimage(self):
        # c = 0.2 lies just above the exact constant 1/5 of i -> i // 5, so
        # the pair (source 0, target 1) violates with D = 1 and rho = 5.  The
        # float scale D / c rounds up to rho; the exact one stays below it.
        m = self.collapse(5)
        case = atd_violation(m, 0.2, 0.5)
        assert (case["image_gap"], case["nearest_preimage"]) == (1, 5)
        assert case["scale"] == 5.0
        exact = case["scale_exact"]
        assert isinstance(exact, Fraction)
        assert exact == 1 / Fraction(0.2) < case["nearest_preimage"]
        assert exact >= Fraction(0.5)
        # Just above every collapse constant 1/k the same holds, whatever the
        # float scale rounds to.
        for k in range(2, 61):
            case = atd_violation(self.collapse(k), math.nextafter(1 / k, 1),
                                 0.5)
            assert case["scale_exact"] < case["nearest_preimage"], k
            assert case["scale"] == float(case["scale_exact"]), k

    def test_cross_validation_needs_both_orders(self, identity_path):
        bare = MetricMapTable(FiniteMetricSpace(identity_path.source.rows()),
                              identity_path.target, identity_path.assign)
        with pytest.raises(DomainError, match="needs both orders"):
            cross_validate_atd(bare, [1.0], [0.5])


class TestForkSearch:
    def test_exact_witness_on_smallest_projection(self):
        m = phi_table(1, 2)
        w = fork_search(m, eps=0.0, r_min=1.0)
        assert w is not None
        assert w.r == 1
        assert w.mu2 == (2, 3) or list(w.mu2) == [2, 3]
        assert w.self_check(m) == []
        d = w.as_dict()
        assert d["sigma1"] == 1 and d["sigma2"] == [2, 5]

    def test_no_fork_on_identity(self, identity_path):
        # every point has a unique preimage: the spread bound cannot hold
        w = fork_search(identity_path, eps=0.0, r_min=1.0)
        assert w is None

    def test_tiny_spaces_give_none(self, collapse_pair):
        assert fork_search(collapse_pair, eps=0.0, r_min=1.0) is None

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -0.1])
    def test_rejects_bad_tolerance(self, collapse_pair, eps):
        # every bound compared against NaN is False, so any lift would pass
        with pytest.raises(DomainError, match="eps"):
            fork_search(phi_table(1, 2), eps=eps, r_min=1.0)
        with pytest.raises(DomainError, match="eps"):
            fork_search(collapse_pair, eps=eps, r_min=1.0)

    @pytest.mark.parametrize("max_arms", [1, 0, -1])
    def test_rejects_fewer_than_two_arms(self, max_arms):
        with pytest.raises(DomainError, match=f"max_arms must be >= 2, got {max_arms}"):
            fork_search(phi_table(1, 2), eps=0.0, r_min=1.0, max_arms=max_arms)

    def test_rejects_nan_radius(self):
        with pytest.raises(DomainError, match="r_min"):
            fork_search(phi_table(1, 2), eps=0.0, r_min=math.nan)


class TestBetaBound:
    def test_exact_values(self):
        assert beta_bound_from_fork(0) == 0
        assert beta_bound_from_fork(Fraction(1, 80)) == 1
        approx = beta_bound_from_fork(0.01)
        assert approx == pytest.approx(0.83 / 1.03)

    def test_exact_arithmetic_kept(self):
        v = beta_bound_from_fork(Fraction(1, 100))
        assert isinstance(v, Fraction)
        assert v == Fraction(83, 103)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            beta_bound_from_fork(-0.1)


class TestJsonReady:
    def test_scalars(self):
        out = json_ready(
            {"a": math.inf, "b": -math.inf, "c": math.nan,
             "d": Fraction(1, 3), "e": [1.5, {"f": Fraction(2)}]}
        )
        assert out["a"] == "inf" and out["b"] == "-inf" and out["c"] == "nan"
        assert out["d"] == "1/3"
        assert out["e"][1]["f"] == "2"
        json.dumps(out)  # must be serializable

    def test_witness_serializes(self):
        m = phi_table(1, 2)
        w = fork_search(m, eps=0.0, r_min=1.0)
        json.dumps(json_ready(w.as_dict()))

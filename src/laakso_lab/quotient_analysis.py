"""Analysis of maps between finite metric spaces given by distance tables:
Lipschitz and co-Lipschitz constants, ball-inclusion moduli, coarse
profiles, relation-restricted co-Lipschitz constants, and a deterministic
fork search with the bound arithmetic it feeds.

Everything here is table-driven and space-agnostic: nothing here imports
the tree or graph modules.  The built-in projections arrive as tables that
`tree_to_laakso.map_table` builds straight from their distance arrays;
stored tables arrive through `MetricMapTable.from_json`, which reads a
`dist` written as `json.dump` writes integers straight from the text into
an integer array, and otherwise equals `from_dict` over `json.loads`.
Two deliberately independent routes compute the relation-restricted
constant, and they share only the input table:

- the profile route (`lipschitz_constant`, `coarse_profile`,
  `restricted_profile`, `c_atd_infinity`, `quotient_moduli`) reads numpy
  arrays that each `MetricMapTable` builds once, on first use: the
  nearest-preimage matrix rho, the image-to-target distances D, and the
  source pairs i < j with their source and image distances.  They are
  read off the one table each space validates on, so an integer table is
  read as its integers and a float64 table as it is given.  Every
  constant is a masked minimum or maximum over them: the pair half
  (Lipschitz, L, Omega) over the pairs, the cell half (c, c_atd, omega)
  over rho and D.  `restricted_profile` is the restricted half of
  `coarse_profile`, which calls it; it reads rho and D only, so a caller
  that needs no more than c_atd builds no pair arrays;
- the predicate route (`atd_violation` over `atd_pairs`) is a pure-Python
  scan of the distance tables and the preimages.  `atd_pairs` is built once
  per table, reading the source one row at a time.

`cross_validate_atd` checks the two routes against each other on a grid.
Both decide the boundary D/rho = c exactly, so that they disagree only
about the map, never about rounding: the profile takes its restricted
minima as Fractions and reports their floats, and the predicate compares
a float quotient equal to c as a Fraction.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain
from math import inf
from numbers import Real
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError

TRIANGLE_EXHAUSTIVE_LIMIT = 256
TRIANGLE_SAMPLES = 20_000
# Cells in one array step of a chunked pass: relation cells compared in
# one transitivity step of an order check, or entries of a list table read
# in one block of rows.
CHUNK_CELLS = 1 << 18
# Characters of a stored `dist` decoded in one numpy step, a whole number
# of rows at a time: the step's temporaries stay small beside the table.
DIST_BLOCK_CHARS = 1 << 18
# A `dist` key and its colon, just before a value; a key whose opening
# quote might be escaped is left to `json`.
_DIST_KEY = re.compile(r'(?<!\\)"dist"[ \t\n\r]*:[ \t\n\r]*\Z')
_JSON_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def _is_index(value) -> bool:
    """Whether value can index a point: a Python or numpy integer, and not
    a bool, float, string or None."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _strict_order(order, n: int) -> np.ndarray:
    """The boolean relation matrix R of ``order``, read-only, once every
    pair is a two-element list of integer indices and the relation is a
    strict partial order on 0..n-1.  ``order`` is a sequence of pairs, or
    an (m, 2) array of a signed integer dtype, whose entries are integers
    by type; any other array is read as a sequence of its rows.  Past the
    pair shapes and entry types, each check is an array step over the
    pairs and R: range, irreflexivity, antisymmetry as "R[j, i] is false",
    and transitivity as "row j of R lies inside row i", on R's rows packed
    eight cells to a byte, a chunk of pairs at a time; only the first
    failing pair's row is unpacked, to name its third point.  A failure
    names the first offending pair in the given order."""
    if (isinstance(order, np.ndarray) and order.ndim == 2
            and order.shape[1] == 2
            and np.issubdtype(order.dtype, np.signedinteger)):
        pairs = order.astype(np.int64, copy=False)
    else:
        pairs = _pair_array(list(order))
    first, second = pairs[:, 0], pairs[:, 1]
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        i, j = pairs[np.argmax(outside)].tolist()
        raise ValueError(f"order pair ({i},{j}) out of range")
    loops = first == second
    if loops.any():
        raise ValueError(
            f"order is not irreflexive at {first[np.argmax(loops)]}")
    rel = np.zeros((n, n), dtype=bool)
    rel[first, second] = True
    back = rel[second, first]
    if back.any():
        i, j = pairs[np.argmax(back)].tolist()
        raise ValueError(f"order is not antisymmetric on ({i},{j})")
    packed = np.packbits(rel, axis=1)
    step = max(1, CHUNK_CELLS // max(n, 1))
    for s in range(0, len(pairs), step):
        i, j = first[s:s + step], second[s:s + step]
        gap = packed[j] & ~packed[i]
        rows = gap.any(axis=1)
        if rows.any():
            p = int(np.argmax(rows))
            k = int(np.argmax(np.unpackbits(gap[p], count=n)))
            raise ValueError(f"order is not transitive: "
                             f"({i[p]},{j[p]}),({j[p]},{k})")
    rel.flags.writeable = False
    return rel


def _pair_array(given: list) -> np.ndarray:
    """The pairs of ``given`` as an (m, 2) int64 array, once each is a
    two-element list of integer indices; a pair past int64 is out of
    range."""
    # Plain pairs of Python ints skip the check pair by pair.
    if (set(map(type, given)) - {list, tuple}
            or set(map(len, given)) - {2}
            or set(map(type, chain.from_iterable(given))) - {int}):
        for pair in given:
            if not (isinstance(pair, (list, tuple, np.ndarray))
                    and len(pair) == 2):
                raise ValueError(f"order pair {pair!r} is not a "
                                 f"two-element list")
            i, j = pair
            for v in (i, j):
                if not _is_index(v):
                    raise ValueError(f"order pair {[i, j]!r} holds {v!r}, "
                                     f"not an integer index")
    try:
        return np.fromiter(chain.from_iterable(given), dtype=np.int64,
                           count=2 * len(given)).reshape(-1, 2)
    except OverflowError:  # past int64, so out of range
        i, j = next(p for p in given
                    if not all(-2**63 <= v < 2**63 for v in p))
        raise ValueError(f"order pair ({i},{j}) out of range") from None


def _integer_table(dist) -> Optional[np.ndarray]:
    """A list or tuple table that numpy reads as a 2-D signed integer
    array, in the smallest signed dtype that holds its least and greatest
    entry; None for any other table.  It is read `CHUNK_CELLS` entries at
    a time, a whole number of rows, and each block is narrowed on its own.
    A block may read as bool or unsigned and still join a signed table, so
    the table is signed when the blocks' dtypes promote to a signed one,
    as they do when numpy reads the whole list."""
    if not isinstance(dist, (list, tuple)):
        return None
    step = max(1, CHUNK_CELLS // max(len(dist), 1))
    blocks, dtypes = [], set()
    for s in range(0, len(dist), step):
        try:
            block = np.array(dist[s:s + step])
        except ValueError:  # ragged
            return None
        if (block.ndim != 2 or block.dtype.kind not in "biu"
                or blocks and block.shape[1] != blocks[0].shape[1]):
            return None
        dtypes.add(block.dtype)
        blocks.append(_narrow(block))
        del block  # freed before the next block is read
    if not blocks or reduce(np.promote_types, dtypes).kind != "i":
        return None
    return np.concatenate(blocks)


def _narrow(table: np.ndarray) -> np.ndarray:
    """An integer or bool ``table`` in the smallest signed dtype up to
    int32 that holds its least and greatest entry; unchanged when int32
    does not hold them."""
    if table.size:
        lo, hi = table.min(), table.max()
        for dtype in (np.int8, np.int16, np.int32):
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
                return table.astype(dtype)
    return table


def _overflows(value) -> bool:
    """Whether ``value``, a real number, lies past the float range."""
    try:
        float(value)
    except OverflowError:
        return True
    return False


def _dist_rows(text: str, sep: str, m: int) -> Optional[np.ndarray]:
    """The entries of ``text`` as an (r, m) int64 array when ``text`` is r
    rows ``[d, ..., d]`` joined by ``sep``, each of m non-negative integers
    of at most 18 digits without leading zeros; None otherwise.  The
    characters that are not digits must spell the rows' brackets and
    separators, there must be r * m runs of digits, and each run must
    follow "[" or a separator and precede "," or "]": then each run fills
    one entry, in order."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    r = text.count("[")
    if raw.translate(None, b"0123456789") != sep.join(
            ["[" + sep * (m - 1) + "]"] * r).encode("ascii"):
        return None
    chars = np.frombuffer(raw, dtype=np.uint8)
    digits = chars - ord("0")
    numeral = digits < 10
    # The text opens with "[" and closes with "]", so every run of digits
    # has a character before it and after it.
    starts = np.flatnonzero(numeral[1:] & ~numeral[:-1]) + 1
    if len(starts) != r * m:
        return None
    value = digits[starts].astype(np.int64)
    ends = starts + 1
    more = numeral[ends]
    if (more & (value == 0)).any():  # a leading zero
        return None
    length = 1
    while more.any():
        if length == 18:
            return None
        value = np.where(more, value * 10 + digits[ends], value)
        ends += more
        more &= numeral[ends]
        length += 1
    before, after = chars[starts - 1], chars[ends]
    if not (((before == ord("[")) | (before == ord(sep[-1])))
            & ((after == ord(",")) | (after == ord("]")))).all():
        return None
    return value.reshape(r, m)


def _dist_table(s: str, idx: int) -> Optional[tuple[np.ndarray, int]]:
    """(table, end) for the JSON array at ``s[idx]`` when it is laid out as
    `json.dump` writes a rectangular table of non-negative integers: ", "
    or "," between entries and between rows, no other whitespace, no
    leading zeros, at most 18 digits an entry.  The table is the array
    that `_integer_table` gives for the list `json` would read, decoded
    `DIST_BLOCK_CHARS` of text at a time; None for any other text."""
    end = s.find("]]", idx)
    if end < 0 or not s.startswith("[[", idx):
        return None
    comma = s.find(",", idx, end)
    sep = ", " if comma >= 0 and s.startswith(", ", comma) else ","
    m = s.count(sep, idx, s.find("]", idx)) + 1
    blocks = []
    pos = idx + 1
    while pos <= end:
        cut = s.find("]" + sep + "[", pos + DIST_BLOCK_CHARS, end)
        cut = end + 1 if cut < 0 else cut + 1
        rows = _dist_rows(s[pos:cut], sep, m)
        if rows is None:
            return None
        blocks.append(_narrow(rows))
        pos = cut + len(sep)
    # Each block is narrowed on its own; the widest of their dtypes is the
    # smallest that holds the whole table.
    return np.concatenate(blocks), end + 2


def _scan(s: str, idx: int, depth: int):
    """(value, end) of the JSON value at ``s[idx]``, at ``depth`` objects
    down, as `json.loads` reads it.  The document's object and the objects
    in it are walked here, by `json`'s own object parser, so that an array
    that is the value of a `dist` key in them comes from `_dist_table`
    where its layout allows; every other value is `json`'s C scanner's."""
    if depth < 2 and s.startswith("{", idx):
        return json.decoder.JSONObject((s, idx + 1), True,
                                       partial(_scan, depth=depth + 1),
                                       None, None)
    if s.startswith("[", idx) and _DIST_KEY.search(s, max(0, idx - 64), idx):
        table = _dist_table(s, idx)
        if table is not None:
            return table
    return _JSON_SCAN(s, idx)


class _TableDecoder(json.JSONDecoder):
    """`json.loads`'s decoder, reading values through `_scan`."""

    def __init__(self):
        super().__init__()
        self.scan_once = partial(_scan, depth=0)


class FiniteMetricSpace:
    """Indexed points 0..n-1 with a full distance table and an optional
    strict partial order ("ancestor of"), kept as its read-only boolean
    relation matrix: `order[i, j]` is true iff i precedes j.  All
    invariants are validated at construction: finiteness, symmetry, zero
    diagonal, positivity off the diagonal, the triangle inequality, and
    strictness of the order, whose pairs must be two-element lists of
    integer indices or the rows of an (m, 2) array of a signed integer
    dtype.  The table is nested sequences or a 2-D numpy array, kept as
    one read-only array, `_given`: an integer array as a copy, a float
    array that float64 holds exactly as a float64 copy, nested lists that
    numpy reads as signed integers (bools among ints read as 1 and 0) in
    the smallest signed dtype that holds them (read a block of rows at a
    time, each block narrowed on its own), and every other table as an
    object array of its entries as given, each of which must be a real
    number, not a bool, inside the float range (the first that is not is
    named with its (i, j)).  The checks and the profile route of
    `MetricMapTable` read one table, `_table`: `_given` itself for an
    integer table (checked exactly, and finite by type) or a float64 one,
    and for an object table alone its read-only float64 copy.  A float
    table's triangle inequality has a tolerance of 1e-12.  It is checked
    exhaustively up to 256 points; above that, on 20000 triples (i, j, k)
    compared in one vector step, and the first failing triple in sample
    order is reported.  The triples are 60000 little-endian 32-bit words
    of `random.Random(0).randbytes`, reduced mod n (a bias below
    n / 2**32), i the first third, j the second, k the last.  The entries
    are read by `rows` (one `tolist()`, not kept) and `entry` (one
    `item()`), so an integer array gives Python ints and an object array
    its entries as given.
    """

    def __init__(
        self,
        dist: Sequence[Sequence[float]] | np.ndarray,
        order: Optional[Sequence[tuple[int, int]] | np.ndarray] = None,
    ):
        if isinstance(dist, np.ndarray):
            dtype = dist.dtype if dist.dtype.kind in "iu" else object
            if dist.dtype.kind == "f" and np.can_cast(dist.dtype, float):
                dtype = float  # float64 holds every such entry exactly
            given = dist.astype(dtype)  # a copy
        elif (given := _integer_table(dist)) is None:
            try:
                rows = tuple(map(tuple, dist))
            except TypeError:
                raise ValueError("distance table is not square") from None
            n = len(rows)
            if any(len(row) != n for row in rows):
                raise ValueError("distance table is not square")
            given = np.fromiter(chain.from_iterable(rows), dtype=object,
                                count=n * n).reshape(n, n)
        if given.ndim != 2 or given.shape[0] != given.shape[1]:
            raise ValueError("distance table is not square")
        given.flags.writeable = False
        self._given = given
        n = self.n = len(given)
        table = given
        if given.dtype == object:
            # Real numbers, not bools, decided on the set of types first.
            odd = {kind for kind in set(map(type, given.flat))
                   if not issubclass(kind, Real) or issubclass(kind, bool)}
            if odd:
                i, j = divmod(next(f for f, v in enumerate(given.flat)
                                   if type(v) in odd), n)
                raise ValueError(f"distance {given.item(i, j)!r} at "
                                 f"({i},{j}) is not a number")
            try:
                table = given.astype(float)
            except OverflowError:  # an int or Fraction past the float range
                i, j = divmod(next(f for f, v in enumerate(given.flat)
                                   if _overflows(v)), n)
                raise ValueError(f"distance {given.item(i, j)!r} at "
                                 f"({i},{j}) is outside the float range"
                                 ) from None
            table.flags.writeable = False
        if table.dtype.kind == "f":  # an integer table is finite by type
            finite = np.isfinite(table)
            if not finite.all():
                i, j = np.argwhere(~finite)[0]
                raise ValueError(
                    f"non-finite distance {self.entry(i, j)!r} at ({i},{j})"
                )
        if n and (np.diag(table) != 0).any():
            raise ValueError("nonzero diagonal in distance table")
        if not np.array_equal(table, table.T):
            raise ValueError("distance table is not symmetric")
        # The diagonal is zero, so any entry <= 0 past its n lies off it.
        if np.count_nonzero(table <= 0) > n:
            raise ValueError("non-positive distance between distinct points")
        self._validate_triangle(table)
        self._table = table
        self.order: Optional[np.ndarray] = (
            None if order is None else _strict_order(order, n)
        )

    def rows(self) -> list[list]:
        """The rows of the table as lists of its entries as given, from one
        `tolist()` that is not kept."""
        return self._given.tolist()

    def entry(self, i: int, j: int):
        """The entry at (i, j) as given, read without building `rows()`."""
        return self._given.item(i, j)

    def _validate_triangle(self, table: np.ndarray) -> None:
        """Refuse a triple with d(i,j) > d(i,k) + d(k,j).  A float table
        allows 1e-12 of slack.  An integer table, its entries non-negative
        once positivity has passed, is compared exactly as
        d(i,j) - d(i,k) > d(k,j), where the difference is taken only when
        d(i,j) > d(i,k): it neither overflows nor, unsigned, wraps."""
        if np.issubdtype(table.dtype, np.integer):
            def over(ij, ik, kj):
                return (ij > ik) & (ij - ik > kj)
        else:
            def over(ij, ik, kj):
                return ij > ik + kj + 1e-12
        n = self.n
        if n <= TRIANGLE_EXHAUSTIVE_LIMIT:
            for k in range(n):
                bad = over(table, table[:, k : k + 1], table[k : k + 1, :])
                if bad.any():
                    i, j = np.argwhere(bad)[0]
                    raise ValueError(
                        f"triangle inequality fails via {k} "
                        f"for pair ({i},{j})"
                    )
            return
        draw = random.Random(0).randbytes(12 * TRIANGLE_SAMPLES)
        i, j, k = np.frombuffer(draw, dtype="<u4").reshape(3, -1) % n
        bad = over(table[i, j], table[i, k], table[k, j])
        if bad.any():
            s = int(np.argmax(bad))
            raise ValueError(f"triangle inequality fails via {k[s]} "
                             f"for pair ({i[s]},{j[s]})")

    def to_dict(self) -> dict:
        return {"n": self.n, "dist": self.rows()}


def path_space(k: int) -> FiniteMetricSpace:
    """The path 0..k-1 with distance |i - j|, ordered by index."""
    dist = [[abs(i - j) for j in range(k)] for i in range(k)]
    order = [(i, j) for i in range(k) for j in range(k) if i < j]
    return FiniteMetricSpace(dist, order=order)


class MetricMapTable:
    """A total assignment between two finite metric spaces, indexed
    pointwise: source point i maps to target point assign[i].

    The profile arrays and the predicate pairs are built on first use and
    kept on the instance; the tables themselves never change."""

    def __init__(
        self,
        source: FiniteMetricSpace,
        target: FiniteMetricSpace,
        assign: Sequence[int],
    ):
        if len(assign) != source.n:
            raise ValueError(
                f"assignment covers {len(assign)} of {source.n} source points"
            )
        for x, a in enumerate(assign):
            if not _is_index(a):
                raise ValueError(f"assign[{x}] is {a!r}, not an integer index")
        self.assign = tuple(map(int, assign))
        for a in self.assign:
            if not 0 <= a < target.n:
                raise ValueError(f"assigned index {a} outside target")
        self.source = source
        self.target = target
        self.surjective = len(set(self.assign)) == target.n
        groups: dict[int, list[int]] = {}
        for i, a in enumerate(self.assign):
            groups.setdefault(a, []).append(i)
        self._preimages = {a: tuple(pre) for a, pre in groups.items()}

    def preimages(self, t: int) -> tuple[int, ...]:
        return self._preimages.get(t, ())

    @cached_property
    def _assign_array(self) -> np.ndarray:
        return np.array(self.assign, dtype=np.intp)

    @cached_property
    def _nearest_preimage(self) -> np.ndarray:
        """rho[x, y]: source distance from x to the nearest preimage of y,
        inf where y has none.  Filled one target column at a time; the
        source table is symmetric, so the column is a minimum over rows."""
        table = self.source._table
        rho = np.full((self.source.n, self.target.n), inf)
        for y, pre in self._preimages.items():
            rho[:, y] = table[list(pre)].min(axis=0)
        return rho

    @cached_property
    def _image_gap(self) -> np.ndarray:
        """D[x, y]: target distance from the image of x to y, in float64,
        as rho is."""
        return self.target._table[self._assign_array].astype(float,
                                                             copy=False)

    @cached_property
    def _related(self) -> np.ndarray:
        """related[x, y]: the image of x lies strictly below y in the
        target order."""
        return self.target.order[self._assign_array]

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, ...]:
        """The pairs i < j of source points, in row-major order: their
        source distances and image distances, each in its table's dtype,
        and image over source distance in float64.  Each is read through
        one upper-triangle mask; the image distances come first, so that
        the other two reuse the room of the n-by-n image table they are
        masked from."""
        points = np.arange(self.source.n)
        upper = points[:, None] < points
        a = self._assign_array
        tdist = np.take(self.target._table[a], a, axis=1)[upper]
        sdist = self.source._table[upper]
        return sdist, tdist, tdist / sdist

    @cached_property
    def _atd_pairs(self) -> tuple[tuple[int, int, float, float], ...]:
        """The rows that ``atd_pairs`` returns.  The source is read one row
        at a time, only for a point whose image has a point below it."""
        out = []
        tdist = self.target.rows()
        below = [np.flatnonzero(row).tolist() for row in self.target.order]
        for x, fx in enumerate(self.assign):
            if below[fx]:
                sdist = self.source._given[x].tolist()
                for y in below[fx]:
                    rho = min(sdist[p] for p in self.preimages(y))
                    out.append((x, y, tdist[fx][y], rho))
        return tuple(out)

    @classmethod
    def from_dict(cls, d) -> "MetricMapTable":
        """The table of a parsed JSON document: an object whose `source`
        and `target` are objects holding `dist` (and optionally `n`), with
        a list `assign` and optional orders `source_order` and
        `target_order`, each a list of [i, j] pairs.  A document of another
        shape raises ValueError naming the key."""
        if not isinstance(d, dict):
            raise ValueError(f"a map table must be a JSON object, "
                             f"got {type(d).__name__}")
        for key in ("source", "target"):
            if not isinstance(d.get(key), dict) or "dist" not in d[key]:
                raise ValueError(f"map table key {key!r} must be an object "
                                 f"holding 'dist'")
            order = d.get(f"{key}_order")
            if order is not None and not isinstance(order, list):
                raise ValueError(f"map table key '{key}_order' must be a "
                                 f"list of [i, j] pairs")
        if not isinstance(d.get("assign"), list):
            raise ValueError("map table key 'assign' must be a list of "
                             "target indices")
        source = FiniteMetricSpace(
            d["source"]["dist"], order=d.get("source_order")
        )
        target = FiniteMetricSpace(
            d["target"]["dist"], order=d.get("target_order")
        )
        if d["source"].get("n", source.n) != source.n:
            raise ValueError("declared source size disagrees with table")
        if d["target"].get("n", target.n) != target.n:
            raise ValueError("declared target size disagrees with table")
        return cls(source, target, d["assign"])

    @classmethod
    def from_json(cls, text: str) -> "MetricMapTable":
        """``from_dict(json.loads(text))``, without the Python ints of a
        `dist` laid out as `json.dump` writes a rectangular table of
        non-negative integers: numpy decodes such a table from the text,
        a block of rows at a time, into the array `_integer_table` gives.
        Every other value, and every error with its position, is
        `json`'s."""
        return cls.from_dict(json.loads(text, cls=_TableDecoder))

    def to_dict(self) -> dict:
        out = {
            "schema": 1,
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "assign": list(self.assign),
        }
        if self.source.order is not None:
            out["source_order"] = np.argwhere(self.source.order).tolist()
        if self.target.order is not None:
            out["target_order"] = np.argwhere(self.target.order).tolist()
        return out


def lipschitz_constant(m: MetricMapTable) -> float:
    if m.source.n < 2:
        raise DomainError("need at least two source points")
    return float(m._pairs[2].max())


def quotient_moduli(m: MetricMapTable, r: float) -> tuple[float, float]:
    """(omega, Omega) at radius r: Omega is the largest image distance over
    source pairs within r; omega is the largest realized target radius s so
    that every target point within s of any image has a preimage within r.
    Both are step functions of r, reported at realized distances only, as
    the tables' own entries: the first target entry of each value in
    row-major order (Omega is 0.0 when no pair within r moves apart)."""
    if not m.surjective:
        raise DomainError("moduli require a surjective assignment")
    if not m.target.n:
        raise DomainError("moduli require a non-empty target")
    if not r >= 0:
        raise DomainError("radius must be non-negative")
    sdist, tdist, _ = m._pairs
    top = tdist.max(where=sdist <= r, initial=0.0)
    omega_big = _stored_entry(m.target, top) if top > 0 else 0.0
    far = m._nearest_preimage > r
    threshold = m._image_gap[far].min() if far.any() else inf
    table = m.target._table
    return _stored_entry(m.target, table[table < threshold].max()), omega_big


def _stored_entry(space: FiniteMetricSpace, value: float):
    """The first entry of the space's table equal to value in row-major
    order, as stored."""
    i, j = divmod(int(np.flatnonzero(space._table == value)[0]), space.n)
    return space.entry(i, j)


def _require_orders(m: MetricMapTable) -> None:
    if m.target.order is None or m.source.order is None:
        raise DomainError("relation-restricted analysis needs both orders")
    if not m.surjective:
        raise DomainError("relation-restricted analysis needs surjectivity")


def atd_pairs(m: MetricMapTable) -> tuple[tuple[int, int, float, float], ...]:
    """All (source, target, D, rho) with the image strictly below the
    target point: D is the image-to-target distance, rho the distance from
    the source point to the nearest preimage of the target point.  Scanned
    from the tables in pure Python once per map table."""
    _require_orders(m)
    return m._atd_pairs


def _co_minimum(m: MetricMapTable, mask: np.ndarray) -> Fraction | float:
    """The least D/rho over the masked (source, target) cells, exactly, as
    a Fraction; inf if there are none.  Division is correctly rounded and
    rounding is monotone, so the exact minimum lies among the cells whose
    float quotient ties for the least one; it is taken over their distinct
    (D, rho) pairs, and its float() is that least float quotient."""
    if not mask.any():
        return inf
    gap, rho = m._image_gap[mask], m._nearest_preimage[mask]
    ratio = gap / rho
    tied = ratio == ratio.min()
    return min(Fraction(d) / Fraction(r)
               for d, r in set(zip(gap[tied].tolist(), rho[tied].tolist())))


def _restricted_minima(m: MetricMapTable, deltas) -> dict:
    """c_atd(delta) for each delta, exactly: the least D/rho over the
    related cells whose nearest preimage is past delta."""
    related, rho = m._related, m._nearest_preimage
    return {d: _co_minimum(m, related & (rho > d)) for d in deltas}


def _delta_grid(delta_grid: Sequence[float]) -> list[float]:
    deltas = sorted(set(float(d) for d in delta_grid))
    if any(not d > 0 for d in deltas):
        raise DomainError("delta grid must be positive")
    return deltas


@dataclass(frozen=True)
class CoarseProfile:
    lip: float
    L: dict
    c: dict
    c_atd: Optional[dict]
    c_atd_inf: Optional[float]


def coarse_profile(m: MetricMapTable, delta_grid: Sequence[float]) -> CoarseProfile:
    """Large-distance Lipschitz profile L, co-Lipschitz profile c, and,
    when both orders are present, c_atd and c_atd_inf as
    ``restricted_profile`` gives them."""
    if not m.surjective:
        raise DomainError("coarse profile requires a surjective assignment")
    deltas = _delta_grid(delta_grid)
    lip = lipschitz_constant(m) if m.source.n >= 2 else 0.0

    # L(d): the largest ratio over source pairs at distance >= d.
    sdist, _, ratio = m._pairs
    L = {d: float(ratio.max(where=sdist >= d, initial=0.0)) for d in deltas}

    # c(d): the smallest D/rho over cells whose nearest preimage is past d.
    rho = m._nearest_preimage
    c = {d: float(_co_minimum(m, rho > d)) for d in deltas}

    c_atd = None
    c_atd_inf = None
    if m.source.order is not None and m.target.order is not None:
        c_atd, c_atd_inf = restricted_profile(m, deltas)
    return CoarseProfile(lip=lip, L=L, c=c, c_atd=c_atd, c_atd_inf=c_atd_inf)


def restricted_profile(
    m: MetricMapTable, delta_grid: Sequence[float]
) -> tuple[dict, float]:
    """The relation-restricted half of ``coarse_profile``: c_atd(delta) for
    each delta of the grid, as floats, and c_atd_inf, the largest finite
    one (the profile is non-decreasing, so this is its supremum over the
    grid; inf if none is finite).  It reads rho, D and the related cells
    only, never the pair arrays."""
    _require_orders(m)
    deltas = _delta_grid(delta_grid)
    c_atd = {d: float(v) for d, v in _restricted_minima(m, deltas).items()}
    finite = [v for v in c_atd.values() if v < inf]
    return c_atd, max(finite) if finite else inf


def c_atd_infinity(m: MetricMapTable) -> float:
    """Supremum of the restricted co-Lipschitz profile over all scales.
    The profile is a step function changing only at realized preimage
    distances, and the minimum over {rho >= step} only grows as the step
    does, so the supremum is the minimum over the cells at the largest
    realized rho."""
    _require_orders(m)
    related = m._related
    if not related.any():
        return inf
    rho = m._nearest_preimage[related]
    return float(
        _co_minimum(m, related & (m._nearest_preimage == rho.max())))


def atd_violation(
    m: MetricMapTable, c: float, delta: float
) -> Optional[dict]:
    """Direct predicate route: hunt for a scale R >= delta and a related
    pair whose image gap fits under c*R while every preimage sits farther
    than R.  The least candidate is R = max(delta, D/c), so for delta >= 0
    a pair violates exactly when delta < rho and D/rho < c.  That is
    decided exactly: a correctly rounded D / rho below or above c settles
    it, and only a quotient equal to c is compared as a Fraction.  The
    record reports that least R as its scale twice: ``scale`` in floats,
    which may round up to rho, and ``scale_exact``, the exact Fraction of
    the given floats, which is always below rho."""
    for x, y, D, rho in atd_pairs(m):
        if not delta < rho:
            continue
        ratio = D / rho
        if ratio < c or ratio == c and Fraction(D) / Fraction(rho) < c:
            return {
                "source": x, "target": y, "scale": max(delta, D / c),
                "scale_exact": max(Fraction(delta), Fraction(D) / Fraction(c)),
                "image_gap": D, "nearest_preimage": rho,
            }
    return None


def cross_validate_atd(
    m: MetricMapTable, c_grid: Sequence[float], delta_grid: Sequence[float]
) -> dict:
    """Grid agreement between the predicate route and the optimized profile:
    for every (c, delta) the predicate must pass exactly when c does not
    exceed the profile's constant at delta.  c is compared with the exact
    constant (a float against a Fraction compares exactly), not with its
    float rounding; a disagreement reports the float."""
    _require_orders(m)
    exact = _restricted_minima(m, _delta_grid(delta_grid))
    disagreements = []
    checked = 0
    for d in delta_grid:
        for c in c_grid:
            checked += 1
            direct = atd_violation(m, c, d) is None
            tabulated = c <= exact[float(d)]
            if direct != tabulated:
                disagreements.append(
                    {"c": c, "delta": d, "predicate": direct,
                     "tabulated_constant": float(exact[float(d)])}
                )
    return {
        "checked": checked,
        "disagreements": disagreements[:5],
        "pass": not disagreements,
    }


@dataclass(frozen=True)
class ForkWitness:
    """Indices of a fork: head mu0, center mu1, arms mu2 in the target at
    distances r / r / 2r, together with preimages whose arm lengths are
    short and whose spread stays wide, to tolerance eps."""

    r: float
    mu0: int
    mu1: int
    mu2: tuple[int, ...]
    sigma0: int
    sigma1: int
    sigma2: tuple[int, ...]
    eps: float

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "r": self.r,
            "eps": self.eps,
            "mu0": self.mu0, "mu1": self.mu1, "mu2": list(self.mu2),
            "sigma0": self.sigma0, "sigma1": self.sigma1,
            "sigma2": list(self.sigma2),
        }

    def self_check(self, m: MetricMapTable) -> list[str]:
        """Re-verify every defining inequality straight from the tables;
        returns the list of violations (empty when sound)."""
        problems = []
        td, sd = m.target.rows(), m.source.entry
        r = self.r
        if td[self.mu0][self.mu1] != r:
            problems.append("head-to-center distance is not r")
        for k in self.mu2:
            if td[self.mu1][k] != r:
                problems.append(f"center-to-arm {k} distance is not r")
            if td[self.mu0][k] != 2 * r:
                problems.append(f"head-to-arm {k} distance is not 2r")
        for s, mu in [(self.sigma0, self.mu0), (self.sigma1, self.mu1)] + [
            (s, mu) for s, mu in zip(self.sigma2, self.mu2)
        ]:
            if m.assign[s] != mu:
                problems.append(f"preimage {s} does not map to {mu}")
        c = c_atd_infinity(m)
        arm_bound = (1 + 3 * self.eps) * r / c
        spread_bound = (1 - 80 * self.eps) * r / c
        if sd(self.sigma0, self.sigma1) > arm_bound:
            problems.append("head preimage arm too long")
        for s in self.sigma2:
            if sd(self.sigma1, s) > arm_bound:
                problems.append(f"arm preimage {s} too long")
            if sd(self.sigma0, s) / 2 < spread_bound:
                problems.append(f"arm preimage {s} spread too narrow")
        return problems


def fork_search(
    m: MetricMapTable,
    eps: float,
    r_min: float,
    max_arms: Optional[int] = None,
) -> Optional[ForkWitness]:
    """Deterministic search for a fork: scan radii in increasing order over
    realized target distances, heads and centers in index order, collect
    arms greedily under the mutual-2r constraint, then lift each target
    point to the lexicographically first preimage meeting the arm and
    spread bounds.  Returns the first witness found, or None.

    The spread bound is enforced non-strictly: at eps = 0 an exact fork has
    spread equal to the bound itself, and that exact witness is the point
    of the search.  eps must be finite and non-negative and r_min not NaN:
    a NaN or infinite bound would let every comparison admit any lift.  A
    fork has at least two arms, so max_arms, when given, is at least 2."""
    if not 0 <= eps < inf:
        raise DomainError(f"eps must be finite and non-negative, got {eps}")
    if r_min != r_min:
        raise DomainError("r_min must not be NaN")
    if max_arms is not None and max_arms < 2:
        raise DomainError(f"max_arms must be >= 2, got {max_arms}")
    if m.source.n < 4 or m.target.n < 4:
        return None
    if not m.surjective:
        return None
    if m.source.order is None or m.target.order is None:
        return None
    c = c_atd_infinity(m)
    if c == inf:
        return None
    td, sd = m.target.rows(), m.source.entry
    torder, sorder = m.target.order, m.source.order
    radii = sorted(
        {td[i][j] for i in range(m.target.n) for j in range(m.target.n)
         if td[i][j] >= r_min}
    )
    for r in radii:
        arm_bound = (1 + 3 * eps) * r / c
        spread_bound = (1 - 80 * eps) * r / c
        for mu0 in range(m.target.n):
            for mu1 in range(m.target.n):
                if not torder[mu0, mu1] or td[mu0][mu1] != r:
                    continue
                arms: list[int] = []
                for mu2 in range(m.target.n):
                    if not torder[mu1, mu2]:
                        continue
                    if td[mu1][mu2] != r or td[mu0][mu2] != 2 * r:
                        continue
                    if all(td[mu2][a] == 2 * r for a in arms):
                        arms.append(mu2)
                if max_arms is not None:
                    arms = arms[:max_arms]
                if len(arms) < 2:
                    continue
                witness = _lift_fork(
                    m, r, mu0, mu1, arms, arm_bound, spread_bound, eps,
                    sd, sorder,
                )
                if witness is not None:
                    return witness
    return None


def _lift_fork(m, r, mu0, mu1, arms, arm_bound, spread_bound, eps, sd, sorder):
    for s0 in m.preimages(mu0):
        for s1 in m.preimages(mu1):
            if not sorder[s0, s1] or sd(s0, s1) > arm_bound:
                continue
            chosen = []
            for mu2 in arms:
                pick = None
                for s2 in m.preimages(mu2):
                    if not sorder[s1, s2]:
                        continue
                    if sd(s1, s2) > arm_bound:
                        continue
                    if sd(s0, s2) / 2 < spread_bound:
                        continue
                    pick = s2
                    break
                if pick is None:
                    break
                chosen.append(pick)
            if len(chosen) == len(arms):
                return ForkWitness(
                    r=r, mu0=mu0, mu1=mu1, mu2=tuple(arms),
                    sigma0=s0, sigma1=s1, sigma2=tuple(chosen), eps=eps,
                )
    return None


def beta_bound_from_fork(eps):
    """83*eps / (1 + 3*eps); exact under Fraction inputs, float otherwise."""
    if eps < 0:
        raise DomainError("eps must be non-negative")
    return 83 * eps / (1 + 3 * eps)


def json_ready(obj):
    """Replace non-finite floats and exact rationals by strings so reports
    stay valid JSON."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "nan"
        if obj == inf:
            return "inf"
        if obj == -inf:
            return "-inf"
        return obj
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj

"""Recursive diamond-style graphs built from a branch-and-merge block.

The basic block has b+3 vertices: a root, a single middle vertex, b parallel
arm vertices, and a common sink, wired root -> mid -> each arm -> sink.  Its
diameter is 3.  The level-n graph is built by taking the block, stretching
every edge to length 3**(n-1), and replacing each stretched edge with a copy
of the level-(n-1) graph, gluing the copy's root to the edge's upper endpoint
and the copy's sink to the lower endpoint.  Copies meet only at those glue
points, so the whole graph is a series-parallel composition of blocks.

Vertices are addressed canonically as (word, pos): ``word`` lists, coarsest
scale first, which block edge the vertex lies on, and ``pos`` is a block
position at the finest scale the address reaches.  Glue vertices are shared
between copies and take the address of the coarsest scope that contains them
(so their word is short and their pos is a block position of that scope).
``VertexId`` is a named tuple, so a vertex hashes, compares and sorts as
the plain tuple ``(word, pos)``, which names the same vertex in every query,
and every vertex has a compact printable id such as ``r``, ``v``, ``m2.w1``,
``t.v``.

Level (distance from the root) is computed analytically from addresses, and
the full metric from addresses and levels by one place rule.  Two vertices
whose words share a prefix of length k lie in one copy of span 3 * unit,
unit = 3**(n-k-1), whose block edges each carry a copy of span unit, and
each takes a place there (``_place``): its height below the copy's root,
level % span (span for the copy's sink), and its arm, the block arm that
its next edge or its block position lies on (0 for the trunk edge, the
root, the mid vertex and the sink).  Every vertex of a copy lies on a
shortest path from its root to its sink, and a path between distinct edge
copies crosses at glue vertices, so the distance is the difference of the
heights, except between distinct arms, which meet at the mid vertex or the
sink, whichever is nearer: 2 * unit - |hu + hv - 4 * unit|
(``_copy_distance``).  ``LaaksoGraph.distance_rows`` applies the same two
helpers in numpy to a block of sources at once, giving their distances to
every vertex; ``distance_row`` is its one-row view.  Every point query
reads the rule through ``_dist``, an LRU memo of 2**18 entries keyed by
one ``(word, pos, level)`` tuple per vertex, built with the graph.

``bfs_rows`` runs BFS over the explicit adjacency and is kept strictly
independent of addresses and levels so the two can be cross-checked pair
by pair; ``bfs_levels_from`` is its one-row view.  Its search advances a
whole number of 64-bit words of sources per pass, one bit per source, and
its decode turns the pass's bit planes into int32 rows a block at a time.
A block of ``source_blocks`` is a run of consecutive sources whose rows
to every vertex hold at most ``BLOCK_CELLS`` = 2**15 cells, or one row
where a row alone is longer, so what an all-pairs walk holds at once does
not grow with |V|**2.  Each route gives full rows for any sources
(``distance_rows``, ``bfs_rows``) and, for every block in turn, its band
(``distance_blocks``, ``bfs_blocks``): the block's rows from the column
of its first source on, which holds every pair of the block past the
diagonal.  A band is computed or decoded over its own columns only, so
later blocks cost less.  Whatever needs the metric on all pairs reads it
a band at a time from ``LaaksoGraph.distance_blocks``: the structure
report over each band's cells past the diagonal, and the oracle report
against the same band of ``bfs_blocks``.  A graph of one block (|V|**2
<= BLOCK_CELLS, so |V| <= 181) has its band start at column 0 and walks
its pairs through ``distance`` and the memo, filling it once and then
rereading it; a graph of more than one block computes its bands with the
rule of ``distance_rows``.

The down-degree of every vertex is 1 or b.  Branch vertices sit exactly at
the levels whose lowest nonzero base-3 digit is 1: at the finest scale these
are the mid vertices of blocks (level 1 mod 3), and at coarser scales the
glue vertices that root b parallel copies (levels 3**k * (3m+1)).
"""

from __future__ import annotations

import os
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import CapacityError, RelationError

DEFAULT_MAX_VERTICES = 50_000
MAX_VERTICES_ENV = "LAAKSO_LAB_MAX_VERTICES"
# The most (source, vertex) cells one block of BFS or analytic rows holds;
# see ``LaaksoGraph.source_blocks``.
BLOCK_CELLS = 1 << 15

ROOT_POS = 0
MID_POS = 1
# arm k (1-based) is position 1 + k; the sink is position b + 2.


def _sink_pos(b: int) -> int:
    return b + 2


def _is_arm(pos: int, b: int) -> bool:
    return 2 <= pos <= b + 1


def _pos_level(pos: int, b: int) -> int:
    if pos == ROOT_POS:
        return 0
    if pos == MID_POS:
        return 1
    if _is_arm(pos, b):
        return 2
    return 3


def _pos_label(pos: int, b: int) -> str:
    if pos == ROOT_POS:
        return "r"
    if pos == MID_POS:
        return "v"
    if _is_arm(pos, b):
        return f"w{pos - 1}"
    return "s"


# Block edges, indexed 0..2b: 0 is (root, mid), 1..b are (mid, arm k),
# b+1..2b are (arm k, sink).


def _edge_src(e: int, b: int) -> int:
    if e == 0:
        return ROOT_POS
    if e <= b:
        return MID_POS
    return 1 + (e - b)


def _edge_dst(e: int, b: int) -> int:
    if e == 0:
        return MID_POS
    if e <= b:
        return 1 + e
    return _sink_pos(b)


def _edge_label(e: int, b: int) -> str:
    if e == 0:
        return "t"
    if e <= b:
        return f"m{e}"
    return f"b{e - b}"


class VertexId(NamedTuple):
    """Canonical vertex address: block-edge word (coarse to fine) plus a
    block position at the scale where the address bottoms out.

    A named tuple, so hashing, equality and ordering are those of the plain
    tuple ``(word, pos)``, which names the same vertex: every query accepts
    either form."""

    word: tuple[int, ...]
    pos: int


def _level_of(word: tuple[int, ...], pos: int, n: int, b: int) -> int:
    lvl = 0
    scale = n
    for e in word:
        lvl += _pos_level(_edge_src(e, b), b) * 3 ** (scale - 1)
        scale -= 1
    return lvl + _pos_level(pos, b) * 3 ** (scale - 1)


def _vertex_label(v: VertexId, b: int) -> str:
    tokens = [_edge_label(e, b) for e in v.word]
    tokens.append(_pos_label(v.pos, b))
    return ".".join(tokens)


def expected_vertex_count(n: int, b: int) -> int:
    """V_1 = b+3 and V_{k+1} = (2b+1) (V_k - 2) + (b+3): each of the 2b+1
    block edges carries a copy sharing its two glue vertices with the
    b+3 skeleton vertices."""
    count = b + 3
    for _ in range(n - 1):
        count = (2 * b + 1) * (count - 2) + (b + 3)
    return count


def expected_edge_count(n: int, b: int) -> int:
    return (2 * b + 1) ** n


def _embed(e: int, v: VertexId, b: int) -> VertexId:
    # Glue vertices of the copy become block positions of the outer scope.
    if not v.word:
        if v.pos == ROOT_POS:
            return VertexId((), _edge_src(e, b))
        if v.pos == _sink_pos(b):
            return VertexId((), _edge_dst(e, b))
    return VertexId((e,) + v.word, v.pos)


def _build_edges(n: int, b: int) -> list[tuple[VertexId, VertexId]]:
    if n == 1:
        return [
            (VertexId((), _edge_src(e, b)), VertexId((), _edge_dst(e, b)))
            for e in range(2 * b + 1)
        ]
    inner = _build_edges(n - 1, b)
    out = []
    for e in range(2 * b + 1):
        for x, y in inner:
            out.append((_embed(e, x, b), _embed(e, y, b)))
    return out


def _vertex_cap() -> int:
    """DEFAULT_MAX_VERTICES, or the environment override, which must be an
    integer >= 1."""
    env = os.environ.get(MAX_VERTICES_ENV)
    if env is None:
        return DEFAULT_MAX_VERTICES
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"{MAX_VERTICES_ENV} must be an integer >= 1, got {env!r}")
    return cap


class LaaksoGraph:
    """Explicit level-n graph: sorted vertex list, adjacency, analytic metric.

    Instances are immutable after construction; all queries are pure, so a
    graph can be shared freely across threads.
    """

    def __init__(self, n: int, b: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if b < 2:
            raise ValueError(f"b must be >= 2, got {b}")
        predicted = expected_vertex_count(n, b)
        cap = _vertex_cap()
        if predicted > cap:
            raise CapacityError(
                f"graph ({n}, {b}) needs {predicted} vertices, cap is {cap}"
            )

        self.n = n
        self.b = b
        edges = _build_edges(n, b)
        verts = {u for u, _ in edges} | {v for _, v in edges}
        ranked = sorted((_level_of(v.word, v.pos, n, b), v) for v in verts)
        self.levels: tuple[int, ...] = tuple(lvl for lvl, _ in ranked)
        self.vertices: tuple[VertexId, ...] = tuple(v for _, v in ranked)
        self._index: dict[VertexId, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        # The memo key of each vertex for ``_dist``, built once so that every
        # key of the memo shares these tuples.
        self._keys: dict[VertexId, tuple] = {
            v: (v.word, v.pos, lvl) for lvl, v in ranked
        }
        nbrs: list[set[int]] = [set() for _ in self.vertices]
        for u, v in edges:
            iu, iv = self._index[u], self._index[v]
            nbrs[iu].add(iv)
            nbrs[iv].add(iu)
        self.neighbors: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in nbrs
        )
        # child_table[i]: the neighbours of vertex i one level down, in
        # fraternal (construction index) order.
        levels = self.levels
        self.child_table: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j in nb if levels[j] == levels[i] + 1)
            for i, nb in enumerate(self.neighbors)
        )
        self.edge_count = len(edges)
        self.root: VertexId = self.vertices[0]
        self.sink: VertexId = self.vertices[-1]
        # labels[i]: the printable id of vertex i.
        self.labels: tuple[str, ...] = tuple(
            _vertex_label(v, b) for v in self.vertices
        )
        self._labels: dict[str, VertexId] = dict(zip(self.labels,
                                                     self.vertices))

    # -- basic queries ----------------------------------------------------

    def index(self, v: VertexId) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} is not in this graph") from None

    def label(self, v: VertexId) -> str:
        return self.labels[self.index(v)]

    def by_label(self, label: str) -> VertexId:
        try:
            return self._labels[label]
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r}") from None

    def level(self, v: VertexId) -> int:
        return self.levels[self.index(v)]

    def children(self, v: VertexId) -> list[VertexId]:
        """Immediate descendants in fraternal (construction index) order."""
        return [self.vertices[j] for j in self.child_table[self.index(v)]]

    def is_branching(self, v: VertexId) -> bool:
        return len(self.child_table[self.index(v)]) > 1

    # -- metric ------------------------------------------------------------

    def distance(self, u: VertexId, v: VertexId) -> int:
        """Exact metric, computed from each vertex's address and level by
        the place rule through the ``_dist`` memo."""
        keys = self._keys
        try:
            ku, kv = keys[u], keys[v]
        except KeyError:
            # index raises the one KeyError every query gives a stranger.
            self.index(u)
            self.index(v)
            raise
        return _dist(self.n, self.b, ku, kv)

    def bfs_levels_from(self, v: VertexId) -> list[int]:
        """BFS distance from v to every vertex, indexed like ``vertices``:
        the one row of ``bfs_rows`` for v, as a list."""
        return self.bfs_rows([self.index(v)])[0].tolist()

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        # ``neighbors`` in CSR form: vertex i's neighbours are
        # adjacent[starts[i]:starts[i + 1]].  A vertex with none lists the
        # sentinel len(vertices), a frontier row that stays empty, so that
        # every segment of the reduction is nonempty.
        size = len(self.vertices)
        lists = [nb or (size,) for nb in self.neighbors]
        lengths = np.fromiter(map(len, lists), dtype=np.intp, count=size)
        starts = np.zeros(size, dtype=np.intp)
        np.cumsum(lengths[:-1], out=starts[1:])
        adjacent = np.fromiter(chain.from_iterable(lists), dtype=np.intp,
                               count=int(lengths.sum()))
        return starts, adjacent

    def bfs_rows(self, sources) -> np.ndarray:
        """BFS distance from each of ``sources`` (vertex indices) to every
        vertex, an int32 array of shape (len(sources), len(vertices)), -1
        where a vertex cannot be reached."""
        sources = np.asarray(sources, dtype=np.intp)
        return next(self._bfs_bands(sources, [(range(len(sources)), 0)]))

    def bfs_blocks(self) -> Iterator[tuple[range, np.ndarray]]:
        """(sources, band) for each block of ``source_blocks``, where
        band[r, c] is the BFS distance from vertex sources[r] to vertex
        sources.start + c: the block's ``bfs_rows`` from its first source's
        column on, the BFS twin of ``distance_blocks``."""
        bands = self._bfs_bands(range(len(self.vertices)),
                                ((s, s.start) for s in self.source_blocks()))
        return zip(self.source_blocks(), bands)

    def _bfs_bands(self, sources, blocks) -> Iterator[np.ndarray]:
        """For each (span, first) of ``blocks`` in turn, the int32 BFS rows
        of the vertices sources[span] to the vertices first..
        len(vertices) - 1, where ``sources`` is a sequence of vertex
        indices and the spans are consecutive ranges of positions in it.
        The search runs over ``sources`` in order, in passes of
        ``_bfs_width`` sources, and decodes each block's band from the bit
        planes of every pass it spans: one or two for a block of
        ``source_blocks``."""
        width = self._bfs_width
        base, planes = -width, []
        for span, first in blocks:
            rows = np.empty((len(span), len(self.vertices) - first),
                            dtype=np.int32)
            at = span.start
            while at < span.stop:
                if at >= base + width:
                    base = at - at % width
                    planes = self._bfs_planes(np.asarray(
                        sources[base:base + width], dtype=np.intp))
                end = min(span.stop, base + width)
                _bfs_decode(planes, at - base, end - base, first,
                            rows[at - span.start:end - span.start])
                at = end
            yield rows

    @cached_property
    def _block_rows(self) -> int:
        # The sources of one block of ``source_blocks``.
        return max(1, BLOCK_CELLS // len(self.vertices))

    @cached_property
    def _bfs_width(self) -> int:
        # Sources per BFS pass: the fewest whole 64-bit words that hold a
        # block, so a block spans at most two passes, and a graph of one
        # block is one pass.
        return 64 * -(-self._block_rows // 64)

    def _bfs_planes(self, sources: np.ndarray) -> list[np.ndarray]:
        """Bit planes of a BFS from all of ``sources`` at once, one bit per
        source: bit s % 8 of planes[k][s // 8, v] is bit k of one plus the
        distance from sources[s] to vertex v, so a vertex that is never
        reached reads 0 in every plane.  The search holds a row of 64-bit
        words per vertex: the sources advance together, level by level,
        and a level is one ``bitwise_or.reduceat`` of the frontier rows
        over each vertex's neighbours, in the CSR form of ``neighbors``.
        Each plane is then turned into rows of little-endian bytes, one
        per eight sources.  It reads only the adjacency, never addresses
        or levels."""
        starts, adjacent = self._csr
        size = len(self.vertices)
        count = len(sources)
        slot = np.arange(count)
        frontier = np.zeros((size + 1, -(-count // 64)), dtype=np.int64)
        np.bitwise_or.at(frontier, (sources, slot // 64),
                         np.left_shift(1, slot % 64))
        new = frontier[:size]
        seen = new.copy()
        # step is the distance of the frontier plus one.
        planes = [seen.copy()]
        step = 1
        while True:
            # The gathered rows are a copy, so the level's reduction can
            # overwrite the frontier it read.
            np.bitwise_or.reduceat(np.take(frontier, adjacent, axis=0),
                                   starts, out=new)
            new &= ~seen
            if not np.count_nonzero(new):
                return [np.ascontiguousarray(
                            p.astype("<i8", copy=False).view(np.uint8).T)
                        for p in planes]
            step += 1
            seen |= new
            for k in range(step.bit_length()):
                if step >> k & 1:
                    if k == len(planes):
                        planes.append(new.copy())
                    else:
                        planes[k] |= new

    def is_ancestor(self, u: VertexId, v: VertexId) -> bool:
        """True iff some shortest root-to-v path passes through u, which for
        this graded graph is d(u, v) == level(v) - level(u)."""
        lu, lv = self.level(u), self.level(v)
        return lu <= lv and self.distance(u, v) == lv - lu

    def descent(self, u: VertexId, v: VertexId) -> list[int]:
        """A shortest u -> v path descending one level per step, as
        fraternal increments: each step enters the first child, in
        ``child_table`` order, that stays above v, and records 1 where the
        vertex left does not branch, else that child's 1-based place."""
        if not self.is_ancestor(u, v):
            raise RelationError(
                f"{self.label(u)} is not an ancestor of {self.label(v)}"
            )
        cur, end = self.index(u), self.index(v)
        out = []
        while cur != end:
            kids = self.child_table[cur]
            for k, c in enumerate(kids, 1):
                if self.is_ancestor(self.vertices[c], v):
                    break
            else:
                raise AssertionError(
                    f"no child of {self.label(self.vertices[cur])} stays "
                    f"above {self.label(v)}"
                )
            out.append(1 if len(kids) == 1 else k)
            cur = c
        return out

    def source_blocks(self) -> Iterator[range]:
        """Consecutive ranges of vertex indices, in order and covering
        ``vertices``, of max(1, BLOCK_CELLS // len(vertices)) sources each
        (the last may be shorter): a block of rows to every vertex holds at
        most BLOCK_CELLS cells, or one row where a row alone is longer."""
        size, step = len(self.vertices), self._block_rows
        return (range(s, min(s + step, size)) for s in range(0, size, step))

    @cached_property
    def _row_arrays(self) -> tuple:
        # The words letter by letter (letters[j, i] is letter j of vertex
        # i's word, or -1 past its end), word lengths, and each vertex's
        # place at every shared-prefix length k: heights[k, i] and
        # arms[k, i] from ``_place`` (an entry past the end of the word
        # enters no row).  Also units[k] = 3**(n - 1 - k).  Every sum and
        # difference ``_copy_distance`` forms lies within 2 * 3**n of 0, so
        # heights take the narrowest signed dtype that holds that bound.
        n, b, verts = self.n, self.b, self.vertices
        letters = np.full((n, len(verts)), -1, dtype=np.int32)
        for i, v in enumerate(verts):
            letters[:len(v.word), i] = v.word
        lengths = np.array([len(v.word) for v in verts])
        units = [3 ** (n - 1 - k) for k in range(n)]
        places = np.array([[_place(v.word, v.pos, lvl, k, unit, b)
                            for v, lvl in zip(verts, self.levels)]
                           for k, unit in enumerate(units)])
        heights = places[..., 0].astype(np.min_scalar_type(-2 * 3 ** n))
        return letters, lengths, heights, places[..., 1], units

    def distance_rows(self, sources) -> np.ndarray:
        """Exact distance from each of ``sources`` (vertex indices) to every
        vertex, an array of shape (len(sources), len(vertices)) in the
        narrowest signed dtype that holds 2 * 3**n: ``_dist``'s place rule
        broadcast over a block of sources, one shared-prefix length k at a
        time.  Each pair's distance is ``_copy_distance`` of the two
        vertices' places at the length k of the prefix their words share.
        It reads addresses and levels only, never the adjacency."""
        return self._distance_band(sources, 0)

    def _distance_band(self, sources, first: int) -> np.ndarray:
        # The columns first.. len(vertices) - 1 of ``distance_rows``: every
        # step reads only those columns of the letters, heights and arms.
        letters, lengths, heights, arms, units = self._row_arrays
        sources = np.asarray(sources, dtype=np.intp)
        own = lengths[sources]
        deepest = int(own.max(initial=0))
        # k counts the leading letters each pair shares; -2 past a source's
        # word matches no letter and no pad, so k <= the source's length.
        k = np.zeros((len(sources), letters.shape[1] - first), dtype=np.int8)
        shared = np.ones(k.shape, dtype=bool)
        for j in range(deepest):
            letter = np.where(j < own, letters[j, sources], -2)
            shared &= letters[j, first:] == letter[:, None]
            k += shared
        out = np.empty(k.shape, dtype=heights.dtype)
        for kk in range(deepest + 1):
            h, a = heights[kk], arms[kk]
            np.copyto(out, _copy_distance(h[sources, None], a[sources, None],
                                          h[first:], a[first:], units[kk]),
                      where=k == kk)
        return out

    def distance_row(self, u: VertexId) -> np.ndarray:
        """Exact int64 distance from u to every vertex, indexed like
        ``vertices``: the one row of ``distance_rows`` for u."""
        return self.distance_rows([self.index(u)])[0].astype(np.int64)

    def distance_blocks(self) -> Iterator[tuple[range, np.ndarray]]:
        """(sources, band) for each block of ``source_blocks``, where
        band[r, c] is the exact distance from vertex sources[r] to vertex
        sources.start + c in ``distance_rows``' dtype: the block's rows
        from its first source's column on, so every pair past the
        diagonal, and the analytic twin of ``bfs_blocks``.  A graph of one
        block (|V|**2 <= BLOCK_CELLS, so |V| <= 181) walks each unordered
        pair once, in row-major order, through ``distance`` and its
        ``_dist`` memo, and mirrors the result into its full rows; a graph
        of more than one block computes each band with the rule of
        ``distance_rows`` over the band's columns only, with no call per
        pair.  Both routes read ``_place`` and ``_copy_distance``."""
        verts = self.vertices
        if len(verts) > self._block_rows:
            for sources in self.source_blocks():
                yield sources, self._distance_band(sources, sources.start)
            return
        rows = np.zeros((len(verts), len(verts)),
                        dtype=np.min_scalar_type(-2 * 3 ** self.n))
        for i, u in enumerate(verts):
            rows[i, i + 1:] = [self.distance(u, v) for v in verts[i + 1:]]
        yield range(len(verts)), rows + rows.T

    def distance_matrix(self) -> np.ndarray:
        """The full symmetric int32 distance matrix, filled from the bands
        of ``distance_blocks`` and their transposes."""
        size = len(self.vertices)
        out = np.empty((size, size), dtype=np.int32)
        for sources, band in self.distance_blocks():
            out[sources.start:sources.stop, sources.start:] = band
            out[sources.start:, sources.start:sources.stop] = band.T
        return out


def build_laakso(n: int, b: int) -> LaaksoGraph:
    return LaaksoGraph(n, b)


def lowest_nonzero_base3_digit(m: int) -> int:
    while m % 3 == 0:
        m //= 3
    return m % 3


def branch_level_law(level: int, n: int) -> bool:
    """Branch vertices sit exactly at levels 3**k * (3m+1) below the top."""
    if level <= 0 or level >= 3**n:
        return False
    return lowest_nonzero_base3_digit(level) == 1


def _place(word: tuple[int, ...], pos: int, level: int, k: int, unit: int,
           b: int) -> tuple[int, int]:
    """(height, arm) of vertex ``(word, pos)`` at ``level`` in the copy of
    span 3 * unit that the first k letters of its word name.  The height
    is its distance below the copy's root: every copy's root level is a
    multiple of its span, so it is level % span, or span for the copy's
    sink.  The arm is the block arm its next edge ``word[k]`` lies on, or
    its block position where the word ends at k: arm e for edges e and
    b + e and for position e + 1, 0 on the trunk edge 0 and at the root,
    the mid vertex and the sink."""
    span = 3 * unit
    if len(word) > k:
        e = word[k]
        return level % span, e - b if e > b else e
    if pos == _sink_pos(b):
        return span, 0
    return level % span, pos - 1 if _is_arm(pos, b) else 0


def _copy_distance(hu, au, hv, av, unit):
    """Distance between two places in one copy of span 3 * unit: the
    difference of the heights, except between distinct arms, which meet at
    the mid vertex (height unit) or the sink (height 3 * unit), whichever
    is nearer, 2 * unit - |hu + hv - 4 * unit|.  Only operators, so it takes
    ints and numpy arrays alike."""
    straight = abs(hu - hv)
    apart = (au != av) & (au != 0) & (av != 0)
    return straight + apart * (2 * unit - abs(hu + hv - 4 * unit) - straight)


def _bfs_decode(planes: list[np.ndarray], start: int, stop: int,
                first: int, out: np.ndarray) -> None:
    """Writes to the int32 rows ``out`` the BFS rows of the sources in
    slots start..stop - 1 of a pass's bit ``planes``
    (``LaaksoGraph._bfs_planes``) to the vertices from ``first`` on, -1
    where a vertex cannot be reached.  Slot s is bit s % 8 of byte row
    s // 8, so each plane gives the block's bits as one gather of rows, a
    shift and a mask, already in (source, vertex) order."""
    slots = np.arange(start, stop)
    rows, shift = slots // 8, (slots % 8).astype(np.uint8)[:, None]
    cells = np.zeros((len(slots), planes[0].shape[1] - first),
                     dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for k, plane in enumerate(planes):
        bits = plane[rows, first:].astype(cells.dtype, copy=False)
        bits >>= shift
        bits &= 1
        bits <<= k
        cells |= bits
    np.subtract(cells, 1, out=out, dtype=np.int32)


# The memo's size.  Only point queries and the all-pairs walks of graphs
# of one source block read the memo; a graph of more than one block reads
# its walks from bands computed by the rule of ``distance_rows`` (see
# ``LaaksoGraph.distance_blocks``).
_MEMO_PAIRS = 1 << 18


@lru_cache(maxsize=_MEMO_PAIRS)
def _dist(n: int, b: int, u: tuple, v: tuple) -> int:
    """Distance between the vertices of memo keys ``(word, pos, level)``
    u and v in the level-n graph: the k leading block edges both words
    share name the copy of span 3 * unit, unit = 3**(n-k-1), that holds
    both, and ``_copy_distance`` of their two ``_place``s there is the
    distance."""
    wu, pu, lu = u
    wv, pv, lv = v
    k = 0
    for eu, ev in zip(wu, wv):
        if eu != ev:
            break
        k += 1
    unit = 3 ** (n - k - 1)
    hu, au = _place(wu, pu, lu, k, unit, b)
    hv, av = _place(wv, pv, lv, k, unit, b)
    return _copy_distance(hu, au, hv, av, unit)


# -- structure verification ---------------------------------------------------


def structure_report(g: LaaksoGraph) -> dict:
    """Counts, diameter, level grading, and the branch-level law, all checked
    against first principles (recurrence, BFS, down-degrees).  The diameter
    and the count of pairs that attain it are read from each band of
    ``distance_blocks`` over its cells later[r, c], c > r (a band starts
    at its first source's column), so every unordered pair once."""
    problems: list[str] = []
    vcount = len(g.vertices)
    expected_v = expected_vertex_count(g.n, g.b)
    if vcount != expected_v:
        problems.append(f"vertex count {vcount} != recurrence value {expected_v}")
    expected_e = expected_edge_count(g.n, g.b)
    if g.edge_count != expected_e:
        problems.append(f"edge count {g.edge_count} != (2b+1)^n = {expected_e}")

    levels_match_bfs = list(g.levels) == g.bfs_levels_from(g.root)
    if not levels_match_bfs:
        problems.append("analytic levels disagree with BFS from the root")

    top = 3**g.n
    if max(g.levels) != top:
        problems.append(f"maximal level {max(g.levels)} != 3^n = {top}")
    if sum(1 for l in g.levels if l == top) != 1:
        problems.append("maximal level attained more than once")

    # Diameter over all pairs, and uniqueness of the extremal pair.
    diameter = 0
    extremal = 0
    for _, band in g.distance_blocks():
        later = ~np.tri(*band.shape, dtype=bool)
        top_block = int(band.max(initial=0, where=later))
        if top_block > diameter:
            diameter, extremal = top_block, 0
        if top_block == diameter:
            extremal += int(np.count_nonzero((band == diameter) & later))
    if diameter != top:
        problems.append(f"diameter {diameter} != 3^n = {top}")
    elif extremal != 1:
        problems.append(f"diameter attained by {extremal} pairs, expected 1")

    down_degrees_ok = True
    law_ok = True
    for label, lvl, kids in zip(g.labels, g.levels, g.child_table):
        if lvl < top and len(kids) not in (1, g.b):
            down_degrees_ok = False
            problems.append(f"vertex {label} has down-degree {len(kids)}")
        if (len(kids) > 1) != branch_level_law(lvl, g.n):
            law_ok = False
            problems.append(
                f"vertex {label} at level {lvl}: branching={len(kids) > 1} "
                f"violates the base-3 branch-level law"
            )

    return {
        "n": g.n,
        "b": g.b,
        "vertex_count": vcount,
        "expected_vertex_count": expected_v,
        "edge_count": g.edge_count,
        "expected_edge_count": expected_e,
        "diameter": diameter,
        "expected_diameter": top,
        "levels_match_bfs": levels_match_bfs,
        "down_degrees_ok": down_degrees_ok,
        "branch_level_law_ok": law_ok,
        "problems": problems,
        "pass": not problems,
    }


def oracle_agreement_report(g: LaaksoGraph) -> dict:
    """Compare the analytic metric with BFS on every pair, one block of
    ``source_blocks`` at a time: each band of ``distance_blocks`` against
    its band of ``bfs_blocks``, over the cells later[r, c], c > r (a
    band starts at its first source's column), so every unordered pair
    once.  Mismatches are counted per block, and the first 10 in
    row-major order are recorded."""
    labels = g.labels
    mismatches = []
    count = 0
    for (sources, analytic), (_, bfs) in zip(g.distance_blocks(),
                                             g.bfs_blocks()):
        later = ~np.tri(*analytic.shape, dtype=bool)
        wrong = (analytic != bfs) & later
        found = int(np.count_nonzero(wrong))
        if found and len(mismatches) < 10:
            for r, c in np.argwhere(wrong)[:10 - len(mismatches)].tolist():
                mismatches.append(
                    {"u": labels[sources[r]],
                     "v": labels[sources.start + c],
                     "analytic": int(analytic[r, c]), "bfs": int(bfs[r, c])}
                )
        count += found
    total = len(labels) * (len(labels) - 1) // 2
    return {
        "n": g.n,
        "b": g.b,
        "pairs_checked": total,
        "mismatches": mismatches,
        "mismatch_count": count,
        "pass": not count,
    }


# -- forks ---------------------------------------------------------------------


def find_forks(
    g: LaaksoGraph, r_min: int = 1
) -> Iterator[tuple[int, VertexId, VertexId, list[VertexId]]]:
    """Yield (r, head, center, arms): center is r below head, each arm is r
    below center, and distinct arms are mutually 2r apart.  Deterministic
    order: increasing r up to the span 3**n, then center, then head."""
    levels = g.levels
    verts = g.vertices
    for r in range(r_min, 3**g.n + 1):
        for ci, center in enumerate(verts):
            if len(g.child_table[ci]) < 2:
                continue
            arms = []
            for j, cand in enumerate(verts):
                if levels[j] != levels[ci] + r:
                    continue
                if not g.is_ancestor(center, cand):
                    continue
                if all(g.distance(cand, a) == 2 * r for a in arms):
                    arms.append(cand)
            if len(arms) < 2:
                continue
            for hi, head in enumerate(verts):
                if levels[hi] != levels[ci] - r:
                    continue
                if g.is_ancestor(head, center):
                    yield (r, head, center, arms)


# -- exports -------------------------------------------------------------------


def to_json_dict(g: LaaksoGraph) -> dict:
    """Deterministic JSON form: vertices sorted by (level, address), each
    edge listed once with endpoint ids in sorted order."""
    labels = g.labels
    vertices = [
        {"id": label, "level": lvl} for label, lvl in zip(labels, g.levels)
    ]
    edges = [[labels[i], labels[j]]
             for i, nb in enumerate(g.neighbors) for j in nb if j > i]
    return {
        "schema": 1,
        "n": g.n,
        "b": g.b,
        "vertices": vertices,
        "edges": edges,
    }


def to_dot(g: LaaksoGraph) -> str:
    """Graphviz form with one node per vertex labeled "level:address"."""
    labels = g.labels
    lines = [f"graph laakso_n{g.n}_b{g.b} {{"]
    lines += [f'  "{label}" [label="{lvl}:{label}"];'
              for label, lvl in zip(labels, g.levels)]
    lines += [f'  "{labels[i]}" -- "{labels[j]}";'
              for i, nb in enumerate(g.neighbors) for j in nb if j > i]
    lines.append("}")
    return "\n".join(lines) + "\n"

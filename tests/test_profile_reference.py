"""The array-backed profile route against the pure-Python loop reference in
`loop_reference`, exactly, with `restricted_profile` equal to the
restricted half of `coarse_profile` on every table, and the `analyze map` / `fork` reports of the
phi table T(2,9) -> G(2,2) against committed golden files."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from laakso_lab import cli
from laakso_lab import quotient_analysis as qa
from laakso_lab.errors import DomainError
from laakso_lab.laakso_graph import build_laakso
from laakso_lab.tree_space import TreeSpace
from laakso_lab.tree_to_laakso import TreeToGraphMap, as_map_table

DATA = Path(__file__).parent / "data"

# Dyadic edge weights: every path sum is exact in floating point, and a mix
# of int and float weights gives tables whose equal entries differ in type.
WEIGHTS = (1, 2, 3, 0.5, 1.25)


def phi_dict(n: int, b: int) -> dict:
    return as_map_table(TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b)))


@pytest.fixture(scope="module")
def phi_2_2() -> dict:
    return phi_dict(2, 2)


def realized_grid(m: qa.MetricMapTable) -> list:
    """Every realized positive source distance, the midpoints between
    consecutive ones, and one value past the diameter."""
    realized = sorted({d for row in m.source.rows() for d in row if d > 0})
    if not realized:
        return [1.0]
    mids = [(a + b) / 2 for a, b in zip(realized, realized[1:])]
    return realized + mids + [realized[-1] + 1]


def assert_matches_reference(m: qa.MetricMapTable, deltas, radii) -> None:
    prof = qa.coarse_profile(m, deltas)
    got = (prof.lip, prof.L, prof.c, prof.c_atd, prof.c_atd_inf)
    assert got == ref.coarse_profile(m, deltas)
    if m.source.n >= 2:
        assert qa.lipschitz_constant(m) == ref.lipschitz_constant(m)
    if m.source.order is not None and m.target.order is not None:
        assert qa.c_atd_infinity(m) == ref.c_atd_infinity(m)
        restricted = qa.restricted_profile(m, deltas)
        assert restricted == (prof.c_atd, prof.c_atd_inf)
        assert restricted == ref.coarse_profile(m, deltas)[3:]
    else:
        with pytest.raises(DomainError, match="needs both orders"):
            qa.restricted_profile(m, deltas)
    for r in radii:
        got = qa.quotient_moduli(m, r)
        want = ref.quotient_moduli(m, r)
        assert got == want, r
        assert [type(v) for v in got] == [type(v) for v in want], r


def test_fixtures_match_reference(floor_by_3, identity_path, collapse_pair):
    unordered = qa.MetricMapTable.from_dict({
        "source": {"dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "target": {"dist": [[0, 1], [1, 0]]},
        "assign": [0, 1, 1],
    })
    for m in (floor_by_3, identity_path, collapse_pair, unordered):
        grid = realized_grid(m)
        assert_matches_reference(m, grid, [0] + grid)


@pytest.mark.parametrize("n,b", [(1, 2), (1, 3)])
def test_small_phi_tables_match_reference(n, b):
    m = qa.MetricMapTable.from_dict(phi_dict(n, b))
    grid = realized_grid(m)
    assert_matches_reference(m, grid, [0] + grid)


def test_phi_2_2_matches_reference(phi_2_2):
    m = qa.MetricMapTable.from_dict(phi_2_2)
    assert_matches_reference(m, [float(d) for d in range(1, 9)],
                             [0, 0.5, 1, 2.5, 8])


@st.composite
def tree_metrics(draw, k: int):
    """Distances and strict ancestor order of a random weighted tree on k
    points rooted at 0, where every parent has a smaller index; a path is
    the tree with parent i - 1."""
    if draw(st.booleans()):
        parent = [i - 1 for i in range(k)]
    else:
        parent = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, k)]
    depth = [0]
    ancestors = [set()]
    for i in range(1, k):
        depth.append(depth[parent[i]] + draw(st.sampled_from(WEIGHTS)))
        ancestors.append(ancestors[parent[i]] | {parent[i]})
    dist = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            lca = max((ancestors[i] | {i}) & (ancestors[j] | {j}))
            dist[i][j] = dist[j][i] = depth[i] + depth[j] - 2 * depth[lca]
    order = [(a, i) for i in range(k) for a in ancestors[i]]
    return qa.FiniteMetricSpace(dist, order=order)


@st.composite
def surjective_tables(draw):
    k = draw(st.integers(1, 9))
    t = draw(st.integers(1, k))
    extra = draw(st.lists(st.integers(0, t - 1), min_size=k - t,
                          max_size=k - t))
    assign = draw(st.permutations(list(range(t)) + extra))
    return qa.MetricMapTable(draw(tree_metrics(k)), draw(tree_metrics(t)),
                             assign)


@settings(max_examples=200, deadline=None)
@given(surjective_tables())
def test_random_tree_tables_match_reference(m):
    grid = realized_grid(m)
    assert_matches_reference(m, grid, [0] + grid)


def test_analyze_map_report_is_golden(phi_2_2, tmp_path):
    table = tmp_path / "phi_T2_9_G2_2.json"
    table.write_text(json.dumps(phi_2_2))
    for name, argv in [
        ("analyze_map", ["analyze", "map", "--delta-grid", "1,2,3,4,5,6,7,8"]),
        ("fork", ["fork", "--eps", "0"]),
    ]:
        out = tmp_path / f"{name}.json"
        assert cli.main(argv + ["--input", str(table), "--out", str(out)]) == 0
        golden = DATA / f"{name}_phi_T2_9_G2_2.json"
        assert out.read_bytes() == golden.read_bytes(), name

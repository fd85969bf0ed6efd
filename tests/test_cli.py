import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from laakso_lab import cli
from laakso_lab.tree_to_laakso import TreeToGraphMap, as_map_table
from laakso_lab.laakso_graph import build_laakso
from laakso_lab.tree_space import TreeSpace

from conftest import LAYOUTS, check_verify_all_runs


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def map_file(tmp_path_factory):
    pm = TreeToGraphMap(TreeSpace(2, 3), build_laakso(1, 2))
    path = tmp_path_factory.mktemp("tables") / "phi13.json"
    path.write_text(json.dumps(as_map_table(pm)))
    return str(path)


class TestGenerate:
    def test_tree_json(self, capsys):
        code, out, _ = run(capsys, "generate", "tree", "--b", "2", "--d", "2")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 7
        assert rows[0] == {"elements": [], "level": 0}

    def test_tree_has_no_format_option(self, capsys):
        # The tree is emitted as JSON only, so it takes no --format.
        code, out, err = run(capsys, "generate", "tree", "--b", "2", "--d",
                             "2", "--format", "json")
        assert code == 2
        assert out == ""
        assert "--format" in err

    def test_laakso_json(self, capsys):
        code, out, _ = run(capsys, "generate", "laakso", "--n", "1", "--b", "3")
        assert code == 0
        d = json.loads(out)
        assert len(d["vertices"]) == 6

    def test_laakso_dot(self, capsys):
        code, out, _ = run(
            capsys, "generate", "laakso", "--n", "1", "--b", "2",
            "--format", "dot",
        )
        assert code == 0
        assert out.startswith("graph laakso_n1_b2 {")
        assert '"w2"' in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.json"
        code, out, _ = run(
            capsys, "generate", "laakso", "--n", "1", "--b", "2",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 1

    @pytest.mark.parametrize("argv,suffix", [([], "json"),
                                             (["--format", "dot"], "dot")])
    def test_laakso_export_is_golden(self, tmp_path, argv, suffix):
        out = tmp_path / f"g.{suffix}"
        assert cli.main(["generate", "laakso", "--n", "2", "--b", "3", *argv,
                         "--out", str(out)]) == 0
        name = f"generate_laakso_n2_b3.{suffix}"
        golden = Path(__file__).parent / "data" / name
        assert out.read_bytes() == golden.read_bytes()


class TestVerifyPhi:
    def test_clean_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "phi", "--n", "1", "--b", "2", "--exhaustive"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] and rep["mode"] == "exhaustive"

    def test_fault_caught(self, capsys):
        code, out, _ = run(
            capsys, "verify", "phi", "--n", "2", "--b", "2", "--inject-fault"
        )
        assert code == 1
        rep = json.loads(out)
        assert not rep["pass"]
        cases = [
            c
            for chk in rep["checks"].values()
            for c in chk.get("counterexamples", [])
        ]
        assert cases

    def test_replay_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "verify", "phi", "--n", "2", "--b", "2", "--inject-fault"
        )
        case = next(
            c
            for chk in json.loads(out)["checks"].values()
            for c in chk.get("counterexamples", [])
        )
        case_file = tmp_path / "case.json"
        case_file.write_text(json.dumps(case))
        # against the faulty map the case still fails
        code, out, _ = run(
            capsys, "verify", "phi", "--n", "2", "--b", "2",
            "--inject-fault", "--replay", "@" + str(case_file),
        )
        assert code == 1
        # against the clean map it passes
        code, out, _ = run(
            capsys, "verify", "phi", "--n", "2", "--b", "2",
            "--replay", json.dumps(case),
        )
        assert code == 0

    @pytest.mark.parametrize("record,message", [
        ("[1]", "JSON object"),
        ('{"check": "lipschitz", "node": [1]}', "needs the key 'other'"),
        ('{"check": "level", "node": [1.7]}', "must list JSON integers"),
        ('{"check": "level", "node": [true]}', "must list JSON integers"),
        ('{"check": "level", "node": ["1"]}', "must list JSON integers"),
        ('{"check": "level", "node": [null]}', "must list JSON integers"),
        ('{"check": "lipschitz", "node": [1], "other": [2.0]}',
         "must list JSON integers"),
    ])
    def test_malformed_replay_record_is_usage_error(self, capsys, record,
                                                    message):
        code, out, err = run(capsys, "verify", "phi", "--n", "1", "--b", "2",
                             "--replay", record)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("record", [
        '{"check": "level", "node": [7]}',
        '{"check": "lipschitz", "node": [1], "other": [4]}',
        '{"check": "lift", "node": [1, 2, 5], "vertex": "s"}',
    ])
    def test_node_outside_the_tree_is_usage_error(self, capsys, record):
        # an increment above b = 2, where the image does not branch
        code, out, err = run(capsys, "verify", "phi", "--n", "2", "--b", "2",
                             "--replay", record)
        assert code == 2
        assert out == ""
        assert "outside 1..2" in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_is_usage_error(self, capsys, samples):
        code, out, err = run(capsys, "verify", "phi", "--n", "1", "--b", "2",
                             "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in err


class TestVerifyJames:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "verify", "james")
        assert code == 0
        rep = json.loads(out)
        assert rep["theta"] == "3/4"
        assert rep["pass"]

    def test_smaller_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "james", "--indices", "8", "--maxsize", "4"
        )
        assert code == 0

    def test_zero_denominator_theta_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "james", "--theta", "1/0")
        assert code == 2
        assert out == ""
        assert "theta '1/0' is not a finite rational" in err

    @pytest.mark.parametrize("indices,maxsize", [("-3", "2"), ("3", "-1")])
    def test_empty_bounds_are_usage_errors(self, capsys, indices, maxsize):
        code, out, err = run(capsys, "verify", "james", "--indices", indices,
                             "--maxsize", maxsize)
        assert code == 2
        assert out == ""
        assert "bounds must be" in err


class TestVerifyAll:
    def test_two_runs_byte_identical(self, verify_all_runs):
        check_verify_all_runs(verify_all_runs)

    def test_every_suite_carries_a_boolean_pass(self, verify_all_runs):
        suites = json.loads(verify_all_runs[0][1])["suites"]
        verdicts = {name: suite["pass"] for name, suite in suites.items()}
        assert verdicts == dict.fromkeys(verdicts, True)
        assert all(type(v) is bool for v in verdicts.values())

    @pytest.mark.parametrize(
        "failing", ["graphs", "projection", "atd", "fork", "james", "moduli"]
    )
    def test_any_failing_suite_fails_the_run(self, monkeypatch, failing):
        def stub(name):
            ok = name != failing
            return lambda *args: {"check": {"pass": ok}, "pass": ok}

        for name in ("graphs", "projection", "atd", "fork", "moduli"):
            monkeypatch.setattr(cli, f"_suite_{name}", stub(name))
        monkeypatch.setattr(cli.st, "verify_james", stub("james"))
        rep = cli.verify_all()
        assert rep["pass"] is False
        assert [n for n, s in rep["suites"].items() if not s["pass"]] == [
            failing
        ]

    def test_graphs_suite_folds_its_reports(self, monkeypatch):
        monkeypatch.setattr(cli.lg, "oracle_agreement_report",
                            lambda g: {"pass": g.n != 3})
        suite = cli._suite_graphs()
        assert suite["pass"] is False
        assert suite["oracle_n2_b3"]["pass"] is True

    def test_fault_fails_whole_run(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--seed", "0",
                           "--inject-fault")
        assert code == 1
        rep = json.loads(out)
        assert not rep["pass"]
        assert rep["suites"]["projection"]["pass"] is False
        assert rep["suites"]["graphs"]["pass"] is True

    @pytest.mark.parametrize("argv,code,name", [
        ([], 0, "verify_all_seed0"),
        (["--inject-fault"], 1, "verify_all_seed0_inject_fault"),
    ])
    def test_report_is_golden(self, tmp_path, argv, code, name):
        out = tmp_path / "all.json"
        assert cli.main(["verify", "all", "--seed", "0", *argv,
                         "--out", str(out)]) == code
        golden = Path(__file__).parent / "data" / f"{name}.json"
        assert out.read_bytes() == golden.read_bytes()
        assert "timings_seconds" not in json.loads(out.read_text())

    def test_builds_the_map_tables_without_a_dict_round_trip(self,
                                                           monkeypatch):
        def refuse(*args):
            raise AssertionError("map table went through a dict")

        monkeypatch.setattr(cli.qa.MetricMapTable, "from_dict", refuse)
        monkeypatch.setattr(cli.tl, "as_map_table", refuse)
        assert cli.verify_all(seed=0)["pass"]

    def test_builds_no_pair_arrays(self, monkeypatch, floor_by_3):
        # The atd suite reads only the restricted profile, so no map table
        # of verify all builds the pair arrays of the pair half.
        built = []
        real = cli.qa.MetricMapTable._pairs.func

        def counting(table):
            built.append(table.source.n)
            return real(table)

        monkeypatch.setattr(cli.qa.MetricMapTable, "_pairs",
                            property(counting))
        cli.qa.coarse_profile(floor_by_3, [1.0])
        assert set(built) == {10}  # the wrapper counts
        built.clear()
        assert cli.verify_all(seed=0)["pass"]
        assert built == []

    def test_timings_flag(self, capsys, monkeypatch):
        for name in ("graphs", "projection", "atd", "fork", "moduli"):
            monkeypatch.setattr(cli, f"_suite_{name}",
                                lambda *args: {"pass": True})
        monkeypatch.setattr(cli.st, "verify_james", lambda: {"pass": True})
        code, out, _ = run(capsys, "verify", "all", "--seed", "0",
                           "--timings")
        assert code == 0
        clock = json.loads(out)["timings_seconds"]
        assert sorted(clock) == ["atd", "fork", "graphs", "james", "moduli",
                                 "projection"]
        assert all(type(t) is float and t >= 0 for t in clock.values())


class TestAnalyze:
    def test_map_profile(self, capsys, map_file):
        code, out, _ = run(
            capsys, "analyze", "map", "--input", map_file,
            "--delta-grid", "0.5,1,2",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["lipschitz"] == 1.0
        assert rep["c_atd"]["1.0"] == 1.0
        assert rep["pass"]

    @pytest.mark.parametrize("bad", ["Infinity", "NaN"])
    def test_non_finite_distance_is_usage_error(self, capsys, tmp_path, bad):
        f = tmp_path / "bad.json"
        f.write_text(
            '{"source": {"dist": [[0, %s], [%s, 0]]}, '
            '"target": {"dist": [[0]]}, "assign": [0, 0]}' % (bad, bad)
        )
        code, _, err = run(capsys, "analyze", "map", "--input", str(f),
                           "--delta-grid", "1")
        assert code == 2
        assert "non-finite distance" in err

    @pytest.mark.parametrize("grid", ["inf", "1,nan", "2,-inf"])
    def test_non_finite_delta_is_usage_error(self, capsys, map_file, grid):
        code, out, err = run(capsys, "analyze", "map", "--input", map_file,
                             "--delta-grid", grid)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "analyze", "map", "--input", "/no/such/file.json",
            "--delta-grid", "1",
        )
        assert code == 2
        assert err


PHI_SIZES = [(1, 2), (1, 3), (2, 2)]
MAP_COMMANDS = [
    ["analyze", "map", "--delta-grid", "1,2,3,4,5,6,7,8"],
    ["fork", "--eps", "0"],
]


def phi_map(n: int, b: int) -> TreeToGraphMap:
    return TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b))


@pytest.fixture(scope="module")
def phi_files(tmp_path_factory) -> dict:
    """phi(n, b)'s map table written as JSON lists in each of LAYOUTS, for
    each PHI_SIZES, keyed (n, b, layout)."""
    root = tmp_path_factory.mktemp("phi")
    files = {}
    for n, b in PHI_SIZES:
        table = as_map_table(phi_map(n, b))
        for layout, options in LAYOUTS.items():
            path = root / f"phi{n}{b}-{layout}.json"
            path.write_text(json.dumps(table, **options))
            files[n, b, layout] = str(path)
    return files


class TestJsonMapTables:
    """A JSON map table of integers is read as narrow integer arrays: the
    reports equal those of the table built in memory, in every layout, and
    neither `analyze map` nor `fork` builds the source's nested-tuple
    table."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_phi_2_2_source_is_int8(self, phi_files, layout):
        with open(phi_files[2, 2, layout], encoding="utf-8") as fh:
            text = fh.read()
        for m in (cli.qa.MetricMapTable.from_dict(json.loads(text)),
                  cli.qa.MetricMapTable.from_json(text)):
            assert m.source._given.dtype == np.int8
            assert m.source._dist is None

    @pytest.mark.parametrize("layout,given", [
        ("default", np.ndarray), ("compact", np.ndarray), ("indent", list)])
    def test_dist_reaches_the_space_as_an_array(self, capsys, monkeypatch,
                                                phi_files, layout, given):
        seen = []
        real = cli.qa.FiniteMetricSpace.__init__

        def init(self, dist, order=None):
            seen.append(type(dist))
            real(self, dist, order)

        monkeypatch.setattr(cli.qa.FiniteMetricSpace, "__init__", init)
        code, _, _ = run(capsys, *MAP_COMMANDS[0][:-2], "--input",
                         phi_files[2, 2, layout], *MAP_COMMANDS[0][-2:])
        assert code == 0
        assert seen == [given, given]  # source, then target

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_phi_2_2_reports_are_golden(self, tmp_path, phi_files, layout):
        for name, command in zip(["analyze_map", "fork"], MAP_COMMANDS):
            out = tmp_path / f"{name}.json"
            assert cli.main([*command, "--input", phi_files[2, 2, layout],
                             "--out", str(out)]) == 0
            golden = Path(__file__).parent / "data" / \
                f"{name}_phi_T2_9_G2_2.json"
            assert out.read_bytes() == golden.read_bytes(), name

    @pytest.mark.parametrize("command", MAP_COMMANDS, ids=["analyze", "fork"])
    def test_source_dist_is_not_built(self, capsys, monkeypatch, phi_files,
                                      command):
        loaded = []
        real = cli._load_table

        def load(path):
            loaded.append(real(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_table", load)
        code, _, _ = run(capsys, *command[:-2], "--input",
                         phi_files[2, 2, "default"], *command[-2:])
        assert code == 0
        [table] = loaded
        assert table.source.n == 1023
        assert table.source._dist is None

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("command", MAP_COMMANDS, ids=["analyze", "fork"])
    @pytest.mark.parametrize("n,b", PHI_SIZES)
    def test_json_reports_equal_in_memory_reports(self, capsys, monkeypatch,
                                                  phi_files, command, n, b,
                                                  layout):
        argv = [*command[:-2], "--input", phi_files[n, b, layout],
                *command[-2:]]
        from_json = run(capsys, *argv)
        monkeypatch.setattr(cli, "_load_table",
                            lambda path: cli.tl.map_table(phi_map(n, b)))
        in_memory = run(capsys, *argv)
        assert from_json == in_memory
        assert from_json[1].startswith("{")


def non_integer_index_tables(map_file: str) -> list[dict]:
    """The phi(1,2) table with index entries that int() would round to
    the same table: float and bool assignments, float order pairs."""
    with open(map_file, encoding="utf-8") as fh:
        table = json.load(fh)
    out = []
    for key, spoil in [
        ("assign", lambda a: [x + 0.25 for x in a]),
        ("assign", lambda a: [x == 1 if x <= 1 else x for x in a]),
        ("source_order", lambda o: [[i + 0.2, j + 0.9] for i, j in o]),
        ("target_order", lambda o: [[i + 0.5, j] for i, j in o]),
    ]:
        out.append({**table, key: spoil(table[key])})
    return out


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("command,options", [
    (["analyze", "map"], ["--delta-grid", "1,2"]),
    (["fork"], ["--eps", "0"]),
])
def test_non_integer_indices_are_usage_errors(capsys, tmp_path, map_file,
                                              case, command, options):
    f = tmp_path / "spoiled.json"
    f.write_text(json.dumps(non_integer_index_tables(map_file)[case]))
    code, out, err = run(capsys, *command, "--input", str(f), *options)
    assert code == 2
    assert out == ""
    assert "not an integer index" in err


def _with_target_entry(table: dict, value) -> dict:
    """The table with the target's distance at (0,1) replaced by value."""
    dist = [list(row) for row in table["target"]["dist"]]
    dist[0][1] = value
    return {**table, "target": {**table["target"], "dist": dist}}


MALFORMED_TABLES = {
    "order_of_ints": (lambda t: {**t, "source_order": [5]},
                      "order pair 5 is not a two-element list"),
    "order_not_a_list": (lambda t: {**t, "source_order": 5},
                         "'source_order' must be a list of [i, j] pairs"),
    "short_pair": (lambda t: {**t, "source_order": [[0]]},
                   "order pair [0] is not a two-element list"),
    "assign_not_a_list": (lambda t: {**t, "assign": 5},
                          "'assign' must be a list"),
    "source_not_an_object": (lambda t: {**t, "source": []},
                             "'source' must be an object holding 'dist'"),
    "missing_source": (lambda t: {k: v for k, v in t.items()
                                  if k != "source"},
                       "'source' must be an object holding 'dist'"),
    "top_level_list": (lambda t: [1, 2],
                       "a map table must be a JSON object, got list"),
    "string_distances": (lambda t: {**t, "target": {**t["target"], "dist": [
        [str(d) for d in row] for row in t["target"]["dist"]]}},
        "distance '0' at (0,0) is not a number"),
    "bool_distances": (lambda t: {**t, "source": {**t["source"], "dist": [
        [d > 0 for d in row] for row in t["source"]["dist"]]}},
        "distance False at (0,0) is not a number"),
    "dict_distance": (lambda t: _with_target_entry(t, {}),
                      "distance {} at (0,1) is not a number"),
    "list_distance": (lambda t: _with_target_entry(t, [1]),
                      "distance [1] at (0,1) is not a number"),
    "null_distance": (lambda t: _with_target_entry(t, None),
                      "distance None at (0,1) is not a number"),
    "huge_distance": (lambda t: _with_target_entry(t, 10**400),
                      f"distance {10**400} at (0,1) is outside the float "
                      f"range"),
}


@pytest.mark.parametrize("command,options,case", [
    *[pytest.param(["analyze", "map"], ["--delta-grid", "1"], case,
                   id=f"analyze-{case}") for case in MALFORMED_TABLES],
    *[pytest.param(["fork"], ["--eps", "0"], case, id=f"fork-{case}")
      for case in ("order_of_ints", "order_not_a_list", "short_pair")],
])
def test_malformed_table_is_usage_error(capsys, tmp_path, map_file,
                                        command, options, case):
    spoil, message = MALFORMED_TABLES[case]
    with open(map_file, encoding="utf-8") as fh:
        table = json.load(fh)
    f = tmp_path / "malformed.json"
    f.write_text(json.dumps(spoil(table)))
    code, out, err = run(capsys, *command, "--input", str(f), *options)
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


class TestFork:
    def test_finds_witness(self, capsys, map_file):
        code, out, _ = run(
            capsys, "fork", "--input", map_file, "--eps", "0",
            "--rmin", "1",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["witness"]["r"] == 1
        assert rep["self_check"] == []

    @pytest.mark.parametrize("eps,rmin,message", [
        ("nan", "1", "eps"), ("inf", "1", "eps"), ("0", "nan", "r_min"),
    ])
    def test_non_finite_tolerance_is_usage_error(self, capsys, map_file,
                                                 eps, rmin, message):
        code, out, err = run(capsys, "fork", "--input", map_file,
                             "--eps", eps, "--rmin", rmin)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("max_arms", ["1", "0", "-1"])
    def test_fewer_than_two_arms_is_usage_error(self, capsys, map_file,
                                                max_arms):
        code, out, err = run(capsys, "fork", "--input", map_file,
                             "--max-arms", max_arms)
        assert code == 2
        assert out == ""
        assert f"max_arms must be >= 2, got {max_arms}" in err

    def test_no_witness_exits_one(self, capsys, tmp_path):
        d = {
            "source": {"n": 2, "dist": [[0, 1], [1, 0]]},
            "target": {"n": 2, "dist": [[0, 1], [1, 0]]},
            "assign": [0, 1],
            "source_order": [[0, 1]],
            "target_order": [[0, 1]],
        }
        f = tmp_path / "id.json"
        f.write_text(json.dumps(d))
        code, out, _ = run(capsys, "fork", "--input", str(f), "--eps", "0",
                           "--rmin", "1")
        assert code == 1
        assert json.loads(out)["witness"] is None


class TestModuli:
    def test_csv_table(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "moduli", "table", "--p", "2", "--kind", "beta",
            "--tmin", "0.01", "--tmax", "0.5", "--points", "50",
            "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 51
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(0.01)

    def test_default_mode_is_table(self, capsys):
        code, out, _ = run(capsys, "moduli", "--p", "3", "--points", "5")
        assert code == 0
        assert out.splitlines()[0] == "t,value"

    def test_check_lemma42(self, capsys):
        code, out, _ = run(capsys, "moduli", "check-lemma42", "--p", "2")
        assert code == 0
        assert json.loads(out)["pass"]

    @pytest.mark.parametrize("mode", ["table", "check-lemma42"])
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_is_usage_error(self, capsys, mode, points):
        code, out, err = run(capsys, "moduli", mode, "--p", "2",
                             "--points", points)
        assert code == 2
        assert out == ""
        assert f"--points must be >= 1, got {points}" in err

    def test_bad_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "moduli", "table", "--p", "1")
        assert code == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(capsys, "bogus")[0] == 2

    def test_no_args(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_capacity_is_one_vertex_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("LAAKSO_LAB_MAX_VERTICES", raising=False)
        code, out, _ = run(capsys, "generate", "laakso", "--n", "5", "--b", "2")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 2345
        code, out, err = run(capsys, "generate", "laakso", "--n", "4", "--b", "9")
        assert code == 2
        assert out == ""
        assert "needs 72402 vertices, cap is 50000" in err

    def test_capacity_respects_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LAAKSO_LAB_MAX_VERTICES", "10")
        code, _, err = run(capsys, "generate", "laakso", "--n", "2", "--b", "2")
        assert code == 2
        assert "vertices" in err or "capacity" in err.lower()

    def test_capacity_env_caps_at_its_value(self, capsys, monkeypatch):
        monkeypatch.setenv("LAAKSO_LAB_MAX_VERTICES", "20")
        code, out, _ = run(capsys, "generate", "laakso", "--n", "2", "--b", "2")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 20
        code, _, err = run(capsys, "generate", "laakso", "--n", "3", "--b", "2")
        assert code == 2
        assert "needs 95 vertices, cap is 20" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_capacity_env_must_be_a_positive_integer(self, capsys,
                                                     monkeypatch, value):
        monkeypatch.setenv("LAAKSO_LAB_MAX_VERTICES", value)
        code, out, err = run(capsys, "generate", "laakso", "--n", "1", "--b", "2")
        assert code == 2
        assert out == ""
        assert (f"LAAKSO_LAB_MAX_VERTICES must be an integer >= 1, "
                f"got {value!r}") in err


START_PATH = """
import json, sys
import laakso_lab, laakso_lab.cli
def heavy_modules():
    # numpy.ma and its submodules, but not numpy.matrixlib.
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy", "numpy.random", "numpy.ma."))
                  or m == "numpy.ma")
loaded = heavy_modules()
code = laakso_lab.cli.main(["verify", "all", "--seed", "0", "--out", sys.argv[1]])
print(json.dumps({"import": loaded, "verify_all": heavy_modules(), "rc": code}))
"""


def test_no_scipy_on_the_start_path(tmp_path):
    """A fresh interpreter imports the package and the CLI and runs
    `verify all` without loading scipy, `numpy.random` or `numpy.ma`:
    neither the start, the moduli oracles, the sampled triangle check of
    the 1023-point projection table nor the staircase sweeps (numpy's
    `unique` imports `numpy.ma`) may pay for their import."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", START_PATH, str(tmp_path / "all.json")],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    assert json.loads(proc.stdout) == {"import": [], "verify_all": [], "rc": 0}
    assert json.loads((tmp_path / "all.json").read_text())["pass"] is True

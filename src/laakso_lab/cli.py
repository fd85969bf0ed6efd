"""Command-line workbench: generation, verification, map analysis, fork
search, and modulus tabulation, with machine-readable output.

Exit codes: 0 when every property checked passes, 1 when a property fails
(the JSON report names the violated check and carries a counterexample),
2 on usage or I/O errors.  All randomized sampling sits behind an explicit
--seed with default 0, and reports contain no timestamps or timings unless
asked for, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from math import isfinite
from typing import Optional

import numpy as np

from . import laakso_graph as lg
from . import moduli as md
from . import quotient_analysis as qa
from . import staircase as st
from . import tree_space as ts
from . import tree_to_laakso as tl
from .errors import DomainError

FAULT_NODE = ts.TreeNode((1, 2))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: Optional[str]) -> None:
    _emit(json.dumps(qa.json_ready(payload), indent=2, sort_keys=True) + "\n", out)


def _grid(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise DomainError(f"empty grid {text!r}")
    if not all(isfinite(v) for v in vals):
        raise DomainError(f"grid {text!r} has a non-finite value")
    return vals


# -- generate ------------------------------------------------------------------


def cmd_generate_tree(args) -> int:
    space = ts.TreeSpace(args.b, args.d)
    _emit_json(ts.to_json_vertices(space), args.out)
    return 0


def cmd_generate_laakso(args) -> int:
    g = lg.build_laakso(args.n, args.b)
    if args.format == "dot":
        _emit(lg.to_dot(g), args.out)
    else:
        _emit_json(lg.to_json_dict(g), args.out)
    return 0


# -- verify --------------------------------------------------------------------


def _phi_map(n: int, b: int, inject_fault: bool) -> tl.TreeToGraphMap:
    graph = lg.build_laakso(n, b)
    tree = ts.TreeSpace(b, 3**n)
    flip = FAULT_NODE if inject_fault else None
    return tl.TreeToGraphMap(tree, graph, _flip_node=flip)


def cmd_verify_phi(args) -> int:
    pm = _phi_map(args.n, args.b, args.inject_fault)
    if args.replay is not None:
        text = args.replay
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        rep = tl.replay_case(pm, json.loads(text))
        _emit_json(rep, args.out)
        return 0 if rep["pass"] else 1
    report = tl.verify_projection(
        pm, seed=args.seed, samples=args.samples, exhaustive=args.exhaustive
    )
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def cmd_verify_james(args) -> int:
    theta = st.exact_theta(args.theta)
    report = {
        "schema": 1,
        "theta": str(theta),
        "index_bound": args.indices,
        "size_bound": args.maxsize,
        **st.verify_james(theta, args.indices, args.maxsize),
    }
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def _all_pass(records: dict) -> bool:
    """The one verdict fold: every record of a suite or report passes."""
    return all(rec["pass"] for rec in records.values())


def _suite_graphs() -> dict:
    out = {}
    for n, b in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        g = lg.build_laakso(n, b)
        out[f"structure_n{n}_b{b}"] = lg.structure_report(g)
        out[f"oracle_n{n}_b{b}"] = lg.oracle_agreement_report(g)
    out["pass"] = _all_pass(out)
    return out


def _suite_projection(seed: int, inject_fault: bool) -> dict:
    pm = _phi_map(2, 2, inject_fault)
    out = {
        "projection_T2_9_to_G2": tl.verify_projection(pm, seed=seed),
        "sibling_lift_separation": tl.sibling_lift_separation(pm),
    }
    out["pass"] = _all_pass(out)
    return out


def _small_test_tables() -> dict[str, qa.MetricMapTable]:
    """Five fixed desk-scale maps for cross-validating the restricted
    co-Lipschitz routes: two tree-to-graph projections, the floor-by-3 path
    collapse, the identity on a path, and a two-point collapse."""
    tables: dict[str, qa.MetricMapTable] = {}
    for name, (b, n) in [("phi_T2_3_G1", (2, 1)), ("phi_T3_3_G1", (3, 1))]:
        tables[name] = tl.map_table(_phi_map(n, b, False))
    tables["floor_by_3"] = qa.MetricMapTable(
        qa.path_space(10), qa.path_space(4), [i // 3 for i in range(10)]
    )
    tables["identity_path"] = qa.MetricMapTable(
        qa.path_space(10), qa.path_space(10), list(range(10))
    )
    two = qa.FiniteMetricSpace([[0, 1], [1, 0]], order=[(0, 1)])
    one = qa.FiniteMetricSpace([[0]], order=[])
    tables["collapse_pair"] = qa.MetricMapTable(two, one, [0, 0])
    return tables


def _suite_atd() -> dict:
    out: dict = {}
    tables = _small_test_tables()

    c_grid = [0.05, 0.15, 0.25, 1 / 3, 0.45, 0.55, 0.7, 0.85, 1.0, 1.25]
    for name, table in tables.items():
        deltas = sorted(
            {d for row in table.source.dist for d in row if d > 0}
        )[:10] or [1.0]
        out[f"grid_agreement_{name}"] = qa.cross_validate_atd(
            table, c_grid, deltas
        )

    c_atd, _ = qa.restricted_profile(tables["floor_by_3"], [0.5, 1, 2, 3])
    out["floor_c_atd_small_delta"] = {
        "value": c_atd[0.5],
        "expected": 1 / 3,
        "pass": c_atd[0.5] == 1 / 3,
    }

    big = tl.map_table(_phi_map(2, 2, False))
    deltas = [float(d) for d in range(1, 9)]
    c_atd, c_atd_inf = qa.restricted_profile(big, deltas)
    vals = sorted(set(c_atd.values()))
    out["phi_c_atd_all_one"] = {
        "deltas": deltas,
        "values": vals,
        "c_atd_inf": c_atd_inf,
        "pass": vals == [1.0] and c_atd_inf == 1.0,
    }
    out["pass"] = _all_pass(out)
    return out


def _suite_fork() -> dict:
    out: dict = {}
    small = tl.map_table(_phi_map(1, 2, False))
    witness = qa.fork_search(small, eps=0.0, r_min=1.0)
    if witness is None:
        out["exact_fork"] = {"pass": False, "witness": None}
    else:
        problems = witness.self_check(small)
        out["exact_fork"] = {
            "witness": witness.as_dict(),
            "self_check": problems,
            "pass": not problems,
        }

    beta0 = qa.beta_bound_from_fork(0)
    beta_tight = qa.beta_bound_from_fork(Fraction(1, 80))
    out["beta_bounds"] = {
        "at_0": float(beta0),
        "at_1_80": str(beta_tight),
        "at_0.01": qa.beta_bound_from_fork(0.01),
        "pass": beta0 == 0 and beta_tight == 1,
    }

    g = lg.build_laakso(3, 4)
    fork = next(lg.find_forks(g, r_min=3), None)
    if fork is None:
        out["lifted_fork_r3"] = {"pass": False, "witness": None}
    else:
        pm_big = tl.TreeToGraphMap(ts.TreeSpace(4, 27), g)
        lifted = tl.lifted_fork(pm_big, fork)
        tines = [lifted["sigma2"][0], lifted["sigma2"][-1]]
        sep = st.sibling_separation_report(
            tines, st.exponent_for_radius(int(lifted["r"]))
        )
        out["lifted_fork_r3"] = {
            "witness": lifted,
            "separation": sep,
            "pass": lifted["pass"] and sep["pass"],
        }
    out["pass"] = _all_pass(out)
    return out


def lemma42_grid(points: int = 50) -> list[float]:
    return [0.5 * k / points for k in range(1, points + 1)]


def _suite_moduli(seed: int) -> dict:
    out: dict = {}
    for p in (1.5, 2.0, 3.0, 4.0):
        out[f"midpoint_vs_convexity_p{p}"] = md.check_beta_leq_auc(
            md.LpModel(p), lemma42_grid()
        )

    import random as _random

    rng = _random.Random(seed)
    worst_auc = 0.0
    worst_beta = 0.0
    for _ in range(25):
        p = 1.2 + 3.3 * rng.random()
        m = md.LpModel(p)
        t = 0.05 + 0.95 * rng.random()
        worst_auc = max(worst_auc, abs(md.auc_model(m, t) - md.auc_oracle(m, t)))
        tb = (0.05 + 0.9 * rng.random()) * m.separation_cap()
        worst_beta = max(
            worst_beta, abs(md.beta_model(m, tb) - md.beta_oracle(m, tb))
        )
    out["oracle_agreement"] = {
        "draws": 25,
        "seed": seed,
        "max_auc_error": worst_auc,
        "max_beta_error": worst_beta,
        "pass": worst_auc <= md.AUC_ORACLE_TOL
        and worst_beta <= md.BETA_ORACLE_TOL,
    }

    fits = {}
    for kind, p in (("auc", 3.0), ("beta", 2.0)):
        grid = np.geomspace(1e-3, 0.1, 40)
        table = md.tabulate(md.LpModel(p), kind, grid)
        _, p_hat = md.power_type_fit(table)
        fits[f"{kind}_p{p}"] = {
            "fitted": p_hat, "expected": p, "pass": abs(p_hat - p) / p <= 0.05,
        }
    fits["pass"] = _all_pass(fits)
    out["power_type_fits"] = fits

    ratios = [
        abs(md.composed_power_type(2.0, e) - 2.0) / e
        for e in (1e-1, 1e-2, 1e-3, 1e-4)
    ]
    monotone = all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:]))
    out["composed_exponent"] = {
        "ratios": ratios,
        "monotone_decreasing": monotone,
        "pass": monotone and ratios[0] <= 3.5,
    }
    out["pass"] = _all_pass(out)
    return out


def verify_all(seed: int = 0, inject_fault: bool = False,
               timings: bool = False) -> dict:
    suites = {}
    clock = {}
    for name, runner in [
        ("graphs", _suite_graphs),
        ("projection", lambda: _suite_projection(seed, inject_fault)),
        ("atd", _suite_atd),
        ("fork", _suite_fork),
        ("james", st.verify_james),
        ("moduli", lambda: _suite_moduli(seed)),
    ]:
        start = time.perf_counter()
        suites[name] = runner()
        clock[name] = round(time.perf_counter() - start, 3)

    report = {
        "schema": 1,
        "seed": seed,
        "fault_injected": inject_fault,
        "suites": suites,
        "pass": _all_pass(suites),
    }
    if timings:
        report["timings_seconds"] = clock
    return report


def cmd_verify_all(args) -> int:
    report = verify_all(
        seed=args.seed, inject_fault=args.inject_fault, timings=args.timings
    )
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


# -- analyze / fork ------------------------------------------------------------


def _load_table(path: str) -> qa.MetricMapTable:
    with open(path, "r", encoding="utf-8") as fh:
        return qa.MetricMapTable.from_json(fh.read())


def cmd_analyze_map(args) -> int:
    table = _load_table(args.input)
    deltas = _grid(args.delta_grid)
    prof = qa.coarse_profile(table, deltas)
    moduli = {}
    for r in deltas:
        small, big = qa.quotient_moduli(table, r)
        moduli[str(r)] = {"omega": small, "Omega": big}
    sorted_d = sorted(prof.c_atd) if prof.c_atd else []
    monotone = all(
        prof.c_atd[a] <= prof.c_atd[b]
        for a, b in zip(sorted_d, sorted_d[1:])
    ) if prof.c_atd else True
    L_monotone = all(
        prof.L[a] >= prof.L[b] for a, b in zip(sorted(prof.L), sorted(prof.L)[1:])
    )
    report = {
        "schema": 1,
        "lipschitz": qa.lipschitz_constant(table),
        "L": {str(k): v for k, v in prof.L.items()},
        "c": {str(k): v for k, v in prof.c.items()},
        "c_atd": {str(k): v for k, v in prof.c_atd.items()}
        if prof.c_atd is not None
        else None,
        "c_atd_inf": prof.c_atd_inf,
        "ball_moduli": moduli,
        "invariants": {
            "c_atd_monotone": monotone,
            "L_non_increasing": L_monotone,
        },
        "pass": monotone and L_monotone,
    }
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


def cmd_fork(args) -> int:
    table = _load_table(args.input)
    witness = qa.fork_search(
        table, eps=args.eps, r_min=args.rmin, max_arms=args.max_arms
    )
    if witness is None:
        _emit_json({"schema": 1, "witness": None,
                    "reason": "no fork admitted a lift within bounds"},
                   args.out)
        return 1
    problems = witness.self_check(table)
    report = {
        "schema": 1,
        "witness": witness.as_dict(),
        "self_check": problems,
        "beta_bound": qa.beta_bound_from_fork(args.eps),
        "pass": not problems,
    }
    _emit_json(report, args.out)
    return 0 if report["pass"] else 1


# -- moduli --------------------------------------------------------------------


def cmd_moduli(args) -> int:
    model = md.LpModel(args.p)
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    if args.mode == "check-lemma42":
        rep = md.check_beta_leq_auc(model, lemma42_grid(args.points))
        _emit_json(rep, args.out)
        return 0 if rep["pass"] else 1
    if args.tmin <= 0 or args.tmax < args.tmin:
        raise DomainError("need 0 < tmin <= tmax")
    grid = np.geomspace(args.tmin, args.tmax, args.points)
    table = md.tabulate(model, args.kind, grid)
    lines = ["t,value"] + [f"{t},{v}" for t, v in table.samples]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laakso-lab",
        description="Desk-scale workbench for branching trees, recursive "
        "block graphs, the projections between them, and the modulus "
        "arithmetic they feed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit trees and graphs")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    g_tree = gen_sub.add_parser("tree", help="enumerate a truncated tree")
    g_tree.add_argument("--b", type=int, required=True, help="branching")
    g_tree.add_argument("--d", type=int, required=True, help="depth")
    g_tree.add_argument("--out")
    g_tree.set_defaults(func=cmd_generate_tree)
    g_lk = gen_sub.add_parser("laakso", help="build a recursive block graph")
    g_lk.add_argument("--n", type=int, required=True, help="recursion depth")
    g_lk.add_argument("--b", type=int, required=True, help="branching")
    g_lk.add_argument("--format", choices=["json", "dot"], default="json")
    g_lk.add_argument("--out")
    g_lk.set_defaults(func=cmd_generate_laakso)

    ver = sub.add_parser("verify", help="run verification suites")
    ver_sub = ver.add_subparsers(dest="what", required=True)
    v_phi = ver_sub.add_parser("phi", help="projection property suite")
    v_phi.add_argument("--n", type=int, required=True)
    v_phi.add_argument("--b", type=int, required=True)
    mode = v_phi.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, default=None)
    v_phi.add_argument("--seed", type=int, default=0)
    v_phi.add_argument("--inject-fault", action="store_true",
                       help="flip one fraternal index (must be caught)")
    v_phi.add_argument("--replay", default=None,
                       help="counterexample JSON (or @file) to re-check")
    v_phi.add_argument("--out")
    v_phi.set_defaults(func=cmd_verify_phi)
    v_j = ver_sub.add_parser("james", help="staircase vector suite")
    v_j.add_argument("--theta", default="3/4", help="rational like 3/4")
    v_j.add_argument("--indices", type=int, default=12)
    v_j.add_argument("--maxsize", type=int, default=6)
    v_j.add_argument("--out")
    v_j.set_defaults(func=cmd_verify_james)
    v_all = ver_sub.add_parser("all", help="every suite, desk-scale defaults")
    v_all.add_argument("--seed", type=int, default=0)
    v_all.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks "
                       "byte-for-byte reproducibility)")
    v_all.add_argument("--inject-fault", action="store_true")
    v_all.add_argument("--out")
    v_all.set_defaults(func=cmd_verify_all)

    an = sub.add_parser("analyze", help="analyze a stored map table")
    an_sub = an.add_subparsers(dest="what", required=True)
    a_map = an_sub.add_parser("map", help="profiles and ball moduli")
    a_map.add_argument("--input", required=True, help="map table JSON path")
    a_map.add_argument("--delta-grid", required=True, help="e.g. 1,2,3")
    a_map.add_argument("--out")
    a_map.set_defaults(func=cmd_analyze_map)

    fk = sub.add_parser("fork", help="search a map table for a fork")
    fk.add_argument("--input", required=True, help="map table JSON path")
    fk.add_argument("--eps", type=float, default=0.0)
    fk.add_argument("--rmin", type=float, default=1.0)
    fk.add_argument("--max-arms", type=int, default=None)
    fk.add_argument("--out")
    fk.set_defaults(func=cmd_fork)

    mo = sub.add_parser("moduli", help="tabulate or check modulus models")
    mo.add_argument("mode", nargs="?", choices=["table", "check-lemma42"],
                    default="table")
    mo.add_argument("--p", type=float, required=True)
    mo.add_argument("--kind", choices=["auc", "aus", "beta"], default="beta")
    mo.add_argument("--tmin", type=float, default=0.01)
    mo.add_argument("--tmax", type=float, default=0.5)
    mo.add_argument("--points", type=int, default=50)
    mo.add_argument("--out")
    mo.set_defaults(func=cmd_moduli)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

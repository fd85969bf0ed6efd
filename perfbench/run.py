"""Verdict-latency benchmark for laakso-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One driver process runs operations one after another (closed loop, one
client).  Every step of an operation is a ``laakso-lab`` command or a
public-API verification run in a fresh worker interpreter, so each pays
the cold import and the cold ``_dist`` memo that a user's CLI call pays.
Each operation is gated: it fails if a step raises, exits with an
unexpected code, reports the wrong verdict, or reports work counts other
than the ones derived here.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, measured by wrapping each layer's public functions in
the worker (see tracer.py), plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
WORK_DIR = ROOT / ".perfbench"

# A run must exit within 180 s: no operation starts after LAST_START_S and
# no worker outlives HARD_STOP_S, both counted from process start.
LAST_START_S = 110.0
HARD_STOP_S = 170.0
STARTED = time.perf_counter()

# End-to-end times are scaled to a reference speed: each is multiplied by
# CAL_REF_S over the time of worker.calibrate() measured around it, i.e.
# reported as seconds on a machine where that loop takes CAL_REF_S.  The
# speed of a shared machine swings by a third within seconds, and the scaled
# times spread several times less than raw ones; raw times are in the info.
CAL_REF_S = 0.05

# The atd suite's c-grid in ``verify all``, and the delta grid of the
# analyzed phi table.
C_GRID = [0.05, 0.15, 0.25, 1 / 3, 0.45, 0.55, 0.7, 0.85, 1.0, 1.25]
DELTAS = [float(d) for d in range(1, 9)]
ORACLE_GRAPHS = ((4, 2), (3, 5))
VERIFY_ALL_GRAPHS = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))


class OpFailed(Exception):
    """The operation's gate rejected it; the message says why."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise OpFailed(reason)


def vertex_count(n: int, b: int) -> int:
    """|G(n, b)|: the basic block has b + 3 vertices, and at each further
    stage each of its 2b + 1 edges carries a copy of the previous stage,
    whose two end vertices are shared with the block."""
    v = b + 3
    for _ in range(n - 1):
        v = (b + 3) + (2 * b + 1) * (v - 2)
    return v


def tree_size(b: int, d: int) -> int:
    return sum(b**k for k in range(d + 1))


def pairs(k: int) -> int:
    return k * (k - 1) // 2


# -- one operation -------------------------------------------------------------


class Op:
    """The steps of one operation, each run in its own worker."""

    def __init__(self, run: "Run", index: int, traced: bool):
        self.run = run
        self.index = index
        self.traced = traced
        self.op_s = 0.0
        self.op_ref_s = 0.0
        self.wall_ref_s = 0.0
        self.setups: list[float] = []
        self.setups_ref: list[float] = []
        self.rss_kb = 0
        self.steps: list[dict] = []
        self.failure: str | None = None

    def path(self, name: str) -> str:
        return str(self.run.workdir / f"op{self.index}-{name}")

    def write(self, name: str, payload) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def cli(self, name: str, argv: list[str], rc: int) -> dict:
        return self.step(name, {"kind": "cli", "argv": argv}, rc)

    def api(self, name: str, api: str, args: dict) -> dict:
        return self.step(name, {"kind": "api", "api": api, "args": args}, 0)

    def step(self, name: str, spec: dict, rc: int) -> dict:
        k = len(self.steps)
        spec = dict(spec, src=str(SRC), trace=self.traced, out=self.path(f"{k}.json"),
                    result=self.path(f"{k}.result.json"))
        result, stderr, wall = self.run.spawn(spec, importtime=self.traced)
        cal = result["cal"]
        self.setups.append(result["setup_s"])
        self.setups_ref.append(result["setup_s"] * CAL_REF_S * 2 / (cal[0] + cal[1]))
        self.wall_ref_s += (wall - sum(cal)) * CAL_REF_S * len(cal) / sum(cal)
        self.rss_kb = max(self.rss_kb, result["maxrss_kb"])
        if "op_s" in result:
            self.op_s += result["op_s"]
            self.op_ref_s += result["op_s"] * CAL_REF_S * 2 / (cal[1] + cal[2])
        self.run.versions = result["versions"]
        record = {"name": name, "trace": result.get("trace"),
                  "imports": import_times(stderr) if self.traced else {}}
        self.steps.append(record)
        expect(result["error"] is None, f"{name}: {result['error']}")
        expect(result["rc"] == rc,
               f"{name}: exit {result['rc']}, expected {rc}: {stderr[-300:]}")
        with open(spec["out"], "rb") as fh:
            raw = fh.read()
        self.run.digests.setdefault(name, set()).add(hashlib.sha256(raw).hexdigest())
        return json.loads(raw)


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds of each laakso_lab layer, from the lines
    ``-X importtime`` writes: 'import time: self | cumulative | name'."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if len(fields) == 3 and fields[1].isdigit() and fields[2].startswith("laakso_lab."):
            out.setdefault(fields[2][len("laakso_lab."):], int(fields[1]) / 1e6)
    return out


# -- workloads -----------------------------------------------------------------


def op_verify_all(op: Op, args, inputs) -> None:
    argv = ["verify", "all", "--seed", str(args.seed)]
    if args.inject_fault:
        argv.append("--inject-fault")
    rep = op.cli("verify all", argv, rc=0)
    expect(rep["pass"] is True, "verify all: verdict is not pass")
    graphs = rep["suites"]["graphs"]
    for n, b in VERIFY_ALL_GRAPHS:
        v = vertex_count(n, b)
        expect(graphs[f"structure_n{n}_b{b}"]["vertex_count"] == v,
               f"verify all: G({n},{b}) does not have {v} vertices")
        expect(graphs[f"oracle_n{n}_b{b}"]["pairs_checked"] == pairs(v),
               f"verify all: G({n},{b}) oracle did not check {pairs(v)} pairs")
    lip = rep["suites"]["projection"]["projection_T2_9_to_G2"]["checks"]["lipschitz"]
    expect(lip["pairs"] == pairs(tree_size(2, 9)),
           "verify all: projection did not check every pair of T(2,9)")
    expect(rep["suites"]["atd"]["phi_c_atd_all_one"]["values"] == [1.0],
           "verify all: phi c_atd values are not [1.0]")


def op_phi_sampled(op: Op, args, inputs) -> None:
    seed = str(args.seed)
    rep = op.cli("verify phi 2 3", ["verify", "phi", "--n", "2", "--b", "3",
                                    "--seed", seed], rc=0)
    lip = rep["checks"]["lipschitz"]
    expect(rep["pass"] is True and rep["mode"] == "sampled",
           "verify phi 2 3: not a passing sampled run")
    expect(rep["tree"]["nodes"] == tree_size(3, 9)
           and rep["graph"]["vertices"] == vertex_count(2, 3),
           "verify phi 2 3: wrong tree or graph size")
    expect(lip["pairs"] == 20_000
           and lip["comparable_pairs"] + lip["incomparable_pairs"] == 20_000,
           "verify phi 2 3: did not sample 20000 pairs")

    fault = ["verify", "phi", "--n", "2", "--b", "2", "--inject-fault"]
    bad = op.cli("verify phi 2 2 fault", fault + ["--seed", seed], rc=1)
    expect(bad["pass"] is False, "verify phi 2 2 fault: fault not caught")
    expect(bad["checks"]["lipschitz"]["pairs"] == pairs(tree_size(2, 9)),
           "verify phi 2 2 fault: did not check every pair of T(2,9)")
    case = next((c for check in bad["checks"].values()
                 for c in check["counterexamples"] if isinstance(c, dict)), None)
    expect(case is not None, "verify phi 2 2 fault: no replayable counterexample")
    rep = op.cli("verify phi 2 2 replay",
                 fault + ["--replay", "@" + op.write("case.json", case)], rc=1)
    expect(rep["pass"] is False and rep["check"] == case["check"],
           "verify phi 2 2 replay: counterexample did not reproduce")


def op_graph_oracle(op: Op, args, inputs) -> None:
    rep = op.api("graph oracle", "graph_oracle", {"graphs": ORACLE_GRAPHS})
    for n, b in ORACLE_GRAPHS:
        v = vertex_count(n, b)
        structure, oracle = rep[f"G{n}_{b}"]["structure"], rep[f"G{n}_{b}"]["oracle"]
        expect(structure["pass"] is True and structure["vertex_count"] == v
               and structure["diameter"] == 3**n,
               f"graph oracle: G({n},{b}) structure report is wrong")
        expect(oracle["pass"] is True and oracle["pairs_checked"] == pairs(v)
               and oracle["mismatch_count"] == 0,
               f"graph oracle: G({n},{b}) did not agree on all {pairs(v)} pairs")


def prepare_map_table(run: "Run") -> dict:
    """Untimed input: the phi map table T(2,9) -> G(2,2), stored once."""
    path = str(run.workdir / "phi_T2_9_G2_2.json")
    spec = {"kind": "api", "api": "map_table", "args": {"n": 2, "b": 2},
            "src": str(SRC), "trace": False, "out": path,
            "result": str(run.workdir / "map_table.result.json")}
    result, stderr, _ = run.spawn(spec, importtime=False)
    if result["error"] is not None or result["rc"] != 0:
        raise OpFailed(f"map table: {result['error'] or stderr[-300:]}")
    return {"table": path}


def op_map_analyze(op: Op, args, inputs) -> None:
    table = inputs["table"]
    grid = ",".join(str(int(d)) for d in DELTAS)
    rep = op.cli("analyze map", ["analyze", "map", "--input", table,
                                 "--delta-grid", grid], rc=0)
    expect(rep["pass"] is True, "analyze map: verdict is not pass")
    expect(sorted(rep["c_atd"].values()) == [1.0] * len(DELTAS)
           and rep["c_atd_inf"] == 1.0, "analyze map: c_atd is not 1 at every delta")
    rep = op.cli("fork", ["fork", "--input", table, "--eps", "0"], rc=0)
    expect(rep["pass"] is True and rep["witness"] is not None
           and rep["self_check"] == [], "fork: no self-checked witness")
    rep = op.api("cross_validate_atd", "atd_cross",
                 {"table": table, "c_grid": C_GRID, "deltas": DELTAS})
    expect(rep["pass"] is True and rep["checked"] == len(C_GRID) * len(DELTAS),
           "cross_validate_atd: routes disagree or grid not covered")


WORKLOADS = {
    "verify-all": (op_verify_all, None),
    "phi-sampled": (op_phi_sampled, None),
    "graph-oracle": (op_graph_oracle, None),
    "map-analyze": (op_map_analyze, prepare_map_table),
}


# -- one run -------------------------------------------------------------------


class Run:
    """Workers, scratch files and results of one measured run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env.pop("LAAKSO_LAB_MAX_VERTICES", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.digests: dict[str, set[str]] = {}
        self.versions: dict = {}

    def spawn(self, spec: dict, importtime: bool) -> tuple[dict, str, float]:
        """Run one worker to completion; return its result, its stderr and
        the wall seconds from spawn to exit."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        timeout = max(1.0, HARD_STOP_S - (time.perf_counter() - STARTED))
        spec = dict(spec, spawned=time.perf_counter())
        proc = subprocess.Popen(
            cmd + [str(WORKER), json.dumps(spec)], cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
            wall = time.perf_counter() - spec["spawned"]
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise OpFailed(f"worker killed after {timeout:.0f} s") from None
            raise
        try:
            with open(spec["result"], "r", encoding="utf-8") as fh:
                return json.load(fh), stderr, wall
        except (OSError, ValueError):
            raise OpFailed(f"worker exited {proc.returncode} without a result: "
                           f"{stderr[-300:]}") from None


def run_workload(name: str, args) -> tuple[list[Op], float, Run]:
    op_fn, prepare = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    run = Run(Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)))
    ops: list[Op] = []
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        start = now = time.perf_counter()
        try:
            inputs = prepare(run) if prepare else {}
        except OpFailed as exc:
            op = Op(run, 0, traced=False)
            op.failure = f"input set-up: {exc}"
            return [op], time.perf_counter() - start, run
        start = now = time.perf_counter()
        walls: list[float] = []
        while True:
            op = Op(run, len(ops), traced=bool(args.trace) and len(ops) % 2 == 1)
            try:
                op_fn(op, args, inputs)
            except (OpFailed, KeyError, TypeError, IndexError, ValueError) as exc:
                op.failure = f"{type(exc).__name__}: {exc}"
            ops.append(op)
            walls.append(time.perf_counter() - now)
            now = time.perf_counter()
            if now - STARTED > LAST_START_S:
                break
            # Start another operation only if a typical one still fits; a
            # traced run needs at least one untraced and one traced op.
            if args.trace:
                if now - start >= args.seconds and len(ops) >= 2:
                    break
            elif now - start + statistics.median(walls) > args.seconds:
                break
        wall = now - start
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    return ops, wall, run


# -- metrics -------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return {f"p{p:g}": cut[round(p * 10) - 1]}
    return {}


def end_to_end(ops: list[Op]) -> dict:
    """Speed-adjusted times (see CAL_REF_S) of the untraced operations."""
    untraced = [op for op in ops if not op.traced]
    passed = [op.op_ref_s for op in untraced if op.failure is None]
    wall = sum(op.wall_ref_s for op in untraced)
    return {
        "op_s_p50": median(passed),
        "ops_per_s": len(passed) / wall if wall else 0.0,
        "setup_s": median([s for op in untraced for s in op.setups_ref]),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024,
        "ok_op_ratio": sum(op.failure is None for op in ops) / len(ops),
    }


def per_layer(ops: list[Op]) -> dict:
    """Median over traced operations of each layer metric, summed over the
    operation's steps.  Memo metrics are absent when the memo is."""
    per_op = []
    imports: dict[str, list[float]] = {}
    for op in ops:
        if not op.traced or op.failure is not None:
            continue
        sums: dict[str, float] = {}
        memo = {"hits": 0, "misses": 0, "size": 0}
        has_memo = True
        for step in op.steps:
            for key, value in step["trace"]["metrics"].items():
                sums[key] = sums.get(key, 0) + value
            if "memo" in step["trace"]:
                for key in memo:
                    memo[key] += step["trace"]["memo"][key]
            else:
                has_memo = False
            for layer, secs in step["imports"].items():
                imports.setdefault(f"{layer}.import_s", []).append(secs)
        if has_memo:
            lookups = memo["hits"] + memo["misses"]
            sums["laakso_graph.dist_memo_hit_ratio"] = (
                memo["hits"] / lookups if lookups else 0.0)
            sums["laakso_graph.dist_memo_evictions"] = memo["misses"] - memo["size"]
        sums["trace.op_s"] = op.op_s
        per_op.append(sums)
    out = {key: statistics.median(d[key] for d in per_op)
           for key in (per_op[0] if per_op else {})}
    out.update({key: statistics.median(v) for key, v in imports.items()})
    untraced = [op.op_s for op in ops if not op.traced and op.failure is None]
    if per_op and untraced:
        out["trace.untraced_op_s_p50"] = statistics.median(untraced)
        out["trace.op_s_p50"] = out.pop("trace.op_s")
        out["trace.overhead_s"] = out["trace.op_s_p50"] - out["trace.untraced_op_s_p50"]
    return out


def write_spans(name: str, args, ops: list[Op]) -> Path:
    path = WORK_DIR / f"spans-{name}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for op in ops:
            for k, step in enumerate(op.steps):
                for i, (span, t0, t1, parent) in enumerate(
                        (step["trace"] or {}).get("spans", [])):
                    fh.write(json.dumps({"op": op.index, "step": k, "id": i,
                                         "parent": parent, "name": span,
                                         "start": t0, "end": t1}) + "\n")
    return path


def environment(run: Run) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {**run.versions, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()}


def measure(name: str, args, spec: dict) -> dict:
    """Run one workload, print its metrics, and return the result object."""
    ops, wall, run = run_workload(name, args)
    failed = [op for op in ops if op.failure is not None]
    if args.trace:
        values, declared = per_layer(ops), spec["per_layer"]
    else:
        values, declared = end_to_end(ops), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    timed = [op for op in ops if not op.traced and op.failure is None]
    raw = [op.op_s for op in timed]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {len(failed)}  wall {wall:.2f} s")
    for key, m in metrics.items():
        print(f"  {key:42s} {m['value']:14.6f} {m['unit']}")
    if args.trace:
        traced = [op for op in ops if op.traced and op.failure is None]
        for op in traced:
            shares = {layer: sum(s["trace"]["metrics"][f"{layer}.self_s"]
                                 for s in op.steps) / op.op_s
                      for layer in LAYERS}
            print(f"  op {op.index} self-time share: " + "  ".join(
                f"{layer} {share:.1%}" for layer, share in shares.items()))
        print(f"  spans written to {write_spans(name, args, ops)}")
    info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "op_samples": len(timed), "op_s_raw": raw, **tail(raw),
            "op_s_ref": [op.op_ref_s for op in timed],
            "setup_s_raw_p50": median(
                [s for op in ops if not op.traced for s in op.setups]),
            "failures": [op.failure for op in failed][:5],
            "report_sha256": {k: sorted(v) for k, v in run.digests.items()},
            "env": environment(run)}
    print("info " + json.dumps(info, sort_keys=True))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="negative control: verify-all runs with a fault "
                        "injected, so every operation must fail the gate")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "laakso_lab" / "__init__.py").is_file():
        print(f"error: no laakso_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.inject_fault and args.workload != "verify-all":
        parser.error("--inject-fault applies to the verify-all workload only")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" \
        else [args.workload]
    results = {name: measure(name, args, spec) for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One step of a benchmark operation, run in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON

The spec names the step (a ``laakso-lab`` command line, or one of the
public-API calls below), the report path it writes, and the path this
worker writes its result to.  ``spawned`` is the driver's
``time.perf_counter()`` just before it started this process; on Linux that
clock is system-wide, so ``setup_s`` covers interpreter start plus the
import of ``laakso_lab``.  ``op_s`` runs from the call until the report is
written and closed.

``cal`` holds three timings of a fixed pure-Python loop: before the
import, between import and step, and after the step.  They measure the
machine's speed at the moment, so the driver can scale each time by the
calibrations that bracket it.  The loops are not part of either time.
"""

import json
import os
import sys
import time
import traceback


# About run.CAL_REF_S (0.05 s) on a 2-vCPU VM running Python 3.11.
CAL_LOOPS = 600_000


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def graph_oracle(graphs):
    """Build each graph, then its structure and BFS-oracle reports."""
    from laakso_lab import build_laakso, oracle_agreement_report, structure_report

    report = {}
    for n, b in graphs:
        g = build_laakso(n, b)
        report[f"G{n}_{b}"] = {
            "structure": structure_report(g),
            "oracle": oracle_agreement_report(g),
        }
    return report


def atd_cross(table, c_grid, deltas):
    """Ingest a stored map table and cross-validate its restricted
    co-Lipschitz constant over the (c, delta) grid."""
    from laakso_lab import MetricMapTable, cross_validate_atd

    with open(table, "r", encoding="utf-8") as fh:
        table = MetricMapTable.from_dict(json.load(fh))
    return cross_validate_atd(table, c_grid, deltas)


def map_table(n, b):
    """The projection T(b, 3^n) -> G(n, b) as a plain map table."""
    from laakso_lab import TreeSpace, TreeToGraphMap, as_map_table, build_laakso

    return as_map_table(TreeToGraphMap(TreeSpace(b, 3**n), build_laakso(n, b)))


API = {"graph_oracle": graph_oracle, "atd_cross": atd_cross,
       "map_table": map_table}


def run_step(spec) -> int:
    if spec["kind"] == "cli":
        from laakso_lab import cli

        return cli.main(spec["argv"] + ["--out", spec["out"]])
    from laakso_lab import json_ready

    payload = API[spec["api"]](**spec["args"])
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(json_ready(payload), fh, sort_keys=True)
    return 0


def memo_info():
    """Counters of the ``_dist`` memo, or None if the program has none."""
    from laakso_lab import laakso_graph

    memo = getattr(laakso_graph, "_dist", None)
    if not hasattr(memo, "cache_info"):
        return None
    hits, misses, _, size = memo.cache_info()
    return {"hits": hits, "misses": misses, "size": size}


def main() -> None:
    begun = time.perf_counter()
    spec = json.loads(sys.argv[1])
    cal = [calibrate()]
    importing = time.perf_counter()
    import laakso_lab
    import laakso_lab.cli

    ready = time.perf_counter()
    cal.append(calibrate())
    result = {"setup_s": (begun - spec["spawned"]) + (ready - importing),
              "rc": None, "error": None, "cal": cal}
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(laakso_lab.__file__).startswith(src + os.sep):
        result["error"] = f"laakso_lab imported from {laakso_lab.__file__}"
    else:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            memo_before = memo_info()
        t0 = time.perf_counter()
        try:
            result["rc"] = run_step(spec)
        except Exception:
            result["error"] = traceback.format_exc()
        result["op_s"] = time.perf_counter() - t0
        cal.append(calibrate())
        if tracer is not None:
            result["trace"] = tracer.summary()
            memo_after = memo_info()
            if memo_before is not None and memo_after is not None:
                result["trace"]["memo"] = {
                    k: memo_after[k] - memo_before[k] for k in memo_after}
    import numpy
    import resource
    import scipy

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

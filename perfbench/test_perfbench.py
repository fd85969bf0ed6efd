"""Tests of the benchmark itself: the gate, the tracer and the exit paths.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_negative_control_counts_failed_ops():
    """A fault-injected verify all goes through the same gate and must be
    reported as failed operations, not crash the driver."""
    proc = bench("--workload", "verify-all", "--seed", "0", "--seconds", "1",
                 "--inject-fault")
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_op_ratio"]["value"] == 0.0
    info = json.loads(lines[-2][len("info "):])
    assert "exit 1, expected 0" in info["failures"][0]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "phi-sampled", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_worker_counts_layer_work(tmp_path):
    """Tracing one small graph-oracle step: structure and oracle reports
    each measure every pair once, all inside laakso_graph."""
    spec = {"kind": "api", "api": "graph_oracle", "args": {"graphs": [[1, 2]]},
            "src": str(run.SRC), "trace": True, "out": str(tmp_path / "r.json"),
            "result": str(tmp_path / "result.json")}
    result, _, _ = run.Run(tmp_path).spawn(spec, importtime=False)
    assert result["error"] is None and result["rc"] == 0
    metrics = result["trace"]["metrics"]
    v = run.vertex_count(1, 2)
    assert metrics["laakso_graph.distance_calls"] == 2 * run.pairs(v)
    assert metrics["laakso_graph.self_s"] > 0
    assert metrics["quotient_analysis.self_s"] == 0
    assert result["trace"]["memo"]["misses"] > 0
    names = {span[0] for span in result["trace"]["spans"]}
    assert "laakso_graph.structure_report" in names


def test_vertex_counts_match_known_graphs():
    assert [run.vertex_count(n, 2) for n in (1, 2, 3, 4)] == [5, 20, 95, 470]
    assert run.vertex_count(3, 5) == 800
    assert run.pairs(run.vertex_count(3, 5)) == 319_600
    assert run.tree_size(3, 9) == 29_524


def test_import_times_reads_cumulative_layer_times():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        340 |   laakso_lab.tree_space",
        "import time:        80 |     470000 | laakso_lab.moduli",
        "import time:        10 |         10 | json",
    ])
    assert run.import_times(stderr) == {"tree_space": 0.00034, "moduli": 0.47}


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 99) == {}
    assert list(run.tail([float(i) for i in range(100)])) == ["p90"]
    assert list(run.tail([float(i) for i in range(1000)])) == ["p99"]

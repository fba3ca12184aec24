"""Self-checks of the benchmark harness.

usage (from the repository root):
    python3 -m pytest perfbench/harness_check.py

Tiny-size smoke runs of all four workloads, untraced and traced, and
the gap attribution on the ROADMAP example instance. The file name
keeps these checks out of the default pytest collection.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bigenus as bg  # noqa: E402
import golden  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer, module_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Every end-to-end metric the benchmark definition names; the final
# JSON line carries the subset in BENCHMARK.json, the table all of them.
ALL_END_TO_END = {
    "setup_s": "s", "items_per_s": "1/s", "item_s_p50": "s", "item_s_tail": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio", "refused_frac": "ratio",
    "upper_over_prediction": "ratio", "coverage": "ratio",
}


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def table_of(stdout: str) -> dict[str, tuple[str, str]]:
    """metric name -> (value, unit) from the printed table."""
    rows = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("  ") and len(line.split()) >= 3:
            name, value, unit = line.split()[:3]
            rows[name] = (value, unit)
    return rows


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    table = table_of(proc.stdout)
    for name, unit in ALL_END_TO_END.items():
        assert table[name][1] == unit, name
    assert float(table["failed_frac"][0]) == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_module_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    table = table_of(proc.stdout)
    for name, unit in PER_LAYER.items():
        assert table[name][1] == unit, name


def test_refuses_outside_a_checkout(tmp_path):
    proc = bench("dense-i1", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gap_attribution_reproduces_roadmap_example():
    g = bg.gen_random_bipartite(bg.GenParams(80, 80, 0.5, seed=0))
    original = bg.estimate_genus
    tracer = Tracer()
    tracer.install()
    try:
        est = bg.estimate_genus(g, 1, bg.PipelineConfig(seed=0, p=0.5))
    finally:
        tracer.uninstall()
    assert bg.estimate_genus is original
    m = module_metrics(tracer.spans, 1)
    assert (est.upper, est.prediction) == (954, 800.0)
    assert est.face_histogram[4] == 1085
    assert m["embedding.faces"] == 1091
    assert m["embedding.leftover_faces"] == 6
    assert m["embedding.longest_face"] == 728
    assert m["trails.uncovered_arcs"] == 1982
    assert m["blossom.removed"] == est.blossoms_removed
    names = {s["name"] for s in tracer.spans}
    assert {"trails.build_trail_hypergraph", "blossom.assemble_rotation",
            "embedding.trace_faces"} <= names
    for s in tracer.spans:
        assert 0.0 <= s["self"] <= s["end"] - s["start"] + 1e-9


def test_golden_diff(tmp_path):
    def write(name, items):
        path = tmp_path / name
        path.write_text(json.dumps({"env": {}, "items": items}))
        return str(path)

    old = write("old.json", {"0:a": {"upper": 3}, "1:b": {"upper": 4}})
    same = write("same.json", {"0:a": {"upper": 3}})
    moved = write("moved.json", {"0:a": {"upper": 5}})
    assert golden.main([old, same]) == 0
    assert golden.main([old, moved]) == 1

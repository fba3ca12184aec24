"""The bigenus benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a bigenus checkout; the package is imported from
its src/ directory, never from an installed copy. Workloads (see
workloads.py and BENCHMARK.json): dense-i1, sparse-i1, sweep-i2,
oracle-small. Every input is made from --seed.

--trace 0 prints the end-to-end metrics: set-up time (median of
SETUP_SAMPLES fresh set-ups), items per second, per-item wall time
(fastest round, median and tail percentile over rounds), peak RSS of
the measuring process and its children, failed and refused fractions,
bound quality and matching coverage. --trace 1 prints the per-module
metrics from a traced run and the tracing overhead. A table with every
metric comes first; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and the `metrics` BENCHMARK.json
gates (END_TO_END or PER_LAYER below).

Each run also writes, under perfbench/out/: the golden record of
per-item outputs (golden/<workload>/seed-<n>.json, untraced runs), the
result with its environment (results/), and the spans (trace/).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 175

# Metrics in the final JSON line, as listed in BENCHMARK.json. Per-item
# time is printed but not gated: on a shared 2-vCPU host the same call
# runs up to 1.7x slower for stretches of ~15 s, and a dense-i1 item
# took 13.4 s in one hour and 9.3 s in the next, so no statistic of a
# 20 s run stays within a 0.25 bound. Compare timings between two
# commits by alternating runs of both. failed_frac and refused_frac
# are 0 on most workloads; `failed` and `attempted` in the JSON line
# carry the first.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "upper_over_prediction": "ratio",
    "coverage": "ratio",
}
PER_LAYER = {
    "bigraph.generate_s": "s/item",
    "bigraph.orient_s": "s/item",
    "estimator.lower_bound_s": "s/item",
    "trails.enumerate_s": "s/item",
    "trails.hyperedges": "count/estimate",
    "trails.match_s": "s/item",
    "trails.match_yield": "ratio",
    "trails.coverage_mirror": "ratio",
    "trails.uncovered_arcs": "count/estimate",
    "blossom.remove_s": "s/item",
    "blossom.assemble_s": "s/item",
    "blossom.removed": "count/estimate",
    "blossom.survive_frac": "ratio",
    "embedding.trace_s": "s/item",
    "embedding.faces": "count/estimate",
    "embedding.leftover_faces": "count/estimate",
    "embedding.longest_face": "arcs",
    "oracle.exact_s": "s/item",
    "oracle.rotation_systems": "count/solved",
    "oracle.solved": "count",
    "oracle.refused": "count",
    "cli.rows": "count",
    "cli.error_rows": "count",
    "cli.skipped_cells": "count",
    "cli.overhead_s": "s/round",
    "trace.item_s": "s/item",
    "trace.overhead_frac": "ratio",
}


class WorkerError(RuntimeError):
    pass


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], env: dict) -> tuple[float, str]:
    """Run worker.py; return (seconds until it printed `ready`, last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    # A session of its own, so the `experiment` subprocess and its pool
    # workers can be stopped together with the worker.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, kill_group, (proc,))
    watchdog.start()
    try:
        ready = None
        last = ""
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group(proc)
        proc.wait()
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code}")
    return ready, last


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten
    samples above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def round_times(res: dict) -> list[float]:
    """Per-item wall time of each whole round: the round's time over
    its item count. A round cut short by the deadline is left out."""
    rounds: dict[int, list[float]] = {}
    for i in res["items"]:
        rounds.setdefault(i["round"], []).append(i["seconds"])
    return [sum(t) / len(t) for r, t in sorted(rounds.items()) if r < res["rounds"]]


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[tuple]]:
    items = res["items"]
    attempted = len(items)
    failed = sum(i["status"] == "failed" for i in items)
    refused = sum(i["status"] == "refused" for i in items)
    times = round_times(res)
    ok = [i["record"] for i in items if i["status"] == "ok"]
    bounded = [r for r in ok if r.get("upper") is not None and r.get("prediction")]
    covered = [r["coverage"] for r in ok if r.get("coverage") is not None]
    tail = tail_percentile(times)
    m = {
        "setup_s": statistics.median(setup),
        "items_per_s": (attempted - failed) / res["wall_s"] if res["wall_s"] else 0.0,
        "item_s_best": min(times) if times else 0.0,
        "item_s_p50": statistics.median(times) if times else 0.0,
        "item_s_tail": tail[1] if tail else None,
        "peak_rss_mb": res["peak_rss_mb"],
        "failed_frac": failed / attempted if attempted else 0.0,
        "refused_frac": refused / attempted if attempted else 0.0,
        "upper_over_prediction": (sum(r["upper"] for r in bounded)
                                  / sum(r["prediction"] for r in bounded)
                                  if bounded else 0.0),
        "coverage": statistics.fmean(covered) if covered else 0.0,
    }
    rows = [
        ("setup_s", m["setup_s"], "s", f"median of {len(setup)} set-ups"),
        ("items_per_s", m["items_per_s"], "1/s",
         f"{attempted - failed} items in {res['wall_s']:.2f} s"),
        ("item_s_best", m["item_s_best"], "s", f"fastest round, n={len(times)}"),
        ("item_s_p50", m["item_s_p50"], "s", f"over rounds, n={len(times)}"),
        ("item_s_tail", m["item_s_tail"], "s",
         f"p{tail[0]:.0f} over rounds, n={len(times)}" if tail
         else f"n/a: needs 11 rounds, n={len(times)}"),
        ("peak_rss_mb", m["peak_rss_mb"], "MB", "max over the run's processes"),
        ("failed_frac", m["failed_frac"], "ratio", f"{failed}/{attempted}"),
        ("refused_frac", m["refused_frac"], "ratio", f"{refused}/{attempted}"),
        ("upper_over_prediction", m["upper_over_prediction"], "ratio",
         f"sum(upper)/sum(prediction) over {len(bounded)} items"),
        ("coverage", m["coverage"], "ratio", f"mean over {len(covered)} items"),
    ]
    return m, rows


def print_table(title: str, rows: list[tuple]) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:26s} {shown:>12s} {unit:10s} {note}")


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bigenus benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every input (harness self-checks)")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "bigenus", "__init__.py")):
        print("error: src/bigenus not found; run from the root of a bigenus checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    tag = f"{args.workload}-seed-{args.seed}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir] + (["--tiny"] if args.tiny else [])
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(spawn(base + ["--setup-only"], env)[0])
        ready, last = spawn(base, env)
        setup.append(ready)
    except (WorkerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(last)

    items = res["items"]
    failed = [i for i in items if i["status"] == "failed"]
    for i in failed[:10]:
        print(f"FAILED {i['key']}: {i['detail']}", file=sys.stderr)
    m, rows = end_to_end(res, setup)
    env_line = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"bigenus benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {env_line}")
    if res["cut"]:
        print("  (the item running at the deadline was cut and is not counted)")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": res["env"]}
    if args.trace:
        layers = res["per_layer"]
        print_table("per-module metrics (traced run):",
                    [(k, layers[k], u, "") for k, u in PER_LAYER.items()])
        print_table("share of traced item wall time spent as module self time"
                    " (summed over worker processes):",
                    [(k, v, "ratio", "") for k, v in res["shares"].items()])
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        with_spans = os.path.join(OUT, "trace", f"{tag}.jsonl")
        os.makedirs(os.path.dirname(with_spans), exist_ok=True)
        with open(with_spans, "w") as fh:
            for span in res["spans"]:
                fh.write(json.dumps(span) + "\n")
    else:
        print_table("end-to-end metrics:", rows)
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}
        if not args.tiny:
            write_json(os.path.join(OUT, "golden", args.workload, f"seed-{args.seed}.json"),
                       {"env": res["env"],
                        "items": {i["key"]: i["record"] for i in items
                                  if i["status"] != "failed"}})
    result["metrics"] = metrics
    result["all_end_to_end"] = m
    result["setup_samples"] = setup
    result["items"] = [{k: i[k] for k in ("key", "status", "seconds", "round")}
                       for i in items]
    write_json(os.path.join(OUT, "results", f"{tag}-trace{args.trace}.json"), result)
    print(json.dumps({"correct": not failed, "attempted": len(items),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

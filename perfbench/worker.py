"""One measured run of one workload, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.
Prints `ready` once its inputs exist (run.py times set-up up to that
line), then runs whole rounds of items until `--seconds` have passed and
prints one JSON line with every outcome, the per-item times and the
per-layer numbers. `wall_s` ends with the last completed item. With --setup-only it exits after `ready`.

With --trace 1 every input runs twice, once plain and once under the
tracer, in alternating order. The plain runs give the item times; the
traced ones give the spans. Both must produce the same outputs, and
their time ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import resource
import sys
import time

import bigenus
import numpy

from tracing import TIME_GROUPS, Tracer, module_metrics
from workloads import REFUSALS, WORKLOADS, Cut, Outcome


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "bigenus": bigenus.__version__}


def tracing(tracer: Tracer | None, item: str):
    return contextlib.nullcontext() if tracer is None else tracer.active(item)


def execute(wl, inp, deadline, tracer, counters, spans):
    """(seconds, outcomes), or None when the deadline cut the item."""
    key = wl.key(inp)
    with tracing(tracer, key):
        t0 = time.perf_counter()
        try:
            result = wl.run(inp, deadline, tracer is not None)
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.item = key + "/check"
            outcomes = wl.outcomes(inp, result, counters, spans)
        except Cut:
            return None
        except REFUSALS as exc:
            seconds = time.perf_counter() - t0
            outcomes = wl.refused_outcomes(inp, exc, counters)
        except Exception as exc:  # a failed item is counted, not fatal
            seconds = time.perf_counter() - t0
            outcomes = [Outcome(key, "failed", {}, f"{type(exc).__name__}: {exc}")]
    return seconds, outcomes


def measure(wl, seconds: float, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    with tracing(tracer, "setup"):
        wl.setup()
    print("ready", flush=True)

    counters: dict[str, float] = collections.defaultdict(float)
    spans: list[dict] = []
    items, traced_times = [], []
    plain_s = traced_s = 0.0
    cut = False
    t0 = last_done = time.perf_counter()
    deadline = t0 + seconds
    n = 0
    while n % wl.round_size or time.perf_counter() < deadline:
        with tracing(tracer, f"input-{n}"):
            inp = wl.next_input()
        if tracer is None:
            runs = {False: execute(wl, inp, deadline, None, counters, spans)}
        else:
            # Plain and traced in alternating order; only the traced run
            # feeds the per-layer counters and spans.
            order = (False, True) if n % 2 == 0 else (True, False)
            runs = {traced: execute(wl, inp, deadline, tracer if traced else None,
                                    counters if traced else collections.defaultdict(float),
                                    spans if traced else [])
                    for traced in order}
        if None in runs.values():
            cut = True
            break
        sec, outcomes = runs[False]
        if tracer is not None:
            t_sec, t_outcomes = runs[True]
            plain_s += sec
            traced_s += t_sec
            traced_times += [t_sec / len(t_outcomes)] * len(t_outcomes)
            if [o.record for o in outcomes] != [o.record for o in t_outcomes]:
                outcomes = [o._replace(status="failed", detail="traced run differs")
                            for o in outcomes]
        items += [{"key": o.key, "status": o.status, "seconds": sec / len(outcomes),
                   "round": n // wl.round_size, "record": o.record, "detail": o.detail}
                  for o in outcomes]
        n += 1
        last_done = time.perf_counter()
    wall = last_done - t0

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"items": items, "wall_s": wall, "cut": cut, "rounds": n // wl.round_size,
           "peak_rss_mb": peak_kb / 1024.0, "env": environment()}
    if tracer is not None:
        spans.extend(tracer.spans)
        done_items = max(len(traced_times), 1)
        layers = module_metrics(spans, done_items)
        for name in ("oracle.solved", "oracle.refused", "cli.rows", "cli.error_rows",
                     "cli.skipped_cells"):
            layers[name] = counters[name]
        layers["oracle.rotation_systems"] = (counters["oracle.rotation_systems"]
                                             / max(counters["oracle.solved"], 1))
        layers["cli.overhead_s"] = counters["cli.overhead_s"] / max(n, 1)
        layers["trace.item_s"] = sum(traced_times) / done_items
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        out["per_layer"] = layers
        out["shares"] = item_shares(spans, sum(traced_times))
        out["spans"] = spans
    return out


def item_shares(spans, item_seconds: float) -> dict[str, float]:
    """Share of traced item wall time spent as self time in each module
    group, counting only spans inside timed items."""
    inside = [s for s in spans if s["item"] is not None
              and not str(s["item"]).startswith(("setup", "input-"))
              and not str(s["item"]).endswith("/check")]
    return {"share." + metric.removesuffix("_s"):
            sum(s["self"] for s in inside if s["name"] in names) / item_seconds
            for metric, names in TIME_GROUPS.items()} if item_seconds else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    if args.setup_only:
        wl.setup()
        print("ready", flush=True)
        return 0
    result = measure(wl, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload makes its inputs from the run seed, times one call into
bigenus per input, and turns the call's result into outcomes: one per
item, each with a status (ok, refused, failed) and the outputs kept in
the golden record. Sizes follow the benchmark definition; `tiny`
shrinks every input so the harness checks finish in seconds.
"""

from __future__ import annotations

import collections
import os
import shutil
import subprocess
import sys
import time
from typing import NamedTuple

# Traced functions are called as bg.<name>: the tracer rebinds them in
# the bigenus namespaces only, not in this module.
import bigenus as bg
from bigenus import (BudgetExceededError, GenParams, GuardError, PipelineConfig,
                     SearchBudget, genus_formula_reference, rotation_system_count)

from tracing import read_spans

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 170
EXPERIMENT_COLUMNS = 13
ROUND_GRACE_S = 5.0


class Outcome(NamedTuple):
    key: str
    status: str      # "ok", "refused" or "failed"
    record: dict     # outputs kept in the golden record
    detail: str = ""


# Exceptions that mean "refused", not "failed".
REFUSALS = (GuardError,)


class Cut(Exception):
    """The run's deadline stopped an item before it finished."""


def graph_seed(seed: int, k: int) -> int:
    return seed * 1_000_000 + k


def estimate_record(est) -> dict:
    return {
        "edges": est.n_edges, "lower": est.lower, "upper": est.upper,
        "prediction": est.prediction, "coverage": est.coverage,
        "mirror_coverage": est.mirror_coverage,
        "blossoms_removed": est.blossoms_removed, "family_size": est.family_size,
        "face_histogram": {str(k): v for k, v in (est.face_histogram or {}).items()},
    }


def check_estimate(est) -> str:
    """Empty when the estimate brackets the genus, else what is wrong."""
    if est.upper is None:
        return "no upper bound (enumeration truncated)"
    if est.lower > est.upper:
        return f"lower {est.lower} > upper {est.upper}"
    return ""


class Workload:
    """Inputs are made one at a time; `setup` makes the first
    `round_size` of them. A round is one input of each shape the
    workload cycles through. A run is whole rounds, so the mix is the
    same in every run, and per-item times are taken per round."""

    round_size = 1

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self._made = 0
        self._queue: collections.deque = collections.deque()

    def setup(self) -> None:
        for _ in range(self.round_size):
            self._queue.append(self._make(self._next_k()))

    def next_input(self):
        return self._queue.popleft() if self._queue else self._make(self._next_k())

    def _next_k(self) -> int:
        self._made += 1
        return self._made - 1

    def _make(self, k: int):
        raise NotImplementedError

    def run(self, inp, deadline: float, traced: bool):
        raise NotImplementedError

    def outcomes(self, inp, result, counters, spans) -> list[Outcome]:
        """Checked outcomes of one call. Per-layer counts go to
        `counters`, spans recorded in other processes to `spans`."""
        raise NotImplementedError

    def key(self, inp) -> str:
        return inp[0]

    def refused_outcomes(self, inp, exc, counters) -> list[Outcome]:
        return [Outcome(self.key(inp), "refused", {"refused": type(exc).__name__},
                        str(exc))]


class EstimateWorkload(Workload):
    """One estimate_genus(g, 1) per item, cycling through `shapes`."""

    shapes: tuple = ()
    tiny_shapes: tuple = ()

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.round_size = len(self.shapes)

    def _make(self, k):
        n1, n2, p = (self.tiny_shapes if self.tiny else self.shapes)[k % self.round_size]
        s = graph_seed(self.seed, k)
        g = bg.gen_random_bipartite(GenParams(n1, n2, p, seed=s))
        return f"{k}:G({n1},{n2},{p:.6g})", g, PipelineConfig(seed=s, p=p)

    def run(self, inp, deadline, traced):
        _key, g, cfg = inp
        return bg.estimate_genus(g, 1, cfg)

    def outcomes(self, inp, est, counters, spans):
        problem = check_estimate(est)
        return [Outcome(inp[0], "failed" if problem else "ok", estimate_record(est),
                        problem)]


class DenseI1(EstimateWorkload):
    shapes = ((120, 120, 0.5),)
    tiny_shapes = ((24, 24, 0.5),)


class SparseI1(EstimateWorkload):
    shapes = ((800, 800, 0.03), (100_000, 5, 100_000 ** -0.4))
    tiny_shapes = ((80, 80, 0.1), (3_000, 5, 3_000 ** -0.4))


class OracleSmall(Workload):
    """exact_genus at the default system budget. A round is K_{3,5} and
    K_{4,4} (both with shortcut=False), then four G(5, 5, 0.6) and four
    G(6, 5, 0.55) samples, alternating. Rare samples take minutes, so the time budget
    is what is left of the run plus ROUND_GRACE_S; an item still running
    then is cut and dropped, and the run ends."""

    samples = ((5, 5, 0.6), (6, 5, 0.55))
    tiny_samples = ((4, 4, 0.6), (5, 4, 0.55))
    complete = ((3, 5), (4, 4))
    tiny_complete = ((3, 3), (3, 4))
    round_size = 10

    def _make(self, k):
        j = k % self.round_size
        if j < 2:
            m, n = (self.tiny_complete if self.tiny else self.complete)[j]
            g = bg.complete_bipartite_graph(m, n)
            return (f"{k}:K({m},{n})", g, False, None,
                    genus_formula_reference("complete_bipartite", m, n))
        n1, n2, p = (self.tiny_samples if self.tiny else self.samples)[j % 2]
        s = graph_seed(self.seed, k)
        g = bg.gen_random_bipartite(GenParams(n1, n2, p, seed=s))
        return f"{k}:G({n1},{n2},{p:g})", g, True, PipelineConfig(seed=s, p=p), None

    def run(self, inp, deadline, traced):
        _key, g, shortcut, _cfg, _formula = inp
        left = deadline + ROUND_GRACE_S - time.perf_counter()
        budget = SearchBudget(max_seconds=max(left, 1e-3))
        try:
            return bg.exact_genus(g, budget, shortcut)
        except BudgetExceededError:
            if rotation_system_count(g) <= budget.max_systems:
                raise Cut() from None
            raise

    def outcomes(self, inp, genus, counters, spans):
        key, g, _shortcut, cfg, formula = inp
        count = rotation_system_count(g)
        counters["oracle.rotation_systems"] += count
        counters["oracle.solved"] += 1
        record = {"genus": genus, "rotation_systems": count}
        problems = []
        if formula is not None and genus != formula:
            problems.append(f"exact genus {genus} != formula {formula}")
        est = bg.estimate_genus(g, 1, cfg)
        record.update(estimate_record(est))
        problem = check_estimate(est)
        if problem:
            problems.append(problem)
        elif est.upper < genus:
            problems.append(f"pipeline upper {est.upper} < exact genus {genus}")
        return [Outcome(key, "failed" if problems else "ok", record, "; ".join(problems))]

    def refused_outcomes(self, inp, exc, counters):
        counters["oracle.refused"] += 1
        return super().refused_outcomes(inp, exc, counters)


class SweepI2(Workload):
    """`bigenus experiment` as a subprocess with 2 workers over an i=2
    grid of k seeds x both n2 values. Round r appends the cells of seeds
    [r k, (r+1) k). From round 1 on its grid also holds the previous
    round's seeds, which the CSV already has, so the sweep reads the
    file, skips that half and appends the other half. Round 0 starts
    from an empty file."""

    n1, n2s, p, i, k, workers = 200, (150, 200), 0.05, 2, 2, 2
    tiny_grid = (40, (30, 40), 0.1)

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        if tiny:
            self.n1, self.n2s, self.p = self.tiny_grid
        self.base = seed * 100_000

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        for chain in ("plain", "traced"):
            if os.path.exists(self._csv(chain)):
                os.remove(self._csv(chain))
        super().setup()

    def _make(self, r):
        return r

    def _csv(self, chain: str) -> str:
        return os.path.join(self.workdir, f"{chain}.csv")

    def _experiment(self, chain, first_seed, trials, trace_dir):
        cfg = os.path.join(self.workdir, f"{chain}.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"n1 = {self.n1}\nn2 = {','.join(map(str, self.n2s))}\n"
                     f"p = {self.p}\ni = {self.i}\ntrials = {trials}\n"
                     f"seed = {first_seed}\nout = {self._csv(chain)}\n"
                     f"workers = {self.workers}\n")
        if trace_dir is None:
            cmd = [sys.executable, "-m", "bigenus.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_dir]
        return subprocess.run(cmd + ["experiment", "--config", cfg],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def run(self, r, deadline, traced):
        trace_dir = None
        if traced:
            trace_dir = os.path.join(self.workdir, f"trace-{r}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
        first = self.base + max(r - 1, 0) * self.k
        t0 = time.perf_counter()
        proc = self._experiment("traced" if traced else "plain", first,
                                self.base + (r + 1) * self.k - first, trace_dir)
        wall = time.perf_counter() - t0
        rows = self._read_rows("traced" if traced else "plain")
        return r, proc, rows, wall, trace_dir

    def key(self, r):
        return f"{r}:round"

    def _read_rows(self, chain):
        with open(self._csv(chain)) as fh:
            return [line.rstrip("\n").split(",") for line in fh
                    if line.strip() and not line.startswith("#")
                    and not line.startswith("n1,")]

    def outcomes(self, inp, result, counters, spans):
        r, proc, rows, wall, trace_dir = result
        if trace_dir is not None:
            cell_spans = read_spans(trace_dir)
            spans.extend(cell_spans)
            cell_s = sum(s["end"] - s["start"] for s in cell_spans if s["parent"] is None)
            counters["cli.overhead_s"] += wall - cell_s / self.workers
        new_seeds = range(self.base + r * self.k, self.base + (r + 1) * self.k)
        want = [(self.n1, n2, s) for n2 in self.n2s for s in new_seeds]
        keys = [f"{r}:{n1},{n2},{s}" for (n1, n2, s) in want]
        if proc.returncode != 0:
            detail = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            return [Outcome(key, "failed", {}, detail) for key in keys]
        for line in proc.stderr.splitlines():
            if line.startswith("cells="):
                cells, todo = (int(tok.split("=")[1]) for tok in line.split())
                counters["cli.skipped_cells"] += cells - todo
        expected = {(str(self.n1), str(n2), f"{self.p:.10g}", str(self.i), str(s))
                    for n2 in self.n2s
                    for s in range(self.base, self.base + (r + 1) * self.k)}
        seen = [tuple(row[:5]) for row in rows]
        grid_problem = ""
        if len(seen) != len(set(seen)) or set(seen) != expected:
            grid_problem = "CSV cells differ from the grid (lost or duplicated cells)"
        by_key = {(int(row[1]), int(row[4])): row for row in rows}
        out = []
        for key, (n1, n2, s) in zip(keys, want):
            row = by_key.get((n2, s))
            problems = [grid_problem] if grid_problem else []
            record = {}
            if row is None:
                problems.append("row missing")
            elif len(row) != EXPERIMENT_COLUMNS:
                problems.append(f"row has {len(row)} columns, want {EXPERIMENT_COLUMNS}")
            else:
                counters["cli.rows"] += 1
                if row[11] == "error":
                    counters["cli.error_rows"] += 1
                    problems.append("regime=error row")
                else:
                    record = {"edges": int(row[5]), "lower": int(row[6]),
                              "upper": int(row[7]), "prediction": float(row[8]),
                              "coverage": float(row[9]),
                              "blossoms_removed": int(row[10]), "regime": row[11]}
                    if record["lower"] > record["upper"]:
                        problems.append(f"lower {record['lower']} > upper {record['upper']}")
            out.append(Outcome(key, "failed" if problems else "ok", record,
                               "; ".join(problems)))
        return out


WORKLOADS = {
    "dense-i1": DenseI1,
    "sparse-i1": SparseI1,
    "sweep-i2": SweepI2,
    "oracle-small": OracleSmall,
}

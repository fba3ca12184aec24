"""Span tracing of bigenus from outside the package.

`Tracer.install` replaces a fixed list of public bigenus functions, in
every bigenus module namespace that binds them, with wrappers that
record one span per call: name, start, end, parent span, item id, self
time, and a few counts read off the call's return value. Nothing in
the package changes; `uninstall` puts the original functions back.

Spans stay in memory. The harness writes them out when a run ends. A
tracer created with a `sink` directory (the traced `experiment`
subprocess) instead appends each finished root span and its children
to `sink/spans-<pid>.jsonl`, because pool workers have no exit hook.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (module, function). Helpers called only inside these (find_blossoms,
# enumerate_closed_trails, count_short_closed_trails, ...) are left
# unwrapped, so their time is self time of the caller.
TRACED = (
    ("bigraph", "gen_random_bipartite"),
    ("bigraph", "complete_bipartite_graph"),
    ("bigraph", "orient_randomly"),
    ("estimator", "estimate_genus"),
    ("estimator", "euler_lower_bound"),
    ("estimator", "refined_lower_bound"),
    ("trails", "build_trail_hypergraph"),
    ("trails", "find_matching"),
    ("trails", "find_disjoint_mirror_matching"),
    ("blossom", "make_blossom_free"),
    ("blossom", "assemble_rotation"),
    ("embedding", "trace_faces"),
    ("embedding", "genus_from_faces"),
    ("oracle", "exact_genus"),
)


def _estimate_info(args, result) -> dict:
    """Gap attribution from a GenusEstimate: why upper sits where it does."""
    if result.upper is None:
        return {}
    i = args[1]
    hist = result.face_histogram
    surviving = result.family_size - result.blossoms_removed
    return {
        "mirror_coverage": result.mirror_coverage,
        "faces": sum(hist.values()),
        "leftover_faces": sum(c for length, c in hist.items() if length != 2 * i + 2),
        "longest_face": max(hist),
        "uncovered_arcs": 2 * result.n_edges - (2 * i + 2) * surviving,
    }


# Counts read from return values, keyed by span name.
_INFO = {
    "estimator.estimate_genus": _estimate_info,
    "trails.build_trail_hypergraph": lambda a, r: {"hyperedges": r.n_hyperedges},
    "trails.find_matching": lambda a, r: {"matched": r.size},
    "blossom.make_blossom_free": lambda a, r: {"surviving": len(r[0]),
                                               "removed": len(r[1])},
}


class Tracer:
    def __init__(self, sink: str | None = None):
        self.spans: list[dict] = []
        self.item = None
        self.sink = sink
        self._stack: list[list] = []   # [span, seconds covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bigenus" or name.startswith("bigenus.")]
        for module, func in TRACED:
            orig = getattr(importlib.import_module(f"bigenus.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def active(self, item):
        """Trace calls made inside the block, as spans of `item`."""
        self.item = item
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        extract = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            parent = self._stack[-1][0]["id"] if self._stack else None
            span = {"id": self._next_id, "parent": parent, "name": name,
                    "item": self.item, "pid": os.getpid()}
            frame = [span, 0.0]
            self._stack.append(frame)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                dur = span["end"] - span["start"]
                span["self"] = dur - frame[1]
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append(span)
            if extract is not None:
                span["info"] = extract(args, result)
            if self.sink is not None and not self._stack:
                self.flush_to(os.path.join(self.sink, f"spans-{os.getpid()}.jsonl"))
            return result

        return wrapper

    def flush_to(self, path: str) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()


def read_spans(directory: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# Per-module self-time groups, by span name.
TIME_GROUPS = {
    "bigraph.generate_s": ("bigraph.gen_random_bipartite",
                           "bigraph.complete_bipartite_graph"),
    "bigraph.orient_s": ("bigraph.orient_randomly",),
    "estimator.lower_bound_s": ("estimator.euler_lower_bound",
                                "estimator.refined_lower_bound"),
    "trails.enumerate_s": ("trails.build_trail_hypergraph",),
    "trails.match_s": ("trails.find_matching", "trails.find_disjoint_mirror_matching"),
    "blossom.remove_s": ("blossom.make_blossom_free",),
    "blossom.assemble_s": ("blossom.assemble_rotation",),
    "embedding.trace_s": ("embedding.trace_faces", "embedding.genus_from_faces"),
    "oracle.exact_s": ("oracle.exact_genus",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(spans: list[dict], items: int) -> dict[str, float]:
    """Self time per item of each module group, and the counts and
    ratios read off return values, per estimate_genus call. Layers a
    workload never calls read 0."""
    out = {metric: sum(s["self"] for s in spans if s["name"] in names) / max(items, 1)
           for metric, names in TIME_GROUPS.items()}

    def total(name: str, key: str) -> float:
        return sum(s["info"][key] for s in spans if s["name"] == name and s.get("info"))

    est = [s["info"] for s in spans
           if s["name"] == "estimator.estimate_genus" and s.get("info")]
    hyperedges = total("trails.build_trail_hypergraph", "hyperedges")
    removed = total("blossom.make_blossom_free", "removed")
    surviving = total("blossom.make_blossom_free", "surviving")
    out["trails.hyperedges"] = _ratio(hyperedges, len(est))
    out["trails.match_yield"] = _ratio(total("trails.find_matching", "matched"), hyperedges)
    out["blossom.removed"] = _ratio(removed, len(est))
    out["blossom.survive_frac"] = _ratio(surviving, surviving + removed)
    for metric, key in (("trails.coverage_mirror", "mirror_coverage"),
                        ("trails.uncovered_arcs", "uncovered_arcs"),
                        ("embedding.faces", "faces"),
                        ("embedding.leftover_faces", "leftover_faces"),
                        ("embedding.longest_face", "longest_face")):
        out[metric] = _ratio(sum(e[key] for e in est), len(est))
    return out

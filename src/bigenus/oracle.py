"""Exact genus by exhaustive rotation-system search, plus a
hill-climbing upper bound for graphs beyond exhaustion.

Genus is additive over connected components, so one private driver,
_search, walks the components for exact_genus, minimum_genus_rotation
and pincer_genus alike. It hands each component with an edge to the
search as a graph of its own: its induced subgraph, vertices relabelled
0..k-1 in vertex order, so every neighbour list keeps its order. Each
component gets its own Euler lower bound, then a hill climb, an
exhaustive scan, or the climb followed by the scan when the climb
misses the bound. The scan enumerates rotation systems by a
mixed-radix counter over per-vertex orderings with the first incident
edge fixed (cyclic orders, not linear ones) and stops early once the
bound is attained; a climb that attains it certifies exactness without
enumerating anything. Only minimum_genus_rotation maps the orders found
back to the vertices of g and makes them a RotationSystem of g, its
witness. small_part_exact_genus runs the same searches on the simple
graph of a small-part reduction (estimator.reduce_small_part).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bigraph import component_labels, induced_subgraph
from .embedding import RotationSystem, arc_index, euler_genus, face_starts
from .errors import BudgetExceededError, ValidationError
from .estimator import ReducedGraph, _complete_genus, euler_lower_bound

_COUNT_SATURATE = 10 ** 18
_TIMEOUT_STRIDE = 2048

# Default search budget of small_part_exact_genus. On G(1e5, 5, n1^-0.4)
# a hill climb from Random(0) first meets the Euler bound after up to
# ~142 shuffled restarts (about 0.65 ms each), so 1024 restarts leave a
# wide margin at under a second per instance.
SMALL_PART_RESTARTS = 1024
SMALL_PART_SECONDS = 10.0


@dataclass(frozen=True)
class SearchBudget:
    max_systems: int = 10_000_000
    max_seconds: float | None = None
    restarts: int = 64

    def __post_init__(self) -> None:
        if self.max_systems < 1:
            raise ValidationError("max_systems must be positive")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValidationError("max_seconds must be positive")
        if self.restarts < 1:
            raise ValidationError("restarts must be positive")


def rotation_system_count(g) -> int:
    """Number of distinct rotation systems, prod_v (deg(v)-1)!,
    saturating at 10^18."""
    acc = 1
    for v in range(g.n_vertices):
        d = g.degree(v)
        if d >= 2:
            acc *= math.factorial(d - 1)
            if acc > _COUNT_SATURATE:
                return _COUNT_SATURATE
    return acc


class _Engine:
    """Arc-indexed face counter for one connected graph.

    Arcs get the dense ids of embedding.arc_index, read into lists once;
    rev pairs the two directions of an edge. A rotation is a cyclic order of the out-arcs
    at each vertex, stored as the successor array nxt. The face
    successor of arc a is nxt[rev[a]], and faces are its orbits.
    """

    def __init__(self, g):
        index = arc_index(g)
        self.heads, self.rev, first = index.head.tolist(), index.rev.tolist(), index.first
        self.n_c = g.n_vertices
        self.e_c = g.n_edges
        self.out_arcs = [range(first[v], first[v + 1]) for v in range(self.n_c)]
        self.nxt = [0] * len(self.rev)
        self.seq: list[tuple[int, ...]] = [()] * self.n_c
        self.restore([tuple(arcs) for arcs in self.out_arcs])

    def set_seq(self, v: int, seq: tuple[int, ...]) -> None:
        self.seq[v] = seq
        nxt = self.nxt
        for k, a in enumerate(seq):
            nxt[a] = seq[(k + 1) % len(seq)]

    def faces(self) -> int:
        return len(face_starts(self.nxt, self.rev))

    def genus(self) -> int:
        return euler_genus(self.n_c, self.e_c, self.faces())

    def snapshot(self) -> list[tuple[int, ...]]:
        return list(self.seq)

    def restore(self, snap: list[tuple[int, ...]]) -> None:
        for v, seq in enumerate(snap):
            self.set_seq(v, seq)

    def neighbor_orders(self) -> list[tuple[int, ...]]:
        return [tuple(self.heads[a] for a in seq) for seq in self.seq]


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError("time budget exhausted during genus search")


def _hill_climb(eng: _Engine, restarts: int, rng: random.Random,
                deadline: float | None, lb: int) -> tuple[int, list[tuple[int, ...]]]:
    """Best genus over `restarts` climbs, stopping at the first restart
    that reaches the component's lower bound lb, which none can beat."""
    best_g = None
    best_snap: list[tuple[int, ...]] = []
    movable = [v for v, arcs in enumerate(eng.out_arcs) if len(arcs) >= 3]
    for r in range(restarts):
        for v, arcs in enumerate(eng.out_arcs):
            base = list(arcs)
            if r > 0:
                rng.shuffle(base)
            eng.set_seq(v, tuple(base))
        f_cur = eng.faces()
        improved = True
        while improved:
            improved = False
            for v in movable:
                d = len(eng.seq[v])
                for j in range(d):
                    seq = list(eng.seq[v])
                    k = (j + 1) % d
                    seq[j], seq[k] = seq[k], seq[j]
                    old = eng.seq[v]
                    eng.set_seq(v, tuple(seq))
                    f_new = eng.faces()
                    if f_new > f_cur:
                        f_cur = f_new
                        improved = True
                    else:
                        eng.set_seq(v, old)
            _check_deadline(deadline)
        g_r = eng.genus()
        if best_g is None or g_r < best_g:
            best_g = g_r
            best_snap = eng.snapshot()
            if best_g <= lb:
                break
    return best_g, best_snap


def _scan(eng: _Engine, lb: int, deadline: float | None,
          best: int | None, best_snap: list[tuple[int, ...]] | None
          ) -> tuple[int, list[tuple[int, ...]]]:
    variable = [v for v, arcs in enumerate(eng.out_arcs) if len(arcs) >= 3]
    seqs = []
    for v in variable:
        first, *rest = eng.out_arcs[v]
        seqs.append([(first,) + p for p in itertools.permutations(rest)])
    eng.restore([tuple(arcs) for arcs in eng.out_arcs])
    idx = [0] * len(variable)
    tick = 0
    while True:
        g_cur = eng.genus()
        if best is None or g_cur < best:
            best = g_cur
            best_snap = eng.snapshot()
            if best == lb:
                break
        tick += 1
        if tick % _TIMEOUT_STRIDE == 0:
            _check_deadline(deadline)
        k = 0
        while k < len(variable):
            idx[k] += 1
            if idx[k] < len(seqs[k]):
                eng.set_seq(variable[k], seqs[k][idx[k]])
                break
            idx[k] = 0
            eng.set_seq(variable[k], seqs[k][0])
            k += 1
        else:
            break
    return best, best_snap


def _search(g, budget: SearchBudget, seed: int, climb: bool, scan: bool
            ) -> tuple[int, int, list[tuple[np.ndarray, _Engine]]]:
    """The per-component search behind every public one. Each component
    with an edge, on one Random(seed) stream, becomes its induced
    subgraph and gets that graph's Euler lower bound lb (with its own
    minimum face length), a hill climb when `climb` is set, and a scan
    when `scan` is set and the climb missed lb. Returns the summed
    bounds, the summed genera found and, per component, its vertices
    in g and its engine, left at the rotation that realises its genus.

    A scan refuses (never guesses) when some component's own
    prod_v (deg(v)-1)! exceeds the system budget, before any search,
    or when the time budget runs out."""
    verts, a, b = g.local_edges()
    label = component_labels(len(verts), a, b)
    order = np.argsort(label, kind="stable")
    # one run of vertices per label; splitting no vertices gives one empty run
    runs = np.split(verts[order], np.flatnonzero(np.diff(label[order])) + 1)
    subs = [(run, induced_subgraph(g, run)) for run in (runs if len(verts) else ())]
    if scan and (need := max((rotation_system_count(sub) for _run, sub in subs),
                             default=1)) > budget.max_systems:
        raise BudgetExceededError(
            f"{need} rotation systems exceed the budget of {budget.max_systems}")
    deadline = None
    if budget.max_seconds is not None:
        deadline = time.monotonic() + budget.max_seconds
    rng = random.Random(seed)
    lower = total = 0
    components = []
    for run, sub in subs:
        eng = _Engine(sub)
        lb = euler_lower_bound(sub)
        best = None
        snap = None
        if climb:
            best, snap = _hill_climb(eng, budget.restarts, rng, deadline, lb)
        if scan and (best is None or best > lb):
            best, snap = _scan(eng, lb, deadline, best, snap)
        eng.restore(snap)
        lower += lb
        total += best
        components.append((run, eng))
    return lower, total, components


def minimum_genus_rotation(g, budget: SearchBudget | None = None,
                           shortcut: bool = True) -> tuple[int, RotationSystem]:
    """Exact minimum genus together with a witness rotation system of g,
    which lists sorted neighbours where nothing was searched.

    Refuses (never guesses) when some connected component's own
    prod_v (deg(v)-1)! exceeds the system budget, or when the time
    budget runs out. With shortcut enabled, a component whose
    hill-climb result meets its Euler lower bound skips enumeration;
    the result is exact either way.
    """
    _lower, genus, components = _search(g, budget or SearchBudget(), 0, climb=shortcut,
                                        scan=True)
    order = {v: g.neighbors(v) for v in range(g.n_vertices)}
    for run, eng in components:
        label = run.tolist()
        for v, nbrs in zip(label, eng.neighbor_orders()):
            order[v] = tuple(label[u] for u in nbrs)
    return genus, RotationSystem(g, order)


def exact_genus(g, budget: SearchBudget | None = None, shortcut: bool = True) -> int:
    """Exact minimum genus over all rotation systems, with no witness;
    see minimum_genus_rotation for the search and the per-component
    refusal rules."""
    return _search(g, budget or SearchBudget(), 0, climb=shortcut, scan=True)[1]


class PincerResult(NamedTuple):
    lower: int
    upper: int
    exact: bool


def pincer_genus(g, budget: SearchBudget | None = None, seed: int = 0) -> PincerResult:
    """Per-component Euler lower bounds and hill-climb upper bounds,
    each summed over components; exact iff the sums meet, which is iff
    every component's climb meets its own bound. The route to ground
    truth when exhaustion is infeasible.

    The upper bound is the best genus found by seeded hill climbing
    (adjacent transpositions in one vertex's cyclic order, restarts
    from shuffled starts), with no optimality claim; a component stops
    restarting once it meets its Euler lower bound."""
    lower, upper, _components = _search(g, budget or SearchBudget(), seed, climb=True,
                                        scan=False)
    return PincerResult(lower, upper, lower == upper)


def genus_formula_reference(kind: str, *params: int) -> int:
    """Literature closed forms: complete(n) -> ceil((n-3)(n-4)/12),
    complete_bipartite(m,n) -> ceil((m-2)(n-2)/4), both 0 for
    degenerate sizes."""
    if kind == "complete":
        (n,) = params
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        return _complete_genus(n)
    if kind == "complete_bipartite":
        m, n = params
        if m < 0 or n < 0:
            raise ValidationError("part sizes must be nonnegative")
        if m <= 2 or n <= 2:
            return 0
        return ((m - 2) * (n - 2) + 3) // 4
    raise ValidationError(f"unknown kind {kind!r}")


def small_part_exact_genus(r: ReducedGraph, budget: SearchBudget | None = None
                           ) -> tuple[int, int | None]:
    """Exact (orientable, non-orientable) genus of the graph r reduces.

    Complete Y-graph on the support and no kept X-vertex: the closed
    forms for K_m, with the m = 7 non-orientable exception of 3.
    Otherwise the orientable genus of r.simple_graph() is certified by
    pincer_genus (each component's Euler bound met by a hill climb) or,
    failing that, found by exact_genus without the hill-climb shortcut.
    Both run within `budget` (default: SMALL_PART_RESTARTS restarts,
    SMALL_PART_SECONDS seconds per stage, the default system count);
    when neither settles it, BudgetExceededError (a GuardError) is
    raised and no value is guessed.

    The non-orientable genus is returned only where it is certified
    off the closed form: 0 when the reduced graph is planar, and 1 when
    it is nonplanar on at most 6 vertices (a subgraph of K6, which
    embeds in the projective plane). Otherwise it is None.
    """
    m = len(r.y_support)
    if not r.kept_x and r.is_complete_on_support:
        if m <= 2:
            return 0, 0
        return _complete_genus(m), 3 if m == 7 else -(-(m - 3) * (m - 4) // 6)

    budget = budget or SearchBudget(restarts=SMALL_PART_RESTARTS,
                                    max_seconds=SMALL_PART_SECONDS)
    h = r.simple_graph()
    pin = pincer_genus(h, budget)
    orient = pin.upper if pin.exact else exact_genus(h, budget, shortcut=False)
    if orient == 0:
        return 0, 0
    if h.n_vertices <= 6:
        return orient, 1
    return orient, None

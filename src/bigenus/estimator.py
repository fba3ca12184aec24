"""Genus estimation: Euler-style lower bounds, the embedding pipeline
upper bound, closed-form predictors, and small-part reductions.

The pipeline orients the graph, enumerates closed (2i+2)-trails once
and mirrors them for the reversed arc direction, extracts two disjoint
matchings, removes blossoms, and assembles a rotation system; its
traced genus is the upper bound. Lower bounds come from Euler's
formula with girth and short-trail corrections. Predictors translate
the three density regimes into expected genus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, TextIO

from .bigraph import (MAX_SMALL_PART, STREAM_MATCH, STREAM_MIRROR,
                      BipartiteGraph, Graph, derive_int_seed, is_bipartite,
                      orient_randomly)
from .blossom import assemble_rotation, make_blossom_free
from .embedding import face_length_histogram, genus_from_faces, trace_faces
from .errors import GuardError, InternalConsistencyError, ValidationError
from .trails import STRATEGIES, build_trail_hypergraph, count_short_closed_trails, \
    find_disjoint_mirror_matching, find_matching

if TYPE_CHECKING:
    from .oracle import SearchBudget

CSV_COLUMNS = ("n1", "n2", "p", "i", "seed", "edges", "lower", "upper",
               "prediction", "coverage", "blossoms_removed", "regime")

# Multiplicative closeness to a regime boundary that earns the
# critical-window tag. The theory separates regimes only asymptotically.
CRITICAL_BAND = 2.0


class RegimeResult(NamedTuple):
    tag: str
    i: int | None

    def label(self) -> str:
        if self.tag == "balanced-i":
            return f"balanced-i({self.i})"
        return self.tag


_MAX_WINDOW_I = 64


def regime_classify(n1: int, n2: int, p: float) -> RegimeResult:
    """Density regime of G(n1, n2, p).

    Heavily unbalanced graphs with a small part (n2 <= 20 and
    n1 >= 20 n2) are split by p against n1^(-1/3) and n1^(-1/2) into
    small-part-a/b/c. Otherwise p >= band * n2^(-2/3) is dense-4gon,
    and below that the exponent q = -ln p / ln(n1 n2) selects the
    balanced window (i-1)/(2i-1) < q < i/(2i+1). Within a factor
    band = CRITICAL_BAND of any boundary the tag is critical-window;
    near the window accumulation point q = 1/2 likewise; clearly beyond
    it the graph is a.a.s. planar and tagged small-part-c.
    """
    band = CRITICAL_BAND
    big, small = max(n1, n2), min(n1, n2)
    if small < 1 or p <= 0.0:
        return RegimeResult("small-part-c", None)
    if p > 1.0:
        raise ValidationError(f"p must lie in [0,1], got {p}")

    if small <= MAX_SMALL_PART and big >= 20 * small:
        t_a = big ** (-1.0 / 3.0)
        t_c = big ** (-1.0 / 2.0)
        if p > t_a:
            return RegimeResult("critical-window" if p / t_a <= band else "small-part-a",
                                None)
        if p > t_c:
            near_a = p / t_a >= 1.0 / band
            near_c = p / t_c <= band
            if near_a or near_c:
                return RegimeResult("critical-window", None)
            return RegimeResult("small-part-b", None)
        return RegimeResult("critical-window" if p / t_c >= 1.0 / band else "small-part-c",
                            None)

    if p >= band * small ** (-2.0 / 3.0):
        return RegimeResult("dense-4gon", None)
    n_prod = big * small
    if n_prod <= 1:
        return RegimeResult("small-part-c", None)
    log_n = math.log(n_prod)
    q = -math.log(p) / log_n
    slack = math.log(band)

    def near(boundary_q: float) -> bool:
        return abs(q - boundary_q) * log_n <= slack

    for i in range(1, _MAX_WINDOW_I + 1):
        lo = (i - 1) / (2 * i - 1)
        hi = i / (2 * i + 1)
        if q < lo:
            break
        if q <= hi:
            if near(lo) or near(hi):
                return RegimeResult("critical-window", i)
            return RegimeResult("balanced-i", i)
    if q >= 0.5:
        if near(0.5):
            return RegimeResult("critical-window", None)
        return RegimeResult("small-part-c", None)
    # Between the last examined window and 1/2: the accumulation region.
    return RegimeResult("critical-window", _MAX_WINDOW_I)


def _psi_fraction(p: Fraction, n2: int) -> Fraction:
    total = Fraction(0)
    for i in range(2, n2):
        total += Fraction(i - 1, i + 1) * math.comb(n2 - 1, i) * (-p) ** i
    return total


def psi(p: float, n2: int) -> float:
    """Alternating sum sum_{i=2}^{n2-1} (i-1)/(i+1) C(n2-1, i) (-p)^i,
    evaluated in exact rational arithmetic. psi(p, 2) = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if n2 < 2:
        raise ValidationError(f"n2 must be >= 2, got {n2}")
    return float(_psi_fraction(Fraction(p), n2))


def predicted_genus(n1: int, n2: int, p: float, i: int, regime: str,
                    orientable: bool = True) -> float:
    """Theory value for the genus of G(n1, n2, p) in the given regime:
    i/(2i+2) p n1 n2 (balanced-i), p n1 n2 / 4 (dense-4gon), or
    n1 n2 p psi(p, n2) / 4 (small-part). Non-orientable doubles each."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if n1 < 0 or n2 < 0:
        raise ValidationError("part sizes must be nonnegative")
    if regime == "balanced-i":
        if i < 1:
            raise ValidationError(f"i must be >= 1, got {i}")
        base = i * p * n1 * n2 / (2 * i + 2)
    elif regime == "dense-4gon":
        base = p * n1 * n2 / 4.0
    elif regime == "small-part":
        base = n1 * n2 * p * psi(p, n2) / 4.0 if n2 >= 2 else 0.0
    else:
        raise ValidationError(f"unknown regime {regime!r}")
    return 2.0 * base if not orientable else base


class AsymptoteCheck(NamedTuple):
    exact: float
    asymptote: float
    ratio: float


def small_p_asymptote_check(n1: int, n2: int, p: float) -> AsymptoteCheck:
    """Compare n1 n2 p psi(p, n2)/4 with its small-p form
    n1 p^3 C(n2,3)/4. At n2 = 3 the two agree exactly for every p.
    Both sides are evaluated as exact rationals before conversion."""
    pf = Fraction(p)
    exact = Fraction(n1) * n2 * pf * _psi_fraction(pf, n2) / 4 if n2 >= 2 else Fraction(0)
    asym = Fraction(n1) * pf ** 3 * math.comb(n2, 3) / 4
    if asym != 0:
        ratio = float(exact / asym)
    else:
        ratio = 1.0 if exact == 0 else math.inf
    return AsymptoteCheck(float(exact), float(asym), ratio)


# ---------------------------------------------------------------------------
# Euler-style lower bounds. Both work on the iteratively leaf-pruned
# core of each component: deleting a vertex of degree <= 1 never changes
# the genus, and the raw face-count inequality is only sound once every
# vertex has degree >= 2 (a bare edge has one face of length 2, not
# min_face_len). Forests therefore come out as 0 with no special case.


def _core_component_vertex_sets(g) -> list[list[int]]:
    """Connected components of the 2-core (all degree-<=1 vertices
    iteratively removed), as sorted vertex lists. Degrees are counted
    over edge endpoints, so isolated vertices are never alive."""
    deg: dict[int, int] = {}
    for (u, v) in g.edge_list:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    alive = set(deg)
    queue = [v for v, dv in deg.items() if dv <= 1]
    while queue:
        v = queue.pop()
        if v not in alive or deg[v] > 1:
            continue
        alive.discard(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] <= 1:
                    queue.append(w)
    out: list[list[int]] = []
    seen: set[int] = set()
    for s in sorted(alive):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        k = 0
        while k < len(comp):
            v = comp[k]
            k += 1
            for w in g.neighbors(v):
                if w in alive and w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(sorted(comp))
    return out


def _pruned_core_components(g) -> list[tuple[int, int]]:
    """(n_c, e_c) per 2-core component."""
    comps = []
    for verts in _core_component_vertex_sets(g):
        vset = set(verts)
        e_c = sum(1 for v in verts for w in g.neighbors(v) if w in vset) // 2
        comps.append((len(verts), e_c))
    return comps


def euler_lower_bound(g, min_face_len: int) -> int:
    """Sum over core components of ceil(e(1/2 - 1/k) - (n-2)/2), each
    clamped at 0; k = min_face_len. Use k = 4 for simple bipartite
    graphs (girth at least 4), 3 otherwise."""
    if min_face_len < 3:
        raise ValidationError(f"min_face_len must be >= 3, got {min_face_len}")
    coef = Fraction(1, 2) - Fraction(1, min_face_len)
    total = 0
    for (n_c, e_c) in _pruned_core_components(g):
        val = math.ceil(e_c * coef - Fraction(n_c - 2, 2))
        total += max(0, val)
    return total


def _induced_bipartite(g: BipartiteGraph, verts: list[int]) -> BipartiteGraph:
    xs = [v for v in verts if v < g.n1]
    ys = [v for v in verts if v >= g.n1]
    xmap = {v: k for k, v in enumerate(xs)}
    ymap = {v: len(xs) + k for k, v in enumerate(ys)}
    vset = set(verts)
    edges = [(xmap[x], ymap[y]) for (x, y) in g.edge_list
             if x in vset and y in vset]
    return BipartiteGraph(len(xs), len(ys), edges)


def refined_lower_bound(g: BipartiteGraph, i: int) -> int:
    """Lower bound ceil(i/(2i+2) e - (i-1)/(2i+2) 2C - (n-2)/2) summed
    over core components, where C counts the component's closed trails
    of length at most 2i. At i = 1 this is euler_lower_bound(g, 4)."""
    if not isinstance(g, BipartiteGraph):
        raise ValidationError("refined_lower_bound expects a bipartite graph")
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    total = 0
    for verts in _core_component_vertex_sets(g):
        n_c = len(verts)
        sub = _induced_bipartite(g, verts)
        e_c = sub.n_edges
        c = count_short_closed_trails(sub, i) if i >= 2 else 0
        val = math.ceil(Fraction(i, 2 * i + 2) * e_c
                        - Fraction(i - 1, 2 * i + 2) * 2 * c
                        - Fraction(n_c - 2, 2))
        total += max(0, val)
    return total


# ---------------------------------------------------------------------------
# The pipeline.


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for estimate_genus. p, when given, is the model edge
    probability used for regime classification and the prediction
    column; otherwise the empirical density stands in."""

    strategy: str = "greedy"
    seed: int = 0
    cap: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES}")
        if self.cap is not None and self.cap < 0:
            raise ValidationError("cap must be nonnegative")
        if self.p is not None and not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must lie in [0,1], got {self.p}")


@dataclass(frozen=True)
class GenusEstimate:
    n1: int
    n2: int
    p: float
    i: int
    seed: int
    n_edges: int
    lower: int
    upper: int | None
    prediction: float
    regime: str
    coverage: float | None
    mirror_coverage: float | None
    blossoms_removed: int | None
    family_size: int | None
    face_histogram: dict[int, int] | None
    truncated: bool

    def csv_row(self) -> list[str]:
        def opt(x, fmt="{}"):
            return "" if x is None else fmt.format(x)

        return [
            str(self.n1), str(self.n2), f"{self.p:.10g}", str(self.i),
            str(self.seed), str(self.n_edges), str(self.lower),
            opt(self.upper), f"{self.prediction:.6g}",
            opt(self.coverage, "{:.4f}"), opt(self.blossoms_removed),
            self.regime,
        ]

    def to_text(self, fh: TextIO) -> None:
        fh.write(f"n1={self.n1} n2={self.n2} p={self.p:.10g} i={self.i} "
                 f"seed={self.seed}\n")
        fh.write(f"edges={self.n_edges}\n")
        fh.write(f"lower={self.lower}\n")
        fh.write(f"upper={'' if self.upper is None else self.upper}\n")
        fh.write(f"prediction={self.prediction:.6g}\n")
        fh.write(f"regime={self.regime}\n")
        if self.coverage is not None:
            fh.write(f"coverage={self.coverage:.4f}\n")
        if self.mirror_coverage is not None:
            fh.write(f"mirror_coverage={self.mirror_coverage:.4f}\n")
        if self.blossoms_removed is not None:
            fh.write(f"blossoms_removed={self.blossoms_removed}\n")
        if self.family_size is not None:
            fh.write(f"family_size={self.family_size}\n")
        if self.truncated:
            fh.write("truncated=1\n")
        if self.face_histogram:
            items = " ".join(f"{k}:{v}" for k, v in sorted(self.face_histogram.items()))
            fh.write(f"face_histogram={items}\n")


def prediction_for(res: RegimeResult, n1: int, n2: int, p: float, i_req: int) -> float:
    tag = res.tag
    if tag == "dense-4gon":
        return predicted_genus(n1, n2, p, i_req, "dense-4gon")
    if tag == "balanced-i":
        return predicted_genus(n1, n2, p, res.i, "balanced-i")
    if tag == "critical-window":
        if res.i is not None:
            return predicted_genus(n1, n2, p, res.i, "balanced-i")
        return predicted_genus(n1, n2, p, i_req, "small-part")
    if tag == "small-part-a":
        return predicted_genus(n1, n2, p, i_req, "small-part")
    if tag == "small-part-b":
        m = min(n1, n2)
        return float(max(0, math.ceil(Fraction((m - 3) * (m - 4), 12)))) if m >= 3 else 0.0
    return 0.0  # small-part-c


def estimate_genus(g, i: int, config: PipelineConfig | None = None) -> GenusEstimate:
    """Run the embedding pipeline on g and bracket its genus.

    upper is the genus of the assembled embedding and is omitted (None,
    with the truncated flag set) when the trail cap cut enumeration
    short. lower is the Euler bound, raised by the refined short-trail
    bound when i >= 2 (at i = 1 the two coincide). Guards from trail
    counting propagate.
    """
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    cfg = config or PipelineConfig()
    bip = isinstance(g, BipartiteGraph)
    if bip:
        n1, n2 = g.n1, g.n2
    else:
        n1, n2 = g.n_vertices, g.n_vertices
    n_edges = g.n_edges
    cells = n1 * n2
    p_eff = cfg.p if cfg.p is not None else (n_edges / cells if cells else 0.0)
    res = regime_classify(n1, n2, p_eff)
    prediction = prediction_for(res, n1, n2, p_eff, i)

    minlen = 4 if is_bipartite(g) else 3
    lower = euler_lower_bound(g, minlen)
    if bip and i >= 2:  # at i = 1 the refined bound is the Euler bound above
        lower = max(lower, refined_lower_bound(g, i))

    d = orient_randomly(g, cfg.seed)
    h_fwd = build_trail_hypergraph(d, i, cfg.cap)
    if h_fwd.truncated:
        return GenusEstimate(n1, n2, p_eff, i, cfg.seed, n_edges, lower, None,
                             prediction, res.label(), None, None, None, None,
                             None, True)

    m = find_matching(h_fwd, cfg.strategy, derive_int_seed(cfg.seed, STREAM_MATCH))
    # The reversed digraph's family is the reverse of this one; derive it
    # and drop the forward rows before the second matching.
    h_rev = h_fwd.mirror()
    del h_fwd
    mm = find_disjoint_mirror_matching(h_rev, m.matching, cfg.strategy,
                                       derive_int_seed(cfg.seed, STREAM_MIRROR))
    family = list(m.matching) + list(mm.matching)
    surviving, removed = make_blossom_free(g, family)
    rot = assemble_rotation(g, surviving)
    fs = trace_faces(g, rot)
    upper = genus_from_faces(g, fs)
    if upper < lower:
        raise InternalConsistencyError(
            f"embedding genus {upper} fell below the lower bound {lower}"
        )
    return GenusEstimate(n1, n2, p_eff, i, cfg.seed, n_edges, lower, upper,
                         prediction, res.label(), m.coverage, mm.coverage,
                         len(removed), len(family),
                         face_length_histogram(fs), False)


def nonorientable_bounds(g, est: GenusEstimate) -> tuple[int, int | None]:
    """(lower, upper) for the non-orientable genus: the Euler bound
    ceil(e(1 - 2/k) - n + 2) clamped per core component, and twice the
    orientable upper bound plus one."""
    minlen = 4 if is_bipartite(g) else 3
    total = 0
    for (n_c, e_c) in _pruned_core_components(g):
        val = math.ceil(e_c * (Fraction(1) - Fraction(2, minlen)) - n_c + 2)
        total += max(0, val)
    upper = None if est.upper is None else 2 * est.upper + 1
    return total, upper


# ---------------------------------------------------------------------------
# Small-part reduction: when n2 is tiny, degree-<=1 X-vertices are
# irrelevant and degree-2 X-vertices act as parallel subdivided edges
# between their Y-pair, so the graph collapses to a multigraph on Y.

# Default search budget of small_part_exact_genus. On G(1e5, 5, n1^-0.4)
# a hill climb from Random(0) first meets the Euler bound after up to
# ~142 shuffled restarts (about 0.65 ms each), so 1024 restarts leave a
# wide margin at under a second per instance.
SMALL_PART_RESTARTS = 1024
SMALL_PART_SECONDS = 10.0


@dataclass(frozen=True)
class ReducedGraph:
    n2: int
    y_support: tuple[int, ...]
    multiplicity: dict[tuple[int, int], int]
    kept_x: tuple[int, ...]
    kept_neighbors: tuple[tuple[int, ...], ...]
    deleted_x: tuple[int, ...]
    collapsed_x: tuple[int, ...]
    slack: int

    @property
    def is_complete_on_support(self) -> bool:
        m = len(self.y_support)
        return len(self.multiplicity) == m * (m - 1) // 2

    @property
    def max_x_degree(self) -> int:
        if self.kept_neighbors:
            return max(len(nbrs) for nbrs in self.kept_neighbors)
        if self.multiplicity:
            return 2
        return 1 if self.deleted_x else 0

    def simple_graph(self) -> Graph:
        """The genus-equivalent simple graph: the support Y-vertices
        (relabelled 0..m-1) joined wherever a Y-pair has multiplicity,
        plus each kept X-vertex (m, m+1, ...) with its Y-neighbours."""
        ymap = {y: k for k, y in enumerate(self.y_support)}
        m = len(ymap)
        edges = [(ymap[a], ymap[b]) for (a, b) in self.multiplicity]
        for k, nbrs in enumerate(self.kept_neighbors):
            edges.extend((m + k, ymap[y]) for y in nbrs)
        return Graph(m + len(self.kept_x), edges)


def reduce_small_part(g: BipartiteGraph) -> ReducedGraph:
    """Collapse a small-Y bipartite graph to its Y-side multigraph.

    X-vertices of degree <= 1 are deleted (genus-neutral), degree-2
    X-vertices become one unit of multiplicity on their Y-pair, and
    X-vertices of degree >= 3 are kept verbatim with their neighbours.
    Parallel subdivided paths have the genus of one edge, so g has the
    orientable and non-orientable genus of simple_graph(); that is what
    small_part_exact_genus computes. slack = n2(n2-1)/2 is the number
    of Y-pairs.
    """
    if g.n2 > MAX_SMALL_PART:
        raise GuardError(f"reduce_small_part needs n2 <= {MAX_SMALL_PART}, got {g.n2}")
    deleted, collapsed, kept, kept_nbrs = [], [], [], []
    mult: dict[tuple[int, int], int] = {}
    for x in g.x_vertices():
        nbrs = g.neighbors(x)
        if len(nbrs) <= 1:
            deleted.append(x)
        elif len(nbrs) == 2:
            collapsed.append(x)
            pair = (nbrs[0], nbrs[1])
            mult[pair] = mult.get(pair, 0) + 1
        else:
            kept.append(x)
            kept_nbrs.append(tuple(nbrs))
    support = set()
    for (y1, y2) in mult:
        support.add(y1)
        support.add(y2)
    for nbrs in kept_nbrs:
        support.update(nbrs)
    return ReducedGraph(
        n2=g.n2,
        y_support=tuple(sorted(support)),
        multiplicity=mult,
        kept_x=tuple(kept),
        kept_neighbors=tuple(kept_nbrs),
        deleted_x=tuple(deleted),
        collapsed_x=tuple(collapsed),
        slack=g.n2 * (g.n2 - 1) // 2,
    )


def small_part_exact_genus(r: ReducedGraph, budget: SearchBudget | None = None
                           ) -> tuple[int, int | None]:
    """Exact (orientable, non-orientable) genus of the graph r reduces.

    Complete Y-graph on the support and no kept X-vertex: the closed
    forms for K_m, with the m = 7 non-orientable exception of 3.
    Otherwise the orientable genus of r.simple_graph() is certified by
    pincer_genus (Euler bound met by a hill climb) or, failing that,
    found by exact_genus without the hill-climb shortcut. Both run
    within `budget` (default: SMALL_PART_RESTARTS restarts,
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
        orient = math.ceil(Fraction((m - 3) * (m - 4), 12))
        nonorient = 3 if m == 7 else math.ceil(Fraction((m - 3) * (m - 4), 6))
        return int(orient), int(nonorient)

    # imported here because the oracle module imports this one
    from .oracle import SearchBudget, exact_genus, pincer_genus

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

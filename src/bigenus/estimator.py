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
from typing import NamedTuple, TextIO

import numpy as np

from .bigraph import (MAX_SMALL_PART, STREAM_MATCH, STREAM_MIRROR,
                      BipartiteGraph, Graph, check_seed, component_labels, csr_runs,
                      derive_int_seed, distinct, induced_subgraph, is_bipartite,
                      orient_randomly)
from .blossom import DartFamily, assemble_rotation, make_blossom_free
from .embedding import face_length_histogram, genus_from_faces, trace_faces
from .errors import GuardError, InternalConsistencyError, ValidationError
from .trails import build_trail_hypergraph, count_short_closed_trails, \
    find_disjoint_mirror_matching

CELL_COLUMNS = ("n1", "n2", "p", "i", "seed")  # a cell's key, as csv_key writes it
CSV_COLUMNS = CELL_COLUMNS + ("edges", "lower", "upper", "prediction", "coverage",
                              "blossoms_removed", "regime")

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
    """Density regime of G(n1, n2, p): the tag of p's interval, or
    critical-window within a factor band = CRITICAL_BAND of any of its
    boundaries. Heavily unbalanced graphs with a small part (n2 <= 20
    and n1 >= 20 n2) are small-part-a, -b or -c above n1^(-1/3), down to
    n1^(-1/2) or below. Otherwise p >= band * n2^(-2/3) is dense-4gon,
    and below that q = -ln p / ln(n1 n2) selects the balanced window
    (i-1)/(2i-1) < q <= i/(2i+1), where the factor band in p is
    ln(band) / ln(n1 n2) in q. Past the last window, up to the windows'
    limit q = 1/2, the tag is critical-window; clearly beyond 1/2 the
    graph is a.a.s. planar and tagged small-part-c."""
    band = CRITICAL_BAND
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    big, small = max(n1, n2), min(n1, n2)
    if small < 1 or p == 0.0:
        return RegimeResult("small-part-c", None)

    if small <= MAX_SMALL_PART and big >= 20 * small:
        t_a, t_c = big ** (-1.0 / 3.0), big ** (-1.0 / 2.0)
        if any(1.0 / band <= p / t <= band for t in (t_a, t_c)):
            return RegimeResult("critical-window", None)
        tag = "small-part-a" if p > t_a else "small-part-b" if p > t_c else "small-part-c"
        return RegimeResult(tag, None)

    if p >= band * small ** (-2.0 / 3.0):
        return RegimeResult("dense-4gon", None)
    if big * small <= 1:
        return RegimeResult("small-part-c", None)
    log_n = math.log(big * small)
    q = -math.log(p) / log_n
    slack = math.log(band)
    for i in range(1, _MAX_WINDOW_I + 1):
        hi = i / (2 * i + 1)
        if q <= hi:
            edge = min(q - (i - 1) / (2 * i - 1), hi - q)
            return RegimeResult("critical-window" if edge * log_n <= slack else "balanced-i", i)
    if q < 0.5:
        return RegimeResult("critical-window", _MAX_WINDOW_I)
    return RegimeResult("critical-window" if (q - 0.5) * log_n <= slack else "small-part-c",
                        None)


def _psi_ratio(p: float, n2: int) -> tuple[int, int]:
    """psi(p, n2) in closed form, as one integer ratio num/den. With
    m = n2 - 1, x = -p and (i-1)/(i+1) = 1 - 2/(i+1), the sum over
    i = 0..m is (1+x)^m - 2((1+x)^(m+1) - 1)/((m+1)x), and its terms
    i = 0 and 1 add up to -1. With p = a/d (p.as_integer_ratio()) and
    c = d - a, that is num = (m+1) a c^m + 2(c^(m+1) - d^(m+1)) + den
    over den = (m+1) a d^m. The sum from i = 2 is empty when n2 < 3."""
    if n2 < 3 or p == 0:
        return 0, 1
    a, d = p.as_integer_ratio()
    m, c = n2 - 1, d - a
    den = (m + 1) * a * d ** m
    return (m + 1) * a * c ** m + 2 * (c ** (m + 1) - d ** (m + 1)) + den, den


def psi(p: float, n2: int) -> float:
    """Alternating sum sum_{i=2}^{n2-1} (i-1)/(i+1) C(n2-1, i) (-p)^i,
    evaluated exactly and rounded once. psi(p, 2) = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    if n2 < 2:
        raise ValidationError(f"n2 must be >= 2, got {n2}")
    num, den = _psi_ratio(p, n2)
    return num / den  # int true division rounds correctly


class AsymptoteCheck(NamedTuple):
    exact: float
    asymptote: float
    ratio: float


def small_p_asymptote_check(n1: int, n2: int, p: float) -> AsymptoteCheck:
    """Compare n1 n2 p psi(p, n2)/4 with its small-p form
    n1 p^3 C(n2,3)/4. At n2 = 3 the two agree exactly for every p.
    With p = a/d and psi = num/den, both sides and their ratio are
    integer ratios, each rounded once by int true division."""
    a, d = p.as_integer_ratio()
    num, den = _psi_ratio(p, n2)
    exact = n1 * n2 * a * num, 4 * d * den
    asym = n1 * a ** 3 * math.comb(n2, 3), 4 * d ** 3
    if asym[0]:
        ratio = exact[0] * asym[1] / (exact[1] * asym[0])
    else:
        ratio = 1.0 if exact[0] == 0 else math.inf
    return AsymptoteCheck(exact[0] / exact[1], asym[0] / asym[1], ratio)


# ---------------------------------------------------------------------------
# Euler-style lower bounds. Both work on the iteratively leaf-pruned
# core of each component: deleting a vertex of degree <= 1 never changes
# the genus, and the raw face-count inequality is only sound once every
# vertex has degree >= 2 (a bare edge has one face of length 2, not
# the least face length). Forests therefore come out as 0 with no
# special case.


# A layer of fewer leaves than this is peeled in Python: a round of
# numpy calls costs about as much as peeling that many leaves one by one.
_THIN_LAYER = 32


def _core_components(g) -> list[tuple[list[int], int]]:
    """(sorted vertices, edge count) of each component of the 2-core
    (all degree-<=1 vertices iteratively removed), in order of least
    vertex. Only vertices with an edge take part, so isolated vertices
    are never alive. Leaves are peeled in rounds over the CSR
    adjacency: a round reads only the neighbour runs of the vertices it
    removes, so peeling costs O(edges) in all. A leaf has at most one
    live neighbour, so no layer of leaves outnumbers the one before it;
    from the first thin layer on, _peel_chains takes the rest. Pruning
    a leaf never disconnects what is left, so a component of g holds at
    most one core component."""
    verts, first, nbrs = g.local_adjacency()
    deg = np.diff(first)
    alive = np.ones(len(verts), dtype=bool)
    leaves = np.flatnonzero(deg <= 1)
    while len(leaves) >= _THIN_LAYER:
        alive[leaves] = False
        hit = csr_runs(first, nbrs, leaves)
        hit = hit[alive[hit]]
        np.subtract.at(deg, hit, 1)
        leaves = distinct(hit[deg[hit] <= 1])
    _peel_chains(first, nbrs, deg, alive, leaves)
    core = np.flatnonzero(alive)
    if not len(core):
        return []
    _verts, a, b = g.local_edges()
    inner = alive[a] & alive[b]
    label = component_labels(len(verts), a[inner], b[inner])[core]
    order = np.argsort(label, kind="stable")
    core = core[order]
    cut = np.flatnonzero(np.diff(label[order])) + 1
    # a live vertex's degree left after pruning is its core degree
    e_c = np.add.reduceat(deg[core], np.concatenate(([0], cut))) // 2
    return [(run.tolist(), e) for run, e in zip(np.split(verts[core], cut), e_c.tolist())]


def _peel_chains(first: np.ndarray, nbrs: np.ndarray, deg: np.ndarray,
                 alive: np.ndarray, leaves: np.ndarray) -> None:
    """Peel the live leaves, and every vertex that their removal leaves
    with one live neighbour, one at a time in Python over memoryviews
    of the arrays: a pendant chain costs a few item reads per vertex,
    not a round of numpy calls. deg counts the live neighbours of every
    live vertex, and stays so."""
    first, nbrs, deg, alive = (memoryview(a) for a in (first, nbrs, deg, alive))
    stack = leaves.tolist()
    while stack:
        w = stack.pop()
        alive[w] = False
        for x in nbrs[first[w]:first[w + 1]]:
            if alive[x]:
                deg[x] -= 1
                if deg[x] == 1:
                    stack.append(x)
                break  # a leaf has at most one live neighbour


def _face_ceil(k: int, n: int, e: int, c: int = 0) -> int:
    """The least genus Euler's formula allows a connected graph of n
    vertices and e edges whose faces are at least k long, except at most
    2c faces, two per short closed trail, none of them shorter than 4:
    ceil(((k-2)e - k(n-2) - 2(k-4)c) / 2k), in integers as
    -((k(n-2) + 2(k-4)c - (k-2)e) // 2k)."""
    return -((k * (n - 2) + 2 * (k - 4) * c - (k - 2) * e) // (2 * k))


def euler_lower_bound(g) -> int:
    """Sum over core components of ceil(e(1/2 - 1/k) - (n-2)/2), each
    clamped at 0, where k is the least face length: 4 when g is
    bipartite (a simple bipartite graph has girth at least 4), else 3."""
    k = 4 if is_bipartite(g) else 3
    return sum(max(0, _face_ceil(k, len(verts), e_c)) for verts, e_c in _core_components(g))


def refined_lower_bound(g: BipartiteGraph, i: int) -> int:
    """Lower bound ceil(i/(2i+2) e - (i-1)/(2i+2) 2C - (n-2)/2) summed
    over core components, where C counts the component's closed trails
    of length at most 2i. At i = 1 this is euler_lower_bound(g)."""
    if not isinstance(g, BipartiteGraph):
        raise ValidationError("refined_lower_bound expects a bipartite graph")
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    total = 0
    for (verts, e_c) in _core_components(g):
        c = count_short_closed_trails(induced_subgraph(g, verts), i) if i >= 2 else 0
        total += max(0, _face_ceil(2 * i + 2, len(verts), e_c, c))
    return total


# ---------------------------------------------------------------------------
# The pipeline.


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for estimate_genus. p, when given, is the model edge
    probability used for regime classification and the prediction
    column; otherwise the empirical density stands in."""

    seed: int = 0
    p: float | None = None

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.p is not None and not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must lie in [0,1], got {self.p}")


def csv_key(n1: int, n2: int, p: float, i: int, seed: int) -> list[str]:
    """The CELL_COLUMNS fields that lead a cell's CSV row: its identity."""
    return [str(n1), str(n2), f"{p:.10g}", str(i), str(seed)]


@dataclass(frozen=True)
class GenusEstimate:
    n1: int
    n2: int
    p: float
    i: int
    seed: int
    n_edges: int
    lower: int
    upper: int
    prediction: float
    regime: str
    coverage: float
    mirror_coverage: float
    blossoms_removed: int
    family_size: int
    face_histogram: dict[int, int]

    def csv_row(self) -> list[str]:
        return csv_key(self.n1, self.n2, self.p, self.i, self.seed) + [
            str(self.n_edges), str(self.lower), str(self.upper),
            f"{self.prediction:.6g}", f"{self.coverage:.4f}",
            str(self.blossoms_removed), self.regime,
        ]

    def to_text(self, fh: TextIO) -> None:
        fh.write(f"n1={self.n1} n2={self.n2} p={self.p:.10g} i={self.i} "
                 f"seed={self.seed}\n")
        fh.write(f"edges={self.n_edges}\n")
        fh.write(f"lower={self.lower}\n")
        fh.write(f"upper={self.upper}\n")
        fh.write(f"prediction={self.prediction:.6g}\n")
        fh.write(f"regime={self.regime}\n")
        fh.write(f"coverage={self.coverage:.4f}\n")
        fh.write(f"mirror_coverage={self.mirror_coverage:.4f}\n")
        fh.write(f"blossoms_removed={self.blossoms_removed}\n")
        fh.write(f"family_size={self.family_size}\n")
        if self.face_histogram:
            items = " ".join(f"{k}:{v}" for k, v in sorted(self.face_histogram.items()))
            fh.write(f"face_histogram={items}\n")


def prediction_for(res: RegimeResult, n1: int, n2: int, p: float) -> float:
    """The predicted orientable genus of G(n1, n2, p) in regime res, with
    the parts ordered as regime_classify orders them: n2 is the smaller
    one. A window index i (balanced-i, or a critical window that has
    one) gives i/(2i+2) p n1 n2; dense-4gon gives p n1 n2 / 4; the
    small-part-a regime and the critical windows around it give
    n1 n2 p psi(p, n2) / 4; small-part-b gives the genus of K_n2 and
    small-part-c gives 0. The non-orientable prediction is twice this."""
    n1, n2 = max(n1, n2), min(n1, n2)
    tag, i = res
    if tag == "dense-4gon":
        return p * n1 * n2 / 4.0
    if tag == "balanced-i" or tag == "critical-window" and i is not None:
        return i * p * n1 * n2 / (2 * i + 2)
    if tag in ("critical-window", "small-part-a"):
        return n1 * n2 * p * psi(p, n2) / 4.0 if n2 >= 2 else 0.0
    if tag == "small-part-b":
        return float(_complete_genus(n2))
    return 0.0  # small-part-c


def _complete_genus(m: int) -> int:
    """The genus of K_m, ceil((m-3)(m-4)/12), and 0 for m <= 3."""
    return ((m - 3) * (m - 4) + 11) // 12 if m > 3 else 0


def _trail_matchings(g, i: int, cfg: PipelineConfig) -> tuple[DartFamily, float, float]:
    """Orient g, enumerate its closed (2i+2)-trails, draw the matching
    and the disjoint mirror matching, and return their trails as one
    DartFamily of g with the two coverages. The trail family, the
    largest object of an estimate, is dropped before the DartFamily is
    built, and the two reports, which hold the matched rows and the arc
    arrays those rows index, once it is built: only the DartFamily and
    two floats outlive the call."""
    h = build_trail_hypergraph(orient_randomly(g, cfg.seed), i)
    m, mm = find_disjoint_mirror_matching(h, derive_int_seed(cfg.seed, STREAM_MATCH),
                                          derive_int_seed(cfg.seed, STREAM_MIRROR))
    del h
    return DartFamily.of_matchings(g, m, mm), m.coverage, mm.coverage


def estimate_genus(g, i: int, config: PipelineConfig | None = None) -> GenusEstimate:
    """Run the embedding pipeline on g and bracket its genus.

    upper is the genus of the assembled embedding. lower is the Euler
    bound, raised by the refined short-trail bound when i >= 2 (at
    i = 1 the two coincide). Guards from trail counting propagate, so
    a family past trails.MAX_TRAILS raises GuardError.

    A bipartite g is classified by regime_classify and predicted by
    prediction_for. Any other graph is tagged "plain" and predicted
    p n^2 / 12 (Archdeacon & Grable's genus of G(n, p)), with
    p = config.p or, when that is None, m / C(n, 2).

    Each stage's input is dropped before the next stage allocates: the
    matching reports once the DartFamily is built, the family before
    blossom removal and the dropped trails once make_blossom_free
    returns, the survivors once assemble_rotation returns and the
    rotation once its faces are traced. Only the coverages, the family
    size and the number of dropped trails are kept for the result.
    """
    if i < 1:
        raise ValidationError(f"i must be >= 1, got {i}")
    cfg = config or PipelineConfig()
    bip = isinstance(g, BipartiteGraph)
    n_edges = g.n_edges
    if bip:
        n1, n2 = g.n1, g.n2
        cells = n1 * n2
    else:
        n1 = n2 = g.n_vertices
        cells = math.comb(n1, 2)
    p_eff = cfg.p if cfg.p is not None else (n_edges / cells if cells else 0.0)
    if bip:
        res = regime_classify(n1, n2, p_eff)
        regime, prediction = res.label(), prediction_for(res, n1, n2, p_eff)
    else:
        regime, prediction = "plain", p_eff * n1 * n1 / 12.0

    lower = euler_lower_bound(g)
    if bip and i >= 2:  # at i = 1 the refined bound is the Euler bound above
        lower = max(lower, refined_lower_bound(g, i))

    family, coverage, mirror_coverage = _trail_matchings(g, i, cfg)
    family_size = len(family)
    family, dropped = make_blossom_free(family)
    blossoms_removed = len(dropped)
    del dropped
    rot = assemble_rotation(family)
    del family
    fs = trace_faces(rot)
    del rot
    upper = genus_from_faces(fs)
    if upper < lower:
        raise InternalConsistencyError(
            f"embedding genus {upper} fell below the lower bound {lower}"
        )
    return GenusEstimate(n1, n2, p_eff, i, cfg.seed, n_edges, lower, upper,
                         prediction, regime, coverage, mirror_coverage,
                         blossoms_removed, family_size, face_length_histogram(fs))


# ---------------------------------------------------------------------------
# Small-part reduction: when n2 is tiny, degree-<=1 X-vertices are
# irrelevant and degree-2 X-vertices act as parallel subdivided edges
# between their Y-pair, so the graph collapses to a multigraph on Y.

@dataclass(frozen=True)
class ReducedGraph:
    y_support: tuple[int, ...]
    multiplicity: dict[tuple[int, int], int]
    kept_x: tuple[int, ...]
    kept_neighbors: tuple[tuple[int, ...], ...]

    @property
    def is_complete_on_support(self) -> bool:
        m = len(self.y_support)
        return len(self.multiplicity) == m * (m - 1) // 2

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
    oracle.small_part_exact_genus computes.
    """
    if g.n2 > MAX_SMALL_PART:
        raise GuardError(f"reduce_small_part needs n2 <= {MAX_SMALL_PART}, got {g.n2}")
    first, ys = g.first, g.nbrs
    degree = np.diff(first[:g.n1 + 1])
    collapsed = np.flatnonzero(degree == 2)
    kept = np.flatnonzero(degree >= 3).tolist()
    mult: dict[tuple[int, int], int] = {}
    for pair in zip(ys[first[collapsed]].tolist(), ys[first[collapsed] + 1].tolist()):
        mult[pair] = mult.get(pair, 0) + 1
    kept_nbrs = [tuple(ys[first[x]:first[x + 1]].tolist()) for x in kept]
    support = set()
    for (y1, y2) in mult:
        support.add(y1)
        support.add(y2)
    for nbrs in kept_nbrs:
        support.update(nbrs)
    return ReducedGraph(tuple(sorted(support)), mult, tuple(kept), tuple(kept_nbrs))

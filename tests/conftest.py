"""Shared builders and independent brute-force references.

The brute helpers deliberately use different data representations than
the package (vertex sequences instead of arc walks, permutation
products instead of incremental search) so agreement is meaningful.
"""

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from bigenus.bigraph import (MAX_SMALL_PART, STREAM_ORIENT, BipartiteGraph, Digraph, GenParams, Graph,
                             gen_random_bipartite, orient_randomly)
from bigenus import blossom
from bigenus.blossom import Blossom, DartFamily
from bigenus.embedding import FaceSet, RotationSystem, genus_of_embedding, trace_faces
from bigenus.errors import ValidationError
from bigenus.estimator import _MAX_WINDOW_I, CRITICAL_BAND, RegimeResult
from bigenus.trails import build_trail_hypergraph, find_disjoint_mirror_matching


def edge_tuples(g) -> tuple[tuple[int, int], ...]:
    """The edges (u, v), u < v, of g in lexicographic order, as tuples
    built from its arrays u and v."""
    return tuple(zip(g.u.tolist(), g.v.tolist()))


def arc_tuples(d: Digraph) -> tuple[tuple[int, int], ...]:
    """The arcs (tail, head) of d in lexicographic order, as tuples
    built from its arrays tail and head."""
    return tuple(zip(d.tail.tolist(), d.head.tolist()))


def has_anti_parallel(d: Digraph) -> bool:
    """Whether d holds both (u, v) and (v, u) for some pair, read off
    its arc tuples."""
    arcs = set(arc_tuples(d))
    return any((h, t) in arcs for t, h in arcs)


def rand_graph(rng: random.Random, max_edges: int = 12) -> Graph:
    n = rng.randint(3, 9)
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pool)
    m = rng.randint(0, min(max_edges, len(pool)))
    return Graph(n, pool[:m])


def rand_bipartite(rng: random.Random, max_edges: int = 20) -> BipartiteGraph:
    n1 = rng.randint(2, 6)
    n2 = rng.randint(2, 6)
    pool = [(x, n1 + y) for x in range(n1) for y in range(n2)]
    rng.shuffle(pool)
    m = rng.randint(0, min(max_edges, len(pool)))
    return BipartiteGraph(n1, n2, pool[:m])


def random_simple_graph(rng: random.Random, n: int, m: int, pendant: int = 0,
                        bipartite: bool = False):
    """(n, edges): a random simple graph on n vertices with up to m
    random edges and a pendant path of `pendant` new vertices hung from
    one of them, its labels shuffled and each edge written in a random
    order, so the input is neither sorted nor normalized. With
    `bipartite`, the random edges join two halves of the vertices."""
    pairs = set()
    for _ in range(m):
        if bipartite and n >= 2:
            pairs.add((rng.randrange(n // 2), rng.randrange(n // 2, n)))
        elif n >= 2:
            a, b = rng.sample(range(n), 2)
            pairs.add((min(a, b), max(a, b)))
    if pendant and n:
        path = [rng.randrange(n)] + list(range(n, n + pendant))
        pairs.update(zip(path, path[1:]))
        n += pendant
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in pairs}
    return n, [(b, a) if rng.random() < 0.5 else (a, b) for (a, b) in sorted(pairs)]


def graph_cases(seed: int):
    """(n, edges) inputs: random graphs with and without long pendant
    paths and isolated vertices, some of them bipartite, the empty graph
    and graphs with no vertex."""
    rng = random.Random(seed)
    cases = [(0, []), (1, []), (7, []), (2, [(1, 0)]), (5, [(4, 0), (0, 1), (3, 4)])]
    for _ in range(40):
        n = rng.randint(2, 40)
        cases.append(random_simple_graph(rng, n, rng.randint(0, 3 * n),
                                         pendant=rng.choice((0, 0, 1, 5, 120)),
                                         bipartite=rng.random() < 0.3))
    return cases


def reference_adjacency(n: int, edges) -> list[tuple[int, ...]]:
    """The ascending neighbour tuple of every vertex of the graph on
    0..n-1 with the given edges, each in either order, by one set per
    vertex."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for (a, b) in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [tuple(sorted(s)) for s in nbrs]


def reference_components(adj, starts=None) -> list[tuple[int, ...]]:
    """The components holding a vertex of `starts` (default: every
    vertex), each sorted, in the order their first start comes, by a
    depth-first search over the tuple adjacency adj."""
    seen: set[int] = set()
    comps = []
    for s in range(len(adj)) if starts is None else starts:
        if s in seen:
            continue
        stack = [s]
        seen.add(s)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def reference_two_coloring(adj):
    """(side0, side1) by a depth-first search that puts the least
    vertex of every component on side 0, or None at an odd cycle."""
    color: dict[int, int] = {}
    for s in range(len(adj)):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return (tuple(v for v in range(len(adj)) if color[v] == 0),
            tuple(v for v in range(len(adj)) if color[v] == 1))


def reference_genus(g, fs: FaceSet) -> int:
    """genus_from_faces by component dicts over the tuple adjacency:
    (2 - n + e - f) / 2 summed over the components with an edge."""
    comps = reference_components(reference_adjacency(g.n_vertices, edge_tuples(g)),
                                 [u for (u, _v) in edge_tuples(g)])
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    e_c = [0] * len(comps)
    for (u, _v) in edge_tuples(g):
        e_c[comp_of[u]] += 1
    f_c = [0] * len(comps)
    for face in fs.faces:
        f_c[comp_of[face[0][0]]] += 1
    return sum((2 - len(comp) + e_c[ci] - f_c[ci]) // 2 for ci, comp in enumerate(comps))


def random_rotation(g, rng: random.Random) -> RotationSystem:
    order = {}
    for v in range(g.n_vertices):
        nbrs = list(g.neighbors(v))
        rng.shuffle(nbrs)
        order[v] = tuple(nbrs)
    return RotationSystem(g, order)


def reference_arc_index(g):
    """(tail, head, rev, first) of embedding.arc_index(g), by a lexsort
    of both directions of every edge."""
    u, v = g.u, g.v
    m = len(u)
    tails, heads = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((heads, tails))
    pos = np.empty(2 * m, dtype=np.int32)
    pos[order] = np.arange(2 * m, dtype=np.int32)
    first = np.zeros(g.n_vertices + 1, dtype=np.int32)
    np.add.at(first, tails[order] + 1, 1)
    return tails[order], heads[order], pos[(order + m) % max(2 * m, 1)], np.cumsum(first)


def reference_psi(p: Fraction, n2: int) -> Fraction:
    """sum_{i=2}^{n2-1} (i-1)/(i+1) C(n2-1, i) (-p)^i term by term."""
    total = Fraction(0)
    for i in range(2, n2):
        total += Fraction(i - 1, i + 1) * math.comb(n2 - 1, i) * (-p) ** i
    return total


def reference_euler_ceil(k: int, n: int, e: int) -> int:
    """ceil(e(1/2 - 1/k) - (n-2)/2) over exact rationals."""
    return math.ceil(e * (Fraction(1, 2) - Fraction(1, k)) - Fraction(n - 2, 2))


def reference_refined_ceil(i: int, n: int, e: int, c: int) -> int:
    """ceil(i/(2i+2) e - (i-1)/(2i+2) 2c - (n-2)/2) over exact rationals."""
    return math.ceil(Fraction(i, 2 * i + 2) * e - Fraction(i - 1, 2 * i + 2) * 2 * c
                     - Fraction(n - 2, 2))


def lcf_graph(shifts: Sequence[int], repeat: int) -> BipartiteGraph:
    """The cubic graph of LCF notation [shifts]^repeat: the cycle
    0, 1, ..., n-1 and a chord from each v to v + shifts[v % len(shifts)]
    (mod n). The shifts are odd and n is even, so the graph is bipartite:
    even vertex v is X-vertex v/2, odd v is Y-vertex n/2 + (v-1)/2."""
    s = list(shifts) * repeat
    n = len(s)
    side = [v // 2 + (v % 2) * (n // 2) for v in range(n)]
    edges = {tuple(sorted((side[v], side[(v + d) % n]))) for v in range(n) for d in (1, s[v])}
    return BipartiteGraph(n // 2, n // 2, sorted(edges))


# Girth-6 cubic graphs of genus 1 whose Euler bound is 0: the lower-side
# anchors of a genus bracket. (LCF shifts, repeats, vertices, edges)
GENUS_ONE_LCF = {
    "heawood": ([5, -5], 7, 14, 21),
    "moebius-kantor": ([5, -5], 8, 16, 24),
    "pappus": ([5, 7, -7, 7, -7, -5], 3, 18, 27),
}


def reference_regime_classify(n1: int, n2: int, p: float) -> RegimeResult:
    """estimator.regime_classify as it was written case by case: each
    boundary of each interval tested on its own, and every balanced
    window's both boundaries through one nearness closure."""
    band = CRITICAL_BAND
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"p must lie in [0,1], got {p}")
    big, small = max(n1, n2), min(n1, n2)
    if small < 1 or p == 0.0:
        return RegimeResult("small-part-c", None)

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


def reference_class_sizes(n1: int, n2: int, p: float) -> list[int]:
    """floor(p^m (1-p)^(n2-m) n1) for m = 0..n2 over exact rationals."""
    pf = Fraction(p)
    return [math.floor(pf ** m * (1 - pf) ** (n2 - m) * n1) for m in range(n2 + 1)]


def brute_closed_trail_count(g, length: int) -> int:
    """Closed trails of exactly `length` edges, distinct edges, counted
    up to rotation and reflection of the vertex sequence."""

    def canon(seq):
        best = None
        for s in (seq, tuple(reversed(seq))):
            for r in range(length):
                rot = s[r:] + s[:r]
                if best is None or rot < best:
                    best = rot
        return best

    seen = set()

    def walk(start, v, used, seq):
        if len(seq) == length:
            e = (v, start) if v < start else (start, v)
            if start in g.neighbors(v) and e not in used:
                seen.add(canon(tuple(seq)))
            return
        for w in g.neighbors(v):
            e = (v, w) if v < w else (w, v)
            if e in used:
                continue
            used.add(e)
            seq.append(w)
            walk(start, w, used, seq)
            seq.pop()
            used.remove(e)

    for start in range(g.n_vertices):
        walk(start, start, set(), [start])
    return len(seen)


def reference_trail_rows(d: Digraph, length: int) -> np.ndarray:
    """Rows of arc ids (into arc_tuples(d)) of the closed trails of `length`
    arcs in d, by depth-first search. Each trail is found once, from its
    least arc: only arcs above that anchor may follow it, so the rows
    come out canonical and in lexicographic order."""
    arcs = arc_tuples(d)
    out_ids: dict[int, list[int]] = {}
    for k, (t, _h) in enumerate(arcs):
        out_ids.setdefault(t, []).append(k)
    found = []
    path: list[int] = []

    def rec(v: int, start: int, a0: int) -> None:
        if len(path) == length:
            if v == start:
                found.append(tuple(path))
            return
        for a in out_ids.get(v, ()):
            if a > a0 and a not in path:
                path.append(a)
                rec(arcs[a][1], start, a0)
                path.pop()

    for a0, (start, first) in enumerate(arcs):
        path[:] = [a0]
        rec(first, start, a0)
    return np.array(found, dtype=np.int64).reshape(-1, length)


def brute_short_trail_total(g, i: int) -> int:
    return sum(brute_closed_trail_count(g, 2 * j) for j in range(2, i + 1))


def all_rotation_systems(g):
    verts = list(range(g.n_vertices))
    choices = []
    for v in verts:
        nbrs = list(g.neighbors(v))
        if len(nbrs) <= 1:
            choices.append([tuple(nbrs)])
        else:
            head, rest = nbrs[0], nbrs[1:]
            choices.append([(head,) + perm
                            for perm in itertools.permutations(rest)])
    for combo in itertools.product(*choices):
        yield RotationSystem(g, dict(zip(verts, combo)))


def brute_min_genus(g) -> int:
    return min(genus_of_embedding(rot) for rot in all_rotation_systems(g))


def reference_core_components(g) -> list[list[int]]:
    """Connected components of the 2-core (all degree-<=1 vertices
    iteratively removed), as sorted vertex lists in the order of their
    least vertex, by pruning and then a search that never leaves the
    core. Degrees are counted over edge endpoints, so isolated vertices
    are never alive."""
    adj = reference_adjacency(g.n_vertices, edge_tuples(g))
    deg: dict[int, int] = {}
    for (u, v) in edge_tuples(g):
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    alive = set(deg)
    queue = [v for v, dv in deg.items() if dv <= 1]
    while queue:
        v = queue.pop()
        if v not in alive or deg[v] > 1:
            continue
        alive.discard(v)
        for w in adj[v]:
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
            for w in adj[v]:
                if w in alive and w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(sorted(comp))
    return out


def component_euler_stats(g, rot):
    """(vertices, edges, faces) per connected component with >= 1 edge."""
    fs = trace_faces(rot)
    comps = reference_components(reference_adjacency(g.n_vertices, edge_tuples(g)))
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    f_count = [0] * len(comps)
    e_count = [0] * len(comps)
    for face in fs.faces:
        f_count[comp_of[face[0][0]]] += 1
    for (u, _v) in edge_tuples(g):
        e_count[comp_of[u]] += 1
    return [(len(comp), e_count[ci], f_count[ci])
            for ci, comp in enumerate(comps) if e_count[ci]]


def pipeline_family(n1: int, n2: int, p: float, seed: int, i: int = 1):
    """(g, family): a random graph and its matched trail family before
    blossom removal, a DartFamily built the way the estimator builds it
    (with the seed itself for both matchings)."""
    g = gen_random_bipartite(GenParams(n1, n2, p, seed=seed))
    h = build_trail_hypergraph(orient_randomly(g, seed), i)
    m, mm = find_disjoint_mirror_matching(h, seed, seed)
    return g, DartFamily.of_matchings(g, m, mm)


Arc = tuple[int, int]


def _canonical_rotation(arcs: Sequence[Arc]) -> tuple[Arc, ...]:
    arcs = tuple(arcs)
    k = min(range(len(arcs)), key=lambda j: arcs[j])
    return arcs[k:] + arcs[:k]


@dataclass(frozen=True)
class ClosedTrail:
    """A directed closed walk with no repeated arc, stored canonically.
    The test reference for trails held as rows of arc ids: a
    TrailHypergraph, a MatchingReport's rows, a DartFamily and the text
    that bigenus.trails.trails_to_text writes."""

    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        arcs = self.arcs
        if len(arcs) < 2:
            raise ValidationError("a closed trail needs at least 2 arcs")
        if len(set(arcs)) != len(arcs):
            raise ValidationError("trail repeats an arc")
        for j, (t, h) in enumerate(arcs):
            nt, _ = arcs[(j + 1) % len(arcs)]
            if h != nt:
                raise ValidationError("arcs do not chain head to tail")
        if arcs[0] != min(arcs):
            raise ValidationError("trail is not in canonical rotation")

    @classmethod
    def from_arcs(cls, arcs: Sequence[Arc]) -> "ClosedTrail":
        return cls(_canonical_rotation(arcs))

    def __len__(self) -> int:
        return len(self.arcs)

    def reverse(self) -> "ClosedTrail":
        rev = tuple((h, t) for (t, h) in reversed(self.arcs))
        return ClosedTrail.from_arcs(rev)

    def __repr__(self) -> str:
        inner = " ".join(f"{t}>{h}" for (t, h) in self.arcs)
        return f"ClosedTrail({inner})"


def hypergraph_trails(h) -> tuple[ClosedTrail, ...]:
    """Every trail of the TrailHypergraph h, in row order."""
    tail, head = h.tail.tolist(), h.head.tolist()
    return tuple(ClosedTrail.from_arcs([(tail[a], head[a]) for a in row])
                 for row in h.trails().tolist())


def matched(report) -> tuple[ClosedTrail, ...]:
    """The matched trails of a MatchingReport, in row order."""
    return hypergraph_trails(report.chosen)


def family_trails(fam: DartFamily) -> tuple[ClosedTrail, ...]:
    """The trails of a DartFamily, in family order."""
    tail = fam.index.tail[fam.darts].tolist()
    head = fam.index.head[fam.darts].tolist()
    arcs = list(zip(tail, head))
    bounds = fam.offsets.tolist()
    return tuple(ClosedTrail.from_arcs(arcs[s:e]) for s, e in zip(bounds, bounds[1:]))


def dart_family(g, trails) -> DartFamily:
    """The ClosedTrails `trails`, in order, as a DartFamily of g, with
    the refusals of DartFamily.of_matchings: an arc that is no edge of
    g, or that two trail positions use."""
    ends = np.array([a for t in trails for a in t.arcs], dtype=np.int64).reshape(-1, 2)
    return DartFamily._of_arcs(g, ends[:, 0], ends[:, 1],
                               np.array([len(t) for t in trails], dtype=np.int64))


def hypergraph_arcs(h) -> list[tuple[int, int]]:
    """The arcs of h's arc table as tuples, in id order."""
    return list(zip(h.tail.tolist(), h.head.tolist()))


def reference_incidence(h) -> dict[tuple[int, int], tuple[int, ...]]:
    """The rows of h holding each arc, keyed by the arc, by a loop over
    the rows read as lists."""
    by_id: list[list[int]] = [[] for _ in range(h.n_arcs)]
    for idx, row in enumerate(h.trails().tolist()):
        for a in row:
            by_id[a].append(idx)
    return {a: tuple(ix) for a, ix in zip(hypergraph_arcs(h), by_id)}


def reference_orientation(g, seed: int) -> list[tuple[int, int]]:
    """The arcs of orient_randomly(g, seed), sorted, by a tuple loop:
    the k-th edge (a, b) of edge_tuples(g) is kept as a -> b when the k-th
    coin of the orientation stream, numpy's own Philox generator, is
    below 1/2, else reversed."""
    from numpy.random import Generator, Philox, SeedSequence
    edges = edge_tuples(g)
    u = Generator(Philox(SeedSequence([seed, STREAM_ORIENT]))).random(len(edges))
    return sorted((a, b) if u[k] < 0.5 else (b, a) for k, (a, b) in enumerate(edges))


def reference_index(h, trail) -> int | None:
    """Row of `trail` in the family h, or None, by bisecting the arc
    tuples for each arc id and then the rebuilt trails read as lists."""
    arcs = hypergraph_arcs(h)
    row = []
    for a in trail.arcs:
        k = bisect_left(arcs, a)
        if k == len(arcs) or arcs[k] != a:
            return None
        row.append(k)
    rows = h.trails()
    if len(row) != rows.shape[1]:
        return None
    j = bisect_left(range(len(rows)), row, key=lambda r: rows[r].tolist())
    return j if j < len(rows) and rows[j].tolist() == row else None


@dataclass(frozen=True)
class TipArc:
    """One passage of a trail through a center: enters from in_tip,
    leaves toward out_tip. passage_idx is the position of the incoming
    arc inside the trail."""

    in_tip: int
    out_tip: int
    trail_index: int
    passage_idx: int


@dataclass(frozen=True)
class TipDigraph:
    """The paper's auxiliary digraph at one center: its nodes are
    neighbor labels, and each passage u -> center -> w is an arc u -> w."""

    center: int
    arcs: tuple[TipArc, ...]


def tip_digraphs(family) -> dict[int, TipDigraph]:
    """All nonempty per-center auxiliary digraphs of a sequence of
    ClosedTrails, keyed by center in order of first passage; each lists
    its passages in family order. The reference for blossom._cycles,
    whose passage successor holds the same arcs as darts."""
    at: dict[int, list[TipArc]] = {}
    for k, t in enumerate(family):
        arcs = t.arcs
        for j, (u, v) in enumerate(arcs):
            at.setdefault(v, []).append(TipArc(u, arcs[(j + 1) % len(arcs)][1], k, j))
    return {v: TipDigraph(v, tuple(arcs)) for v, arcs in at.items()}


def reference_passages(g, family) -> dict[int, dict[int, TipArc]]:
    """The passages of a family of ClosedTrails at each center, keyed by
    in_tip, in dicts. Every arc must be an edge of g and appear at most
    once in the family: the passage entering v from u is the only user
    of the arc u -> v, so each map is a partial injection."""
    edges = frozenset(edge_tuples(g))
    by_center: dict[int, dict[int, TipArc]] = {}
    for ti, t in enumerate(family):
        arcs = t.arcs
        for j, (u, v) in enumerate(arcs):
            if ((u, v) if u < v else (v, u)) not in edges:
                raise ValidationError(f"trail arc {u}->{v} is not an edge of the graph")
            at = by_center.setdefault(v, {})
            if u in at:
                raise ValidationError(f"arc {u}->{v} used by two trails")
            at[u] = TipArc(u, arcs[(j + 1) % len(arcs)][1], ti, j)
    return by_center


def reference_walk(at: dict[int, TipArc], tips):
    """Chains and cycles of the passages `at` of one center: a chain
    starts at every tip of `tips` no passage leads to, in ascending
    order, and the in_tips no chain covers lie on cycles, each listed
    from its least in_tip, in ascending order of that tip."""
    targets = {a.out_tip for a in at.values()}
    chains: list[list[int]] = []
    covered: set[int] = set()
    for u in sorted(tips):
        if u in targets:
            continue
        chain = [u]
        while chain[-1] in at:
            chain.append(at[chain[-1]].out_tip)
        chains.append(chain)
        covered.update(chain)
    cycles: list[tuple[TipArc, ...]] = []
    for start in sorted(at):
        if start in covered:
            continue
        cyc = [at[start]]
        while cyc[-1].out_tip != start:
            cyc.append(at[cyc[-1].out_tip])
        covered.update(a.in_tip for a in cyc)
        cycles.append(tuple(cyc))
    return chains, cycles


def reference_blossoms(g, family) -> tuple[Blossom, ...]:
    """find_blossoms by per-center passage dicts and chain walks."""
    family = tuple(family)
    by_center = reference_passages(g, family)
    blossoms = []
    for v in sorted(by_center):
        at = by_center[v]
        for cyc in reference_walk(at, at)[1]:
            if len(cyc) == 2:
                simple = family[cyc[0].trail_index] != family[cyc[1].trail_index].reverse()
            else:
                simple = len(cyc) >= 3
            blossoms.append(Blossom(v, tuple((a.trail_index, a.passage_idx) for a in cyc),
                                    tuple(a.in_tip for a in cyc), simple))
    return tuple(blossoms)


def reference_assemble(g, family) -> RotationSystem:
    """assemble_rotation as a plain dict of neighbor orders: at each
    vertex the chains of the passages, in ascending order of their least
    neighbor, with unconstrained neighbors as singleton chains."""
    by_center = reference_passages(g, family)
    order = {}
    for v in range(g.n_vertices):
        nbrs = g.neighbors(v)
        at = by_center.get(v)
        if at is None:
            order[v] = nbrs
            continue
        chains, cycles = reference_walk(at, nbrs)
        if cycles:
            raise ValidationError(
                f"family has a blossom at vertex {v} (length {len(cycles[0])})")
        order[v] = tuple(u for chain in sorted(chains, key=min) for u in chain)
    return RotationSystem(g, order)


def reference_chain_order(fam: DartFamily) -> np.ndarray:
    """The darts of a blossom-free family in rotation order, as
    assemble_rotation once listed them: the passage chains keyed by
    their least dart and the darts sorted by (least dart of their
    chain, rank in the chain) with np.lexsort."""
    succ = blossom._passages(fam)
    lead, rank, _cyclic = blossom._walk(succ, fam.index)
    least = np.full(len(succ), len(succ), dtype=np.int32)
    np.minimum.at(least, lead, np.arange(len(succ), dtype=np.int32))
    return np.lexsort((rank, least[lead])).astype(np.int32)


def reference_blossom_free(g, family):
    """make_blossom_free by its definition, over reference_blossoms:
    after each removal recount, over the still-unbroken cycles, how
    many each trail sits on, and drop the trail with the most (ties to
    the later trail)."""
    family = tuple(family)
    cycles = [frozenset(ti for (ti, _pj) in b.passages)
              for b in reference_blossoms(g, family)]
    removed = set()
    unbroken = set(range(len(cycles)))
    while unbroken:
        count = {}
        for ci in unbroken:
            for idx in cycles[ci]:
                count[idx] = count.get(idx, 0) + 1
        victim = max(count, key=lambda idx: (count[idx], idx))
        removed.add(victim)
        unbroken = {ci for ci in unbroken if victim not in cycles[ci]}
    surviving = tuple(t for idx, t in enumerate(family) if idx not in removed)
    dropped = tuple(family[idx] for idx in sorted(removed))
    return surviving, dropped


def reference_greedy(trails, seed: int, exclude=()):
    """Random greedy matching over ClosedTrail objects with a set of used
    arcs: the indices of the trails not in `exclude`, in increasing
    order, shuffled by random.Random(seed), each trail taken when all
    its arcs are still unused. Returns the taken trails in index order."""
    excluded = set(exclude)
    order = [k for k, t in enumerate(trails) if t not in excluded]
    random.Random(seed).shuffle(order)
    used = set()
    taken = []
    for k in order:
        if used.isdisjoint(trails[k].arcs):
            used.update(trails[k].arcs)
            taken.append(k)
    return tuple(trails[k] for k in sorted(taken))


def arc_degree_model(n1: int, n2: int, p: float, lo: float, hi: float):
    """(P(lo <= D <= hi), E[D]) for the closed-4-trail degree D of one
    arc of a randomly oriented G(n1, n2, p), from first principles.

    Every other edge is present and points a given way with probability
    q = p/2, independently. For an arc x->y the trails are
    x->y->x'->y'->x: the candidate x' form A ~ Bin(n1-1, q), the
    candidate y' form B ~ Bin(n2-1, q), and each of the |A||B| closing
    arcs x'->y' is there with probability q, so D | A, B ~ Bin(|A||B|, q)
    and E[D] = (n1-1)(n2-1) q^3. Arcs y->x give the same law.
    """
    q = p / 2.0
    log_q, log_r = math.log(q), math.log1p(-q)

    def log_pmf(n, k):
        return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * log_q + (n - k) * log_r)

    k_lo, k_hi = max(0, math.ceil(lo)), math.floor(hi)
    band_given: dict[int, float] = {}

    def in_band(n):
        if n not in band_given:
            band_given[n] = sum(math.exp(log_pmf(n, k))
                                for k in range(k_lo, min(k_hi, n) + 1))
        return band_given[n]

    prob = 0.0
    for a in range(n1):
        w_a = math.exp(log_pmf(n1 - 1, a))
        for b in range(n2):
            prob += w_a * math.exp(log_pmf(n2 - 1, b)) * in_band(a * b)
    return prob, (n1 - 1) * (n2 - 1) * q ** 3


def rho(d: Digraph, b: int, a: int, i: int) -> int:
    """Number of directed paths (all vertices distinct) of length 2i+1
    from b to a, with out-neighbours read off arc_tuples(d)."""
    length = 2 * i + 1
    out: dict[int, list[int]] = {}
    for (t, h) in arc_tuples(d):
        out.setdefault(t, []).append(h)

    def rec(v: int, depth: int, visited: set[int]) -> int:
        if depth == length:
            return 1 if v == a else 0
        if v == a:
            return 0
        total = 0
        for w in out.get(v, ()):
            if w in visited:
                continue
            visited.add(w)
            total += rec(w, depth + 1, visited)
            visited.remove(w)
        return total

    if b == a:
        return 0
    return rec(b, 0, {b})


# Readers and writers for the text formats of the package. The CLI only
# writes rotations and trails; these parse them back (and write and read
# traced faces) for round-trip tests.


def rotation_from_text(fh, g) -> RotationSystem:
    """Inverse of bigenus.embedding.rotation_to_text, for the graph g."""
    order: dict[int, tuple[int, ...]] = {}
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        v = int(head)
        nbrs = []
        for tok in rest.split():
            a_s, _, b_s = tok.partition("-")
            a, b = int(a_s), int(b_s)
            if v == a:
                nbrs.append(b)
            elif v == b:
                nbrs.append(a)
            else:
                raise ValidationError(f"edge {tok} is not incident with vertex {v}")
        order[v] = tuple(nbrs)
    return RotationSystem(g, order)


def _arc_lines(fh, sep: str) -> list[list[tuple[int, int]]]:
    """Non-comment lines of `u{sep}v` tokens as lists of arcs."""
    out = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append([tuple(int(x) for x in tok.split(sep)) for tok in line.split()])
    return out


def faces_to_text(fs: FaceSet, fh) -> None:
    """One face per line as the arc sequence "u>v v>w ..."."""
    for face in fs.faces:
        fh.write(" ".join(f"{t}>{h}" for (t, h) in face) + "\n")


def faces_from_text(fh) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The faces that faces_to_text wrote, as FaceSet.faces holds them."""
    return tuple(tuple(arcs) for arcs in _arc_lines(fh, ">"))


def trails_from_text(fh) -> list[ClosedTrail]:
    """Inverse of bigenus.trails.trails_to_text."""
    return [ClosedTrail.from_arcs(arcs) for arcs in _arc_lines(fh, ">")]

import math
import random
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from bigenus import trails
from bigenus.bigraph import (BipartiteGraph, GenParams, Graph, degree_class_partition,
                             complete_bipartite_graph, complete_graph,
                             gen_random_bipartite, path_graph)
from bigenus.blossom import DartFamily
from bigenus.errors import BudgetExceededError, GuardError, ValidationError
from bigenus.oracle import SearchBudget, exact_genus
from bigenus.estimator import (PipelineConfig, _core_components, _induced_bipartite,
                               estimate_genus, euler_lower_bound, nonorientable_bounds,
                               predicted_genus, prediction_for, psi,
                               reduce_small_part, refined_lower_bound,
                               regime_classify, small_p_asymptote_check,
                               small_part_exact_genus)

from conftest import (GRAPH_VIEWS, graph_cases, rand_bipartite, rand_graph,
                      reference_core_components)


def test_psi_closed_forms():
    assert psi(0.5, 4) == 0.1875
    for k in range(1, 8):
        p = k / 8
        assert abs(psi(p, 3) - p * p / 3) < 1e-14
    assert psi(0.3, 2) == 0.0
    with pytest.raises(ValidationError):
        psi(0.5, 1)
    with pytest.raises(ValidationError):
        psi(1.5, 3)


def test_small_p_asymptote():
    chk = small_p_asymptote_check(10 ** 6, 6, 0.01)
    assert chk.asymptote == 5.0
    assert chk.exact == pytest.approx(4.925449, rel=1e-6)
    assert abs(chk.ratio - 1) < 0.05
    zero = small_p_asymptote_check(100, 6, 0.0)
    assert zero.ratio == 1.0


def test_regime_small_part_sweep():
    n1 = 10 ** 5
    assert regime_classify(n1, 5, n1 ** -0.6).label() == "small-part-c"
    assert regime_classify(n1, 5, n1 ** -0.4).label() == "small-part-b"
    assert regime_classify(n1, 5, 0.3).label() == "small-part-a"


def test_regime_balanced_and_windows():
    res = regime_classify(10 ** 6, 100, 0.01)
    assert (res.tag, res.i) == ("balanced-i", 1)
    assert res.label() == "balanced-i(1)"

    # q = 0.45 at N = 1e8 sits in the i=5 window but near its boundary
    n = 10 ** 4
    res = regime_classify(n, n, (n * n) ** -0.45)
    assert res.tag == "critical-window"
    assert res.i == 5

    # q just below 1/2: windows accumulate, the index saturates
    res = regime_classify(n, n, (n * n) ** -0.499)
    assert res.tag == "critical-window"
    assert res.i == 64

    assert regime_classify(100, 100, 0.5).tag == "dense-4gon"
    assert regime_classify(100, 100, 0.0).label() == "small-part-c"
    with pytest.raises(ValidationError):
        regime_classify(100, 100, 1.5)


def test_predicted_genus_values():
    assert predicted_genus(100, 100, 0.5, 1, "dense-4gon") == 1250.0
    assert predicted_genus(100, 100, 0.5, 1, "balanced-i") == 1250.0
    assert predicted_genus(10 ** 5, 5, 0.3, 1, "small-part") == 4907.25
    with pytest.raises(ValidationError):
        predicted_genus(100, 100, 0.5, 1, "no-such-regime")
    # the non-orientable prediction is 2x, computed by the caller
    with pytest.raises(TypeError):
        predicted_genus(100, 100, 0.5, 1, "dense-4gon", orientable=False)


def test_prediction_for_small_part_b():
    n1 = 10 ** 5
    res = regime_classify(n1, 5, n1 ** -0.4)
    # K5 genus from the closed form
    assert prediction_for(res, n1, 5, n1 ** -0.4, 1) == 1.0
    res = regime_classify(n1, 5, n1 ** -0.6)
    assert prediction_for(res, n1, 5, n1 ** -0.6, 1) == 0.0


def test_euler_lower_bound_values():
    assert euler_lower_bound(complete_bipartite_graph(3, 3)) == 1
    assert euler_lower_bound(complete_bipartite_graph(5, 5)) == 3
    assert euler_lower_bound(complete_graph(5)) == 1
    assert euler_lower_bound(path_graph(6)) == 0
    assert euler_lower_bound(Graph(2, [(0, 1)])) == 0
    # two disjoint K_{3,3} held as a plain Graph: still bipartite, so
    # faces have length at least 4
    two = Graph(12, list(complete_bipartite_graph(3, 3).edge_list)
                + [(u + 6, v + 6) for (u, v) in complete_bipartite_graph(3, 3).edge_list])
    assert euler_lower_bound(two) == 2


def _check_core_components(g):
    comps = _core_components(g)
    assert [verts for verts, _e_c in comps] == reference_core_components(g)
    for verts, e_c in comps:
        vset = set(verts)
        assert e_c == sum(1 for (u, v) in g.edge_list if u in vset and v in vset)
        if isinstance(g, BipartiteGraph):
            assert _induced_bipartite(g, verts).n_edges == e_c
    return comps


def test_core_components_match_reference():
    rng = random.Random(45)
    for _ in range(60):
        _check_core_components(rand_bipartite(rng))
        _check_core_components(rand_graph(rng, max_edges=16))
    for n, edges in graph_cases(5):
        _check_core_components(Graph(n, edges))
    # a triangle carrying a pendant path of 2,000 vertices: 1,000 peel rounds
    path = [(k, k + 1) for k in range(3, 2003)]
    g = Graph(2004, [(0, 1), (1, 2), (0, 2), (2, 3)] + path)
    assert _check_core_components(g) == [([0, 1, 2], 3)]
    assert _check_core_components(Graph(2004, path)) == []
    # forests and isolated vertices have no core
    for g in (path_graph(7), Graph(5, []), Graph(6, [(0, v) for v in range(1, 5)]),
              Graph(0, []), BipartiteGraph(3, 3, [(0, 3), (1, 3), (1, 4)])):
        assert _check_core_components(g) == []
    # two triangles joined by a path, plus a pendant edge: the path is core
    tri = [(0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7)]
    dumbbell = Graph(9, tri + [(2, 3), (3, 4), (4, 5), (7, 8)])
    assert _check_core_components(dumbbell) == [(list(range(8)), 9)]
    # a disjoint union: K_{3,3}, a pendant tree, an isolated vertex, a C4
    edges = list(complete_bipartite_graph(3, 3).edge_list) + [(0, 6), (6, 7)]
    edges += [(9, 10), (10, 11), (11, 12), (9, 12)]
    union = Graph(13, edges)
    assert _check_core_components(union) == [([0, 1, 2, 3, 4, 5], 9),
                                             ([9, 10, 11, 12], 4)]


def test_induced_bipartite_equals_loop_reference():
    rng = random.Random(6)
    for _ in range(30):
        n2 = rng.randint(1, 12)
        g = gen_random_bipartite(GenParams(rng.randint(n2, 30), n2, rng.random(),
                                           seed=rng.randint(0, 99)))
        verts = sorted(rng.sample(range(g.n_vertices), rng.randint(0, g.n_vertices)))
        xs = [v for v in verts if v < g.n1]
        ys = [v for v in verts if v >= g.n1]
        ymap = {v: len(xs) + k for k, v in enumerate(ys)}
        edges = [(k, ymap[y]) for k, x in enumerate(xs) for y in g.neighbors(x) if y in ymap]
        assert _induced_bipartite(g, verts) == BipartiteGraph(len(xs), len(ys), edges)


def test_estimate_builds_no_tuple_view():
    small_part = GenParams(100_000, 5, 100_000 ** -0.4, seed=0)
    graphs = [gen_random_bipartite(GenParams(800, 800, 0.03, seed=0)),
              gen_random_bipartite(small_part)]
    # a plain graph, as the small-part reduction makes, plus a triangle
    plain = reduce_small_part(gen_random_bipartite(small_part)).simple_graph()
    n = plain.n
    triangle = [[n, n + 1], [n + 1, n + 2], [n, n + 2]]
    edges = np.column_stack((plain.u, plain.v))
    graphs += [plain, Graph(n + 3, np.concatenate((edges, triangle)))]
    for g in graphs:
        est = estimate_genus(g, 1, PipelineConfig(seed=0))
        assert est.lower <= est.upper
        assert not set(GRAPH_VIEWS) & set(vars(g)), g
    k44 = complete_bipartite_graph(4, 4)
    estimate_genus(k44, 2)
    assert not set(GRAPH_VIEWS) & set(vars(k44))


def test_refined_lower_bound():
    k33 = complete_bipartite_graph(3, 3)
    assert [refined_lower_bound(k33, i) for i in (1, 2, 3)] == [1, 0, 0]
    rng = random.Random(44)
    for _ in range(10):
        g = gen_random_bipartite(GenParams(8, 6, 0.5, seed=rng.randint(0, 999)))
        assert refined_lower_bound(g, 1) == euler_lower_bound(g)


def test_estimate_k33():
    est = estimate_genus(complete_bipartite_graph(3, 3), 1)
    assert (est.lower, est.upper) == (1, 1)
    assert est.prediction == 2.25
    assert est.regime == "dense-4gon"
    assert est.coverage == pytest.approx(4 / 9)
    assert est.mirror_coverage == pytest.approx(4 / 9)
    assert est.blossoms_removed == 1
    assert est.family_size == 2
    assert est.face_histogram == {4: 2, 10: 1}


def test_estimate_csv_row():
    est = estimate_genus(complete_bipartite_graph(3, 3), 1)
    row = est.csv_row()
    assert len(row) == 12
    assert row[:7] == ["3", "3", "1", "1", "0", "9", "1"]
    assert row[11] == "dense-4gon"


def test_estimate_empty_graph():
    est = estimate_genus(BipartiteGraph(3, 2, []), 1)
    assert (est.lower, est.upper) == (0, 0)
    assert est.n_edges == 0


def test_estimate_truncation(monkeypatch):
    # an estimate is never cut short: it has an upper bound, or, past
    # the trail limit, it raises before the trails module allocates
    # anything (numpy's own generator allocates while orienting); the
    # family's rows come from trails._mapped_rows
    k33 = complete_bipartite_graph(3, 3)
    with pytest.raises(TypeError):
        PipelineConfig(cap=1)
    allocations = []
    np_empty, mapped_rows = np.empty, trails._mapped_rows

    def empty(*a, **k):
        if sys._getframe(1).f_globals["__name__"] == trails.__name__:
            allocations.append(a)
        return np_empty(*a, **k)

    monkeypatch.setattr(np, "empty", empty)
    monkeypatch.setattr(trails, "_mapped_rows",
                        lambda *a: allocations.append(a) or mapped_rows(*a))
    monkeypatch.setattr(trails, "MAX_TRAILS", 2)   # K_{3,3} seed 0 has 3
    with pytest.raises(GuardError, match="closed 4-trails exceed the limit of 2"):
        estimate_genus(k33, 1)
    assert allocations == []
    monkeypatch.setattr(trails, "MAX_TRAILS", 3)
    assert estimate_genus(k33, 1).family_size == 2
    # two stored arcs per closed 4-trail
    assert allocations[0] == (3, 2, np.dtype(np.uint16))


def test_estimate_large_instance():
    """Frozen end-to-end run on G(80,80,0.5), seed 0."""
    g = gen_random_bipartite(GenParams(80, 80, 0.5, seed=0))
    est = estimate_genus(g, 1, PipelineConfig(p=0.5))
    assert g.n_edges == 3157
    assert est.lower == 711
    assert est.upper == 954
    assert est.prediction == 800.0
    assert est.coverage == pytest.approx(0.7627, abs=5e-5)
    assert est.blossoms_removed == 126
    assert est.regime == "dense-4gon"
    assert est.lower <= est.upper


def test_one_pass_per_estimate(monkeypatch):
    """One estimate detects blossoms once (blossom._cycles, the cycle
    walk behind find_blossoms, which the dart-id pipeline never calls)
    and traces its faces once; the refined lower bound runs only where
    it can beat the Euler bound, at i >= 2. Every bigenus module that
    binds a spied name gets the spy, so a call through any import path
    is counted."""
    calls = Counter()
    for name in ("_cycles", "find_blossoms", "trace_faces", "refined_lower_bound"):
        for modname, mod in list(sys.modules.items()):
            fn = getattr(mod, name, None) if modname.split(".")[0] == "bigenus" else None
            if fn is None:
                continue

            def spy(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, spy)
    g = gen_random_bipartite(GenParams(30, 30, 0.3, seed=0))
    for i, refined in ((1, 0), (2, 1)):
        calls.clear()
        est = estimate_genus(g, i)
        assert est.blossoms_removed > 0  # removal and assembly both had work
        assert calls == Counter(_cycles=1, trace_faces=1, refined_lower_bound=refined)


def test_estimate_memory_guard():
    """Traced peak of one dense estimate, graph generation included.
    Both hypergraphs enumerated as ClosedTrail objects peaked at about
    69 MiB; the array-backed rows, mirrored once, peak at about 7 MiB."""
    tracemalloc.start()
    try:
        g = gen_random_bipartite(GenParams(80, 80, 0.5, seed=0))
        estimate_genus(g, 1, PipelineConfig(seed=0, p=0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_estimate_frees_the_trail_family(monkeypatch):
    """One estimate on a pre-built G(120, 120, 0.5). The uint16 trail
    family (3.0 MiB) is the largest object, allocated once by
    trails._mapped_rows in a memory mapping that tracemalloc does not
    see: the object that owns its buffer, which every view of the rows
    keeps alive, must be gone when DartFamily.of_matchings builds the
    input of blossom removal. The traced peak is the rest of the
    estimate, about 1.2 MiB; an int32 index per trail in the matching
    added 1.9 MiB. With int32 rows, a separate sort key and all of them
    held to the end, the traced peak was 11.7 MiB."""
    g = gen_random_bipartite(GenParams(120, 120, 0.5, seed=0))
    owners, alive = [], []
    mapped_rows = trails._mapped_rows

    def spy(*args):
        rows = base = mapped_rows(*args)
        while isinstance(base.base, np.ndarray):
            base = base.base
        owners.append(weakref.ref(base if base.base is None else base.base))
        return rows

    of_matchings = DartFamily.of_matchings

    def of_matchings_spy(cls, *args):
        alive.append([ref() is not None for ref in owners])
        return of_matchings(*args)

    monkeypatch.setattr(trails, "_mapped_rows", spy)
    monkeypatch.setattr(DartFamily, "of_matchings", classmethod(of_matchings_spy))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = estimate_genus(g, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (est.lower, est.upper) == (1677, 2151)
    assert alive == [[False]]
    assert peak < 2.5 * 2 ** 20


def test_sparse_estimate_traced_memory_budget():
    """Traced peak of one estimate on a pre-built G(800, 800, 0.03),
    the sparse shape whose blossom removal, assembly and tracing carry
    the time. Holding every arc as a Python (u, v) tuple in the
    digraph, the trail arcs, the matched trails, the passage dicts and
    the faces, the peak was 9.8 MiB, at assemble_rotation; with integer
    arcs from the orientation to the traced genus it is 2.9 MiB."""
    g = gen_random_bipartite(GenParams(800, 800, 0.03, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = estimate_genus(g, 1, PipelineConfig(seed=0, p=0.03))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (est.lower, est.upper, est.blossoms_removed) == (4012, 6851, 338)
    assert peak <= 5 * 2 ** 20


def test_small_part_estimate_memory():
    """Traced peak of generation plus one estimate in the small-part
    regime, where about 95% of the X-vertices are isolated. At
    n1 = 20,000 a dict or tuple entry per vertex in every stage peaked
    at about 8 MiB, and stages that cost O(edges) at about 4 MiB. At
    n1 = 100,000 a rotation dict with one entry per vertex peaked at
    12.9 MiB, and dart successors over the arcs at 4.5 MiB."""
    for n1, bound_mib in ((20_000, 5), (100_000, 6)):
        p = n1 ** -0.4
        tracemalloc.start()
        try:
            g = gen_random_bipartite(GenParams(n1, 5, p, seed=0))
            est = estimate_genus(g, 1, PipelineConfig(seed=0, p=p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.lower <= est.upper
        assert peak < bound_mib * 2 ** 20, n1


def test_pipeline_upper_bounds_exact_genus():
    """The embedding genus is an upper bound of the exact genus on the
    oracle-sized models; samples past the default oracle budget are
    refused, not guessed."""
    solved = 0
    for (n1, n2, p) in ((5, 5, 0.6), (6, 5, 0.55)):
        for seed in range(6):
            g = gen_random_bipartite(GenParams(n1, n2, p, seed=seed))
            est = estimate_genus(g, 1, PipelineConfig(seed=seed, p=p))
            try:
                genus = exact_genus(g)
            except BudgetExceededError:
                continue
            solved += 1
            assert est.lower <= genus <= est.upper
    assert solved >= 10


def test_estimate_bounds_ordered():
    rng = random.Random(47)
    for _ in range(8):
        a, b = rng.randint(4, 12), rng.randint(4, 12)
        g = gen_random_bipartite(GenParams(max(a, b), min(a, b), 0.6,
                                           seed=rng.randint(0, 999)))
        est = estimate_genus(g, 1)
        assert est.lower <= est.upper


def test_pipeline_config_validation():
    with pytest.raises(ValidationError):
        PipelineConfig(p=1.5)


def test_nonorientable_bounds():
    k33 = complete_bipartite_graph(3, 3)
    est = estimate_genus(k33, 1)
    assert nonorientable_bounds(k33, est) == (1, 3)

    star = BipartiteGraph(4, 1, [(0, 4), (1, 4), (2, 4), (3, 4)])
    est = estimate_genus(star, 1)
    assert (est.lower, est.upper) == (0, 0)
    assert nonorientable_bounds(star, est) == (0, 1)


def _pair_cover_graph(m):
    """One degree-2 X-vertex per pair of m Y-vertices."""
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    n1 = len(pairs)
    edges = []
    for x, (a, b) in enumerate(pairs):
        edges.append((x, n1 + a))
        edges.append((x, n1 + b))
    return BipartiteGraph(n1, m, edges)


def test_reduce_small_part_complete_patterns():
    r = reduce_small_part(_pair_cover_graph(5))
    assert r.kept_x == ()
    assert r.is_complete_on_support
    assert r.max_x_degree == 2
    assert small_part_exact_genus(r) == (1, 1)

    assert small_part_exact_genus(reduce_small_part(_pair_cover_graph(4))) == (0, 0)
    # the non-orientable exception at support size 7
    assert small_part_exact_genus(reduce_small_part(_pair_cover_graph(7))) == (1, 3)

    lone = BipartiteGraph(3, 2, [(0, 3), (0, 4)])
    assert small_part_exact_genus(reduce_small_part(lone)) == (0, 0)


def test_reduce_small_part_rejects():
    """Past the closed form the genus stays exact, or is refused."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges = [(x, 11 + y) for x, pair in enumerate(pairs) for y in pair]
    edges += [(10, 11 + y) for y in range(3)]  # one degree-3 X-vertex
    spiked = BipartiteGraph(11, 5, edges)
    r = reduce_small_part(spiked)
    assert r.kept_x == (10,) and r.max_x_degree == 3
    assert small_part_exact_genus(r) == (1, 1)

    incomplete = BipartiteGraph(2, 3, [(0, 2), (0, 3), (1, 2), (1, 4)])
    r = reduce_small_part(incomplete)
    assert not r.is_complete_on_support
    assert small_part_exact_genus(r) == (0, 0)

    # Two pair covers of five Y-vertices sharing Y-vertex 4: K5 and K5
    # glued at a vertex, genus 2 against an Euler bound of 0, so no
    # pincer certifies it and a one-system budget refuses the scan.
    pairs = [(a, b) for block in (range(5), range(4, 9))
             for a in block for b in block if a < b]
    edges = [(x, 20 + y) for x, pair in enumerate(pairs) for y in pair]
    glued = reduce_small_part(BipartiteGraph(20, 9, edges))
    with pytest.raises(GuardError):
        small_part_exact_genus(glued, SearchBudget(max_systems=1, restarts=1))
    with pytest.raises(GuardError):
        reduce_small_part(BipartiteGraph(2, 21, []))


def test_small_part_reads_the_csr():
    """reduce_small_part and degree_class_partition read g.first and
    g.nbrs, so neither builds the per-vertex tuple view, and both give
    what a loop over g.neighbors(x) gives."""
    rng = random.Random(61)
    graphs = [gen_random_bipartite(GenParams(20_000, 5, 20_000 ** -0.4, seed=0)),
              BipartiteGraph(3, 2, [])]
    for _ in range(30):
        n2 = rng.randint(1, 8)
        graphs.append(gen_random_bipartite(GenParams(rng.randint(n2, 40), n2, rng.random(),
                                                     seed=rng.randint(0, 99))))
    for g in graphs:
        r, classes = reduce_small_part(g), degree_class_partition(g)
        assert "_adj" not in vars(g)
        nbrs = [g.neighbors(x) for x in g.x_vertices()]
        assert r.deleted_x == tuple(x for x, ns in enumerate(nbrs) if len(ns) <= 1)
        assert r.collapsed_x == tuple(x for x, ns in enumerate(nbrs) if len(ns) == 2)
        assert r.kept_x == tuple(x for x, ns in enumerate(nbrs) if len(ns) >= 3)
        assert r.kept_neighbors == tuple(ns for ns in nbrs if len(ns) >= 3)
        assert list(r.multiplicity.items()) == list(
            Counter(ns for ns in nbrs if len(ns) == 2).items())
        assert r.y_support == tuple(sorted({y for ns in nbrs if len(ns) >= 2 for y in ns}))
        ref: dict[frozenset[int], list[int]] = {}
        for x, ns in enumerate(nbrs):
            ref.setdefault(frozenset(ns), []).append(x)
        assert list(classes.items()) == list(ref.items())


def test_small_part_kept_x_routes():
    """Kept X-vertices enter the simple graph with their neighbours; the
    non-orientable value is withheld beyond six vertices."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    cover = [(x, 13 + y) for x, pair in enumerate(pairs) for y in pair]

    # K5 plus a vertex on four of its vertices: a subgraph of K6
    r = reduce_small_part(BipartiteGraph(
        13, 5, cover + [(10, 13 + y) for y in (0, 1, 2, 3)]))
    assert r.kept_x == (10,) and r.max_x_degree == 4
    h = r.simple_graph()
    assert (h.n_vertices, h.n_edges) == (6, 14)
    assert h.neighbors(5) == (0, 1, 2, 3)
    assert small_part_exact_genus(r) == (1, 1)

    # K5 plus three degree-3 vertices: toroidal, eight vertices
    edges = cover + [(10 + k, 13 + y) for k, nbrs in
                     enumerate(((1, 2, 4), (1, 2, 3), (0, 2, 3))) for y in nbrs]
    r = reduce_small_part(BipartiteGraph(13, 5, edges))
    assert r.kept_x == (10, 11, 12) and r.max_x_degree == 3
    assert small_part_exact_genus(r) == (1, None)


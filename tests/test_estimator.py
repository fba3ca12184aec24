import gc
import math
import random
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bigenus import trails
from bigenus.bigraph import (BipartiteGraph, GenParams, Graph, degree_class_partition,
                             complete_bipartite_graph, complete_graph,
                             gen_random_bipartite, induced_subgraph, path_graph)
from bigenus.blossom import DartFamily
from bigenus.errors import BudgetExceededError, GuardError, ValidationError
from bigenus.oracle import (SearchBudget, exact_genus, genus_formula_reference,
                           small_part_exact_genus)
from bigenus import estimator
from bigenus.estimator import (PipelineConfig, _core_components, _face_ceil, _psi_ratio,
                               estimate_genus, euler_lower_bound,
                               prediction_for, psi, reduce_small_part, refined_lower_bound,
                               regime_classify, small_p_asymptote_check)
from bigenus.trails import count_short_closed_trails

from conftest import (GENUS_ONE_LCF, edge_tuples, graph_cases, lcf_graph, rand_bipartite,
                      rand_graph, random_simple_graph, reference_adjacency,
                      reference_core_components, reference_euler_ceil, reference_psi,
                      reference_refined_ceil, reference_regime_classify,
                      reference_two_coloring)


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


def test_psi_closed_form_equals_the_sum():
    # exact rationals, so the closed form and the sum term by term agree
    # to the last bit, p = 0 and p = 1 included
    rng = random.Random(7)
    for _ in range(200):
        p = Fraction(rng.choice((0.0, 1.0, rng.random(), rng.random() ** 4)))
        n2 = rng.randint(2, 40)
        assert Fraction(*_psi_ratio(p, n2)) == reference_psi(p, n2)


def test_small_p_asymptote():
    chk = small_p_asymptote_check(10 ** 6, 6, 0.01)
    assert chk.asymptote == 5.0
    assert chk.exact == pytest.approx(4.925449, rel=1e-6)
    assert abs(chk.ratio - 1) < 0.05
    zero = small_p_asymptote_check(100, 6, 0.0)
    assert zero.ratio == 1.0
    # each float is the exact rational rounded once
    rng = random.Random(50)
    for p in (0.0, 1.0, 0.01, 0.5) + tuple(rng.random() ** 3 for _ in range(20)):
        for n1, n2 in ((10 ** 6, 6), (37, 2), (5, 3), (1000, 19)):
            pf = Fraction(p)
            exact = n1 * n2 * pf * reference_psi(pf, n2) / 4
            asym = n1 * pf ** 3 * math.comb(n2, 3) / 4
            ratio = float(exact / asym) if asym else (1.0 if exact == 0 else math.inf)
            assert small_p_asymptote_check(n1, n2, p) == (float(exact), float(asym), ratio)


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
    for p in (1.5, -0.5, float("nan")):
        with pytest.raises(ValidationError):
            regime_classify(100, 100, p)


def test_regime_classify_equals_the_case_by_case_reference():
    # every boundary of the phase diagram, the small part's n1^(-1/3) and
    # n1^(-1/2), the dense 2 n2^(-2/3), each window edge
    # (n1 n2)^(-i/(2i+1)) and their limit (n1 n2)^(-1/2), at the critical
    # band's edges and one part in 10^12 to either side of each point
    sizes = (1, 2, 3, 19, 20, 21, 64, 400, 2000, 100_000)
    points = set()
    for n1 in sizes:
        for n2 in sizes:
            n = n1 * n2
            bounds = [n1 ** (-1 / 3), n1 ** (-1 / 2), 2 * n2 ** (-2 / 3), n ** -0.5]
            bounds += [n ** (-i / (2 * i + 1)) for i in range(66)]
            points.update((n1, n2, t * f * (1 + d)) for t in bounds for f in (0.5, 1, 2)
                          for d in (-1e-12, 0, 1e-12) if t * f * (1 + d) <= 1)
    assert len(points) > 60_000
    tags = Counter()
    for point in points:
        res = regime_classify(*point)
        assert res == reference_regime_classify(*point), point
        tags[res.tag] += 1
    assert len(tags) == 6


def test_prediction_values():
    # one point per tag regime_classify returns, with the exact value
    n1 = 10 ** 5
    cases = [((120, 120, 0.5), ("dense-4gon", None), 1800.0),
             ((10 ** 6, 100, 0.02), ("balanced-i", 1), 500000.0),
             ((2000, 2000, 0.0015), ("critical-window", 3), 2250.0000000000005),
             ((5, 300, 0.2), ("critical-window", None), 4.872),
             ((n1, 5, 0.3), ("small-part-a", None), 4907.25),
             ((n1, 5, n1 ** -0.4), ("small-part-b", None), 1.0),
             ((n1, 5, n1 ** -0.6), ("small-part-c", None), 0.0)]
    for args, tag_and_i, value in cases:
        res = regime_classify(*args)
        assert res == tag_and_i
        assert prediction_for(res, *args) == value


def test_plain_graph_prediction():
    # a graph that is not bipartite is predicted p n^2 / 12 (Archdeacon
    # & Grable) under the tag "plain", with p the model probability or
    # m / C(n, 2); the bipartite formula on m / n^2 gave 16.5
    # (dense-4gon) for K12 and 219.25 for this G(60, 0.5)
    est = estimate_genus(complete_graph(12), 1)
    assert (est.p, est.prediction, est.regime) == (1.0, 12.0, "plain")
    assert est.csv_row()[11] == "plain"
    rng = random.Random(60)
    g = Graph(60, [(u, v) for u in range(60) for v in range(u + 1, 60) if rng.random() < 0.5])
    est = estimate_genus(g, 1, PipelineConfig(p=0.5))
    assert (est.p, est.prediction, est.regime) == (0.5, 150.0, "plain")
    est = estimate_genus(g, 1)
    assert est.p == g.n_edges / 1770
    assert est.prediction == pytest.approx(est.p * 300)
    for h in (Graph(1, []), Graph(0, [])):
        est = estimate_genus(h, 1)
        assert (est.p, est.prediction, est.regime) == (0.0, 0.0, "plain")


def test_prediction_for_small_part_b():
    n1 = 10 ** 5
    res = regime_classify(n1, 5, n1 ** -0.4)
    # K5 genus from the closed form
    assert prediction_for(res, n1, 5, n1 ** -0.4) == 1.0
    res = regime_classify(n1, 5, n1 ** -0.6)
    assert prediction_for(res, n1, 5, n1 ** -0.6) == 0.0


def test_prediction_does_not_depend_on_the_order_of_the_parts():
    # regime_classify and prediction_for both take the smaller part as n2
    cases = [(300, 5, 0.2), (10 ** 5, 5, 0.03), (10 ** 5, 5, 0.3), (800, 800, 0.03),
             (120, 60, 0.5), (10 ** 4, 90, 0.01), (40, 7, 0.001)]
    for n1, n2, p in cases:
        res = regime_classify(n1, n2, p)
        assert regime_classify(n2, n1, p) == res
        assert prediction_for(res, n2, n1, p) == prediction_for(res, n1, n2, p)
    assert prediction_for(regime_classify(5, 300, 0.2), 5, 300, 0.2) == pytest.approx(4.872)
    # a small-part-a file graph with its small part first
    pairs = [(x, y) for x in range(3) for y in range(60) if (x + y) % 5]
    g = BipartiteGraph(3, 60, [(x, 3 + y) for x, y in pairs])
    swapped = BipartiteGraph(60, 3, [(y, 60 + x) for x, y in pairs])
    est = estimate_genus(g, 1)
    assert est.regime == "small-part-a"
    assert est.prediction == estimate_genus(swapped, 1).prediction


def test_euler_lower_bound_values():
    assert euler_lower_bound(complete_bipartite_graph(3, 3)) == 1
    assert euler_lower_bound(complete_bipartite_graph(5, 5)) == 3
    assert euler_lower_bound(complete_graph(5)) == 1
    assert euler_lower_bound(path_graph(6)) == 0
    assert euler_lower_bound(Graph(2, [(0, 1)])) == 0
    # two disjoint K_{3,3} held as a plain Graph: still bipartite, so
    # faces have length at least 4
    two = Graph(12, list(edge_tuples(complete_bipartite_graph(3, 3)))
                + [(u + 6, v + 6) for (u, v) in edge_tuples(complete_bipartite_graph(3, 3))])
    assert euler_lower_bound(two) == 2


def test_euler_lower_bound_meets_known_genera():
    # Ringel 1965 for K_{m,n}; Ringel 1955 and Beineke & Harary 1965 for
    # the hypercube Q_d; C_a x C_b with a, b >= 4 even quadrangulates the
    # torus. Each attains the Euler bound of a bipartite graph, so that
    # bound is its genus, and no estimate may report an upper bound below.
    def cube(d):
        return Graph(2 ** d, [(v, v | 1 << k) for v in range(2 ** d) for k in range(d)
                              if not v >> k & 1])

    def torus(a, b):
        return Graph(a * b, [(i * b + j, w) for i in range(a) for j in range(b)
                             for w in ((i + 1) % a * b + j, i * b + (j + 1) % b)])

    for m in range(1, 13):
        for n in range(1, 13):
            assert (euler_lower_bound(complete_bipartite_graph(m, n))
                    == genus_formula_reference("complete_bipartite", m, n))
    known = [(cube(d), max(0, 1 + (d - 4) * 2 ** d // 8)) for d in range(2, 9)]
    assert [genus for _, genus in known] == [0, 0, 1, 5, 17, 49, 129]
    known += [(torus(a, b), 1) for a, b in ((4, 4), (4, 6), (8, 8))]
    for k, (g, genus) in enumerate(known):
        assert euler_lower_bound(g) == genus
        if k >= 2:
            for seed in range(3):
                assert estimate_genus(g, 1, PipelineConfig(seed=seed)).upper >= genus


@pytest.mark.parametrize("name", sorted(GENUS_ONE_LCF))
def test_lower_side_anchors_are_bracketed(name):
    # Heawood, Moebius-Kantor GP(8, 3) and Pappus have girth 6 and genus
    # 1, while the Euler bound of a cubic graph of girth 6 is 0: the gap
    # to the true genus is all in the lower bound
    shifts, repeat, n, e = GENUS_ONE_LCF[name]
    g = lcf_graph(shifts, repeat)
    assert (g.n_vertices, g.n_edges) == (n, e)
    assert all(len(g.neighbors(v)) == 3 for v in range(n))
    assert euler_lower_bound(g) == 0
    assert exact_genus(g) == 1
    est = estimate_genus(g, 1)
    assert est.lower <= 1 <= est.upper


def test_lower_bound_ceilings_equal_exact_rationals():
    # the one integer floor-division ceiling, at k = 4 or 3 for the Euler
    # bound and at k = 2i+2 for the refined one, against Fraction
    # arithmetic over numerators of either sign: a forest-like core has
    # more vertices than edges, a dense one the reverse
    for n in range(0, 40):
        for e in range(0, 3 * n + 5):
            for k in (3, 4):
                assert _face_ceil(k, n, e) == reference_euler_ceil(k, n, e), (k, n, e)
            for i in (1, 2, 3, 5):
                for c in (0, 1, 2, 7, e, 3 * e):
                    assert (_face_ceil(2 * i + 2, n, e, c)
                            == reference_refined_ceil(i, n, e, c)), (i, n, e, c)
    rng = random.Random(51)
    for _ in range(2000):
        n, e, c = (rng.randint(0, 10 ** 9) for _ in range(3))
        k, i = rng.choice((3, 4)), rng.randint(1, 50)
        assert _face_ceil(k, n, e) == reference_euler_ceil(k, n, e)
        assert _face_ceil(2 * i + 2, n, e, c) == reference_refined_ceil(i, n, e, c)


def test_lower_bounds_equal_exact_rational_sums():
    # per core component of the reference pruning, clamped at 0 and summed
    rng = random.Random(52)
    graphs = [rand_bipartite(rng, max_edges=24) for _ in range(40)]
    graphs += [rand_graph(rng, max_edges=16) for _ in range(40)]
    graphs += [complete_bipartite_graph(5, 6), complete_graph(7)]
    for g in graphs:
        edges = edge_tuples(g)
        comps = [(len(c), sum(1 for u, v in edges if {u, v} <= set(c)))
                 for c in reference_core_components(g)]
        k = 3 if reference_two_coloring(reference_adjacency(g.n_vertices, edges)) is None else 4
        assert euler_lower_bound(g) == sum(max(0, reference_euler_ceil(k, n, e))
                                           for n, e in comps)
        if isinstance(g, BipartiteGraph):
            for i in (1, 2, 3):
                total = 0
                for verts in reference_core_components(g):
                    sub = induced_subgraph(g, verts)
                    c = count_short_closed_trails(sub, i) if i >= 2 else 0
                    total += max(0, reference_refined_ceil(i, len(verts), sub.n_edges, c))
                assert refined_lower_bound(g, i) == total


def _check_core_components(g):
    comps = _core_components(g)
    assert [verts for verts, _e_c in comps] == reference_core_components(g)
    for verts, e_c in comps:
        vset = set(verts)
        assert e_c == sum(1 for (u, v) in edge_tuples(g) if u in vset and v in vset)
        if isinstance(g, BipartiteGraph):
            assert induced_subgraph(g, verts).n_edges == e_c
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
    edges = list(edge_tuples(complete_bipartite_graph(3, 3))) + [(0, 6), (6, 7)]
    edges += [(9, 10), (10, 11), (11, 12), (9, 12)]
    union = Graph(13, edges)
    assert _check_core_components(union) == [([0, 1, 2, 3, 4, 5], 9),
                                             ([9, 10, 11, 12], 4)]


def test_thin_layers_are_peeled_in_python(monkeypatch):
    # a triangle with a 2,000-vertex pendant path has one leaf per layer:
    # the Python peel takes the whole path, with no round of numpy calls
    path = [(k, k + 1) for k in range(3, 2003)]
    g = Graph(2004, [(0, 1), (1, 2), (0, 2), (2, 3)] + path)
    rounds = []
    csr_runs = estimator.csr_runs
    monkeypatch.setattr(estimator, "csr_runs", lambda *a: rounds.append(1) or csr_runs(*a))
    assert _core_components(g) == [([0, 1, 2], 3)] and euler_lower_bound(g) == 0
    assert rounds == []
    # numpy rounds to the end (a threshold of 1), the Python peel from
    # the start, and the default split give the same cores and bounds
    # on random graphs and on random ones with long pendant paths and
    # wide first layers
    rng = random.Random(46)
    graphs = [Graph(n, edges) for n, edges in graph_cases(47)]
    graphs += [Graph(*random_simple_graph(rng, 300, 330, pendant=400)) for _ in range(4)]
    graphs += [gen_random_bipartite(GenParams(400, 400, 0.004, seed=s)) for s in range(3)]
    graphs.append(Graph(2004, [(0, 1), (1, 2), (0, 2), (2, 3)] + path))
    for g in graphs:
        want = [_core_components(g), euler_lower_bound(g)]
        for thin in (1, 10 ** 9):
            monkeypatch.setattr(estimator, "_THIN_LAYER", thin)
            assert [_core_components(g), euler_lower_bound(g)] == want
        monkeypatch.undo()
        assert [verts for verts, _e in want[0]] == reference_core_components(g)


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
    for g, i in [(g, 1) for g in graphs] + [(complete_bipartite_graph(4, 4), 2)]:
        attrs = set(vars(g))
        est = estimate_genus(g, i, PipelineConfig(seed=0))
        assert est.lower <= est.upper
        assert set(vars(g)) == attrs, g


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
    arcs from the orientation to the traced genus it was 2.8 MiB, and
    with int32 dart arrays in blossom removal and assembly 1.9 MiB,
    still at assemble_rotation. With each stage's input dropped before
    the next stage allocates it is 1.3 MiB."""
    g = gen_random_bipartite(GenParams(800, 800, 0.03, seed=0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = estimate_genus(g, 1, PipelineConfig(seed=0, p=0.03))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (est.lower, est.upper, est.blossoms_removed) == (4012, 6851, 338)
    assert peak <= 1.6 * 2 ** 20


def test_estimate_frees_each_stage_before_assembly(monkeypatch):
    """At the entry of assemble_rotation, the sparse-shape peak setter,
    an estimate on a pre-built G(800, 800, 0.03) holds no matching
    report and one DartFamily, the survivors of blossom removal. Holding
    both reports and the pre-blossom, dropped and surviving families,
    it held 982 KiB traced there; without them it holds about 400 KiB."""
    g = gen_random_bipartite(GenParams(800, 800, 0.03, seed=1))
    seen = []
    assemble = estimator.assemble_rotation

    def spy(fam):
        held = tracemalloc.get_traced_memory()[0] - base
        objects = gc.get_objects()
        seen.append((held, sum(isinstance(o, trails.MatchingReport) for o in objects),
                     sum(isinstance(o, DartFamily) for o in objects)))
        del objects
        return assemble(fam)

    monkeypatch.setattr(estimator, "assemble_rotation", spy)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_genus(g, 1, PipelineConfig(seed=1, p=0.03))
    finally:
        tracemalloc.stop()
    [(held, reports, families)] = seen
    assert (reports, families) == (0, 1)
    assert held <= 600 * 2 ** 10


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
    assert r.kept_x == (10,)
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
        attrs = set(vars(g))
        r, classes = reduce_small_part(g), degree_class_partition(g)
        assert set(vars(g)) == attrs
        nbrs = [g.neighbors(x) for x in range(g.n1)]
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
    assert r.kept_x == (10,)
    h = r.simple_graph()
    assert (h.n_vertices, h.n_edges) == (6, 14)
    assert h.neighbors(5) == (0, 1, 2, 3)
    assert small_part_exact_genus(r) == (1, 1)

    # K5 plus three degree-3 vertices: toroidal, eight vertices
    edges = cover + [(10 + k, 13 + y) for k, nbrs in
                     enumerate(((1, 2, 4), (1, 2, 3), (0, 2, 3))) for y in nbrs]
    r = reduce_small_part(BipartiteGraph(13, 5, edges))
    assert r.kept_x == (10, 11, 12)
    assert small_part_exact_genus(r) == (1, None)


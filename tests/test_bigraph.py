import io
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bigenus import bigraph
from bigenus.bigraph import (BipartiteGraph, Digraph, GenParams, Graph,
                             complete_bipartite_graph, complete_graph,
                             cycle_graph, degree_class_partition,
                             gen_random_bipartite, induced_subgraph, is_bipartite,
                             orient_randomly, path_graph, read_bipartite,
                             read_digraph, standard_class_sizes,
                             standard_graph, two_coloring, write_bipartite,
                             write_digraph)
from bigenus.errors import GuardError, ValidationError
from bigenus.estimator import PipelineConfig

from conftest import (GRAPH_VIEWS, arc_tuples, edge_tuples, graph_cases, rand_graph,
                      reference_adjacency, reference_class_sizes, reference_orientation,
                      reference_two_coloring)


def test_params_validation():
    with pytest.raises(ValidationError):
        GenParams(3, 3, 1.5)
    with pytest.raises(ValidationError):
        GenParams(0, 3, 0.5)


def test_extreme_p():
    g = gen_random_bipartite(GenParams(3, 3, 1.0))
    assert g.n_edges == 9
    assert edge_tuples(g) == edge_tuples(complete_bipartite_graph(3, 3))
    assert gen_random_bipartite(GenParams(5, 5, 0.0)).n_edges == 0


def test_generation_deterministic():
    a = gen_random_bipartite(GenParams(30, 30, 0.3, seed=11))
    b = gen_random_bipartite(GenParams(30, 30, 0.3, seed=11))
    c = gen_random_bipartite(GenParams(30, 30, 0.3, seed=12))
    assert edge_tuples(a) == edge_tuples(b)
    assert edge_tuples(a) != edge_tuples(c)


def test_edge_count_concentration():
    # 4-sigma band around n1*n2*p for the sample mean over 50 seeds
    n1 = n2 = 100
    p = 0.3
    k = 50
    counts = [gen_random_bipartite(GenParams(n1, n2, p, seed=s)).n_edges
              for s in range(k)]
    mean = sum(counts) / k
    sigma = math.sqrt(n1 * n2 * p * (1 - p))
    assert abs(mean - n1 * n2 * p) <= 4 * sigma / math.sqrt(k)


def test_standard_graph_classes():
    sizes = standard_class_sizes(8, 2, 0.5)
    assert sizes == [2, 2, 2]
    g = standard_graph(8, 2, 0.5)
    classes = degree_class_partition(g)
    assert sorted(len(v) for v in classes.values()) == [2, 2, 2, 2]
    # 2 isolated + 2+2 of degree 1 + 2 of degree 2
    assert g.n_edges == 8
    # the integer floors equal exact rationals, at class-size boundaries too
    rng = random.Random(62)
    for p in (0.0, 1.0, 0.5, 0.25, 0.1, 1 / 3, 0.3) + tuple(rng.random() for _ in range(30)):
        for n1, n2 in ((8, 2), (1000, 3), (10 ** 6, 7), (12345, 20)):
            assert standard_class_sizes(n1, n2, p) == reference_class_sizes(n1, n2, p)


def test_standard_graph_edges():
    assert standard_graph(10, 3, 0.0).n_edges == 0
    assert standard_graph(16, 2, 1.0).n_edges == 32
    with pytest.raises(GuardError):
        standard_graph(100, 21, 0.5)


def test_class_partition_totals():
    k33 = complete_bipartite_graph(3, 3)
    classes = degree_class_partition(k33)
    nonempty = {k: v for k, v in classes.items() if v}
    assert list(nonempty.values()) == [[0, 1, 2]]

    empty = BipartiteGraph(4, 2, [])
    classes = degree_class_partition(empty)
    assert classes[frozenset()] == [0, 1, 2, 3]
    # every X-vertex lands in exactly one class
    assert sum(len(v) for v in classes.values()) == 4


def test_orientation_covers_each_edge_once():
    g = gen_random_bipartite(GenParams(12, 12, 0.4, seed=5))
    d = orient_randomly(g, 5)
    assert d.n_arcs == g.n_edges
    assert d.is_orientation()
    arcs = set(arc_tuples(d))
    for (u, v) in edge_tuples(g):
        assert ((u, v) in arcs) != ((v, u) in arcs)


def test_orientation_fair_coin():
    g = gen_random_bipartite(GenParams(60, 60, 0.5, seed=0))
    x_to_y = 0
    for seed in range(200):
        d = orient_randomly(g, seed)
        x_to_y += sum(1 for (u, v) in arc_tuples(d) if u < 60)
    frac = x_to_y / (200 * g.n_edges)
    assert abs(frac - 0.5) < 0.03


def test_digraph_reverse():
    g = complete_bipartite_graph(2, 3)
    d = orient_randomly(g, 9)
    r = d.reverse()
    assert set(arc_tuples(r)) == {(v, u) for (u, v) in arc_tuples(d)}
    assert arc_tuples(r.reverse()) == arc_tuples(d)


def test_text_round_trips():
    g = gen_random_bipartite(GenParams(7, 4, 0.5, seed=3))
    buf = io.StringIO()
    write_bipartite(g, buf)
    buf.seek(0)
    g2 = read_bipartite(buf)
    assert (g2.n1, g2.n2, edge_tuples(g2)) == (g.n1, g.n2, edge_tuples(g))

    d = orient_randomly(g, 3)
    buf = io.StringIO()
    write_digraph(d, buf)
    buf.seek(0)
    d2 = read_digraph(buf)
    assert arc_tuples(d2) == arc_tuples(d)


def test_bipartiteness_helpers():
    assert is_bipartite(cycle_graph(6))
    assert not is_bipartite(cycle_graph(5))
    assert not is_bipartite(complete_graph(4))
    assert two_coloring(cycle_graph(5)) is None
    left, right = two_coloring(path_graph(4))
    assert set(left) | set(right) == set(range(4))
    assert not set(left) & set(right)
    # the declared sides win for bipartite inputs
    left, right = two_coloring(complete_bipartite_graph(2, 2))
    assert set(left) == {0, 1} and set(right) == {2, 3}
    # plain graphs: the double-cover labelling against a tuple search
    for n, edges in graph_cases(2):
        ref = reference_two_coloring(reference_adjacency(n, edges))
        assert two_coloring(Graph(n, edges)) == ref
        assert is_bipartite(Graph(n, edges)) == (ref is not None)


def test_two_coloring_of_long_paths():
    # components thousands of edges deep, against a tuple search
    n = 20_000
    path = path_graph(n)
    pendant = Graph(n, [(0, 1), (1, 2), (0, 2)] + [(v, v + 1) for v in range(2, n - 1)])
    for g in (path, pendant, Graph(n + 3, edge_tuples(path))):
        ref = reference_two_coloring(reference_adjacency(g.n_vertices, edge_tuples(g)))
        assert two_coloring(g) == ref
        assert is_bipartite(g) == (ref is not None)
    assert two_coloring(pendant) is None and two_coloring(path) is not None


def test_graph_rejects_duplicates():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        BipartiteGraph(2, 2, [(0, 1)])  # not an X-Y pair
    with pytest.raises(ValidationError):
        Digraph(2, [(0, 1), (0, 1)])


def test_graph_matches_tuple_reference():
    # the array constructor against sorting normalized tuples
    rng = random.Random(5)
    for n in (2, 7, 40, 300):
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for (u, v) in pairs]
        g = Graph(n, np.array(edges) if n % 2 else edges)
        assert edge_tuples(g) == tuple(sorted(pairs))
        assert [g.neighbors(v) for v in range(n)] == [
            tuple(sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}))
            for v in range(n)]
    # the arrays, then the views built from them on read
    for k, (n, edges) in enumerate(graph_cases(1)):
        g = Graph(n, (list(edges), iter(edges), np.array(edges, dtype=np.int64))[k % 3])
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
        adj = reference_adjacency(n, edges)
        assert g.u.dtype == g.v.dtype == g.first.dtype == g.nbrs.dtype == np.int32
        assert len(g.first) == n + 1 and g.n_edges == len(norm)
        assert np.array_equal(np.column_stack((g.u, g.v)),
                              np.array(norm, dtype=np.int32).reshape(-1, 2))
        assert [g.degree(v) for v in range(n)] == [len(a) for a in adj]
        assert not set(GRAPH_VIEWS) & set(vars(g))
        assert edge_tuples(g) == norm
        assert [g.neighbors(v) for v in range(n)] == adj
        assert g == Graph(n, norm) and hash(g) == hash(Graph(n, norm))


def test_edge_keys_do_not_overflow():
    # u n + v passes 2^31 here, so int32 keys would wrap
    n1 = 100_000
    edges = [(n1 - 1, n1 + 4), (0, n1), (n1 - 1, n1), (5, n1 + 4)]
    g = BipartiteGraph(n1, 5, reversed(edges))
    assert (n1 - 1) * g.n + n1 + 4 > 2 ** 31
    assert edge_tuples(g) == tuple(sorted(edges))
    assert g.neighbors(n1 + 4) == (5, n1 - 1) and g.neighbors(n1 - 1) == (n1, n1 + 4)
    with pytest.raises(ValidationError, match=rf"duplicate edge \({n1 - 1},{n1 + 4}\)"):
        BipartiteGraph(n1, 5, edges + [(n1 + 4, n1 - 1)])
    big = Graph(3 * 2 ** 16, [(2 ** 17, 3 * 2 ** 16 - 1), (2 ** 17 - 1, 2 ** 17)])
    assert edge_tuples(big) == ((2 ** 17 - 1, 2 ** 17), (2 ** 17, 3 * 2 ** 16 - 1))


def _traced_generation(params: GenParams):
    """(graph, held, peak): the graph and the traced memory its
    generation leaves held and peaks at, numpy's caches warmed first."""
    gen_random_bipartite(params)
    tracemalloc.start()
    try:
        g = gen_random_bipartite(params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, held, peak


def test_generated_graph_memory():
    """G(800, 800, 0.03) seed 0 has 19,241 edges. With a tuple per edge
    and per vertex it held 3.4 MiB and its generation peaked at 5.8 MiB;
    as int32 arrays it holds 0.30 MiB. Built through int64 edge and dart
    keys its generation peaked at 1.9 MiB; through int32 dart keys, the
    draw's 512 KiB of Philox rows set the peak, 0.83 MiB."""
    g, held, peak = _traced_generation(GenParams(800, 800, 0.03, seed=0))
    assert g.n_edges == 19241
    assert held <= 0.5 * 2 ** 20
    assert peak <= 2 ** 20


def test_small_part_graph_memory():
    """G(100000, 5, n1^-0.4) seed 0: 100,005 vertices, about 95% of them
    isolated, and dart keys past 2^31, so int64. An int64 degree count
    per vertex took the build's peak to 1.5 MiB; the graph holds
    0.46 MiB, and its int32 first array is the only per-vertex array
    its build makes, for a peak of 0.72 MiB."""
    n1 = 100_000
    g, held, peak = _traced_generation(GenParams(n1, 5, n1 ** -0.4, seed=0))
    assert g.n * g.n > 2 ** 31
    assert held <= 0.5 * 2 ** 20
    assert peak <= 2 ** 20


def test_sorted_and_unsorted_edges_build_one_graph():
    # the generator hands over int32 pairs in lexicographic order; any
    # order, either orientation of a pair and any integer dtype give
    # the same arrays
    g = gen_random_bipartite(GenParams(60, 40, 0.2, seed=9))
    pairs = np.column_stack((g.u, g.v))
    rng = random.Random(9)
    order = list(range(len(pairs)))
    rng.shuffle(order)
    flipped = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs[order].tolist()]
    for edges in (pairs, pairs[order], np.array(flipped, dtype=np.int64),
                  np.array(flipped, dtype=np.uint32), flipped):
        h = BipartiteGraph(60, 40, edges)
        assert all(np.array_equal(getattr(h, a), getattr(g, a))
                   for a in ("u", "v", "nbrs", "first"))
    x, y = pairs[-1].tolist()
    with pytest.raises(ValidationError, match=rf"duplicate edge \({x},{y}\)"):
        BipartiteGraph(60, 40, np.concatenate((pairs, [[y, x]])).astype(np.int32))
    with pytest.raises(ValidationError, match="does not join X to Y"):
        BipartiteGraph(60, 40, np.array([[0, 2 ** 32 + 60]], dtype=np.int64))


def test_bipartite_graph_is_a_graph():
    g = BipartiteGraph(2, 2, [(3, 0), (0, 2), (1, 3)])
    plain = Graph(4, edge_tuples(g))
    assert edge_tuples(g) == edge_tuples(plain) == ((0, 2), (0, 3), (1, 3))
    assert [g.neighbors(v) for v in range(4)] == [plain.neighbors(v) for v in range(4)]
    assert g.degree(3) == 2 and g.n_vertices == 4 and g.n_edges == 3
    # equality and hashing are class-sensitive and see the part split
    assert g != plain and plain != g
    assert g == BipartiteGraph(2, 2, edge_tuples(g))
    assert hash(g) == hash(BipartiteGraph(2, 2, edge_tuples(g)))
    assert BipartiteGraph(1, 3, [(0, 2)]) != BipartiteGraph(2, 2, [(0, 2)])
    with pytest.raises(ValidationError):
        BipartiteGraph(2, 2, [(0, 1), (1, 0)])


def test_generation_does_not_depend_on_chunk_size(monkeypatch):
    # the kernel's pass is the only chunk a draw is cut into
    params = GenParams(300, 7, 0.1, seed=5)
    g = gen_random_bipartite(params)
    d = orient_randomly(g, 5)
    for blocks in (1, 3, 97):
        monkeypatch.setattr(bigraph, "_KERNEL_BLOCKS", blocks)
        assert edge_tuples(gen_random_bipartite(params)) == edge_tuples(g)
        assert orient_randomly(g, 5) == d


def test_neighbors_out_of_range_raises():
    g = BipartiteGraph(4, 2, [(0, 4), (1, 5)])
    assert g.neighbors(2) == () and g.degree(3) == 0
    for v in (-1, -6, 6):
        with pytest.raises(IndexError):
            g.neighbors(v)
        with pytest.raises(IndexError):
            g.degree(v)


def test_bipartite_coloring_is_the_part_ranges():
    g = BipartiteGraph(100_000, 3, [(0, 100_000)])
    assert two_coloring(g) == (range(100_000), range(100_000, 100_003))


def test_orientation_matches_tuple_reference():
    # the array orientation against one coin per edge in a tuple loop,
    # on bipartite and general graphs, the empty one included
    rng = random.Random(5)
    graphs = [BipartiteGraph(3, 2, []), complete_graph(6)]
    graphs += [gen_random_bipartite(GenParams(rng.randint(2, 40), 2, rng.uniform(0.1, 0.9),
                                              seed=rng.randint(0, 999)))
               for _ in range(10)]
    graphs += [rand_graph(rng) for _ in range(10)]
    for g in graphs:
        for seed in (0, 1, 77):
            d = orient_randomly(g, seed)
            assert arc_tuples(d) == tuple(reference_orientation(g, seed))
            assert d.tail.dtype == d.head.dtype == np.int32


def test_array_storage_validation_and_views():
    # arcs and edges kept in arrays keep the messages of the tuple checks
    for arcs, message in (([(0, 1), (1, 1)], "loop arc at 1"),
                          ([(0, 1), (0, 3)], r"arc \(0,3\) out of range"),
                          ([(-1, 0)], r"arc \(-1,0\) out of range"),
                          ([(1, 2), (0, 1), (1, 2)], r"duplicate arc \(1,2\)")):
        with pytest.raises(ValidationError, match=message):
            Digraph(3, arcs)
    for make in (lambda: Digraph(-3, []), lambda: Graph(-1, [])):
        with pytest.raises(ValidationError, match="vertex count must be nonnegative"):
            make()
    for edges, message in (([(0, 1), (2, 1), (1, 0)], r"duplicate edge \(0,1\)"),
                           ([(1, 2), (2, 1), (0, 2), (2, 0)], r"duplicate edge \(0,2\)"),
                           ([(2, 2)], "loop at vertex 2"),
                           ([(0, 1), (2, 2), (1, 1)], "loop at vertex 1"),
                           ([(0, 3)], r"edge \(0,3\) out of range"),
                           ([(1, 5), (4, 0)], r"edge \(0,4\) out of range"),
                           ([(0, -1)], r"edge \(-1,0\) out of range")):
        with pytest.raises(ValidationError, match=message):
            Graph(3, edges)
    with pytest.raises(ValidationError, match=r"duplicate edge \(0,2\)"):
        BipartiteGraph(2, 1, [(0, 2), (2, 0)])
    for edges in ([(1, 3), (0, 1), (2, 0)], np.array([[2, 1], [0, 1]])):
        with pytest.raises(ValidationError, match=r"edge \(0,1\) does not join X to Y"):
            BipartiteGraph(2, 2, edges)
    g = gen_random_bipartite(GenParams(9, 6, 0.5, seed=4))
    d = orient_randomly(g, 4)
    arcs = arc_tuples(d)
    assert arcs == tuple(sorted(set(arcs))) and len(arcs) == d.n_arcs
    assert d.is_orientation() and not Digraph(3, [(0, 1), (1, 0)]).is_orientation()
    r = d.reverse()
    assert arc_tuples(r) == tuple(sorted((h, t) for (t, h) in arc_tuples(d)))
    assert r.reverse() == d and r != d
    same = Digraph(d.n, reversed(arc_tuples(d)))
    assert same == d and hash(same) == hash(d) and {d: 1}[same] == 1
    assert Digraph(d.n + 1, arc_tuples(d)) != d
    buf = io.StringIO()
    write_digraph(d, buf)
    buf.seek(0)
    assert read_digraph(buf) == d


def test_induced_subgraph_equals_loop_reference():
    # relabelling keeps vertex order; a bipartite graph keeps its parts
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
        assert induced_subgraph(g, verts) == BipartiteGraph(len(xs), len(ys), edges)
    for n, edges in graph_cases(6):
        g = Graph(n, edges)
        verts = sorted(rng.sample(range(n), rng.randint(0, n)))
        vmap = {v: k for k, v in enumerate(verts)}
        sub = induced_subgraph(g, np.array(verts, dtype=np.int32))
        assert sub == Graph(len(verts), [(vmap[u], vmap[v]) for (u, v) in edge_tuples(g)
                                         if u in vmap and v in vmap])
        assert [sub.neighbors(k) for k in range(len(verts))] == [
            tuple(vmap[u] for u in g.neighbors(v) if u in vmap) for v in verts]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 3_000_007])
def test_streams_equal_numpy_philox(seed):
    # numpy.random is the reference here only; the package never imports it
    from numpy.random import Generator, Philox, SeedSequence
    # the draws end inside a 4-word block, on its border, past one
    # kernel pass (32,768 words) and past several
    for stream in range(4):
        for p in (0.0, 2.0 ** -60, 0.03, 0.5, 1 - 2.0 ** -53, 1.0):
            for n in (0, 1, 3, 4, 5, 32_768, 100_001):
                ref = Generator(Philox(SeedSequence([seed, stream]))).random(n)
                assert np.array_equal(bigraph.draw_below(seed, stream, n, p),
                                      np.flatnonzero(ref < p)), (stream, p, n)
        # p on and just beside uniforms of the stream itself, where a
        # threshold one word off would move an index
        ref = Generator(Philox(SeedSequence([seed, stream]))).random(64)
        for u in ref[:16].tolist():
            for p in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)):
                assert np.array_equal(bigraph.draw_below(seed, stream, 64, float(p)),
                                      np.flatnonzero(ref < p)), (stream, p)
        want = SeedSequence([seed, stream]).generate_state(1, np.uint64)[0]
        assert bigraph.derive_int_seed(seed, stream) == int(want)


def test_stream_passes_do_not_change_it(monkeypatch):
    # 1,001 words are 251 blocks: 251, 84 and 3 passes
    cases = [(n, p) for n in (0, 1, 5, 1_001) for p in (0.03, 0.5, 0.97)]
    whole = [bigraph.draw_below(9, 1, n, p) for n, p in cases]
    for blocks in (1, 3, 97):
        monkeypatch.setattr(bigraph, "_KERNEL_BLOCKS", blocks)
        for (n, p), want in zip(cases, whole):
            assert np.array_equal(bigraph.draw_below(9, 1, n, p), want), (blocks, n, p)


def test_negative_seeds_are_refused():
    # refused before the draw, also where the draw is empty or whole
    for call in (lambda: bigraph.draw_below(-1, 0, 5, 0.5),
                 lambda: bigraph.draw_below(0, -1, 5, 0.5),
                 lambda: bigraph.draw_below(-1, 0, 0, 0.5),
                 lambda: bigraph.draw_below(-1, 0, 5, 1.0),
                 lambda: bigraph.derive_int_seed(-1, 2),
                 lambda: bigraph.draw_below(1.0, 0, 5, 0.5),
                 lambda: GenParams(5, 5, 0.5, seed=-3), lambda: PipelineConfig(seed=-1)):
        with pytest.raises(ValidationError, match="must be a nonnegative integer"):
            call()


def test_no_path_imports_numpy_random():
    # numpy.random pulls in secrets, hashlib and OpenSSL (about 5 MB per
    # process), np.unique numpy.ma (about 1.3 MB), and fractions decimal
    # (about 0.35 MB together); generation, the
    # estimates on bipartite and plain graphs and the oracle on a
    # connected and a disconnected graph must not
    code = """if True:
        import sys
        import bigenus as bg, bigenus.cli
        g = bg.gen_random_bipartite(bg.GenParams(30, 30, 0.3, seed=1))
        bg.estimate_genus(g, 1)
        bg.estimate_genus(g, 2)
        bg.estimate_genus(bg.Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]), 1)
        k33 = bg.complete_bipartite_graph(3, 3)
        assert bg.exact_genus(k33) == 1 and bg.pincer_genus(k33).exact
        two = bg.Graph(9, list(zip(k33.u.tolist(), k33.v.tolist())) + [(6, 7)])
        assert bg.minimum_genus_rotation(two)[0] == 1 and bg.pincer_genus(two).exact
        print(sorted(m for m in ("numpy.random", "secrets", "hashlib", "numpy.ma",
                                 "fractions", "decimal")
                     if m in sys.modules))
        """
    src = os.path.dirname(os.path.dirname(bigraph.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"

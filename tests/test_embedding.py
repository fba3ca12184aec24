import io
import random

import numpy as np
import pytest

from bigenus import blossom, embedding, oracle
from bigenus.bigraph import (BipartiteGraph, GenParams, Graph, complete_bipartite_graph,
                             complete_graph, component_labels, cycle_graph,
                             gen_random_bipartite, key_dtype, path_graph)
from bigenus.blossom import assemble_rotation
from bigenus.embedding import (RotationSystem, arc_index, face_length_histogram,
                               genus_from_faces, genus_of_embedding, rotation_to_text,
                               sorted_rotation, trace_faces)
from bigenus.errors import ValidationError
from bigenus.estimator import PipelineConfig, estimate_genus

from conftest import (ClosedTrail, component_euler_stats, dart_family, edge_tuples,
                      faces_from_text, faces_to_text, graph_cases, rand_graph,
                      random_rotation, reference_adjacency, reference_arc_index,
                      reference_components, reference_genus, rotation_from_text)


def test_sorted_rotation_face_counts():
    # frozen traces of the all-neighbors-ascending rotation
    cases = [
        (cycle_graph(4), 2, [4, 4], 0),
        (complete_graph(4), 2, [4, 8], 1),
        (complete_bipartite_graph(3, 3), 3, [6, 6, 6], 1),
        (complete_graph(5), 3, [5, 5, 10], 2),
    ]
    for g, n_faces, lengths, genus in cases:
        fs = trace_faces(sorted_rotation(g))
        assert fs.n_faces == n_faces
        assert sorted(fs.lengths) == lengths
        assert genus_of_embedding(sorted_rotation(g)) == genus


def test_face_histogram():
    k33 = complete_bipartite_graph(3, 3)
    fs = trace_faces(sorted_rotation(k33))
    assert face_length_histogram(fs) == {6: 3}


def test_arc_partition_property():
    # every arc in exactly one face, total face length 2|E|
    rng = random.Random(20)
    for _ in range(300):
        g = rand_graph(rng, max_edges=12)
        rot = random_rotation(g, rng)
        fs = trace_faces(rot)
        arcs = [a for face in fs.faces for a in face]
        expect = {(u, v) for (u, v) in edge_tuples(g)} | {(v, u) for (u, v) in edge_tuples(g)}
        assert len(arcs) == 2 * g.n_edges
        assert set(arcs) == expect


def test_component_euler_parity():
    rng = random.Random(21)
    for _ in range(300):
        g = rand_graph(rng, max_edges=12)
        rot = random_rotation(g, rng)
        assert genus_of_embedding(rot) >= 0
        for (n, e, f) in component_euler_stats(g, rot):
            chi = n - e + f
            assert chi % 2 == 0
            assert chi <= 2


def test_disconnected_genus_adds():
    # K33 + C4 + isolated vertex: 1 + 0 + 0
    edges = list(edge_tuples(complete_bipartite_graph(3, 3)))
    edges += [(6, 7), (7, 8), (8, 9), (6, 9)]
    g = Graph(11, edges)
    assert genus_of_embedding(sorted_rotation(g)) == 1


def test_components_and_genus_equal_bfs_reference():
    # component labels against a search over tuple adjacency: every
    # vertex with an edge is labelled with the least of its component
    rng = random.Random(4)
    for n, edges in graph_cases(2):
        g = Graph(n, edges)
        comps = reference_components(reference_adjacency(n, edges))
        verts, a, b = g.local_edges()
        label = verts[component_labels(len(verts), a, b)]
        least = {v: comp[0] for comp in comps for v in comp if len(comp) > 1}
        assert dict(zip(verts.tolist(), label.tolist())) == least
        for rot in (sorted_rotation(g), random_rotation(g, rng)):
            fs = trace_faces(rot)
            assert genus_from_faces(fs) == reference_genus(g, fs)


def test_rotation_validation():
    g = path_graph(3)
    with pytest.raises(ValidationError, match="rotation at 1 does not match"):
        RotationSystem(g, {0: (1,), 1: (0,), 2: (1,)})  # vertex 1 is missing neighbor 2
    rot = sorted_rotation(g)
    assert rot == RotationSystem(g, {0: [1], 1: iter([0, 2]), 2: (1,)})
    assert rot.order[1] == (0, 2)


def test_rotation_text_round_trip():
    g = complete_bipartite_graph(2, 3)
    rng = random.Random(4)
    rot = random_rotation(g, rng)
    buf = io.StringIO()
    rotation_to_text(rot, buf)
    buf.seek(0)
    rot2 = rotation_from_text(buf, g)
    for v in range(g.n_vertices):
        assert rot2.order[v] == rot.order[v]


def test_faces_text_round_trip():
    g = complete_bipartite_graph(3, 3)
    fs = trace_faces(sorted_rotation(g))
    buf = io.StringIO()
    faces_to_text(fs, buf)
    buf.seek(0)
    assert faces_from_text(buf) == fs.faces


def test_rotation_validation_with_isolated_vertices():
    g = Graph(6, [(0, 1), (1, 2)])   # 3, 4 and 5 are isolated
    good = {v: g.neighbors(v) for v in range(6)}
    assert RotationSystem(g, good).order == good
    missing = dict(good)
    del missing[4]
    with pytest.raises(ValidationError, match="no rotation given for vertex 4"):
        RotationSystem(g, missing)
    with pytest.raises(ValidationError, match=r"unknown vertices \[6, 9\]"):
        RotationSystem(g, {**good, 9: (), 6: ()})
    with pytest.raises(ValidationError, match="rotation at 5 does not match"):
        RotationSystem(g, {**good, 5: (0,)})
    with pytest.raises(ValidationError, match="rotation at 1 repeats"):
        RotationSystem(g, {**good, 1: (0, 0)})


def test_dart_rotation_on_another_graph_is_validated():
    # a rotation is bound to the graph object it was built for; its
    # orders reach another graph only through RotationSystem(g, order),
    # which checks them there
    g = complete_bipartite_graph(3, 3)
    t = ClosedTrail.from_arcs([(0, 3), (3, 1), (1, 4), (4, 0)])
    rot = assemble_rotation(dart_family(g, [t]))
    faces = trace_faces(rot)
    assert rot.graph is g and faces.graph is g
    twin = complete_bipartite_graph(3, 3)
    moved = RotationSystem(twin, rot.order)
    assert moved.graph is twin and trace_faces(moved) == faces
    smaller = Graph(6, [e for e in edge_tuples(g) if e != (2, 5)])
    with pytest.raises(ValidationError, match="rotation at 2 does not match"):
        RotationSystem(smaller, rot.order)


def test_every_dart_numbering_is_one_int32_arc_index(monkeypatch):
    # the oracle's engine, RotationSystem(g, order) on a dict of orders
    # and the dart family of assemble_rotation all number darts through
    # embedding.arc_index and read its int32 arrays
    built = []
    real = embedding.arc_index

    def spy(g):
        built.append(real(g))
        return built[-1]

    for mod in (embedding, oracle, blossom):
        monkeypatch.setattr(mod, "arc_index", spy)
    g = complete_bipartite_graph(3, 3)
    eng = oracle._Engine(g)
    assert (eng.heads, eng.rev) == (built[-1].head.tolist(), built[-1].rev.tolist())
    assert eng.out_arcs == [range(3 * v, 3 * v + 3) for v in range(6)]
    assert oracle.exact_genus(g) == 1
    before = len(built)
    fs = trace_faces(RotationSystem(g, {v: g.neighbors(v) for v in range(6)}))
    t = ClosedTrail.from_arcs([(0, 3), (3, 1), (1, 4), (4, 0)])
    rot = assemble_rotation(dart_family(g, [t]))
    assert t.arcs in trace_faces(rot).faces and fs.n_faces == 3
    assert len(built) == before + 2
    index = built[-1]
    assert all(a.dtype == np.int32 for index in built for a in index)
    assert index.tail.tolist() == [v for v in range(6) for _ in range(3)]
    assert index.head[index.rev].tolist() == index.tail.tolist()
    assert index.first.tolist() == list(range(0, 19, 3))


def test_arc_index_reads_the_csr():
    # the darts read off the CSR adjacency against a lexsort of both
    # directions of every edge
    graphs = [Graph(n, edges) for n, edges in graph_cases(53)]
    graphs.append(gen_random_bipartite(GenParams(120, 120, 0.5, seed=0)))
    for g in graphs:
        got, ref = arc_index(g), reference_arc_index(g)
        assert all(a.dtype == np.int32 for a in got)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_dart_keys_past_int32():
    # n1 = 50,000 puts tail * n + head past 2^31 at the top labels, where
    # int32 keys would wrap, and half of the X-vertices stay at the
    # bottom, so wrapped keys would not sort as the darts do: the keys
    # are int64, every reverse is found, and the estimate equals that of
    # the same graph at low labels
    small = gen_random_bipartite(GenParams(40, 6, 0.5, seed=3))
    n1 = 50_000
    shift = n1 - small.n1
    g = BipartiteGraph(n1, 6, [(x + shift * (x >= 20), y + shift)
                               for x, y in edge_tuples(small)])
    assert (n1 - 1) * g.n + n1 > 2 ** 31 and key_dtype(g.n) == np.int64
    index = arc_index(g)
    darts = np.arange(len(index.tail))
    assert np.array_equal(index.rev[index.rev], darts)
    assert np.array_equal(index.tail[index.rev], index.head)
    assert np.array_equal(index.head[index.rev], index.tail)
    for i, bounds in ((1, (10, 26)), (2, (10, 30))):
        est = estimate_genus(g, i, PipelineConfig(seed=3))
        assert (est.lower, est.upper) == bounds
        est = estimate_genus(small, i, PipelineConfig(seed=3))
        assert (est.lower, est.upper) == bounds


def test_traced_faces_build_arc_tuples_on_read():
    g = complete_bipartite_graph(3, 3)
    fs = trace_faces(sorted_rotation(g))
    assert "faces" not in vars(fs)
    assert (fs.n_faces, fs.lengths) == (3, (6, 6, 6))
    assert genus_of_embedding(sorted_rotation(g)) == 1
    assert fs.faces[0] == ((0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0))
    assert [face[0][0] for face in fs.faces] == [0, 0, 0]
    assert fs == trace_faces(sorted_rotation(g)) and "faces" in vars(fs)

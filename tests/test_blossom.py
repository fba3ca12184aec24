import random

import pytest

from bigenus import blossom
from bigenus.bigraph import (BipartiteGraph, Digraph, complete_bipartite_graph,
                             cycle_graph)
from bigenus.blossom import (assemble_rotation, find_blossoms,
                             make_blossom_free, tip_digraphs)
from bigenus.embedding import sorted_rotation, trace_faces
from bigenus.errors import InternalConsistencyError, ValidationError
from bigenus.trails import ClosedTrail

from conftest import pipeline_family


def _quad(*arcs):
    return ClosedTrail.from_arcs(list(arcs))


def test_single_trail_no_blossom():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    rep = find_blossoms(g, [t])
    assert rep.is_blossom_free
    assert rep.blossoms == ()


def test_trail_and_reverse_non_simple():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    rep = find_blossoms(g, [t, t.reverse()])
    assert not rep.is_blossom_free
    centers = {b.center for b in rep.blossoms}
    assert centers == {0, 1, 2, 3}
    for b in rep.blossoms:
        assert b.length == 2
        assert not b.simple


def test_hand_built_simple_length2():
    # C1 = v>b>u>a>v, C2 = v>a>w>b>v with u != w; auxiliary cycle a>b>a at v
    g = BipartiteGraph(3, 2, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    c1 = _quad((0, 4), (4, 1), (1, 3), (3, 0))
    c2 = _quad((0, 3), (3, 2), (2, 4), (4, 0))
    rep = find_blossoms(g, [c1, c2])
    assert len(rep.blossoms) == 1
    b = rep.blossoms[0]
    assert b.center == 0
    assert b.length == 2
    assert b.simple
    assert set(b.tips) == {3, 4}


def test_self_reversal_passage_is_length1():
    # u>v>u passes through v with equal tips: a length-1 cycle, never simple
    d_arcs = [(0, 1), (1, 0)]
    g = Digraph(2, d_arcs)
    t = ClosedTrail.from_arcs(d_arcs)
    from bigenus.bigraph import Graph

    host = Graph(2, [(0, 1)])
    rep = find_blossoms(host, [t])
    assert not rep.is_blossom_free
    assert all(b.length == 1 and not b.simple for b in rep.blossoms)


def test_family_must_be_arc_disjoint():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    for fn in (find_blossoms, make_blossom_free, assemble_rotation):
        with pytest.raises(ValidationError, match="used by two trails"):
            fn(g, [t, t])


def test_family_arcs_must_be_edges():
    g = BipartiteGraph(2, 2, [(0, 2), (1, 2), (1, 3)])  # no edge 0-3
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    for fn in (find_blossoms, make_blossom_free, assemble_rotation):
        with pytest.raises(ValidationError, match="3->0 is not an edge"):
            fn(g, [t])


def test_assemble_checks_every_passage(monkeypatch):
    # at vertex 0 of K_{3,3} the trail pins 3 after 4; the chains are
    # [4, 3] and [5], and reversing them must be caught
    g = complete_bipartite_graph(3, 3)
    t = _quad((0, 3), (3, 1), (1, 4), (4, 0))
    assert assemble_rotation(g, [t]).at(0) == (4, 3, 5)
    walk = blossom._walk

    def reversed_chains(at, tips):
        chains, cycles = walk(at, tips)
        return [chain[::-1] for chain in chains], cycles

    monkeypatch.setattr(blossom, "_walk", reversed_chains)
    with pytest.raises(InternalConsistencyError, match="does not realize a passage"):
        assemble_rotation(g, [t])


def test_tip_digraph_counts():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    tips = tip_digraphs(g, [t, t.reverse()])
    for v in (0, 1, 2, 3):
        assert len(tips[v].arcs) == 2  # one passage per trail


def test_detection_matches_independent_acyclicity():
    rng = random.Random(31)
    for _ in range(15):
        g, fam = pipeline_family(12, 12, 0.6, rng.randint(0, 9999))
        rep = find_blossoms(g, fam)
        acyclic = True
        for td in tip_digraphs(g, fam).values():
            succ = {a.in_tip: a.out_tip for a in td.arcs}
            for start in succ:
                seen = set()
                v = start
                while v in succ and v not in seen:
                    seen.add(v)
                    v = succ[v]
                if v == start and start in succ and v in seen:
                    acyclic = False
        assert rep.is_blossom_free == acyclic


def test_mirror_families_have_no_nonsimple_length2():
    rng = random.Random(32)
    for _ in range(15):
        g, fam = pipeline_family(14, 14, 0.6, rng.randint(0, 9999))
        rep = find_blossoms(g, fam)
        for b in rep.blossoms:
            if b.length == 2:
                assert b.simple


def test_make_blossom_free_identity():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    surv, removed = make_blossom_free(g, [t])
    assert surv == (t,)
    assert removed == ()


def test_make_blossom_free_reversal_pair():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    surv, removed = make_blossom_free(g, [t, t.reverse()])
    assert len(surv) == 1 and len(removed) == 1
    assert find_blossoms(g, surv).is_blossom_free


def test_make_blossom_free_pipeline():
    g, fam = pipeline_family(80, 80, 0.5, 0)
    surv, removed = make_blossom_free(g, fam)
    assert (len(fam), len(removed)) == (1214, 110)
    assert find_blossoms(g, surv).is_blossom_free
    assert len(removed) / len(fam) < 0.12
    assert [t for t in fam if t in set(surv)] == list(surv)  # order kept


def test_assemble_single_trail_c4():
    g = cycle_graph(4)
    t = ClosedTrail.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = assemble_rotation(g, [t])
    fs = trace_faces(g, rot)
    assert t.arcs in fs.face_arcs()
    assert fs.n_faces == 2


def test_assemble_empty_family():
    g = complete_bipartite_graph(3, 3)
    rot = assemble_rotation(g, [])
    for v in range(6):
        assert rot.at(v) == sorted_rotation(g).at(v)


def test_assemble_rejects_blossoms():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    with pytest.raises(ValidationError):
        assemble_rotation(g, [t, t.reverse()])


def test_assemble_realizes_k33_pipeline():
    for seed in range(6):
        g, fam = pipeline_family(3, 3, 1.0, seed)
        surv, _removed = make_blossom_free(g, fam)
        rot = assemble_rotation(g, surv)
        faces = trace_faces(g, rot).face_arcs()
        for t in surv:
            assert t.arcs in faces

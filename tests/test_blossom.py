import random
import tracemalloc

import numpy as np
import pytest

from bigenus import blossom
from bigenus.bigraph import (BipartiteGraph, Digraph, GenParams, complete_bipartite_graph,
                             cycle_graph, gen_random_bipartite, orient_randomly)
from bigenus.blossom import DartFamily, assemble_rotation, find_blossoms, make_blossom_free
from bigenus.embedding import RotationSystem, genus_from_faces, sorted_rotation, trace_faces
from bigenus.errors import InternalConsistencyError, ValidationError
from bigenus.trails import (build_trail_hypergraph, find_disjoint_mirror_matching,
                            find_matching)

from conftest import (ClosedTrail, dart_family, family_trails, matched, pipeline_family,
                      reference_assemble, reference_blossom_free, reference_blossoms,
                      reference_chain_order, tip_digraphs)


def _quad(*arcs):
    return ClosedTrail.from_arcs(list(arcs))


def test_single_trail_no_blossom():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    found = find_blossoms(dart_family(g, [t]))
    assert found == ()


def test_trail_and_reverse_non_simple():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    found = find_blossoms(dart_family(g, [t, t.reverse()]))
    assert found
    centers = {b.center for b in found}
    assert centers == {0, 1, 2, 3}
    for b in found:
        assert len(b.passages) == 2
        assert not b.simple


def test_hand_built_simple_length2():
    # C1 = v>b>u>a>v, C2 = v>a>w>b>v with u != w; auxiliary cycle a>b>a at v
    g = BipartiteGraph(3, 2, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    c1 = _quad((0, 4), (4, 1), (1, 3), (3, 0))
    c2 = _quad((0, 3), (3, 2), (2, 4), (4, 0))
    found = find_blossoms(dart_family(g, [c1, c2]))
    assert len(found) == 1
    b = found[0]
    assert b.center == 0
    assert len(b.passages) == 2
    assert b.simple
    assert set(b.tips) == {3, 4}


def test_length2_simplicity_by_darts_matches_reference():
    # the dart test for a trail and its reverse (the reversed darts, in
    # reverse order, a rotation of the other trail's darts) against
    # ClosedTrail.reverse: a matching and its mirror matching plus the
    # reverses of some first-matching trails that fit, shuffled, each
    # trail's darts starting at a random arc
    rng = random.Random(47)
    seen = {True: 0, False: 0}
    for _ in range(40):
        n1 = rng.randint(3, 9)
        g = gen_random_bipartite(GenParams(n1, rng.randint(2, n1), rng.uniform(0.5, 1.0),
                                           seed=rng.randint(0, 9999)))
        h = build_trail_hypergraph(orient_randomly(g, 1), rng.choice((1, 1, 2)))
        m = find_matching(h, 2)
        fam = list(matched(m) + matched(find_disjoint_mirror_matching(h, m, 3)))
        used = {a for t in fam for a in t.arcs}
        for t in matched(m):
            if rng.random() < 0.6 and used.isdisjoint(t.reverse().arcs):
                fam.append(t.reverse())
                used.update(t.reverse().arcs)
        rng.shuffle(fam)
        arcs = []
        for t in fam:
            k = rng.randrange(len(t))
            arcs.extend(t.arcs[k:] + t.arcs[:k])
        ends = np.array(arcs, dtype=np.int64).reshape(-1, 2)
        darts = DartFamily._of_arcs(g, ends[:, 0], ends[:, 1],
                                    np.array([len(t) for t in fam], dtype=np.int64))
        # a passage's position in its trail depends on where the trail's
        # darts start; the rest of a blossom does not
        key = lambda b: (b.center, tuple(k for (k, _j) in b.passages), b.tips, b.simple)
        blossoms = find_blossoms(darts)
        assert list(map(key, blossoms)) == list(map(key, reference_blossoms(g, fam)))
        for b in blossoms:
            if len(b.passages) == 2:
                seen[b.simple] += 1
    assert min(seen.values()) > 0


def test_dart_family_peak_memory():
    # arc reuse is checked by one bool mark per dart; a stable argsort of
    # int64 dart ids peaked at 1.27 MiB traced here
    def reports(g):
        h = build_trail_hypergraph(orient_randomly(g, 0), 1)
        m = find_matching(h, 0)
        return m, find_disjoint_mirror_matching(h, m, 1)
    k34 = complete_bipartite_graph(3, 4)
    DartFamily.of_matchings(k34, *reports(k34))  # first-call imports
    g = gen_random_bipartite(GenParams(800, 800, 0.03, seed=0))
    m, mm = reports(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        family = DartFamily.of_matchings(g, m, mm)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(family.darts) == 16_836
    assert peak <= 1.1 * (1 << 20)


def test_self_reversal_passage_is_length1():
    # u>v>u passes through v with equal tips: a length-1 cycle, never simple
    d_arcs = [(0, 1), (1, 0)]
    g = Digraph(2, d_arcs)
    t = ClosedTrail.from_arcs(d_arcs)
    from bigenus.bigraph import Graph

    host = Graph(2, [(0, 1)])
    found = find_blossoms(dart_family(host, [t]))
    assert found
    assert all(len(b.passages) == 1 and not b.simple for b in found)


def test_family_must_be_arc_disjoint():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    with pytest.raises(ValidationError, match="used by two trails"):
        dart_family(g, [t, t])


def test_family_arcs_must_be_edges():
    g = BipartiteGraph(2, 2, [(0, 2), (1, 2), (1, 3)])  # no edge 0-3
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    with pytest.raises(ValidationError, match="3->0 is not an edge"):
        dart_family(g, [t])


def test_assemble_checks_every_passage(monkeypatch):
    # at vertex 0 of K_{3,3} the trail pins 3 after 4; the chains are
    # [4, 3] and [5], and reversing them must be caught
    g = complete_bipartite_graph(3, 3)
    t = _quad((0, 3), (3, 1), (1, 4), (4, 0))
    assert assemble_rotation(dart_family(g, [t])).order[0] == (4, 3, 5)
    walk = blossom._walk

    def reversed_chains(succ, index):
        lead, rank, cyclic = walk(succ, index)
        return lead, -rank, cyclic

    monkeypatch.setattr(blossom, "_walk", reversed_chains)
    with pytest.raises(InternalConsistencyError, match="does not realize a passage"):
        assemble_rotation(dart_family(g, [t]))


def test_chain_offsets_order_like_lexsort():
    # the int32 chain offsets put every dart where the lexsort of
    # (least dart of its chain, rank) put it, on dense, sparse and
    # small-part pipeline families
    cases = ([(12, 12, 0.6, seed) for seed in range(20)]
             + [(800, 800, 0.03, 1), (3000, 5, 3000 ** -0.4, 1)])
    for n1, n2, p, seed in cases:
        _g, fam = pipeline_family(n1, n2, p, seed)
        surv, _removed = make_blossom_free(fam)
        seq = assemble_rotation(surv).darts[2]
        assert seq.dtype == np.int32
        assert np.array_equal(seq, reference_chain_order(surv)), (n1, n2, p, seed)


def test_tip_digraph_counts():
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    tips = tip_digraphs([t, t.reverse()])
    for v in (0, 1, 2, 3):
        assert len(tips[v].arcs) == 2  # one passage per trail


def test_detection_matches_independent_acyclicity():
    # blossom._cycles against the cycles of the paper's tip digraphs
    rng = random.Random(31)
    for _ in range(15):
        g, fam = pipeline_family(12, 12, 0.6, rng.randint(0, 9999))
        found = find_blossoms(fam)
        acyclic = True
        on_cycles = 0
        for td in tip_digraphs(family_trails(fam)).values():
            succ = {a.in_tip: a.out_tip for a in td.arcs}
            for start in succ:
                seen = set()
                v = start
                while v in succ and v not in seen:
                    seen.add(v)
                    v = succ[v]
                if v == start and start in succ and v in seen:
                    acyclic = False
                    on_cycles += 1
        assert (found == ()) == acyclic
        assert on_cycles == sum(len(cyc) for cyc in blossom._cycles(fam))


def test_mirror_families_have_no_nonsimple_length2():
    rng = random.Random(32)
    for _ in range(15):
        g, fam = pipeline_family(14, 14, 0.6, rng.randint(0, 9999))
        found = find_blossoms(fam)
        for b in found:
            if len(b.passages) == 2:
                assert b.simple


def test_make_blossom_free_identity():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    surv, removed = make_blossom_free(dart_family(g, [t]))
    assert family_trails(surv) == (t,)
    assert family_trails(removed) == ()


def test_make_blossom_free_reversal_pair():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    surv, removed = make_blossom_free(dart_family(g, [t, t.reverse()]))
    assert len(surv) == 1 and len(removed) == 1
    assert find_blossoms(surv) == ()


def test_make_blossom_free_pipeline():
    g, fam = pipeline_family(80, 80, 0.5, 0)
    surv, removed = make_blossom_free(fam)
    assert (len(fam), len(removed)) == (1214, 110)
    assert find_blossoms(surv) == ()
    assert len(removed) / len(fam) < 0.12
    assert [t for t in family_trails(fam) if t in set(family_trails(surv))] == list(family_trails(surv))  # order kept


def test_make_blossom_free_matches_reference():
    # the heap-driven hitting set against the recount-every-round loop
    rng = random.Random(41)
    with_removals = 0
    for i in (1, 2):
        for _ in range(50):
            n1 = rng.randint(5, 16)
            g, fam = pipeline_family(n1, rng.randint(3, n1), rng.uniform(0.3, 1.0),
                                     rng.randint(0, 9999), i)
            got = make_blossom_free(fam)
            assert tuple(family_trails(part) for part in got) == reference_blossom_free(g, family_trails(fam))
            with_removals += len(got[1]) > 0
    assert with_removals >= 60


def test_assemble_single_trail_c4():
    g = cycle_graph(4)
    t = ClosedTrail.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = assemble_rotation(dart_family(g, [t]))
    fs = trace_faces(rot)
    assert t.arcs in fs.faces
    assert fs.n_faces == 2


def test_assemble_empty_family():
    g = complete_bipartite_graph(3, 3)
    rot = assemble_rotation(dart_family(g, []))
    for v in range(6):
        assert rot.order[v] == sorted_rotation(g).order[v]


def test_assemble_rejects_blossoms():
    g = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    with pytest.raises(ValidationError):
        assemble_rotation(dart_family(g, [t, t.reverse()]))


def test_assemble_realizes_k33_pipeline():
    for seed in range(6):
        g, fam = pipeline_family(3, 3, 1.0, seed)
        surv, _removed = make_blossom_free(fam)
        rot = assemble_rotation(surv)
        faces = frozenset(trace_faces(rot).faces)
        for t in family_trails(surv):
            assert t.arcs in faces


def test_assembled_darts_match_their_dict():
    # the dart-successor rotation against the same orders passed as a
    # plain dict to RotationSystem, which validates and converts them
    rng = random.Random(33)
    for _ in range(12):
        n1 = rng.randint(3, 14)
        g, fam = pipeline_family(n1, rng.randint(2, n1), rng.uniform(0.3, 1.0),
                                 rng.randint(0, 9999))
        surv, _removed = make_blossom_free(fam)
        rot = assemble_rotation(surv)
        plain = RotationSystem(g, dict(rot.order))
        assert rot.order == plain.order
        assert all(np.array_equal(a, b) for a, b in zip(rot.darts[1:], plain.darts[1:]))
        assert trace_faces(rot) == trace_faces(plain)


def _reference_families(seed: int):
    """Pipeline families of random graphs at i = 1 and i = 2, with and
    without blossoms."""
    rng = random.Random(seed)
    for i in (1, 2):
        for _ in range(12):
            n1 = rng.randint(5, 16)
            yield pipeline_family(n1, rng.randint(3, n1), rng.uniform(0.3, 1.0),
                                  rng.randint(0, 9999), i)


def test_dart_path_matches_dict_reference():
    # the dart-id family, passage successor and pointer-jumping walk
    # against per-center passage dicts and chain walks: blossoms, the
    # trails kept and dropped, the rotation, its faces and its genus
    with_removals = 0
    for g, darts in _reference_families(43):
        fam = family_trails(darts)
        assert find_blossoms(darts) == reference_blossoms(g, fam)
        surv, dropped = make_blossom_free(darts)
        ref_surv, ref_dropped = reference_blossom_free(g, fam)
        assert (family_trails(surv), family_trails(dropped)) == (ref_surv, ref_dropped)
        assert tuple(family_trails(part) for part in make_blossom_free(dart_family(g, fam))
                     ) == (ref_surv, ref_dropped)
        rot, ref_rot = assemble_rotation(surv), reference_assemble(g, ref_surv)
        assert rot.order == ref_rot.order
        assert assemble_rotation(dart_family(g, ref_surv)).order == ref_rot.order
        fs, ref_fs = trace_faces(rot), trace_faces(ref_rot)
        assert (fs.faces, fs.lengths) == (ref_fs.faces, ref_fs.lengths)
        assert genus_from_faces(fs) == genus_from_faces(ref_fs)
        with_removals += len(dropped) > 0
    assert with_removals >= 5


def test_matched_rows_convert_like_their_trails():
    # the estimator's conversion of matched rows and the ClosedTrail
    # conversion give the same darts
    g = gen_random_bipartite(GenParams(30, 30, 0.3, seed=2))
    for i in (1, 2):
        h = build_trail_hypergraph(orient_randomly(g, 2), i)
        m = find_matching(h, 3)
        mm = find_disjoint_mirror_matching(h, m, 4)
        rows = DartFamily.of_matchings(g, m, mm)
        trails = dart_family(g, matched(m) + matched(mm))
        assert np.array_equal(rows.darts, trails.darts)
        assert np.array_equal(rows.offsets, trails.offsets)
        assert family_trails(rows) == matched(m) + matched(mm)
        assert rows.graph is g and assemble_rotation(make_blossom_free(rows)[0]).graph is g


def test_find_blossoms_takes_a_dart_family():
    # find_blossoms reads a DartFamily like make_blossom_free does: the
    # survivors are blossom-free, and an unreduced family reports the
    # blossoms of the same trails passed as ClosedTrails
    g = gen_random_bipartite(GenParams(30, 30, 0.3, seed=0))
    blossoms_seen = 0
    for i in (1, 2):
        h = build_trail_hypergraph(orient_randomly(g, 0), i)
        m = find_matching(h, 1)
        mm = find_disjoint_mirror_matching(h, m, 2)
        family = DartFamily.of_matchings(g, m, mm)
        surviving, _ = make_blossom_free(family)
        assert find_blossoms(surviving) == ()
        found = find_blossoms(family)
        assert found == find_blossoms(dart_family(g, matched(m) + matched(mm)))
        blossoms_seen += len(found)
    assert blossoms_seen > 0


def test_dart_path_raises_like_reference():
    # a non-edge arc and an arc in two trails are refused when a family
    # of g is built, and a blossom when assemble_rotation is handed the
    # family, each with the message of the reference
    k22 = complete_bipartite_graph(2, 2)
    t = _quad((0, 2), (2, 1), (1, 3), (3, 0))
    no_edge = BipartiteGraph(2, 2, [(0, 2), (1, 2), (1, 3)])
    assemble = lambda g, fam: assemble_rotation(dart_family(g, fam))
    for g, fam, build in ((no_edge, [t], dart_family), (k22, [t, t], dart_family),
                          (k22, [t, t.reverse()], assemble)):
        with pytest.raises(ValidationError) as ref:
            reference_assemble(g, fam)
        with pytest.raises(ValidationError) as got:
            build(g, fam)
        assert str(got.value) == str(ref.value)
    with pytest.raises(ValidationError, match=r"blossom at vertex 0 \(length 2\)"):
        assemble(k22, [t, t.reverse()])

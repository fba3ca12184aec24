import io
import itertools
import mmap
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bigenus import trails
from bigenus.bigraph import (BipartiteGraph, Digraph, GenParams,
                             complete_bipartite_graph, gen_random_bipartite,
                             orient_randomly)
from bigenus.cli import main
from bigenus.errors import GuardError, InternalConsistencyError, ValidationError
from bigenus.estimator import estimate_genus
from bigenus.trails import (TrailHypergraph, _canonical_sort,
                            build_trail_hypergraph, check_matching_conditions,
                            count_short_closed_trails,
                            find_disjoint_mirror_matching, find_matching,
                            theoretical_delta, trails_to_text)

from conftest import (ClosedTrail, arc_tuples, brute_short_trail_total, edge_tuples,
                      hypergraph_arcs, hypergraph_trails, matched, rand_bipartite,
                      reference_greedy, reference_incidence, reference_index,
                      reference_trail_rows, rho, trails_from_text)


def test_closed_trail_validation():
    with pytest.raises(ValidationError):
        ClosedTrail.from_arcs([(0, 1)])
    with pytest.raises(ValidationError):
        ClosedTrail.from_arcs([(0, 1), (2, 0)])  # not chained
    with pytest.raises(ValidationError):
        ClosedTrail.from_arcs([(0, 1), (1, 0), (0, 1), (1, 0)])  # repeated arc


def test_closed_trail_canonical():
    cycle = [(0, 3), (3, 1), (1, 4), (4, 0)]
    rotated = cycle[2:] + cycle[:2]
    assert ClosedTrail.from_arcs(cycle) == ClosedTrail.from_arcs(rotated)
    t = ClosedTrail.from_arcs(cycle)
    assert t.reverse().reverse() == t
    assert t.reverse().arcs != t.arcs


def test_enumerate_k33():
    d = orient_randomly(complete_bipartite_graph(3, 3), 0)
    ts = hypergraph_trails(build_trail_hypergraph(d, 1))
    assert len(ts) == 3
    arcs = set(arc_tuples(d))
    for t in ts:
        assert len(t.arcs) == 4
        assert all(a in arcs for a in t.arcs)
    assert [t.arcs for t in ts] == sorted(t.arcs for t in ts)


def test_enumerate_cap():
    # there is no cap: a family is every closed trail or a refusal
    d = orient_randomly(complete_bipartite_graph(3, 3), 0)
    with pytest.raises(TypeError):
        build_trail_hypergraph(d, 1, cap=2)
    exact = build_trail_hypergraph(d, 1)
    assert len(hypergraph_trails(exact)) == 3


def _identity_digraphs(seed: int):
    """Random orientations of small bipartite graphs, plus random
    digraphs with anti-parallel arcs, whose closed 4-trails may repeat
    a vertex."""
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        a, b = rng.randint(3, 8), rng.randint(3, 8)
        g = gen_random_bipartite(GenParams(max(a, b), min(a, b),
                                           rng.uniform(0.3, 0.8),
                                           seed=rng.randint(0, 999)))
        out.append(orient_randomly(g, rng.randint(0, 999)))
    for _ in range(4):
        n = rng.randint(4, 6)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.45}
        out.append(Digraph(n, arcs | {(0, 1), (1, 0)}))
    return out


def _symmetric_digraphs(seed: int):
    """Both arcs of every edge of small random bipartite graphs, the
    digraphs whose closed trails count undirected ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(6):
        g = rand_bipartite(rng, max_edges=12)
        edges = edge_tuples(g)
        out.append(Digraph(g.n_vertices, edges + tuple((v, u) for (u, v) in edges)))
    return out


def test_fast_path_matches_dfs():
    # the half-trail join against the reference DFS at every length, on
    # orientations and on anti-parallel and symmetric digraphs; the dead
    # chains into and out of the 4-cycle of `chain` are longer than the
    # pruning rounds, so the join meets dead arcs
    chain = Digraph(80, [(0, 1), (1, 2), (2, 3), (3, 0), (39, 0), (0, 40)]
                    + [(k, k + 1) for k in range(4, 39)] + [(k, k + 1) for k in range(40, 79)])
    rows_seen = 0
    for d in _identity_digraphs(8) + _symmetric_digraphs(8) + [chain]:
        for i in (1, 2, 3):
            full, arcs = reference_trail_rows(d, 2 * i + 2), arc_tuples(d)
            slow = [ClosedTrail.from_arcs([arcs[a] for a in row])
                    for row in full.tolist()]
            h = build_trail_hypergraph(d, i)
            assert hypergraph_trails(h) == tuple(sorted(slow, key=lambda t: t.arcs))
            assert len(set(slow)) == len(slow)
            assert np.array_equal(h.trails(), full)
            rows_seen += len(full)
    assert rows_seen > 0


def test_rows_store_the_even_arcs_of_each_trail():
    # a row holds a trail's i + 1 arcs at even positions, and trails()
    # rebuilds the whole trail; sorting the stored rows orders the trails
    # as sorting the whole ones does, with and without anti-parallel arcs
    # and with 32-bit ids past 65,536 arcs
    star = _star_plus_k34((1 << 16) + 1)[0]
    rows_seen = 0
    for d in _identity_digraphs(41) + _symmetric_digraphs(41) + [star]:
        for i in (1, 2, 3):
            full = reference_trail_rows(d, 2 * i + 2)
            h = build_trail_hypergraph(d, i)
            assert h.rows.dtype == (np.int32 if d is star else np.uint16)
            assert h.rows.nbytes == (i + 1) * h.rows.itemsize * h.n_hyperedges
            assert h.d == 2 * i + 2 and h.rows.shape == (len(full), i + 1)
            assert np.array_equal(h.trails(), full)
            assert np.array_equal(h.rows, full[:, ::2])
            chunks = [h.trails(s, s + 5) for s in range(0, h.n_hyperedges, 5)]
            assert np.array_equal(np.concatenate(chunks or [full]), full)
            shuffled = np.random.default_rng(i).permutation(len(full))
            assert np.array_equal(np.lexsort(full[shuffled].T[::-1]),
                                  np.lexsort(full[shuffled, ::2].T[::-1]))
            rows_seen += len(full)
    assert rows_seen > 0


def test_rebuilding_a_row_without_its_odd_arc_refuses():
    # in an orientation no arc runs from an arc's head back to its tail,
    # so the stored row (a, a) has no odd arc; the refusal names the row
    # by its position in the family, from any start
    d = orient_randomly(gen_random_bipartite(GenParams(8, 8, 0.7, seed=1)), 1)
    h = build_trail_hypergraph(d, 1)
    assert h.n_hyperedges > 6
    rows = h.rows.copy()
    rows[5] = rows[5, 0]
    bad = TrailHypergraph(h.tail, h.head, rows)
    for start in (0, 3, 5):
        with pytest.raises(InternalConsistencyError, match="trail 5 has no arc between"):
            bad.trails(start, 8)
    with pytest.raises(InternalConsistencyError, match="trail 5 has no arc between"):
        bad.trails(0, 8, np.array([2, 5]))
    assert np.array_equal(bad.trails(0, 5), h.trails(0, 5))
    with pytest.raises(InternalConsistencyError, match="trail 5 "):
        bad.mirror()


def test_mirror_equals_reversed_enumeration():
    anti_parallel_i1_trails = 0
    for d in _identity_digraphs(31):
        for i in (1, 2):
            h = build_trail_hypergraph(d, i)
            if i == 1 and not d.is_orientation():
                anti_parallel_i1_trails += h.n_hyperedges
            fwd_arcs, fwd_rows = hypergraph_arcs(h), h.rows.copy()
            fwd_trails = hypergraph_trails(h)
            fwd_degree, fwd_incidence = h.degree_array(), reference_incidence(h)
            assert h.mirror() is None
            direct = build_trail_hypergraph(d.reverse(), i)
            assert hypergraph_arcs(h) == hypergraph_arcs(direct)
            assert h.rows.dtype == direct.rows.dtype
            assert np.array_equal(h.rows, direct.rows)
            assert hypergraph_trails(h) == tuple(sorted((t.reverse() for t in fwd_trails),
                                                        key=lambda t: t.arcs))
            assert np.array_equal(h.degree_array(), direct.degree_array())
            assert reference_incidence(h) == reference_incidence(direct)
            h.mirror()
            assert hypergraph_arcs(h) == fwd_arcs
            assert np.array_equal(h.rows, fwd_rows)
            assert hypergraph_trails(h) == fwd_trails
            assert np.array_equal(h.degree_array(), fwd_degree)
            assert reference_incidence(h) == fwd_incidence
    assert anti_parallel_i1_trails > 0


def test_array_greedy_matches_set_reference():
    rng = random.Random(19)
    for d in _identity_digraphs(19):
        for i in (1, 2):
            h = build_trail_hypergraph(d, i)
            family = hypergraph_trails(h)
            rev = hypergraph_trails(build_trail_hypergraph(d.reverse(), i))
            seed = rng.randint(0, 999)
            m = find_matching(h, seed)
            assert matched(m) == reference_greedy(family, seed)
            mm = find_disjoint_mirror_matching(h, m, seed + 1)
            reverses = {t.reverse() for t in matched(m)}
            assert matched(mm) == reference_greedy(rev, seed + 1, reverses)
            assert mm.excluded == len(matched(m))


@pytest.mark.parametrize("i", [1, 2])
def test_matching_takes_its_trails_out_of_the_family(i):
    # find_matching shuffles the family's own rows (4 or 8 bytes each at
    # i = 1, 6 or 12 at i = 2) and moves the rows it did not take up over
    # the others: h.rows is then a prefix of the same buffer holding
    # exactly the family less the matched trails, each once. The mirror
    # matching mirrors that rest and does the same to it.
    d = orient_randomly(gen_random_bipartite(GenParams(30, 30, 0.5, seed=i)), i)
    built = build_trail_hypergraph(d, i)
    assert built.rows.dtype == np.uint16 and built.d == 2 * i + 2
    family = set(hypergraph_trails(built))
    rev = set(hypergraph_trails(build_trail_hypergraph(d.reverse(), i)))
    for dtype in (np.uint16, np.int32):
        h = TrailHypergraph(built.tail, built.head, built.rows.astype(dtype))
        buffer = h.rows.ctypes.data
        m = find_matching(h, 5)
        rest = hypergraph_trails(h)
        assert m.size > 0 and h.rows.dtype == dtype and h.rows.ctypes.data == buffer
        assert len(rest) == len(family) - m.size
        assert set(rest) == family - set(matched(m))
        mm = find_disjoint_mirror_matching(h, m, 7)
        rest = hypergraph_trails(h)
        assert mm.excluded == m.size and mm.size > 0 and h.rows.ctypes.data == buffer
        assert len(rest) == len(rev) - m.size - mm.size
        assert set(rest) == rev - {t.reverse() for t in matched(m)} - set(matched(mm))


@pytest.mark.parametrize("i", [1, 2])
def test_int32_rows_match_alike(i):
    # the same family with int32 ids has 8- or 12-byte rows, which the
    # matching shuffles through a uint64 memoryview or a numpy void view
    # rather than a uint32 memoryview or a void view of 6-byte rows; both
    # give the same matched rows
    d = orient_randomly(gen_random_bipartite(GenParams(30, 30, 0.5, seed=i)), i)
    h = build_trail_hypergraph(d, i)
    wide = TrailHypergraph(h.tail, h.head, h.rows.astype(np.int32))
    m, mw = find_matching(h, 3), find_matching(wide, 3)
    assert mw.chosen.rows.dtype == np.int32 and m.size > 0
    assert np.array_equal(mw.chosen.rows, m.chosen.rows) and mw.coverage == m.coverage
    assert np.array_equal(wide.rows, h.rows)
    mm, mmw = find_disjoint_mirror_matching(h, m, 4), find_disjoint_mirror_matching(wide, mw, 4)
    assert np.array_equal(mmw.chosen.rows, mm.chosen.rows) and mmw.excluded == mm.excluded
    assert np.array_equal(wide.rows, h.rows)


def test_matching_peak_memory():
    # the matchings shuffle the family's own rows and move the rows they
    # do not take up in place, so beyond chunk-sized temporaries they
    # hold only the used-arc marks and the matched rows, and the mirror
    # matching the mirror's arc ranks. An int32 index per candidate and
    # a keep mask took about 5.3 bytes per trail.
    small = build_trail_hypergraph(orient_randomly(complete_bipartite_graph(3, 4), 0), 1)
    m = find_matching(small, 0)
    find_disjoint_mirror_matching(small, m, 1)  # first-call imports
    d = orient_randomly(gen_random_bipartite(GenParams(120, 120, 0.5, seed=0)), 0)
    h = build_trail_hypergraph(d, 1)
    n = h.n_hyperedges
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = find_matching(h, 0)
        match_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mm = find_disjoint_mirror_matching(h, m, 1)
        mirror_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert n == 393_537 and mm.excluded == m.size > 0
    assert max(match_peak, mirror_peak) < 2 * n


def test_dfs_rows_are_canonically_sorted():
    # the reference DFS and build_trail_hypergraph both emit rows that
    # their own canonical sort leaves unchanged, without sorting them
    rows_seen = 0
    for d in _identity_digraphs(7):
        for length in (4, 6):
            rows = reference_trail_rows(d, length)
            again = rows.copy()
            _canonical_sort(again)
            assert np.array_equal(rows, again)
            h = build_trail_hypergraph(d, length // 2 - 1)
            again = h.rows.copy()
            _canonical_sort(again)
            assert np.array_equal(h.rows, again)
            rows_seen += len(rows)
    assert rows_seen > 0


@pytest.mark.parametrize("w, top, dtype", [
    *(pytest.param(w, top, np.int32, id=f"{w}-{top}") for w, top in
      [(4, 1 << 16), (4, 1 << 17), (6, 1 << 10), (6, 1 << 11), (2, (1 << 31) - 1)]),
    *(pytest.param(w, top, np.uint16, id=f"{w}-{top}-uint16") for w, top in
      [(4, 1 << 16), (6, 1 << 10), (6, 1 << 11), (8, 1 << 16)])])
def test_canonical_sort_packed_and_gathered(w, top, dtype):
    # rows of w ids are rotated to their least id and cut to their even
    # columns, then sorted: a 4-byte stored row (2 uint16 ids, or 1
    # int32) sorts as one uint32 key (an int32 with its sign bit
    # flipped), an 8-byte one (4 uint16 or 2 int32) as one uint64, any
    # other as a byte string of big-endian ids; row 0 holds the largest
    # ids, whose keys have the sign bit set, and repeated rows are
    # included
    rng = np.random.default_rng(w * top)
    rows = np.array([rng.choice(top, w, replace=False) for _ in range(300)],
                    dtype=dtype)
    rows[0] = np.arange(top - w, top)
    rows = np.concatenate([rows, rows[::3]])

    def canonical(r):
        k = r.index(min(r))
        return (r[k:] + r[:k])[::2]

    expect = sorted(canonical(r) for r in rows.tolist())
    stored = trails._least_first(rows)
    assert stored.dtype == dtype and stored.flags.c_contiguous
    trails._canonical_sort(stored)
    assert stored.tolist() == expect


@pytest.mark.parametrize("dtype, top", [(np.uint16, 1 << 16), (np.int32, 1 << 20)])
def test_wide_rows_sort_in_place_in_lexsort_order(dtype, top):
    # rows over 64 bits sort as byte strings of big-endian ids, in the
    # rows' own buffer; long tied prefixes and repeated rows included
    rng = np.random.default_rng(top)
    rows = rng.integers(1, top, size=(3000, 6)).astype(dtype)
    rows[:, 1:4] = rng.integers(1, 4, size=(3000, 3))
    rows[:, 0] = 0
    rows[1::5] = rows[::5][:len(rows[1::5])]
    expect = rows[np.lexsort(rows.T[::-1])]
    buffer = rows.ctypes.data
    _canonical_sort(rows)
    assert np.array_equal(rows, expect) and rows.ctypes.data == buffer


def test_trail_family_peak_memory():
    # enumeration and mirror hold the uint16 rows, which carry their own
    # sort keys, plus chunk-sized temporaries and the mirrored arc list.
    # The rows sit in their own memory mapping, which tracemalloc does
    # not see, so the traced peak is the temporaries alone.
    d = orient_randomly(gen_random_bipartite(GenParams(120, 120, 0.5, seed=0)), 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = build_trail_hypergraph(d, 1)
        h.mirror()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert h.n_hyperedges == 393_537
    assert h.rows.dtype == np.uint16
    assert peak < 0.5 * h.rows.nbytes


def test_large_families_are_mapped_outside_the_heap():
    # from _MAP_BYTES on, a family's rows are a writable view of their
    # own anonymous mapping, which every view of the rows keeps alive;
    # smaller families, the empty one included, own heap memory
    for count, length, dtype in ((0, 4, np.uint16), (1, 6, np.int32),
                                 (trails._MAP_BYTES // 8 - 1, 4, np.uint16)):
        rows = trails._mapped_rows(count, length, np.dtype(dtype))
        assert rows.shape == (count, length) and rows.dtype == dtype
        assert rows.flags.owndata and rows.flags.writeable
    for count, length, dtype in ((trails._MAP_BYTES // 8, 4, np.uint16),
                                 (trails._MAP_BYTES // 24 + 1, 6, np.int32)):
        rows = trails._mapped_rows(count, length, np.dtype(dtype))
        assert rows.shape == (count, length) and rows.dtype == dtype
        assert not rows.flags.owndata and rows.flags.writeable
        assert rows.flags.c_contiguous
        base = rows
        while isinstance(base.base, np.ndarray):
            base = base.base
        # numpy 2 holds the buffer through a memoryview
        assert isinstance(getattr(base.base, "obj", base.base), mmap.mmap)


def _star_plus_k34(n_arcs: int):
    """A digraph with n_arcs arcs, and its oriented K_{3,4} on x0..x2
    and y0..y3 alone. Every other x has one arc into y0, which no closed
    trail can use, so both have the same closed trails."""
    n1 = n_arcs - 9
    # K_{3,4} numbers y0..y3 as 3..6; this orientation has six closed
    # 4-trails and four closed 6-trails
    k34 = [tuple(v if v < 3 else v - 3 + n1 for v in arc)
           for arc in arc_tuples(orient_randomly(complete_bipartite_graph(3, 4), 0))]
    star = [(x, n1) for x in range(3, n1)]
    return Digraph(n1 + 4, k34 + star), Digraph(n1 + 4, k34)


def test_row_dtype_follows_arc_count():
    # arc ids are 16-bit up to 65,536 arcs and 32-bit past it; the
    # enumeration at i = 1 and 2, mirror and matching give the same
    # trails either way
    for n_arcs, dtype in ((1 << 16, np.uint16), ((1 << 16) + 1, np.int32)):
        d, k34 = _star_plus_k34(n_arcs)
        assert len(arc_tuples(d)) == n_arcs
        for i in (1, 2):
            h, small = build_trail_hypergraph(d, i), build_trail_hypergraph(k34, i)
            assert (h.rows.dtype, small.rows.dtype) == (dtype, np.uint16)
            assert h.n_hyperedges > 0
            for _ in range(2):
                assert hypergraph_trails(h) == hypergraph_trails(small)
                assert matched(find_matching(h, 5)) == matched(find_matching(small, 5))
                h.mirror()
                small.mirror()
    # d is now the int32 digraph; estimate on its underlying graph
    g = BipartiteGraph(d.n - 4, 4, [(min(a), max(a)) for a in arc_tuples(d)])
    est = estimate_genus(g, 1)
    assert est.lower <= est.upper


def test_enumerate_general_digraph():
    # anti-parallel arcs allow vertex-repeating closed 4-trails
    d = Digraph(4, [(0, 2), (2, 0), (0, 3), (3, 0)])
    ts = hypergraph_trails(build_trail_hypergraph(d, 1))
    assert len(ts) == 1
    assert sorted(ts[0].arcs) == [(0, 2), (0, 3), (2, 0), (3, 0)]


def test_rho_closure_identity():
    # each trail is closed by exactly one distinct-vertex path per arc,
    # so summing rho(head, tail) over all arcs counts 2i+2 per trail
    for seed in (0, 1, 5):
        d = orient_randomly(complete_bipartite_graph(3, 3), seed)
        n_trails = len(hypergraph_trails(build_trail_hypergraph(d, 1)))
        total = sum(rho(d, v, u, 1) for (u, v) in arc_tuples(d))
        assert total == 4 * n_trails
    g = gen_random_bipartite(GenParams(7, 7, 0.6, seed=2))
    d = orient_randomly(g, 2)
    n_trails = len(hypergraph_trails(build_trail_hypergraph(d, 2)))
    assert sum(rho(d, v, u, 2) for (u, v) in arc_tuples(d)) == 6 * n_trails


def test_theoretical_delta():
    assert theoretical_delta(100, 100, 0.5, 1) == 156.25
    assert theoretical_delta(80, 80, 0.5, 1) == 100.0


def test_hypergraph_degree_sum():
    g = gen_random_bipartite(GenParams(10, 10, 0.5, seed=4))
    d = orient_randomly(g, 4)
    h = build_trail_hypergraph(d, 1)
    assert h.d == 4
    assert h.degree_array().sum() == 4 * h.n_hyperedges
    trails, incidence = hypergraph_trails(h), reference_incidence(h)
    for k, t in enumerate(trails):
        for a in t.arcs:
            assert k in incidence[a]
    # incidence really indexes the trails containing each arc
    for a, idxs in incidence.items():
        for k in idxs:
            assert a in trails[k].arcs


def test_condition_report_trivial_cases():
    c4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = build_trail_hypergraph(c4, 1)
    assert h.n_hyperedges == 1
    rep = check_matching_conditions(h, 0.5, 1.0)
    assert rep.degree_fraction_in_band == 1.0
    assert rep.cond1_all
    assert rep.max_codegree == 1

    path = Digraph(3, [(0, 1), (1, 2)])
    h0 = build_trail_hypergraph(path, 1)
    rep0 = check_matching_conditions(h0, 0.5, 1.0)
    assert rep0.max_codegree == 0
    assert rep0.overfull_hyperedges == 0
    assert rep0.cond2_ok and rep0.cond3_ok

    with pytest.raises(ValidationError):
        check_matching_conditions(h, 1.5, 1.0)
    with pytest.raises(ValidationError):
        check_matching_conditions(h, 0.5, 0.0)


def test_codegree_is_exact_at_every_size():
    # 3,157 arcs, against a brute count over the arc pairs of every trail
    g = gen_random_bipartite(GenParams(80, 80, 0.5, seed=0))
    h = build_trail_hypergraph(orient_randomly(g, 0), 1)
    assert h.n_arcs > 2000
    pairs = Counter(pair for row in h.trails().tolist()
                    for pair in itertools.combinations(sorted(row), 2))
    rep = check_matching_conditions(h, 0.2, theoretical_delta(80, 80, 0.5, 1))
    assert rep.max_codegree == max(pairs.values()) == 15


def test_matching_disjoint_property():
    rng = random.Random(17)
    for _ in range(25):
        a, b = rng.randint(5, 10), rng.randint(5, 10)
        g = gen_random_bipartite(GenParams(max(a, b), min(a, b),
                                           0.6, seed=rng.randint(0, 999)))
        d = orient_randomly(g, rng.randint(0, 999))
        h = build_trail_hypergraph(d, 1)
        family = hypergraph_trails(h)
        m = matched(find_matching(h, rng.randint(0, 999)))
        used = set()
        for t in m:
            assert not used & set(t.arcs)
            used.update(t.arcs)
        # maximal: no surviving hyperedge fits
        for t in family:
            if t not in m:
                assert used & set(t.arcs)


def test_mirror_exclusion_property():
    rng = random.Random(18)
    for _ in range(20):
        g = gen_random_bipartite(GenParams(7, 7, 0.7, seed=rng.randint(0, 999)))
        d = orient_randomly(g, rng.randint(0, 999))
        h = build_trail_hypergraph(d, 1)
        rev = hypergraph_trails(build_trail_hypergraph(d.reverse(), 1))
        m = find_matching(h, 3)
        m2 = find_disjoint_mirror_matching(h, m, 3)
        reversed_m = {t.reverse() for t in matched(m)}
        assert not reversed_m & set(matched(m2))
        assert m2.excluded == len(matched(m))
        # maximal among the reversed digraph's trails less the reverses
        used = {a for t in matched(m2) for a in t.arcs}
        for t in set(rev) - reversed_m - set(matched(m2)):
            assert used & set(t.arcs)


def test_matching_large_instance():
    """Frozen behavior of the matching on G(80,80,0.5), seed 0."""
    g = gen_random_bipartite(GenParams(80, 80, 0.5, seed=0))
    d = orient_randomly(g, 0)
    h = build_trail_hypergraph(d, 1)
    assert g.n_edges == 3157
    assert h.n_hyperedges == 74788
    # empirical degree scale tracks the model value
    mean_deg = 4 * h.n_hyperedges / h.n_arcs
    mg = find_matching(h, 0)
    assert (mg.size, round(mg.coverage, 4)) == (607, 0.7691)
    assert abs(mean_deg / theoretical_delta(80, 80, 0.5, 1) - 1) < 0.15


def test_count_short_k33():
    k33 = complete_bipartite_graph(3, 3)
    assert [count_short_closed_trails(k33, i) for i in (1, 2, 3)] == [0, 9, 15]


def test_count_short_matches_brute():
    rng = random.Random(23)
    for _ in range(30):
        g = rand_bipartite(rng, max_edges=16)
        for i in (1, 2, 3):
            assert count_short_closed_trails(g, i) == brute_short_trail_total(g, i)


def test_count_short_long_trails_match_brute():
    # lengths 8 and 10, counted by the trail join on the symmetric digraph
    rng = random.Random(29)
    nonzero = 0
    for _ in range(100):
        g = rand_bipartite(rng, max_edges=16)
        for i in (4, 5):
            count = count_short_closed_trails(g, i)
            assert count == brute_short_trail_total(g, i)
            nonzero += count > count_short_closed_trails(g, 3)
    assert nonzero > 0


@pytest.mark.parametrize("n1, n2, p, i, count", [
    (12, 12, 0.4, 4, 7_995), (40, 40, 0.1, 5, 46_032), (400, 400, 0.005, 5, 113),
    (200, 150, 0.05, 3, 43_825), (1000, 1000, 0.003, 4, 736)])
def test_short_trail_counts_are_frozen(n1, n2, p, i, count):
    g = gen_random_bipartite(GenParams(n1, n2, p, seed=1))
    assert count_short_closed_trails(g, i) == count


def test_count_streams_the_join_and_builds_no_family(monkeypatch):
    # a count adds up the join's blocks as they come: it builds no
    # TrailHypergraph and maps no rows, and holds one chunk at a time.
    # Counting through a whole family peaked at 177 MiB traced here.
    calls = []
    for name in ("build_trail_hypergraph", "_mapped_rows"):
        f = getattr(trails, name)
        monkeypatch.setattr(trails, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    count_short_closed_trails(complete_bipartite_graph(3, 3), 5)  # first-call imports
    g = gen_random_bipartite(GenParams(40, 40, 0.1, seed=1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        count = count_short_closed_trails(g, 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert count == 46_032 and calls == []
    assert peak <= 2 << 20
    # the enumerator refuses past MAX_TRAILS for counts as for families
    monkeypatch.setattr(trails, "MAX_TRAILS", 100)
    with pytest.raises(GuardError, match="closed 8-trails exceed the limit of 100"):
        count_short_closed_trails(gen_random_bipartite(GenParams(12, 12, 0.4, seed=1)), 4)


def test_dfs_cap_is_a_prefix():
    # the whole family, for every i, on orientations and on digraphs
    # with anti-parallel arcs; a family is never cut to a prefix
    g = gen_random_bipartite(GenParams(20, 16, 0.35, seed=3))
    d = orient_randomly(g, 3)
    full = build_trail_hypergraph(d, 2)
    assert full.n_hyperedges == 372
    arcs = arc_tuples(d)
    anti = Digraph(d.n, arcs + tuple((h, t) for (t, h) in arcs[:10]))
    for digraph, n in ((d, 57), (anti, 87)):
        full = build_trail_hypergraph(digraph, 1)
        assert full.n_hyperedges == n


def test_count_short_guard():
    with pytest.raises(GuardError):
        count_short_closed_trails(complete_bipartite_graph(40, 40), 4)


def test_trails_text_round_trip():
    d = orient_randomly(complete_bipartite_graph(3, 3), 0)
    h = build_trail_hypergraph(d, 1)
    buf = io.StringIO()
    trails_to_text(h, buf)
    buf.seek(0)
    assert tuple(trails_from_text(buf)) == hypergraph_trails(h)


def _reference_text(rows: TrailHypergraph) -> str:
    """trails_to_text by one ClosedTrail per row."""
    return "".join(" ".join(f"{t}>{h}" for (t, h) in trail.arcs) + "\n"
                   for trail in hypergraph_trails(rows))


def _text(rows: TrailHypergraph) -> str:
    buf = io.StringIO()
    trails_to_text(rows, buf)
    return buf.getvalue()


def test_trails_text_matches_the_reference(monkeypatch):
    # the chunked row writer against one ClosedTrail per row: whole
    # families, mirrored families and matchings at i = 1 and 2, with
    # chunks of 7 rows so that most families span several, and the
    # 32-bit rows of a digraph past 65,536 arcs
    monkeypatch.setattr(trails, "_ROTATE_CHUNK", 7)
    written = 0
    for d in _identity_digraphs(23) + [_star_plus_k34((1 << 16) + 1)[0]]:
        for i in (1, 2):
            h = build_trail_hypergraph(d, i)
            whole = TrailHypergraph(h.tail, h.head, h.rows.copy())
            m = find_matching(h, 4)
            for rows in (whole, m.chosen):
                text = _text(rows)
                assert text == _reference_text(rows)
                assert text.count("\n") == rows.n_hyperedges
                written += rows.n_hyperedges
            whole.mirror()
            assert _text(whole) == _reference_text(whole)
    assert written > 7 * 10
    assert _text(TrailHypergraph(np.zeros(0, np.int32), np.zeros(0, np.int32),
                                 np.zeros((0, 2), np.uint16))) == ""


@pytest.mark.parametrize("arcs, row, message", [
    pytest.param([(0, 1)], [], "at least 2 arcs", id="no-arc"),
    pytest.param([(0, 1), (2, 3)], [0, 1], "trail 0 has no arc between",
                 id="not-chained"),
    pytest.param([(0, 1), (1, 0)], [0, 0], "trail 0 ", id="repeated-arc"),
    pytest.param([(0, 2), (1, 3), (2, 1), (3, 0)], [1, 0], "trail 0 ",
                 id="not-least-first")])
def test_trails_text_refuses_what_is_no_canonical_trail(arcs, row, message):
    # the checks ClosedTrail made, on one stored row over a sorted table
    # of its own arcs: no arc, two stored arcs that no arc of the table
    # joins, the trail 0>1 1>0 0>1 1>0, and the 4-cycle 1>3 3>0 0>2 2>1
    ends = np.array(arcs)
    bad = TrailHypergraph(ends[:, 0], ends[:, 1], np.array([row], dtype=np.int64))
    with pytest.raises(InternalConsistencyError, match=message):
        trails_to_text(bad, io.StringIO())


def test_trails_text_names_the_bad_row(monkeypatch):
    # a row that is not in canonical rotation, in a later chunk, is
    # named by its position in the family
    monkeypatch.setattr(trails, "_ROTATE_CHUNK", 2)
    d = orient_randomly(gen_random_bipartite(GenParams(8, 8, 0.7, seed=1)), 1)
    h = build_trail_hypergraph(d, 1)
    assert h.n_hyperedges > 6
    rows = h.rows.copy()
    rows[5] = np.roll(rows[5], 1)
    with pytest.raises(InternalConsistencyError, match="trail 5 "):
        trails_to_text(TrailHypergraph(h.tail, h.head, rows), io.StringIO())


@pytest.mark.parametrize("anti_parallel, i, n", [
    pytest.param(False, 1, 24, id="orientation-i1"),
    pytest.param(False, 2, 24, id="orientation-i2"),
    pytest.param(True, 1, 56, id="anti-parallel-i1")])
def test_trail_limit_refuses_before_allocating(monkeypatch, capsys, anti_parallel, i, n):
    d = orient_randomly(gen_random_bipartite(GenParams(40, 3, 0.5, seed=0)), 0)
    if anti_parallel:
        arcs = arc_tuples(d)
        d = Digraph(d.n, arcs + tuple((h, t) for (t, h) in arcs[:10]))
    assert build_trail_hypergraph(d, i).n_hyperedges == n
    monkeypatch.setattr(trails, "MAX_TRAILS", n - 1)
    # the rows are allocated by trails._mapped_rows, and only once the
    # count is known to be within the limit
    allocations = []
    mapped_rows = trails._mapped_rows
    monkeypatch.setattr(trails, "_mapped_rows",
                        lambda *a: allocations.append(a[:2]) or mapped_rows(*a))
    with pytest.raises(GuardError, match=f"closed {2 * i + 2}-trails exceed the limit of {n - 1}"):
        build_trail_hypergraph(d, i)
    assert allocations == []
    # at the limit the family is served, and its rows are allocated
    monkeypatch.setattr(trails, "MAX_TRAILS", n)
    assert build_trail_hypergraph(d, i).n_hyperedges == n
    assert allocations == [(n, i + 1)]
    monkeypatch.setattr(trails, "MAX_TRAILS", n - 1)
    if not anti_parallel:
        assert main(["estimate", "--n1", "40", "--n2", "3", "--p", "0.5",
                     "--i", str(i)]) == 2
        assert "exceed the limit" in capsys.readouterr().err


def test_exclusion_matches_the_reference():
    # the mirror matching against reference_greedy over ClosedTrails, at
    # i = 1 and i = 2, on orientations and on digraphs with anti-parallel
    # arcs: the reverses of a matching are rows of the reversed digraph's
    # family, enumerated on its own (reference_index finds each), and
    # none is matched again
    checked = 0
    for d in _identity_digraphs(37):
        for i in (1, 2):
            h = build_trail_hypergraph(d, i)
            rev = build_trail_hypergraph(d.reverse(), i)
            m = find_matching(h, 11)
            reverses = [t.reverse() for t in matched(m)]
            rows = [reference_index(rev, t) for t in reverses]
            assert None not in rows and len(set(rows)) == m.size
            mm = find_disjoint_mirror_matching(h, m, 12)
            assert matched(mm) == reference_greedy(hypergraph_trails(rev), 12, reverses)
            assert not set(rows) & {reference_index(rev, t) for t in matched(mm)}
            checked += m.size
    assert checked > 0


def test_mirror_matching_refuses_a_mirrored_family():
    # the mirror matching mirrors the family the matching was drawn
    # from; a family mirrored already, by the caller or by an earlier
    # mirror matching, the reversed digraph's own family, or another
    # enumeration of the same digraph (which shares its arc arrays and
    # still holds the trails of m) is refused
    d = orient_randomly(complete_bipartite_graph(3, 4), 0)
    h = build_trail_hypergraph(d, 1)
    m = find_matching(h, 0)
    h.mirror()
    with pytest.raises(ValidationError, match="family the matching was drawn from"):
        find_disjoint_mirror_matching(h, m, 1)
    h = build_trail_hypergraph(d, 1)
    m = find_matching(h, 0)
    with pytest.raises(ValidationError, match="family the matching was drawn from"):
        find_disjoint_mirror_matching(build_trail_hypergraph(d.reverse(), 1), m, 1)
    again = build_trail_hypergraph(d, 1)
    assert again.tail is h.tail and again.n_hyperedges > h.n_hyperedges
    with pytest.raises(ValidationError, match="family the matching was drawn from"):
        find_disjoint_mirror_matching(again, m, 1)
    # the report does not keep its family alive
    g = gen_random_bipartite(GenParams(30, 30, 0.3, seed=0))
    gone = find_matching(build_trail_hypergraph(orient_randomly(g, 0), 1), 0)
    assert gone.family() is None and gone.size > 0
    with pytest.raises(ValidationError, match="family the matching was drawn from"):
        find_disjoint_mirror_matching(build_trail_hypergraph(orient_randomly(g, 0), 1),
                                      gone, 1)
    assert find_disjoint_mirror_matching(h, m, 1).excluded == m.size > 0
    with pytest.raises(ValidationError, match="family the matching was drawn from"):
        find_disjoint_mirror_matching(h, m, 1)

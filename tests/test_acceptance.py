"""End-to-end acceptance checks with stated tolerances.

Each check prints one summary line (run pytest with -s to see them all)
and then asserts. Two checks test statements that the theory makes only
asymptotically, so they assert what holds at the size they fix:

* check 5: at n = 80 the per-arc trail-hypergraph degree spreads by
  about 29% of its mean, so a 20% band holds only about half the arcs.
  The check compares the band fraction and the mean degree with an
  exact finite-size model of the degree (conftest.arc_degree_model),
  computed independently of the package.
* check 7: at n1 = 1e5 stray X-vertices of degree >= 3 (above the
  threshold) or of degree 2 (below it) turn up on most seeds, so the
  check asks for the exact genus of each reduced instance rather than
  a structurally clean reduction.

The README's known-limitations section carries the measured numbers.
"""

import random
import time

from bigenus.bigraph import (GenParams, Graph, complete_bipartite_graph,
                             complete_graph, cycle_graph,
                             gen_random_bipartite, orient_randomly, path_graph)
from bigenus.blossom import assemble_rotation, find_blossoms, make_blossom_free
from bigenus.embedding import genus_of_embedding, trace_faces
from bigenus.errors import GuardError
from bigenus.estimator import (PipelineConfig, estimate_genus, psi,
                               reduce_small_part, small_p_asymptote_check)
from bigenus.oracle import exact_genus, genus_formula_reference, small_part_exact_genus
from bigenus.trails import (build_trail_hypergraph, check_matching_conditions,
                            count_short_closed_trails, find_matching,
                            theoretical_delta)

from conftest import (ClosedTrail, arc_degree_model, brute_short_trail_total,
                      component_euler_stats, dart_family, edge_tuples, family_trails,
                      pipeline_family, rand_bipartite, rand_graph, random_rotation)


def _report(line, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"{line} -> {verdict}")
    return ok


def _random_tree(rng, n):
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def test_01_oracle_ground_truth():
    """Exact genus: 0 for trees and cycles, 1 for K33/K5/K44, in time."""
    rng = random.Random(71)
    tree_ok = all(exact_genus(_random_tree(rng, rng.randint(2, 9))) == 0
                  for _ in range(10))
    tree_ok &= all(exact_genus(path_graph(n)) == 0 for n in range(2, 8))
    cycle_ok = all(exact_genus(cycle_graph(n)) == 0 for n in range(3, 9))
    times = {}
    values = {}
    for name, g, limit in (("K33", complete_bipartite_graph(3, 3), 1.0),
                           ("K5", complete_graph(5), 1.0),
                           ("K44", complete_bipartite_graph(4, 4), 120.0)):
        t0 = time.perf_counter()
        values[name] = exact_genus(g)
        times[name] = time.perf_counter() - t0
        values[name + "_in_time"] = times[name] < limit
    formula_ok = values["K5"] == genus_formula_reference("complete", 5)
    ok = (tree_ok and cycle_ok and formula_ok
          and values["K33"] == values["K5"] == values["K44"] == 1
          and values["K33_in_time"] and values["K5_in_time"]
          and values["K44_in_time"])
    line = (f"check 1 oracle ground truth: trees/cycles 0, "
            f"K33={values['K33']} ({times['K33']:.2f}s) "
            f"K5={values['K5']} ({times['K5']:.2f}s) "
            f"K44={values['K44']} ({times['K44']:.2f}s)")
    assert _report(line, ok), line


def test_02_face_tracing_invariants():
    """1000 random embeddings: arc partition, even characteristic."""
    rng = random.Random(72)
    violations = 0
    for _ in range(1000):
        g = rand_graph(rng, max_edges=12)
        rot = random_rotation(g, rng)
        fs = trace_faces(rot)
        arcs = [a for face in fs.faces for a in face]
        expect = ({(u, v) for (u, v) in edge_tuples(g)}
                  | {(v, u) for (u, v) in edge_tuples(g)})
        if len(arcs) != 2 * g.n_edges or set(arcs) != expect:
            violations += 1
            continue
        if genus_of_embedding(rot) < 0:
            violations += 1
            continue
        for (n, e, f) in component_euler_stats(g, rot):
            if (n - e + f) % 2:
                violations += 1
                break
    line = f"check 2 face tracing invariants: violations={violations}/1000"
    assert _report(line, violations == 0), line


def test_03_trail_realization():
    """200 pipeline runs: every surviving trail is a traced face."""
    combos = [(n, p) for n in (20, 40, 80) for p in (0.3, 0.5)]
    violations = 0
    runs = 0
    for k in range(200):
        n, p = combos[k % len(combos)]
        g, fam = pipeline_family(n, n, p, k)
        surviving, _removed = make_blossom_free(fam)
        rot = assemble_rotation(surviving)
        faces = frozenset(trace_faces(rot).faces)
        runs += 1
        if any(t.arcs not in faces for t in family_trails(surviving)):
            violations += 1
    line = f"check 3 trail realization: violations={violations}/{runs} runs"
    assert _report(line, violations == 0 and runs == 200), line


def test_04_genus_band():
    """G(80,80,0.5): lower >= 680 always, upper <= 1000 on >= 8/10."""
    t0 = time.perf_counter()
    lows, ups = [], []
    for seed in range(10):
        g = gen_random_bipartite(GenParams(80, 80, 0.5, seed=seed))
        est = estimate_genus(g, 1, PipelineConfig(seed=seed, p=0.5))
        lows.append(est.lower)
        ups.append(est.upper)
    elapsed = time.perf_counter() - t0
    low_ok = all(lo >= 680 for lo in lows)
    up_hits = sum(1 for u in ups if u is not None and u <= 1000)
    ok = low_ok and up_hits >= 8 and elapsed < 600
    line = (f"check 4 genus band: lower min={min(lows)} (>=680 all: {low_ok}), "
            f"upper<=1000 on {up_hits}/10, {elapsed:.0f}s")
    assert _report(line, ok), line


def test_05_matching_quality():
    """Coverage >= 0.75; arc degrees follow the finite-size trail model.

    The degree condition of the nibble asks for (1 +- o(1)) Delta, which
    n = 80 cannot show: a 90%-within-20% band first holds near n = 410.
    So the 10-seed mean fraction of arcs within 20% of
    theoretical_delta must sit within 0.03 (about 5 standard errors) of
    the model's exact probability, and the mean degree within 5% of the
    model's (n1-1)(n2-1)(p/2)^3.
    """
    n, p, band = 80, 0.5, 0.2
    delta_scale = theoretical_delta(n, n, p, 1)
    frac_model, mean_model = arc_degree_model(
        n, n, p, (1.0 - band) * delta_scale, (1.0 + band) * delta_scale)
    covs, fracs, means = [], [], []
    for seed in range(10):
        g = gen_random_bipartite(GenParams(n, n, p, seed=seed))
        d = orient_randomly(g, seed)
        h = build_trail_hypergraph(d, 1)
        rep = check_matching_conditions(h, band, delta_scale)
        fracs.append(rep.degree_fraction_in_band)
        means.append(h.degree_array().sum() / h.n_arcs)
        covs.append(find_matching(h, seed).coverage)
    mean_cov = sum(covs) / len(covs)
    mean_frac = sum(fracs) / len(fracs)
    mean_deg = sum(means) / len(means)
    ok = (mean_cov >= 0.75 and abs(mean_frac - frac_model) <= 0.03
          and abs(mean_deg / mean_model - 1.0) <= 0.05)
    line = (f"check 5 matching quality: coverage mean={mean_cov:.4f} (>=0.75), "
            f"degree band mean={mean_frac:.4f} (model {frac_model:.4f} +-0.03), "
            f"mean degree={mean_deg:.2f} (model {mean_model:.2f} +-5%)")
    assert _report(line, ok), line


def test_06_psi_formulas():
    """psi closed forms to 12 significant digits plus the asymptote."""
    worst = 0.0
    for k in range(1, 21):
        p = k / 21
        expect = p * p / 3
        worst = max(worst, abs(psi(p, 3) - expect) / expect)
    exact_ok = psi(0.5, 4) == 0.1875
    chk = small_p_asymptote_check(10 ** 6, 6, 0.01)
    asym_ok = abs(chk.ratio - 1) < 0.05
    ok = worst < 1e-12 and exact_ok and asym_ok
    line = (f"check 6 psi formulas: worst rel err={worst:.2e}, "
            f"psi(0.5,4)=0.1875: {exact_ok}, asymptote ratio={chk.ratio:.4f}")
    assert _report(line, ok), line


def test_07_small_part_regimes():
    """n1=1e5, n2=5: the exact genus separates the two regimes on 9/10 seeds.

    Above the threshold (p = n1^-0.4) a seed counts when the reduction
    leaves a complete Y-graph on all 5 vertices and the orientable
    genus is 1; below it (p = n1^-0.6) when the genus is (0, 0). The
    values come from small_part_exact_genus on every seed, kept
    X-vertices or not; a non-orientable value, where one is returned,
    must match too, and a GuardError is a miss.
    """
    n1, n2 = 10 ** 5, 5
    t0 = time.perf_counter()

    def reduced_genus(p, seed):
        r = reduce_small_part(gen_random_bipartite(GenParams(n1, n2, p, seed=seed)))
        try:
            return r, small_part_exact_genus(r)
        except GuardError:
            return r, None

    hits_b = kept_b = 0
    for seed in range(10):
        r, got = reduced_genus(n1 ** -0.4, seed)
        kept_b += len(r.kept_x)
        if (got is not None and len(r.y_support) == 5 and r.is_complete_on_support
                and got[0] == 1 and got[1] in (1, None)):
            hits_b += 1
    hits_c = 0
    for seed in range(10):
        _r, got = reduced_genus(n1 ** -0.6, seed)
        if got == (0, 0):
            hits_c += 1
    elapsed = time.perf_counter() - t0
    ok = hits_b >= 9 and hits_c >= 9 and elapsed < 120
    line = (f"check 7 small-part regimes: p=n^-0.4 genus 1 on {hits_b}/10 "
            f"({kept_b} kept X in all), p=n^-0.6 genus 0 on {hits_c}/10, "
            f"{elapsed:.0f}s")
    assert _report(line, ok), line


def test_08_short_trail_counter():
    """count_short_closed_trails equals the brute reference exactly."""
    rng = random.Random(78)
    mismatches = 0
    for _ in range(100):
        g = rand_bipartite(rng, max_edges=20)
        for i in (1, 2, 3):
            if count_short_closed_trails(g, i) != brute_short_trail_total(g, i):
                mismatches += 1
    line = f"check 8 short-trail counter: mismatches={mismatches}/300"
    assert _report(line, mismatches == 0), line


def test_09_blossom_machinery():
    """Constructed blossoms classified; removal always leaves none."""
    from bigenus.bigraph import BipartiteGraph

    g = BipartiteGraph(3, 2, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    c1 = ClosedTrail.from_arcs([(0, 4), (4, 1), (1, 3), (3, 0)])
    c2 = ClosedTrail.from_arcs([(0, 3), (3, 2), (2, 4), (4, 0)])
    found = find_blossoms(dart_family(g, [c1, c2]))
    simple_ok = (len(found) == 1 and found[0].simple
                 and len(found[0].passages) == 2)

    k22 = complete_bipartite_graph(2, 2)
    t = ClosedTrail.from_arcs([(0, 2), (2, 1), (1, 3), (3, 0)])
    found = find_blossoms(dart_family(k22, [t, t.reverse()]))
    mirror_ok = (bool(found)
                 and all(len(b.passages) == 2 and not b.simple for b in found))

    rng = random.Random(79)
    dirty = 0
    for _ in range(500):
        a, b = rng.randint(8, 16), rng.randint(8, 16)
        g, fam = pipeline_family(max(a, b), min(a, b),
                                 rng.choice((0.4, 0.6)), rng.randint(0, 10 ** 6))
        surviving, _removed = make_blossom_free(fam)
        if find_blossoms(surviving):
            dirty += 1
    ok = simple_ok and mirror_ok and dirty == 0
    line = (f"check 9 blossom machinery: simple-2 {simple_ok}, "
            f"mirror non-simple {mirror_ok}, dirty families={dirty}/500")
    assert _report(line, ok), line

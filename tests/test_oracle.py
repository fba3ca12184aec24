import io
import random

import pytest

from bigenus import oracle
from bigenus.bigraph import (GenParams, Graph, complete_bipartite_graph, complete_graph,
                             cycle_graph, gen_random_bipartite, path_graph)
from bigenus.embedding import RotationSystem, genus_of_embedding, rotation_to_text
from bigenus.errors import BudgetExceededError, ValidationError
from bigenus.oracle import (SearchBudget, exact_genus, genus_formula_reference,
                            minimum_genus_rotation, pincer_genus, rotation_system_count)

from conftest import brute_min_genus, edge_tuples, rand_graph


def test_trees_and_cycles_planar():
    for n in (2, 4, 7):
        assert exact_genus(path_graph(n)) == 0
    star = Graph(5, [(0, v) for v in range(1, 5)])
    assert exact_genus(star) == 0
    for n in (3, 5, 8):
        assert exact_genus(cycle_graph(n)) == 0


def test_small_complete_families():
    assert exact_genus(complete_graph(4)) == 0
    assert exact_genus(complete_graph(5)) == 1
    assert exact_genus(complete_bipartite_graph(2, 3)) == 0
    assert exact_genus(complete_bipartite_graph(3, 3)) == 1
    assert exact_genus(complete_bipartite_graph(3, 4)) == 1
    assert exact_genus(complete_bipartite_graph(4, 4)) == 1


def test_shortcut_agrees_with_scan():
    for g in (complete_bipartite_graph(3, 3), complete_graph(4),
              complete_bipartite_graph(2, 4), cycle_graph(6)):
        assert exact_genus(g, shortcut=True) == exact_genus(g, shortcut=False)


def test_exact_matches_brute_enumeration():
    rng = random.Random(61)
    checked = 0
    while checked < 12:
        g = rand_graph(rng, max_edges=8)
        if rotation_system_count(g) > 3000:
            continue
        assert exact_genus(g) == brute_min_genus(g)
        checked += 1


def test_rotation_system_counts():
    assert rotation_system_count(complete_bipartite_graph(3, 3)) == 64
    assert rotation_system_count(complete_graph(5)) == 7776
    assert rotation_system_count(complete_graph(6)) == 191102976
    assert rotation_system_count(path_graph(4)) == 1


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        exact_genus(complete_graph(6))
    # an explicit budget admits it (the hill climb settles it quickly)
    g = exact_genus(complete_graph(6), SearchBudget(max_systems=2 * 10 ** 8))
    assert g == 1


def test_system_budget_is_per_component(monkeypatch):
    # four disjoint K_{3,3} have 64 systems each and 64^4 = 16,777,216
    # together, past the default budget, which holds each component
    k33 = list(edge_tuples(complete_bipartite_graph(3, 3)))
    g = Graph(24, [(a + 6 * c, b + 6 * c) for c in range(4) for a, b in k33])
    assert rotation_system_count(g) > SearchBudget().max_systems
    assert exact_genus(g) == 4
    genus, rot = minimum_genus_rotation(g)
    assert genus == genus_of_embedding(rot) == 4

    # a component past the budget is refused before any component is searched
    def searched(sub):
        raise AssertionError("searched a graph past the system budget")

    monkeypatch.setattr(oracle, "_Engine", searched)
    k6 = [(a + 6, b + 6) for a, b in edge_tuples(complete_graph(6))]
    for h in (complete_graph(6), Graph(12, k33 + k6)):
        for search in (exact_genus, minimum_genus_rotation):
            with pytest.raises(BudgetExceededError, match="^191102976 rotation systems"):
                search(h)


def test_timeout_refusal():
    budget = SearchBudget(max_systems=2 * 10 ** 6, max_seconds=0.05)
    with pytest.raises(BudgetExceededError):
        exact_genus(complete_bipartite_graph(4, 4), budget, shortcut=False)


def test_witness_realizes_genus():
    for g in (complete_bipartite_graph(3, 3), complete_graph(5),
              complete_bipartite_graph(3, 4)):
        genus, rot = minimum_genus_rotation(g)
        assert rot.graph is g and rot == RotationSystem(g, rot.order)
        assert genus_of_embedding(rot) == genus


def _witness_text(g, shortcut=True):
    genus, rot = minimum_genus_rotation(g, shortcut=shortcut)
    assert genus_of_embedding(rot) == genus
    buf = io.StringIO()
    rotation_to_text(rot, buf)
    return genus, buf.getvalue()


def test_witness_of_disconnected_graphs_is_frozen():
    # frozen witnesses on graphs with several components and an
    # isolated vertex: the search order, the climb's shuffles and the
    # scan's permutations all show in the cyclic orders
    k33 = list(edge_tuples(complete_bipartite_graph(3, 3)))
    k44 = list(edge_tuples(complete_bipartite_graph(4, 4)))
    g = Graph(11, k33 + [(6, 7), (7, 8), (8, 9), (6, 9)])  # K33 + C4 + isolated vertex
    assert _witness_text(g) == (1, "0: 0-3 0-4 0-5\n1: 1-3 1-4 1-5\n2: 2-3 2-4 2-5\n"
                                   "3: 0-3 1-3 2-3\n4: 0-4 1-4 2-4\n5: 0-5 1-5 2-5\n"
                                   "6: 6-7 6-9\n7: 6-7 7-8\n8: 7-8 8-9\n9: 6-9 8-9\n10:\n")
    g = Graph(11, k44 + [(8, 9), (9, 10), (8, 10)])  # K44 + K3
    assert _witness_text(g) == (1, "0: 0-4 0-6 0-7 0-5\n1: 1-7 1-6 1-5 1-4\n"
                                   "2: 2-7 2-6 2-4 2-5\n3: 3-4 3-5 3-6 3-7\n"
                                   "4: 0-4 3-4 1-4 2-4\n5: 3-5 0-5 2-5 1-5\n"
                                   "6: 1-6 0-6 2-6 3-6\n7: 0-7 1-7 3-7 2-7\n"
                                   "8: 8-9 8-10\n9: 8-9 9-10\n10: 8-10 9-10\n")
    g = gen_random_bipartite(GenParams(6, 5, 0.55, seed=17))  # vertex 3 is isolated
    assert g.degree(3) == 0
    assert _witness_text(g) == (1, "0: 0-9 0-10 0-8 0-6\n1: 1-6 1-7\n2: 2-9 2-10 2-8\n"
                                   "3:\n4: 4-8 4-10 4-9 4-7\n5: 5-10 5-9 5-8 5-6\n"
                                   "6: 1-6 0-6 5-6\n7: 4-7 1-7\n8: 2-8 0-8 4-8 5-8\n"
                                   "9: 2-9 5-9 0-9 4-9\n10: 5-10 2-10 4-10 0-10\n")
    assert _witness_text(g, shortcut=False) == (
        1, "0: 0-6 0-10 0-8 0-9\n1: 1-6 1-7\n2: 2-8 2-10 2-9\n3:\n"
           "4: 4-7 4-10 4-8 4-9\n5: 5-6 5-9 5-8 5-10\n6: 0-6 5-6 1-6\n7: 1-7 4-7\n"
           "8: 0-8 5-8 4-8 2-8\n9: 0-9 2-9 4-9 5-9\n10: 0-10 2-10 4-10 5-10\n")


def test_exact_genus_builds_no_witness(monkeypatch):
    # only minimum_genus_rotation turns the orders found into a rotation
    def refuse(g, order):
        raise AssertionError("exact_genus built a witness rotation")

    monkeypatch.setattr(oracle, "RotationSystem", refuse)
    assert exact_genus(complete_bipartite_graph(3, 3)) == 1
    with pytest.raises(AssertionError, match="built a witness"):
        minimum_genus_rotation(complete_bipartite_graph(3, 3))


def test_disconnected_genus():
    edges = list(edge_tuples(complete_bipartite_graph(3, 3)))
    edges += [(6, 7), (7, 8), (8, 9), (6, 9)]
    g = Graph(11, edges)  # K33 + C4 + isolated vertex
    assert exact_genus(g) == 1


def test_heuristic_upper_bounds():
    # the hill climb of pincer_genus bounds the exact genus from above
    assert pincer_genus(complete_bipartite_graph(3, 3)).upper == 1
    rng = random.Random(62)
    for _ in range(8):
        g = rand_graph(rng, max_edges=9)
        if rotation_system_count(g) > 5000:
            continue
        assert pincer_genus(g).upper >= exact_genus(g)


def test_pincer():
    res = pincer_genus(complete_graph(6))
    assert (res.lower, res.upper, res.exact) == (1, 1, True)
    res = pincer_genus(complete_bipartite_graph(4, 4))
    assert (res.lower, res.upper, res.exact) == (1, 1, True)
    res = pincer_genus(cycle_graph(4))
    assert (res.lower, res.upper, res.exact) == (0, 0, True)
    # K_{4,4} + K_3: each component meets its own Euler bound, which a
    # whole-graph face length of 3 would put below the genus
    k44 = complete_bipartite_graph(4, 4)
    g = Graph(11, list(edge_tuples(k44)) + [(8, 9), (9, 10), (8, 10)])
    res = pincer_genus(g)
    assert (res.lower, res.upper, res.exact) == (1, 1, True)
    assert res.upper == exact_genus(g)
    # K7 embeds on the torus but the climb need not find it
    res = pincer_genus(complete_graph(7))
    assert res.lower == 1
    assert res.upper >= res.lower
    assert res.exact == (res.upper == res.lower)


def test_formula_reference():
    complete = [genus_formula_reference("complete", n) for n in range(1, 13)]
    assert complete == [0, 0, 0, 0, 1, 1, 1, 2, 3, 4, 5, 6]
    assert genus_formula_reference("complete_bipartite", 3, 3) == 1
    assert genus_formula_reference("complete_bipartite", 4, 4) == 1
    assert genus_formula_reference("complete_bipartite", 5, 5) == 3
    assert genus_formula_reference("complete_bipartite", 2, 9) == 0
    # stays exact far beyond float precision
    n = 10 ** 8
    assert genus_formula_reference("complete", n) == ((n - 3) * (n - 4) + 11) // 12
    with pytest.raises(ValidationError):
        genus_formula_reference("petersen")

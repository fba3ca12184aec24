"""The public surface that other code relies on.

perfbench/tracing.py wraps a fixed list of package functions by
(module, function) name, so a rename or deletion there would only
surface in a traced benchmark run; these checks catch it here.
"""

import ast
import importlib
import importlib.util
import io
import os
import pkgutil
from collections import Counter

import numpy as np
import pytest

import bigenus
from bigenus import cli
from bigenus.errors import GuardError, ValidationError

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
ESTIMATOR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "bigenus", "estimator.py")


def test_all_names_resolve():
    missing = [name for name in bigenus.__all__ if not hasattr(bigenus, name)]
    assert missing == []


def test_no_module_defines_closed_trail():
    # trails exist in the package only as rows of arc ids and dart ids;
    # they leave it as the text trails_to_text writes from the rows
    modules = [info.name for info in pkgutil.iter_modules(bigenus.__path__)]
    assert "trails" in modules and "blossom" in modules
    for name in modules:
        assert not hasattr(importlib.import_module(f"bigenus.{name}"), "ClosedTrail"), name
    assert "ClosedTrail" not in bigenus.__all__


def test_arrays_are_the_interface():
    # edges, arcs, rotations and faces are read off their arrays and
    # attributes; no tuple view or one-line restatement of them is left
    from bigenus.blossom import (Blossom, DartFamily, assemble_rotation, find_blossoms,
                                 make_blossom_free)

    # a graph, rotation and face set keep their defining arrays alone:
    # no neighbour-tuple cache, stored successors or face-start tails
    g = bigenus.complete_bipartite_graph(2, 2)
    rot = bigenus.sorted_rotation(g)
    faces = bigenus.trace_faces(rot)
    removed = [(bigenus.Graph, ("edge_list", "edge_set", "_adj")), (g, ("_adj",)),
               (bigenus.BipartiteGraph, ("edge_list", "edge_set", "x_vertices", "y_vertices")),
               (bigenus.Digraph, ("arc_list", "arc_set", "is_orientation")),
               (bigenus.RotationSystem, ("at", "successor", "darts", "from_darts")),
               (rot, ("darts", "nxt")),
               (bigenus.FaceSet, ("face_tails", "face_arcs", "_tails", "_orbits")),
               (faces, ("_tails", "_orbits")),
               (bigenus.bigraph, ("two_coloring", "_sides")),
               (bigenus.embedding, ("Darts",)),
               (bigenus.estimator, ("_euler_ceil", "_refined_ceil")),
               (Blossom, ("length",)),
               (DartFamily, ("where", "entering", "after", "lengths")),
               (bigenus.oracle._Engine(g), ("heads", "neighbor_orders"))]
    for obj, names in removed:
        assert [name for name in names if hasattr(obj, name)] == [], obj
    assert sorted(vars(g)) == ["first", "n", "n1", "n2", "nbrs", "u", "v"]
    assert sorted(vars(rot)) == ["graph", "index", "seq"]
    assert sorted(vars(faces)) == ["graph", "index", "lengths", "orbit"]
    assert not hasattr(bigenus, "BlossomReport")
    assert not hasattr(bigenus.blossom, "BlossomReport")
    assert "BlossomReport" not in bigenus.__all__
    # a 4-cycle of K_{2,2} and its reverse: a non-simple blossom at each
    # vertex, and none once the reverse is left out
    trail = np.array([[0, 2], [2, 1], [1, 3], [3, 0]])
    both = np.concatenate((trail, trail[::-1, ::-1]))
    g = bigenus.complete_bipartite_graph(2, 2)
    found = find_blossoms(DartFamily._of_arcs(g, both[:, 0], both[:, 1], np.array([4, 4])))
    assert type(found) is tuple and len(found) == 4
    assert all(type(b) is Blossom and not b.simple for b in found)
    assert find_blossoms(DartFamily._of_arcs(g, trail[:, 0], trail[:, 1], np.array([4]))) == ()
    # a family is its darts and offsets, before and after every stage
    fam = DartFamily._of_arcs(g, both[:, 0], both[:, 1], np.array([4, 4]))
    kept, dropped = make_blossom_free(fam)
    find_blossoms(fam)
    assemble_rotation(kept)
    for f in (fam, kept, dropped):
        assert sorted(vars(f)) == ["darts", "graph", "index", "offsets"]


def test_estimator_does_not_import_the_oracle():
    # the oracle imports the estimator; an import back, even inside a
    # function, would make the two modules a cycle again
    with open(ESTIMATOR, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "oracle" for name in names), node.lineno
    assert bigenus.small_part_exact_genus is bigenus.oracle.small_part_exact_genus


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _cli(*argv):
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def _empty_grid(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"n1 = ,\nn2 = 4\np = 0.5\nout = {tmp_path / 'e.csv'}\n")
    return _cli("experiment", "--config", str(cfg))


_K22 = bigenus.complete_bipartite_graph(2, 2)
_C4 = bigenus.cycle_graph(4)
REFUSALS = {
    "budget-systems": (lambda t: bigenus.SearchBudget(max_systems=0), "max_systems must be"),
    "budget-seconds": (lambda t: bigenus.SearchBudget(max_seconds=0), "max_seconds must be"),
    "budget-restarts": (lambda t: bigenus.SearchBudget(restarts=0), "restarts must be"),
    "standard-p": (lambda t: bigenus.standard_graph(4, 2, 1.5), "p must lie in [0,1]"),
    "standard-n1": (lambda t: bigenus.standard_graph(0, 2, 0.5), "need n1 >= 1"),
    "class-partition": (lambda t: bigenus.bigraph.degree_class_partition(
        bigenus.BipartiteGraph(1, 21, [])), "needs n2 <= 20, got 21"),
    "cycle": (lambda t: bigenus.cycle_graph(2), "at least 3 vertices"),
    "part-size": (lambda t: bigenus.BipartiteGraph(-1, 2, []), "part sizes must be"),
    "header": (lambda t: bigenus.read_bipartite(io.StringIO("digraph 3\n")),
               "line 1: expected header 'bipartite n1 n2', got 'digraph 3'"),
    "formula-complete": (lambda t: bigenus.genus_formula_reference("complete", -1),
                         "vertex count must be"),
    "formula-bipartite": (lambda t: bigenus.genus_formula_reference(
        "complete_bipartite", 2, -1), "part sizes must be"),
    "refined-plain": (lambda t: bigenus.refined_lower_bound(_C4, 2), "expects a bipartite"),
    "refined-i0": (lambda t: bigenus.refined_lower_bound(_K22, 0), "i must be >= 1, got 0"),
    "count-plain": (lambda t: bigenus.count_short_closed_trails(_C4, 2),
                    "expects a bipartite"),
    "count-i0": (lambda t: bigenus.count_short_closed_trails(_K22, 0), "i must be >= 1"),
    "hypergraph-i0": (lambda t: bigenus.build_trail_hypergraph(
        bigenus.orient_randomly(_K22, 0), 0), "i must be >= 1, got 0"),
    "estimate-i0": (lambda t: bigenus.estimate_genus(_K22, 0), "i must be >= 1, got 0"),
    "nexp-n1": (lambda t: cli.parse_p("nexp:-1", 0), "nexp: probability needs n1 >= 1"),
    "predict": (lambda t: _cli("predict", "--n1", "5"), "predict needs --n1 --n2 --p"),
    "generate": (lambda t: _cli("generate"), "need either --in FILE or all of"),
    "oracle": (lambda t: _cli("oracle"), "need --in, --complete, or --complete-bipartite"),
    "empty-grid": (_empty_grid, "empty experiment grid"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case, tmp_path):
    # each refusal names what it refuses, as a GuardError past a size
    # guard and a ValidationError otherwise
    call, message = REFUSALS[case]
    error = GuardError if case == "class-partition" else ValidationError
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert message in str(exc.value)
    assert not (tmp_path / "e.csv").exists()


def test_traced_functions_exist():
    tracing = _load_tracing()
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        fn = getattr(importlib.import_module(f"bigenus.{module}"), name, None)
        assert callable(fn), f"bigenus.{module}.{name}"


def test_estimate_calls_every_traced_layer_once():
    # perfbench's per-layer metrics are self times and counts of these
    # spans, so a stage that an estimate skipped, or reached through an
    # unwrapped internal path, would read 0 without failing anything.
    # The tracer wraps every bigenus module attribute bound to a traced
    # function; the estimate must call each stage once itself. The
    # nested calls are both find_matching calls inside
    # find_disjoint_mirror_matching, so trails.match_yield counts both
    # matchings.
    tracing = _load_tracing()
    g = bigenus.gen_random_bipartite(bigenus.GenParams(30, 30, 0.3, seed=0))
    stages = ("bigraph.orient_randomly", "trails.build_trail_hypergraph",
              "trails.find_disjoint_mirror_matching",
              "blossom.make_blossom_free", "blossom.assemble_rotation",
              "embedding.trace_faces", "embedding.genus_from_faces")
    tracer = tracing.Tracer()
    with tracer.active("contract"):
        est = bigenus.estimate_genus(g, 1)
    assert est.blossoms_removed > 0
    (root,) = [s for s in tracer.spans if s["name"] == "estimator.estimate_genus"]
    direct = Counter(s["name"] for s in tracer.spans if s["parent"] == root["id"])
    assert {name: direct[name] for name in stages} == dict.fromkeys(stages, 1)
    assert direct["trails.find_matching"] == 0
    (mirror,) = [s for s in tracer.spans
                 if s["name"] == "trails.find_disjoint_mirror_matching"]
    nested = [s["name"] for s in tracer.spans if s["parent"] == mirror["id"]]
    assert nested == ["trails.find_matching"] * 2
    assert Counter(s["name"] for s in tracer.spans)["trails.find_matching"] == 2

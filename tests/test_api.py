"""The public surface that other code relies on.

perfbench/tracing.py wraps a fixed list of package functions by
(module, function) name, so a rename or deletion there would only
surface in a traced benchmark run; these checks catch it here.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
from collections import Counter

import numpy as np

import bigenus

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
    from bigenus.blossom import Blossom, DartFamily, find_blossoms

    removed = {bigenus.Graph: ("edge_list", "edge_set"),
               bigenus.BipartiteGraph: ("edge_list", "edge_set", "x_vertices", "y_vertices"),
               bigenus.Digraph: ("arc_list", "arc_set"),
               bigenus.RotationSystem: ("at", "successor"),
               bigenus.FaceSet: ("face_tails", "face_arcs"),
               Blossom: ("length",)}
    for cls, names in removed.items():
        assert [name for name in names if hasattr(cls, name)] == [], cls.__name__
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
    # function; the estimate must call each stage once itself. The one
    # nested call is find_matching inside find_disjoint_mirror_matching,
    # so trails.match_yield counts both matchings.
    tracing = _load_tracing()
    g = bigenus.gen_random_bipartite(bigenus.GenParams(30, 30, 0.3, seed=0))
    stages = ("bigraph.orient_randomly", "trails.build_trail_hypergraph",
              "trails.find_matching", "trails.find_disjoint_mirror_matching",
              "blossom.make_blossom_free", "blossom.assemble_rotation",
              "embedding.trace_faces", "embedding.genus_from_faces")
    tracer = tracing.Tracer()
    with tracer.active("contract"):
        est = bigenus.estimate_genus(g, 1)
    assert est.blossoms_removed > 0
    (root,) = [s for s in tracer.spans if s["name"] == "estimator.estimate_genus"]
    direct = Counter(s["name"] for s in tracer.spans if s["parent"] == root["id"])
    assert {name: direct[name] for name in stages} == dict.fromkeys(stages, 1)
    (mirror,) = [s for s in tracer.spans
                 if s["name"] == "trails.find_disjoint_mirror_matching"]
    nested = [s["name"] for s in tracer.spans if s["parent"] == mirror["id"]]
    assert nested == ["trails.find_matching"]
    assert Counter(s["name"] for s in tracer.spans)["trails.find_matching"] == 2

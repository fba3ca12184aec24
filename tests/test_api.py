"""The public surface that other code relies on.

perfbench/tracing.py wraps a fixed list of package functions by
(module, function) name, so a rename or deletion there would only
surface in a traced benchmark run; these checks catch it here.
"""

import importlib
import importlib.util
import os

import bigenus

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def test_all_names_resolve():
    missing = [name for name in bigenus.__all__ if not hasattr(bigenus, name)]
    assert missing == []


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        fn = getattr(importlib.import_module(f"bigenus.{module}"), name, None)
        assert callable(fn), f"bigenus.{module}.{name}"

"""Pipeline outputs on a fixed grid, frozen in tests/data/golden_pipeline.json.

The grid covers i = 1 on dense G(n, n, 0.5), i = 2 on sparse
G(60, 50, 0.08) and a small-part graph. A
refactor of the pipeline must reproduce every record exactly; a change
meant to move them regenerates the file and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_pipeline.py
"""

import json
import os
import sys

import pytest

from bigenus.bigraph import GenParams, gen_random_bipartite
from bigenus.estimator import PipelineConfig, estimate_genus

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_pipeline.json")

GRID = ([(n, n, 0.5, seed, 1) for n in (24, 40, 80) for seed in range(3)]
        + [(60, 50, 0.08, seed, 2) for seed in range(2)]
        + [(3000, 5, 3000 ** -0.4, 0, 1)])

FIELDS = ("lower", "upper", "coverage", "mirror_coverage", "blossoms_removed",
          "family_size")


def case_key(n1, n2, p, seed, i) -> str:
    return f"G({n1},{n2},{p!r}) seed={seed} i={i}"


def pipeline_record(n1, n2, p, seed, i) -> dict:
    g = gen_random_bipartite(GenParams(n1, n2, p, seed=seed))
    est = estimate_genus(g, i, PipelineConfig(seed=seed, p=p))
    return {f: getattr(est, f) for f in FIELDS}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", GRID, ids=lambda c: case_key(*c))
def test_pipeline_matches_golden(case, golden):
    assert pipeline_record(*case) == golden[case_key(*case)]


if __name__ == "__main__":
    records = {case_key(*c): pipeline_record(*c) for c in GRID}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(records)} records to {GOLDEN}\n")

"""Per-layer microbenchmarks of the face flood fill (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Both cases read one fixed trace: seed 202, n=200, trial 0, at the default
grid (nu=78), the tangents workload's first trial.
"""

import pytest

from lemnilab.ensemble import sample_rational_pair
from lemnilab.experiments import trial_stream
from lemnilab.topology import _build_faces, nesting_tree
from lemnilab.tracer import trace


@pytest.fixture(scope="module")
def traced_n200():
    rp = sample_rational_pair(200, trial_stream(202, 200, 0))
    return rp, trace(rp)


def test_build_faces(benchmark, traced_n200):
    _, t = traced_n200
    _, _, n_faces = benchmark(_build_faces, t)
    assert n_faces == len(t.components) + 1


def test_nesting_tree(benchmark, traced_n200):
    rp, t = traced_n200
    tree = benchmark(nesting_tree, rp, t)
    assert tree.n_faces == len(t.components) + 1

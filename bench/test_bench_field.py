"""Per-layer microbenchmarks of the field evaluators (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each case evaluates one fixed-seed field on the jittered grid that
`tracer.trace` would use at its degree.
"""

import pytest

from lemnilab.ensemble import sample_rational_pair, sample_real_kostlan
from lemnilab.experiments import trial_stream
from lemnilab.field import eval_f_many, eval_real_many
from lemnilab.icogrid import icosphere
from lemnilab.tracer import GRID_JITTER, default_options


def _grid(n):
    return GRID_JITTER.apply(icosphere(default_options(n).grid_resolution).verts)


@pytest.fixture(scope="module")
def real_n50():
    # kostlan-compare: n=50 on the nu=64 grid, seed 404, trial 0
    return sample_real_kostlan(50, trial_stream(404, 50, 0)), _grid(50)


@pytest.fixture(scope="module")
def pair_n200():
    # tangents: n=200 on the nu=78 grid, seed 202, trial 0
    return sample_rational_pair(200, trial_stream(202, 200, 0)), _grid(200)


def test_eval_real_many_values(benchmark, real_n50):
    poly, pts = real_n50
    benchmark(eval_real_many, poly, pts)


def test_eval_real_many_grad(benchmark, real_n50):
    poly, pts = real_n50
    benchmark(eval_real_many, poly, pts, with_grad=True)


def test_eval_f_many(benchmark, pair_n200):
    rp, pts = pair_n200
    benchmark(eval_f_many, rp, pts)

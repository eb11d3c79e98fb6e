"""Per-layer microbenchmarks of the field evaluators (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each case evaluates one fixed-seed field on the grid that `tracer.trace`
would use at its degree (`icosphere`'s vertices, already rotated).  The
kept-plan cases time the grid pass of every trace after the first at its
default grid, on the chart data `tracer._kept_plan` keeps: the pair
products alone, and the real products with the second power table.
"""

import pytest

from lemnilab.ensemble import sample_rational_pair, sample_real_kostlan
from lemnilab.experiments import trial_stream
from lemnilab.field import PairField, RealField, eval_f_many, eval_real_many
from lemnilab.icogrid import icosphere
from lemnilab.tracer import _kept_plan, default_options


def _grid(n):
    return icosphere(default_options(n).grid_resolution).verts


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
    benchmark(eval_real_many, RealField(poly), pts)


def test_eval_real_many_grad(benchmark, real_n50):
    poly, pts = real_n50
    benchmark(eval_real_many, RealField(poly), pts, with_grad=True)


def test_eval_f_many(benchmark, pair_n200):
    rp, pts = pair_n200
    benchmark(eval_f_many, PairField(rp), pts)


@pytest.mark.parametrize("n, seed", [(25, 101), (200, 202)], ids=["n25", "n200"])
def test_eval_f_many_kept_plan(benchmark, n, seed):
    # length n=25 on the nu=64 grid, tangents n=200 on nu=78; trial 0
    rp = sample_rational_pair(n, trial_stream(seed, n, 0))
    charts = _kept_plan(PairField, n, default_options(n).grid_resolution, None)
    benchmark(eval_f_many, PairField(rp), _grid(n), charts=charts)


def test_eval_real_many_kept_plan(benchmark):
    # kostlan-compare n=50 on the nu=64 grid, seed 404, trial 0
    poly = sample_real_kostlan(50, trial_stream(404, 50, 0))
    charts = _kept_plan(RealField, 50, default_options(50).grid_resolution, None)
    benchmark(eval_real_many, RealField(poly), _grid(50), charts=charts)

"""Per-layer microbenchmarks of the field evaluators (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each case evaluates one fixed-seed field on the grid that `tracer.trace`
would use at its degree (`icosphere`'s vertices, already rotated).  The
kept-plan cases time the grid pass of every trace after the first at its
default grid, on the chart data `tracer._kept_plan` keeps: the pair
products alone, and the real products with the second power table.  The
cap-plan case times the local stage's grid pass on its finer cap, whose
plan keeps the pair's power tables too: the products and the combine
alone.

The per-call cases time the pair field on the few points of a walk step
or a Newton tail, where a call's fixed cost outweighs its points: the
Newton projection of 2 and 60 points 1e-3 off the first trial's curve of
the length workload (n=25) and of the tangents workload (n=200), the
tangents and the values of 16 such points, and the chart data of the
largest grid the constructor builds (nu=280).
"""

import numpy as np
import pytest

from lemnilab.ensemble import RandomStream, sample_rational_pair, sample_real_kostlan
from lemnilab.experiments import trial_stream
from lemnilab.field import PairField, RealField, eval_f_many, eval_real_many, pair_charts
from lemnilab.icogrid import cap_grid, icosphere
from lemnilab.topology import local_disk
from lemnilab.tracer import _kept_plan, default_options, trace


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


def test_eval_f_many_cap_plan(benchmark):
    # local-arrangement n=100, rho=3, seed 505, trial 0: its cap, one
    # longest default-grid edge wider than the disk, at 2nu (nu=128)
    n = 100
    nu = default_options(n).grid_resolution
    rp = sample_rational_pair(n, RandomStream(505).substream(n).substream(0))
    cap = local_disk(n, 3.0)[0]
    plan = _kept_plan(PairField, n, 2 * nu, cap)
    benchmark(eval_f_many, PairField(rp), cap_grid(2 * nu, *cap).verts, charts=plan)


def test_eval_real_many_kept_plan(benchmark):
    # kostlan-compare n=50 on the nu=64 grid, seed 404, trial 0
    poly = sample_real_kostlan(50, trial_stream(404, 50, 0))
    charts = _kept_plan(RealField, 50, default_options(50).grid_resolution, None)
    benchmark(eval_real_many, RealField(poly), _grid(50), charts=charts)


@pytest.fixture(scope="module", params=[(25, 101), (200, 202)], ids=["n25", "n200"])
def near_curve(request):
    # trial 0 of the length (n=25) or tangents (n=200) workload: its field
    # and its curve's vertices moved 1e-3 off the curve at random
    n, seed = request.param
    t = trace(sample_rational_pair(n, trial_stream(seed, n, 0)))
    v = t.vertices + 1e-3 * np.random.default_rng(7).normal(size=t.vertices.shape)
    return t.fieldobj, v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("m", [2, 60])
def test_newton_per_call(benchmark, near_curve, m):
    fld, pts = near_curve
    benchmark(fld.newton, pts[:m])


def test_tangents_per_call(benchmark, near_curve):
    fld, pts = near_curve
    benchmark(fld.tangents, pts[:16])


def test_values_per_call(benchmark, near_curve):
    fld, pts = near_curve
    benchmark(fld.values, pts[:16])


def test_pair_charts_nu280(benchmark):
    benchmark(pair_charts, icosphere(280).verts)

"""Per-layer microbenchmarks of the tracer's stages (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

The stage cases read one fixed input: seed 202, n=200, trial 0 at the
default grid (nu=78), the tangents workload's first trial, taken apart the
way `tracer._trace_grids` takes it apart.  The real crossings case refines
the crossings of the kostlan-compare workload's first trial (real field,
seed 404, n=50, nu=64), the largest layer of a real trial.  Two meridian
cases time the
tangent count of trial 19, which has seven small loops, and of the
kostlan-compare workload's first trial (real field, seed 404, n=50).  The
cap cases trace the local stage's first n=100 trial (seed 505) whole and
in the caps of the disks of radius rho/sqrt(n), rho = 3 and 7, that the
stage traces: a cap trace costs its share of the sphere plus a fixed
overhead of about a millisecond.  The great-circle case counts the
Crofton crossings of the length workload's first trial (seed 101, n=25).
The two ray-solve cases replay the calls of tracer.ray_solve made by the
tangent count of trial 19's small loops and by the constructor's second
step of the two-circle chain (the new oval), with their arguments as
recorded.
"""

import numpy as np
import pytest

from lemnilab import constructor, geomstats
from lemnilab.ensemble import RandomStream, sample_rational_pair, sample_real_kostlan
from lemnilab.experiments import trial_stream
from lemnilab.field import as_field, chart_jets
from lemnilab.geomstats import great_circle_intersections, meridian_stats
from lemnilab.icogrid import icosphere
from lemnilab.sphere import random_great_circle
from lemnilab.topology import local_disk
from lemnilab.tracer import (
    _ARC_STEP,
    _densify,
    _edge_roots,
    _link_cycles,
    default_options,
    ray_solve,
    trace,
)


def _crossings(fieldobj, grid):
    """The crossing edges of the field's grid pass: their (a, b, fa, fb)
    as _edge_roots takes them, and the linker's pair rows."""
    verts = grid.verts
    F = fieldobj.values(verts)
    pos = F > 0.0
    e0, e1 = grid.edges[:, 0], grid.edges[:, 1]
    cross = pos[e0] != pos[e1]
    cids = np.flatnonzero(cross)
    remap = np.full(len(grid.edges), -1, dtype=np.int64)
    remap[cids] = np.arange(len(cids))
    pair_rows = remap[grid.tri_edges[cross[grid.tri_edges]].reshape(-1, 2)]
    return (verts[e0[cids]], verts[e1[cids]], F[e0[cids]], F[e1[cids]]), pair_rows


@pytest.fixture(scope="module")
def stages():
    rp = sample_rational_pair(200, trial_stream(202, 200, 0))
    fieldobj = as_field(rp)
    grid = icosphere(default_options(200).grid_resolution)
    ends, pair_rows = _crossings(fieldobj, grid)
    cycles = _link_cycles(pair_rows)
    nodes = np.concatenate(cycles)
    X, G = _edge_roots(fieldobj, *ends)
    return dict(
        fieldobj=fieldobj, pair_rows=pair_rows,
        ends=ends, loops=X[nodes], grads=G[nodes],
        sizes=np.array([len(c) for c in cycles]),
        target=_ARC_STEP * grid.mean_edge_length, traced=trace(rp),
    )


def test_chart_jets_crossings(benchmark, stages):
    # one Newton pass over every crossing of the grid (10,071 points)
    benchmark(chart_jets, stages["fieldobj"], stages["loops"])


def test_chart_jets_walk_step(benchmark, stages):
    # the few points of one tangent-walk step
    benchmark(chart_jets, stages["fieldobj"], stages["loops"][:16])


def test_edge_roots(benchmark, stages):
    benchmark(_edge_roots, stages["fieldobj"], *stages["ends"])


def test_real_edge_roots(benchmark):
    # the real Newton on every crossing of the kostlan-compare trial
    fieldobj = as_field(sample_real_kostlan(50, trial_stream(404, 50, 0)))
    ends, _ = _crossings(fieldobj, icosphere(default_options(50).grid_resolution))
    X, G = benchmark(_edge_roots, fieldobj, *ends)
    assert len(X) == len(ends[0]) and np.isfinite(G).all()


def test_link_cycles(benchmark, stages):
    cycles = benchmark(_link_cycles, stages["pair_rows"])
    assert sum(len(c) for c in cycles) == stages["pair_rows"].size // 2


def test_densify(benchmark, stages):
    benchmark(_densify, stages["fieldobj"], stages["loops"], stages["grads"], stages["sizes"],
              stages["target"])


def test_meridian_stats(benchmark, stages):
    benchmark(meridian_stats, stages["traced"], np.array([0.0, 0.0, 1.0]))


def test_meridian_stats_small_loops(benchmark):
    # trial 19: seven loops shorter than seven grid edges, none of whose
    # whole-loop walks is lost; the longest takes 65 steps
    rp = sample_rational_pair(200, trial_stream(202, 200, 19))
    benchmark(meridian_stats, trace(rp), np.array([0.0, 0.0, 1.0]))


def test_meridian_stats_real(benchmark):
    # the real field's tangent reads: G at every vertex of a real n=50 trace
    poly = sample_real_kostlan(50, trial_stream(404, 50, 0))
    benchmark(meridian_stats, trace(poly), np.array([0.0, 0.0, 1.0]))


def test_great_circle_intersections(benchmark):
    stream = trial_stream(101, 25, 0)
    rp = sample_rational_pair(25, stream)
    g = random_great_circle(stream.substream(999).generator())
    assert benchmark(great_circle_intersections, as_field(rp), g) == 10


@pytest.mark.parametrize("rho", [None, 3.0, 7.0], ids=["global", "rho3", "rho7"])
def test_trace_cap(benchmark, rho):
    n = 100
    rp = sample_rational_pair(n, RandomStream(505).substream(n).substream(0))
    cap = None if rho is None else local_disk(n, rho)[0]
    trace(rp, cap=cap)  # builds the cap's grid
    benchmark(trace, rp, cap=cap)


def _ray_solve_calls(module, run):
    """The arguments of the ray_solve calls run() makes through module."""
    calls = []

    def spy(*args):
        calls.append(args)
        return ray_solve(*args)

    module.ray_solve = spy
    try:
        run()
    finally:
        module.ray_solve = ray_solve
    return calls


def test_ray_solve_small_loops(benchmark):
    # the one call for trial 19's seven small loops, 48 rays each; six
    # are one star-shaped oval about their centre
    rp = sample_rational_pair(200, trial_stream(202, 200, 19))
    (args,) = _ray_solve_calls(geomstats, lambda: meridian_stats(
        trace(rp), np.array([0.0, 0.0, 1.0])))
    X, _, ok, _ = benchmark(ray_solve, *args)
    assert ok.tolist() == [True, False] + [True] * 5 and len(X) == 48 * 6


def test_ray_solve_new_oval(benchmark):
    # the accepted new oval of the chain's second step, 64 rays
    frame = constructor._Frame(constructor._EMPTY, {"root": np.array([1.0 + 0j, 0.0])},
                               np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    frame, _, _ = constructor._add_circle(frame, ("root", 0))
    args = _ray_solve_calls(constructor, lambda: constructor._add_circle(
        frame, (("root", 0), 0)))[-1]
    X, _, ok, _ = benchmark(ray_solve, *args)
    assert ok.all() and len(X) == constructor._OVAL_RAYS

"""Per-layer microbenchmarks of the tracer's stages (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Every case reads one fixed input: seed 202, n=200, trial 0 at the default
grid (nu=78), the tangents workload's first trial, taken apart the way
`tracer._trace_once` takes it apart.
"""

import numpy as np
import pytest

from lemnilab.ensemble import sample_rational_pair
from lemnilab.experiments import trial_stream
from lemnilab.field import as_field, chart_jets
from lemnilab.geomstats import meridian_stats
from lemnilab.icogrid import icosphere
from lemnilab.tracer import (
    _ARC_STEP,
    GRID_JITTER,
    _densify,
    _edge_roots,
    _link_cycles,
    default_options,
    trace,
)


@pytest.fixture(scope="module")
def stages():
    rp = sample_rational_pair(200, trial_stream(202, 200, 0))
    fieldobj = as_field(rp)
    grid = icosphere(default_options(200).grid_resolution)
    verts = GRID_JITTER.apply(grid.verts)
    F = fieldobj.values(verts)
    pos = F > 0.0
    e0, e1 = grid.edges[:, 0], grid.edges[:, 1]
    cross = pos[e0] != pos[e1]
    ce = cross[grid.tri_edges]
    split = ce.sum(axis=1) == 2
    cids = np.flatnonzero(cross)
    remap = np.full(len(grid.edges), -1, dtype=np.int64)
    remap[cids] = np.arange(len(cids))
    pair_rows = remap[grid.tri_edges[split][ce[split]].reshape(-1, 2)]
    cycles = _link_cycles(pair_rows)
    ends = (verts[e0[cids]], verts[e1[cids]], F[e0[cids]], F[e1[cids]])
    refined, _ = _edge_roots(fieldobj, *ends)
    return dict(
        rp=rp, fieldobj=fieldobj, pair_rows=pair_rows,
        ends=ends, loops=refined[np.concatenate(cycles)],
        sizes=np.array([len(c) for c in cycles]),
        target=_ARC_STEP * grid.mean_edge_length, traced=trace(rp),
    )


def test_chart_jets_crossings(benchmark, stages):
    # one Newton pass over every crossing of the grid (10,071 points)
    benchmark(chart_jets, stages["rp"], stages["loops"])


def test_chart_jets_walk_step(benchmark, stages):
    # the few points of one tangent-walk step
    benchmark(chart_jets, stages["rp"], stages["loops"][:16])


def test_edge_roots(benchmark, stages):
    benchmark(_edge_roots, stages["fieldobj"], *stages["ends"])


def test_link_cycles(benchmark, stages):
    cycles = benchmark(_link_cycles, stages["pair_rows"])
    assert sum(len(c) for c in cycles) == stages["pair_rows"].size // 2


def test_densify(benchmark, stages):
    benchmark(_densify, stages["fieldobj"], stages["loops"], stages["sizes"],
              stages["target"])


def test_meridian_stats(benchmark, stages):
    benchmark(meridian_stats, stages["traced"], np.array([0.0, 0.0, 1.0]),
              stages["fieldobj"])

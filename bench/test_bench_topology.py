"""Per-layer microbenchmarks of the face flood fill (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

The first two cases read one fixed trace: seed 202, n=200, trial 0, at
the default grid (nu=78), the tangents workload's first trial.
`nesting_tree` never re-traces, so it costs the flood fill plus one tree
edge per loop and the tree check.  The third fills the cap the local stage
traces at rho=7, n=100 (seed 606, trial 0): the 2nu=128 cap of 20,675
vertices, one longest default-grid edge wider than the disk.  The last
traces one local trial at rho=3, n=100 through trace_levels, at nu and 2nu
with one refinement: trial 3 of the seed-505 stream, whose cap holds two
loops at each level.
"""

import pytest

from lemnilab.ensemble import RandomStream, sample_rational_pair
from lemnilab.experiments import trial_stream
from lemnilab.topology import _build_faces, local_disk, nesting_tree
from lemnilab.field import as_field
from lemnilab.tracer import TraceOptions, default_options, trace, trace_levels


@pytest.fixture(scope="module")
def traced_n200():
    rp = sample_rational_pair(200, trial_stream(202, 200, 0))
    return rp, trace(rp)


def test_build_faces(benchmark, traced_n200):
    _, t = traced_n200
    _, n_faces = benchmark(_build_faces, t)
    assert n_faces == len(t.components) + 1


def test_nesting_tree(benchmark, traced_n200):
    _, t = traced_n200
    tree = benchmark(nesting_tree, t)
    assert tree.n_faces == len(t.components) + 1
    assert tree.n_components == len(t.components)


def test_cap_nesting_tree(benchmark):
    n = 100
    nu = default_options(n).grid_resolution
    cap = local_disk(n, 7.0)[0]
    t = trace(sample_rational_pair(n, trial_stream(606, n, 0)), TraceOptions(2 * nu), cap)
    assert t.grid.n_vertices == 20675
    tree = benchmark(nesting_tree, t)
    assert tree.n_faces == len(t.components) + 1


def test_local_trial_levels(benchmark):
    n = 100
    nu = default_options(n).grid_resolution
    cap = local_disk(n, 3.0)[0]
    fld = as_field(sample_rational_pair(n, RandomStream(505).substream(n).substream(3)))
    levels = (TraceOptions(nu), TraceOptions(2 * nu))
    traces = benchmark(trace_levels, fld, levels, cap)
    assert [len(t.sizes) for t in traces] == [2, 2]

"""Microbenchmarks of the geodesic grid build (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each `test_icosphere_build` case times an uncached build
(`icosphere.__wrapped__`, the lattice and its one rotation) at the
default n=200 grid (nu=78), its 2x fallback (nu=156), and construct-6's
frequencies nu=102, 264 and 280, the finest a construct-6 form asks for.
`test_lattice_build` times the unrotated lattice alone at nu=280, so that
the rotation's share of the build shows.  `test_cap_build` times an
uncached `cap_grid` (`cap_grid.__wrapped__`, the cut and the raster's
crop, on the cached sphere) of the local stage's rho=3 and rho=7 caps at
n=100 on its finer grid, 2nu=128.
"""

import pytest

from lemnilab.icogrid import _lattice, cap_grid, icosphere
from lemnilab.topology import local_disk
from lemnilab.tracer import default_options


@pytest.mark.parametrize("nu", [78, 102, 156, 264, 280])
def test_icosphere_build(benchmark, nu):
    g = benchmark(icosphere.__wrapped__, nu)
    assert len(g.tri_edges) == 20 * nu * nu


def test_lattice_build(benchmark):
    g = benchmark(_lattice, 280)
    assert len(g.tri_edges) == 20 * 280 * 280


@pytest.mark.parametrize("rho", [3.0, 7.0])
def test_cap_build(benchmark, rho):
    n = 100
    nu, cap = 2 * default_options(n).grid_resolution, local_disk(n, rho)[0]
    icosphere(nu)
    g = benchmark(cap_grid.__wrapped__, nu, *cap)
    assert 0 < g.n_vertices < icosphere(nu).n_vertices

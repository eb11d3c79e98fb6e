"""Microbenchmarks of the geodesic grid build (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each `test_icosphere_build` case times an uncached build
(`icosphere.__wrapped__`, the lattice and its one rotation) at the
default n=200 grid (nu=78), its 2x fallback (nu=156), and construct-6's
frequencies nu=102, 264 and 280, the finest a construct-6 form asks for.
`test_lattice_build` times the unrotated lattice alone at nu=280, so that
the rotation's share of the build shows.
"""

import pytest

from lemnilab.icogrid import _lattice, icosphere


@pytest.mark.parametrize("nu", [78, 102, 156, 264, 280])
def test_icosphere_build(benchmark, nu):
    g = benchmark(icosphere.__wrapped__, nu)
    assert len(g.tri_edges) == 20 * nu * nu


def test_lattice_build(benchmark):
    g = benchmark(_lattice, 280)
    assert len(g.tri_edges) == 20 * 280 * 280

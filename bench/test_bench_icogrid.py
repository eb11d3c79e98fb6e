"""Microbenchmarks of the geodesic grid build (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

Each case times an uncached build (`icosphere.__wrapped__`, the lattice
and its one rotation) at the default n=200 grid (nu=78), its 2x fallback
(nu=156) and nu=280, the finest grid a construct-6 form asks for.
"""

import pytest

from lemnilab.icogrid import icosphere


@pytest.mark.parametrize("nu", [78, 156, 280])
def test_icosphere_build(benchmark, nu):
    g = benchmark(icosphere.__wrapped__, nu)
    assert len(g.tri_edges) == 20 * nu * nu

"""Microbenchmark of the constructor's round trip (pytest-benchmark).

Outside the tier-1 `testpaths`; run from the repository root with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m pytest bench -q

The form is (((())(()))), which the constructor verifies at nu=264.
`realized_tree` roots the nesting tree kept from that verification at the
root point, so it costs one face lookup and the AHU canonical string, with
no trace and no flood fill.
"""

import pytest

from lemnilab.constructor import realize, realized_tree
from lemnilab.topology import Arrangement

SPEC = Arrangement("(((())(())))")


@pytest.fixture(scope="module")
def constructed():
    return realize(SPEC)


def test_realized_tree(benchmark, constructed):
    assert constructed.trace_resolution == 264
    assert benchmark(realized_tree, constructed) == SPEC

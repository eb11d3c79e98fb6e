import math

import numpy as np
import pytest

from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
    sample_real_kostlan,
)
from lemnilab.tracer import (
    TraceOptions,
    default_options,
    trace,
)


def unit_circle_pair():
    return RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )


def test_equator_length():
    t = trace(unit_circle_pair())
    assert len(t.components) == 1
    assert abs(t.total_length - 2 * math.pi) < 0.005 * 2 * math.pi


def test_empty_lemniscate():
    rp = RationalPair(
        KostlanPolynomial(1, np.array([2, 0], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    t = trace(rp)
    assert len(t.components) == 0
    assert t.total_length == 0.0


def test_options_validation():
    with pytest.raises(ValueError):
        TraceOptions(grid_resolution=10)
    assert default_options(100).grid_resolution >= 55


def test_components_closed_and_on_curve():
    rp = sample_rational_pair(8, RandomStream(13))
    t = trace(rp)
    from lemnilab.field import eval_f_many

    for c in t.components:
        v = c.vertices
        assert np.allclose(v[0], v[-1])
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        f, sc = eval_f_many(rp, v, with_scale=True)
        assert np.max(np.abs(f) / sc) < 1e-8


def test_component_count_stable_under_resolution_doubling():
    rp = sample_rational_pair(6, RandomStream(29))
    base = default_options(6)
    t1 = trace(rp, base)
    t2 = trace(rp, TraceOptions(grid_resolution=2 * base.grid_resolution))
    assert len(t1.components) == len(t2.components)
    assert abs(t1.total_length - t2.total_length) < 0.01 * t2.total_length


def test_component_bound_and_length_bound():
    for i in range(5):
        rp = sample_rational_pair(10, RandomStream(37).substream(i))
        t = trace(rp)
        assert len(t.components) <= 10
        assert t.total_length <= 2 * math.pi * 10 * 1.01


def test_real_kostlan_traceable():
    poly = sample_real_kostlan(12, RandomStream(43))
    t = trace(poly)
    assert len(t.components) >= 1
    for c in t.components:
        assert np.allclose(np.linalg.norm(c.vertices, axis=1), 1.0, atol=1e-12)


def test_unit_circle_trace_on_equator():
    t = trace(unit_circle_pair())
    v = t.components[0].vertices
    assert np.max(np.abs(v[:, 2])) < 1e-8


def test_jitter_determinism():
    rp = sample_rational_pair(7, RandomStream(51))
    t1 = trace(rp)
    t2 = trace(rp)
    assert len(t1.components) == len(t2.components)
    for c1, c2 in zip(t1.components, t2.components):
        assert np.array_equal(c1.vertices, c2.vertices)

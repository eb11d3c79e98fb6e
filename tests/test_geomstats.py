import csv
import math
import os

import numpy as np
import pytest

from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
)
from lemnilab.experiments import trial_stream
from lemnilab.field import as_field
from lemnilab.geomstats import (
    TangencySuspected,
    _refine_near_axis,
    _tangent_count,
    _windings,
    great_circle_intersections,
    meridian_stats,
)
from lemnilab.sphere import (
    GreatCircle,
    orthonormal_frame,
    random_great_circle,
    spherical_distance_many,
)
from lemnilab.tracer import TracedLemniscate, default_options, ring, trace, walk

Z = np.array([0.0, 0.0, 1.0])


def circle_pair(center=0.0, radius=1.0):
    return RationalPair(
        KostlanPolynomial(1, np.array([-center, 1], complex)),
        KostlanPolynomial(1, np.array([radius, 0], complex)),
    )


def test_equator_loops_axis_no_tangents():
    rp = circle_pair()
    t = trace(rp)
    nu, loops, w = meridian_stats(t, Z)
    assert nu == 0
    assert loops == 1
    assert abs(w[0]) == 1


def test_small_circle_two_tangents():
    rp = circle_pair(center=1.0, radius=0.3)
    t = trace(rp)
    nu, loops, w = meridian_stats(t, Z)
    assert nu == 2
    assert loops == 0
    assert w[0] == 0


def _loops(t):
    """The open loops of a trace, each with its gradient rows."""
    cut = np.cumsum(t.sizes)[:-1]
    return list(zip(np.split(t.vertices, cut), np.split(t.grads, cut)))


def _traced(loops, t):
    """A trace of the open loops (each with its gradient rows), on t's grid."""
    sizes = np.array([len(L) for L, _ in loops])
    P = np.concatenate([L for L, _ in loops])
    lengths = np.bincount(ring(sizes)[0], spherical_distance_many(P, P[ring(sizes)[1]]))
    return TracedLemniscate(P, np.concatenate([g for _, g in loops]), sizes, lengths,
                            t.grid, fieldobj=t.fieldobj)


def _radial_count(rp, pick=None):
    """_tangent_count with every loop small: (count, lost walks, fallbacks)."""
    loops = _loops(trace(rp))
    loops = loops if pick is None else [loops[i] for i in pick]
    sizes = np.array([len(L) for L, _ in loops])
    P = np.concatenate([L for L, _ in loops])
    grads = np.concatenate([g for _, g in loops])
    e1, e2 = orthonormal_frame(Z)
    return _tangent_count(P, grads, sizes, Z, as_field(rp), math.inf,
                          _windings(P, sizes, e1, e2))


def test_radial_count_off_axis_circle():
    assert _radial_count(circle_pair(center=1.0, radius=0.3)) == (2, 0, 0)


def test_radial_count_circle_about_the_pole():
    # |z - 0.3| = 1 encloses the pole z = 0 off-centre: G keeps its sign
    assert _radial_count(circle_pair(center=0.3, radius=1.0)) == (0, 0, 0)


def test_radial_count_falls_back_to_the_walk():
    # |(z - 1)(z - 1.5)| = 0.25 |z - 1.56|: a large oval about z = 1 and a
    # small one just past it, inside twice the large one's radius, so rays
    # from the large oval's centre cross three times
    p = np.array([1.5, -2.5, 1.0], complex)
    q = 0.25 * np.array([-1.56, 1.0, 0.0], complex)
    rp = RationalPair(KostlanPolynomial(2, p), KostlanPolynomial(2, q))
    assert [len(c) > 100 for c in trace(rp).components] == [True, False]
    assert _radial_count(rp, [0]) == (2, 0, 1)


def test_empty_trace_has_no_meridian_stats():
    # |p| = 1 < 2 = |q| everywhere: no curve
    rp = RationalPair(KostlanPolynomial(1, np.array([1, 0], complex)),
                      KostlanPolynomial(1, np.array([2, 0], complex)))
    t = trace(rp)
    assert t.components == []
    nu, loops, w = meridian_stats(t, Z)
    assert (nu, loops, list(w)) == (0, 0, [])


class _CountingField:
    def __init__(self, field):
        self.field, self.newtons = field, 0

    def newton(self, pts):
        self.newtons += 1
        return self.field.newton(pts)

    def __getattr__(self, name):
        return getattr(self.field, name)


def test_axis_refinement_batches_loops():
    # |(z - 1)(z - i)| = 0.2: two ovals, about z = 1 and z = i, and an axis
    # 1e-3 outside a vertex of the first, so that loop is subdivided over
    # many passes and the other not at all; the loops refined and counted
    # together must give what each gives alone
    rp = RationalPair(KostlanPolynomial(2, np.array([1j, -1 - 1j, 1], complex)),
                      KostlanPolynomial(2, np.array([0.2, 0, 0], complex)))
    f = as_field(rp)
    t = trace(rp)
    loops = _loops(t)
    assert len(loops) == 2
    v = loops[0][0][0]
    out = v - loops[0][0].mean(axis=0)
    out -= (out @ v) * v
    axis = math.cos(1e-3) * v + math.sin(1e-3) * out / np.linalg.norm(out)
    counting = _CountingField(f)
    _, _, refined = _refine_near_axis(t.vertices, t.grads, t.sizes, axis, counting)
    assert counting.newtons >= 5
    assert refined[0] > t.sizes[0] and refined[1] == t.sizes[1]
    nu, looping, w = meridian_stats(t, axis)
    alone = [meridian_stats(_traced([L], t), axis) for L in loops]
    assert list(w) == [a[2][0] for a in alone]
    assert nu == sum(a[0] for a in alone) and looping == sum(a[1] for a in alone)
    assert nu == 4 and looping == 0


def test_tangent_count_even_and_morse():
    for i in range(4):
        rp = sample_rational_pair(12, RandomStream(61).substream(i))
        t = trace(rp)
        nu, loops, _ = meridian_stats(t, Z)
        assert nu % 2 == 0
        assert len(t.components) <= nu // 2 + loops


def _densify_ordered(t, field, parts):
    """The trace with `parts - 1` walked curve points inserted into every
    segment whose chord runs along the curve tangent at both its ends."""
    loops = []
    for P, R in _loops(t):
        Q = np.roll(P, -1, axis=0)
        d = Q - P
        h = np.linalg.norm(d, axis=1)
        T = field.tangents(P)
        o = np.sign(np.einsum("ij,ij->", T, d))
        along = (o * np.einsum("ij,ij->i", T, d) > 0.9 * h) & (
            o * np.einsum("ij,ij->i", np.roll(T, -1, axis=0), d) > 0.9 * h
        )
        k = np.flatnonzero(along)
        pts, rows, _, owner, _, _ = walk(field, P[k], R[k], Q[k], d[k], h[k] / parts,
                                         np.full(len(k), parts - 1.0),
                                         np.full(len(k), 4.0 * parts))
        far = np.linalg.norm(pts - Q[k][owner], axis=1) > 0.5 * h[k][owner] / parts
        at = k[owner][far] + 1
        loops.append((np.insert(P, at, pts[far], axis=0), np.insert(R, at, rows[far], axis=0)))
    return _traced(loops, t)


def test_tangent_count_stable_under_ordered_densification():
    # the trace held fixed, two walked curve points in each segment must
    # not move the count: nu reads G on the curve, not the polyline
    same = 0
    trials = 20
    for i in range(trials):
        rp = sample_rational_pair(100, RandomStream(83).substream(i))
        t = trace(rp)
        f = as_field(rp)
        nu, _, _ = meridian_stats(t, Z)
        dense = _densify_ordered(t, f, 3)
        assert sum(len(c) for c in dense.components) > 2 * sum(
            len(c) for c in t.components
        )
        same += meridian_stats(dense, Z)[0] == nu
    assert same >= 0.95 * trials


def test_great_circle_intersections_equator_vs_meridian():
    rp = circle_pair()
    meridian = GreatCircle(
        axis=np.array([0.0, 1.0, 0.0]),
        e1=np.array([1.0, 0.0, 0.0]),
        e2=np.array([0.0, 0.0, 1.0]),
    )
    assert great_circle_intersections(as_field(rp), meridian) == 2


def test_great_circle_tangency_detected():
    # the great circle equal to the lemniscate itself is fully tangential
    rp = circle_pair()
    equator = GreatCircle(
        axis=Z, e1=np.array([1.0, 0.0, 0.0]), e2=np.array([0.0, 1.0, 0.0])
    )
    with pytest.raises(TangencySuspected):
        great_circle_intersections(as_field(rp), equator)


def test_great_circle_counts_match_committed_crossings():
    # the Crofton column of the committed length n=25 run (seed 101):
    # bisecting each crossing only to h/64 changes no count and raises no
    # tangency
    path = os.path.join(os.path.dirname(__file__), os.pardir, "results",
                        "length_n25_trials.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))[:200]
    for r in rows:
        assert not r["flags"]
        stream = trial_stream(101, 25, int(r["trial"]))
        rp = sample_rational_pair(25, stream)
        g = random_great_circle(stream.substream(999).generator())
        assert great_circle_intersections(as_field(rp), g) == int(r["crossings"]), r["trial"]


class _SpyField:
    """A field object that records the points of every values call."""

    def __init__(self, fieldobj):
        self.fieldobj, self.degree, self.calls = fieldobj, fieldobj.degree, []

    def values(self, pts, charts=None, with_scale=False):
        self.calls.append(pts)
        return self.fieldobj.values(pts, charts, with_scale)


def _sequential_crofton(fieldobj, g):
    """The Crofton count with one bracket halving per field call: the
    count and the points of its derivative check."""
    samples = max(512, 8 * default_options(fieldobj.degree).grid_resolution)
    tgrid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    s = fieldobj.values(g.point(tgrid), with_scale=True)[0] > 0
    change = np.flatnonzero(s != np.roll(s, -1))
    width, h = 2.0 * math.pi / samples, 1e-6
    lo = tgrid[change]
    hi = lo + width
    for _ in range(math.ceil(math.log2(64.0 * width / h))):
        tm = 0.5 * (lo + hi)
        up = (fieldobj.values(g.point(tm)) > 0) == s[change]
        lo, hi = np.where(up, tm, lo), np.where(up, hi, tm)
    troot = 0.5 * (lo + hi)
    return len(change), g.point(np.concatenate([troot + h, troot - h]))


def test_crofton_halving_matches_sequential():
    # length n=25, seed 101: reading several halvings per field call ends
    # on the brackets, and so the derivative-check points, of one halving
    # per call
    for trial in range(20):
        stream = trial_stream(101, 25, trial)
        rp = sample_rational_pair(25, stream)
        g = random_great_circle(stream.substream(999).generator())
        spy = _SpyField(as_field(rp))
        count = great_circle_intersections(spy, g)
        want, points = _sequential_crofton(as_field(rp), g)
        assert count == want > 0, trial
        assert spy.calls[-1].tobytes() == points.tobytes(), trial
        assert len(spy.calls) <= 7, trial


def test_crossing_parity_even():
    g = np.random.default_rng(3)
    for i in range(5):
        rp = sample_rational_pair(9, RandomStream(67).substream(i))
        c = random_great_circle(g)
        assert great_circle_intersections(as_field(rp), c) % 2 == 0


def test_integral_geometry_matches_polyline_on_circle():
    # crofton mean for a fixed curve: E #(Gamma cap C) = |Gamma| / pi; a
    # small circle, since every great circle meets the equator twice
    rp = circle_pair(center=1.0, radius=0.3)
    t = trace(rp)
    g = np.random.default_rng(7)
    counts = [great_circle_intersections(t.fieldobj, random_great_circle(g))
              for _ in range(800)]
    est = math.pi * np.mean(counts)
    stderr = math.pi * np.std(counts, ddof=1) / math.sqrt(len(counts))
    assert abs(est - t.total_length) < 4 * stderr


def test_length_estimate_positive():
    rp = sample_rational_pair(5, RandomStream(71))
    t = trace(rp)
    assert t.components
    assert t.total_length > 0

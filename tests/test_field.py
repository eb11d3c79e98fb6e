import numpy as np

from lemnilab.ensemble import RandomStream, sample_rational_pair
from lemnilab.field import (
    chart_jets,
    curve_tangents,
    eval_f_many,
    newton_correct,
    poly_jets_many,
)
from lemnilab.ensemble import rotate_pair
from lemnilab.sphere import Rotation, inverse_stereographic_many

rng = np.random.default_rng(314)


def random_sphere(k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_horner_matches_polyval():
    # poly_jets_many values (order 0) against np.polyval, two rows at once
    rows = [rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(2)]
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    for c, (v,) in zip(rows, poly_jets_many(rows, z)):
        ref = np.polyval(c[::-1], z)
        assert np.max(np.abs(v - ref)) < 1e-10 * np.max(np.abs(ref))


def test_horner_jet_derivatives():
    # order-1 jets against np.polyval of the derivative rows; the second
    # derivative is the first derivative of the derivative row
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    z = rng.normal(size=10) + 1j * rng.normal(size=10)
    dc = c[1:] * np.arange(1, 6)
    ddc = dc[1:] * np.arange(1, 5)
    (v0,), = poly_jets_many([c], z)
    (v, d1), = poly_jets_many([c], z, order=1)
    (_, d2), = poly_jets_many([dc], z, order=1)
    assert np.array_equal(v, v0)
    assert np.max(np.abs(d1 - np.polyval(dc[::-1], z))) < 1e-9
    assert np.max(np.abs(d2 - np.polyval(ddc[::-1], z))) < 1e-9


def test_eval_f_single_vs_many():
    rp = sample_rational_pair(8, RandomStream(2))
    pts = random_sphere(40)
    many = eval_f_many(rp, pts)
    singles = np.array([eval_f_many(rp, p[None, :])[0] for p in pts])
    assert np.max(np.abs(many - singles)) < 1e-12 * max(1.0, np.max(np.abs(many)))


def test_rotation_equivariance():
    rp = sample_rational_pair(10, RandomStream(4))
    r = Rotation.random(np.random.default_rng(9))
    rot = rotate_pair(rp, r)
    pts = random_sphere(80)
    f0, s0 = eval_f_many(rp, pts, with_scale=True)
    f1, s1 = eval_f_many(rot, r.apply(pts), with_scale=True)
    assert np.max(np.abs(f0 / s0 - f1 / s1)) < 1e-8


def test_jet_finite_difference_oracle():
    # chart_jets against central differences of |p|^2 - |q|^2 by np.polyval,
    # in the southern chart z and the northern chart u = 1/z, where f is
    # that of the reversed-coefficient pair
    rp = sample_rational_pair(6, RandomStream(21))
    f, gx, gy, sc, coord, north = chart_jets(rp, random_sphere(40))
    assert north.any() and (~north).any()
    h = 1e-5
    for is_north in (False, True):
        # np.polyval takes the highest degree first
        p, q = rp.p.coeffs, rp.q.coeffs
        if not is_north:
            p, q = p[::-1], q[::-1]

        def F(w):
            return np.abs(np.polyval(p, w)) ** 2 - np.abs(np.polyval(q, w)) ** 2

        m = north == is_north
        w = coord[m]
        fx = (F(w + h) - F(w - h)) / (2 * h)
        fy = (F(w + 1j * h) - F(w - 1j * h)) / (2 * h)
        scale = np.maximum(1.0, np.hypot(gx[m], gy[m]))
        assert np.max(np.abs(f[m] - F(w)) / sc[m]) < 1e-12
        assert np.max(np.abs(gx[m] - fx) / scale) < 1e-6
        assert np.max(np.abs(gy[m] - fy) / scale) < 1e-6


def test_newton_correct_projects_onto_curve():
    rp = sample_rational_pair(7, RandomStream(31))
    from lemnilab.tracer import trace

    t = trace(rp)
    pts = t.components[0].vertices[:-1]
    noisy = pts + 1e-3 * rng.normal(size=pts.shape)
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    corrected, rel, relgrad, conv = newton_correct(rp, noisy)
    assert conv.all()
    assert rel.max() <= 1e-11
    assert np.allclose(np.linalg.norm(corrected, axis=1), 1.0, atol=1e-12)


def test_curve_tangents_annihilate_gradient():
    rp = sample_rational_pair(7, RandomStream(41))
    from lemnilab.tracer import trace

    t = trace(rp)
    pts = t.components[0].vertices[:-1]
    tan = curve_tangents(rp, pts)
    # unit, tangent to the sphere, and f is stationary along them
    assert np.allclose(np.linalg.norm(tan, axis=1), 1.0, atol=1e-9)
    assert np.max(np.abs(np.sum(tan * pts, axis=1))) < 1e-9
    h = 1e-6
    fwd = pts + h * tan
    fwd /= np.linalg.norm(fwd, axis=1, keepdims=True)
    bwd = pts - h * tan
    bwd /= np.linalg.norm(bwd, axis=1, keepdims=True)
    ffwd, sc = eval_f_many(rp, fwd, with_scale=True)
    fbwd, _ = eval_f_many(rp, bwd, with_scale=True)
    deriv_along = np.abs(ffwd - fbwd) / (2 * h * sc)
    # compare against the gradient magnitude seen by one normal step
    nrm = np.cross(pts, tan)
    up = pts + h * nrm
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    fup, _ = eval_f_many(rp, up, with_scale=True)
    deriv_across = np.abs(fup - ffwd) / (h * sc)
    assert np.median(deriv_along / np.maximum(deriv_across, 1e-30)) < 1e-3


def test_unit_circle_pair_zero_on_equator():
    from lemnilab.ensemble import KostlanPolynomial, RationalPair

    rp = RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    theta = np.linspace(0, 2 * np.pi, 17)
    pts = inverse_stereographic_many(np.exp(1j * theta))
    vals = eval_f_many(rp, pts)
    assert np.max(np.abs(vals)) < 1e-12

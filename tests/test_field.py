import mpmath
import numpy as np

from lemnilab.ensemble import RandomStream, sample_rational_pair, sample_real_kostlan
from lemnilab.field import (
    _CHUNK,
    chart_jets,
    curve_tangents,
    eval_f_many,
    eval_real_many,
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


def _disk_points(r, k):
    return np.sqrt(r.uniform(size=k)) * np.exp(2j * np.pi * r.uniform(size=k))


def _mpmath_errors(c, z, v, d):
    """|v - p(z)| and |d - p'(z)| for the coefficient row c, against
    50-digit mpmath."""
    with mpmath.workdps(50):
        high_first = [mpmath.mpc(x) for x in c[::-1]]
        ref = [mpmath.polyval(high_first, mpmath.mpc(w), derivative=True) for w in z]
        err_v = [float(abs(mpmath.mpc(a) - r[0])) for a, r in zip(v, ref)]
        err_d = [float(abs(mpmath.mpc(a) - r[1])) for a, r in zip(d, ref)]
    return np.array(err_v), np.array(err_d)


def test_poly_jets_mpmath_oracle():
    # values and first derivatives at the degrees of the tangents and
    # local stages, in both charts (the northern one evaluates the
    # reversed rows), at z = 0, tiny |z|, the disk, |z| = 1 and across a
    # chunk boundary; the error stays below 2 n eps sum |c_k| |z|^k (and
    # the same for the derivative row)
    r = np.random.default_rng(1973)
    eps = np.finfo(float).eps
    ring = np.exp(2j * np.pi * r.uniform(size=6))
    pts = np.concatenate([
        [0.0, 1.0, -1.0, 1j, -1j], 1e-9 * ring, ring, _disk_points(r, 24),
    ])
    wide = _disk_points(r, _CHUNK + 40)
    at = np.arange(_CHUNK - 20, _CHUNK + 20)
    for n in (200, 400):
        rp = sample_rational_pair(n, RandomStream(11).substream(n))
        k = np.arange(n + 1.0)
        for c in (rp.p.coeffs, rp.q.coeffs[::-1]):
            (v, d), = poly_jets_many([c], pts, order=1)
            (wv, wd), = poly_jets_many([c], wide, order=1)
            for z, v, d in ((pts, v, d), (wide[at], wv[at], wd[at])):
                err_v, err_d = _mpmath_errors(c, z, v, d)
                az = np.abs(z)[:, None]
                bound_v = np.sum(np.abs(c) * az**k, axis=1)
                bound_d = np.sum(k[1:] * np.abs(c[1:]) * az ** k[:-1], axis=1)
                assert np.all(err_v <= 2 * n * eps * bound_v)
                assert np.all(err_d <= 2 * n * eps * bound_d)


def test_poly_jets_point_alone_and_in_a_crowd():
    # a point's value and derivative do not depend on the call it is in
    r = np.random.default_rng(1974)
    crowd = _disk_points(r, 20000)
    n = 200
    rp = sample_rational_pair(n, RandomStream(12))
    rows = [rp.p.coeffs, rp.q.coeffs]
    k = np.arange(n + 1.0)
    big = poly_jets_many(rows, crowd, order=1)
    for i in (0, 1, _CHUNK - 1, _CHUNK, 12345, 19999):
        alone = poly_jets_many(rows, crowd[i : i + 1], order=1)
        az = abs(crowd[i])
        for c, (v, d), (v1, d1) in zip(rows, big, alone):
            assert abs(v[i] - v1[0]) <= 1e-13 * np.sum(np.abs(c) * az**k)
            assert abs(d[i] - d1[0]) <= 1e-13 * np.sum(k[1:] * np.abs(c[1:]) * az ** k[:-1])


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


def _real_oracle_points(r):
    """Each axis dominant with both signs, the six axis points, the eight
    |x| = |y| = |z| ties and random points."""
    pts = []
    for d in range(3):
        for s in (1.0, -1.0):
            v = 0.4 * r.uniform(-1, 1, size=3)
            v[d] = s
            pts.append(v)
            pts.append(s * np.eye(3)[d])
    pts += [np.array([sx, sy, sz]) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    pts += list(r.normal(size=(30, 3)))
    pts = np.array(pts, dtype=float)
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_eval_real_many_oracle():
    # values and scale against a monomial-by-monomial long-double sum (and
    # the same with and without the gradient, so the grid's signs and the
    # Newton residuals agree); the gradient against 4th-order central
    # differences of the values and against Euler's identity p . grad f = n f
    r = np.random.default_rng(2718)
    pts = _real_oracle_points(r)
    for n in (1, 2, 7, 50):
        poly = sample_real_kostlan(n, RandomStream(17).substream(n))
        f, grad, sc = eval_real_many(poly, pts, with_grad=True)
        f0, sc0 = eval_real_many(poly, pts)
        assert np.array_equal(f, f0) and np.array_equal(sc, sc0)
        P = pts.astype(np.longdouble)
        ref = np.zeros(len(pts), dtype=np.longdouble)
        ref2 = np.zeros(len(pts), dtype=np.longdouble)
        for (a, b, c), co in zip(poly.exps, poly.coeffs):
            term = np.longdouble(co) * P[:, 0] ** a * P[:, 1] ** b * P[:, 2] ** c
            ref += term
            ref2 += term * term
        ref_sc = np.sqrt(ref2)
        assert np.max(np.abs(f - ref) / ref_sc) < 1e-12
        assert np.max(np.abs(sc - ref_sc) / ref_sc) < 1e-12
        euler = np.einsum("ij,ij->i", pts, grad) - n * f
        assert np.max(np.abs(euler) / (n * sc)) < 1e-12
        h = 0.005 / n
        for k in range(3):
            e = h * np.eye(3)[k]

            def F(m):
                return eval_real_many(poly, pts + m * e)[0]

            fd = (8 * (F(1) - F(-1)) - (F(2) - F(-2))) / (12 * h)
            assert np.max(np.abs(grad[:, k] - fd) / (n * sc)) < 1e-9

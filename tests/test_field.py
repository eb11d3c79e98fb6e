import hashlib
import itertools

import mpmath
import numpy as np

from lemnilab.ensemble import RandomStream, exponents, sample_rational_pair, sample_real_kostlan
from lemnilab.field import (
    _CHUNK,
    PairField,
    RealField,
    _lift_chart,
    _unit_cross,
    chart_jets,
    curve_tangents,
    eval_f_many,
    eval_real_many,
    jet_blocks,
    newton_correct,
    pair_charts,
    pair_tables,
    poly_jets_many,
    real_charts,
    real_curve_tangents,
    real_newton_correct,
)
from lemnilab.icogrid import icosphere
from lemnilab.ensemble import rotate_pair
from lemnilab.sphere import Rotation, from_homogeneous

rng = np.random.default_rng(314)


def random_sphere(k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_horner_matches_polyval():
    # poly_jets_many values (order 0) against np.polyval, two rows at once
    rows = [rng.normal(size=7) + 1j * rng.normal(size=7) for _ in range(2)]
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    for c, (v,) in zip(rows, poly_jets_many(jet_blocks(rows), z)):
        ref = np.polyval(c[::-1], z)
        assert np.max(np.abs(v - ref)) < 1e-10 * np.max(np.abs(ref))


def test_horner_jet_derivatives():
    # order-1 jets against np.polyval of the derivative rows; the second
    # derivative is the first derivative of the derivative row
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    z = rng.normal(size=10) + 1j * rng.normal(size=10)
    dc = c[1:] * np.arange(1, 6)
    ddc = dc[1:] * np.arange(1, 5)
    (v0,), = poly_jets_many(jet_blocks([c]), z)
    (v, d1), = poly_jets_many(jet_blocks([c]), z, order=1)
    (_, d2), = poly_jets_many(jet_blocks([dc]), z, order=1)
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
            (v, d), = poly_jets_many(jet_blocks([c]), pts, order=1)
            (wv, wd), = poly_jets_many(jet_blocks([c]), wide, order=1)
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
    big = poly_jets_many(jet_blocks(rows), crowd, order=1)
    for i in (0, 1, _CHUNK - 1, _CHUNK, 12345, 19999):
        alone = poly_jets_many(jet_blocks(rows), crowd[i : i + 1], order=1)
        az = abs(crowd[i])
        for c, (v, d), (v1, d1) in zip(rows, big, alone):
            assert abs(v[i] - v1[0]) <= 1e-13 * np.sum(np.abs(c) * az**k)
            assert abs(d[i] - d1[0]) <= 1e-13 * np.sum(k[1:] * np.abs(c[1:]) * az ** k[:-1])


def test_eval_f_single_vs_many():
    fld = PairField(sample_rational_pair(8, RandomStream(2)))
    pts = random_sphere(40)
    many = eval_f_many(fld, pts)
    singles = np.array([eval_f_many(fld, p[None, :])[0] for p in pts])
    assert np.max(np.abs(many - singles)) < 1e-12 * max(1.0, np.max(np.abs(many)))


def test_eval_f_many_tabled_plan_changes_no_bit():
    # eval_f_many on pair_tables' kept powers and factor against the call
    # that builds them, with and without the scale: at n <= 3 there is a
    # single giant step (b = n + 1, nb = 1); the counts straddle the
    # chunks, on points of one chart (t < 0) and of both
    for n in (1, 2, 5, 25, 100, 400):
        fld = PairField(sample_rational_pair(n, RandomStream(303).substream(n)))
        for m in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
            v = random_sphere(m)
            v[:, 2] = -np.abs(v[:, 2])
            for pts in (v, random_sphere(m)):
                charts = pair_charts(pts)
                tables = pair_tables(charts, n)
                assert sum(len(c[1]) for c in charts) == m
                for scale in (False, True):
                    assert (np.array(eval_f_many(fld, pts, scale, tables)).tobytes()
                            == np.array(eval_f_many(fld, pts, scale)).tobytes()), (n, m, scale)


def test_rotation_equivariance():
    rp = sample_rational_pair(10, RandomStream(4))
    r = Rotation.random(np.random.default_rng(9))
    rot = rotate_pair(rp, r)
    pts = random_sphere(80)
    f0, s0 = eval_f_many(PairField(rp), pts, with_scale=True)
    f1, s1 = eval_f_many(PairField(rot), r.apply(pts), with_scale=True)
    assert np.max(np.abs(f0 / s0 - f1 / s1)) < 1e-8


def test_jet_finite_difference_oracle():
    # chart_jets against central differences of |p|^2 - |q|^2 by np.polyval,
    # in the southern chart z and the northern chart u = 1/z, where f is
    # that of the reversed-coefficient pair
    rp = sample_rational_pair(6, RandomStream(21))
    f, g, sc, coord, north = chart_jets(PairField(rp), random_sphere(40))
    gx, gy = g[:, 0], g[:, 1]
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
    pts = t.vertices[: t.sizes[0]]
    noisy = pts + 1e-3 * rng.normal(size=pts.shape)
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    corrected, rel, relgrad, conv, _ = newton_correct(PairField(rp), noisy)
    assert conv.all()
    assert rel.max() <= 1e-11
    assert np.allclose(np.linalg.norm(corrected, axis=1), 1.0, atol=1e-12)


def test_curve_tangents_annihilate_gradient():
    rp = sample_rational_pair(7, RandomStream(41))
    from lemnilab.tracer import trace

    t = trace(rp)
    pts = t.vertices[: t.sizes[0]]
    fld = PairField(rp)
    tan = curve_tangents(fld, pts)
    # unit, tangent to the sphere, and f is stationary along them
    assert np.allclose(np.linalg.norm(tan, axis=1), 1.0, atol=1e-9)
    assert np.max(np.abs(np.sum(tan * pts, axis=1))) < 1e-9
    h = 1e-6
    fwd = pts + h * tan
    fwd /= np.linalg.norm(fwd, axis=1, keepdims=True)
    bwd = pts - h * tan
    bwd /= np.linalg.norm(bwd, axis=1, keepdims=True)
    ffwd, sc = eval_f_many(fld, fwd, with_scale=True)
    fbwd, _ = eval_f_many(fld, bwd, with_scale=True)
    deriv_along = np.abs(ffwd - fbwd) / (2 * h * sc)
    # compare against the gradient magnitude seen by one normal step
    nrm = np.cross(pts, tan)
    up = pts + h * nrm
    up /= np.linalg.norm(up, axis=1, keepdims=True)
    fup, _ = eval_f_many(fld, up, with_scale=True)
    deriv_across = np.abs(fup - ffwd) / (h * sc)
    assert np.median(deriv_along / np.maximum(deriv_across, 1e-30)) < 1e-3


def test_unit_circle_pair_zero_on_equator():
    from lemnilab.ensemble import KostlanPolynomial, RationalPair

    rp = RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    theta = np.linspace(0, 2 * np.pi, 17)
    pts = from_homogeneous(np.stack([np.exp(1j * theta), np.ones(17)], axis=-1))
    vals = eval_f_many(PairField(rp), pts)
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
    # the values the same with and without the gradient, so the grid's signs
    # and the Newton residuals agree); the gradient against 4th-order central
    # differences of the values and against Euler's identity p . grad f = n f
    r = np.random.default_rng(2718)
    pts = _real_oracle_points(r)
    for n in (1, 2, 7, 50):
        poly = sample_real_kostlan(n, RandomStream(17).substream(n))
        fld = RealField(poly)
        f, grad, sc = eval_real_many(fld, pts, with_grad=True, with_scale=True)
        assert np.array_equal(f, eval_real_many(fld, pts))
        # the gradient and the scale are the same bits without the other
        assert np.array_equal(eval_real_many(fld, pts, with_grad=True)[1], grad)
        assert np.array_equal(eval_real_many(fld, pts, with_scale=True)[1], sc)
        P = pts.astype(np.longdouble)
        ref = np.zeros(len(pts), dtype=np.longdouble)
        ref2 = np.zeros(len(pts), dtype=np.longdouble)
        for (a, b, c), co in zip(exponents(n), poly.coeffs):
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
                return eval_real_many(fld, pts + m * e)

            fd = (8 * (F(1) - F(-1)) - (F(2) - F(-2))) / (12 * h)
            assert np.max(np.abs(grad[:, k] - fd) / (n * sc)) < 1e-9


def test_eval_real_many_kept_charts_change_no_bit():
    # the kept chart data against the data eval_real_many builds itself, on
    # the kostlan-compare n=50 grid and on subsets of it
    fld = RealField(sample_real_kostlan(50, RandomStream(404).substream(50)))
    grid = icosphere(64).verts
    for pts in (grid, grid[:1], grid[7:23], grid[::8][:5003]):
        charts = real_charts(pts, 50)
        for grad, scale in itertools.product((False, True), repeat=2):
            warm = eval_real_many(fld, pts, grad, scale, charts=charts)
            cold = eval_real_many(fld, pts, grad, scale)
            if not (grad or scale):
                warm, cold = (warm,), (cold,)
            assert len(warm) == len(cold) and all(map(np.array_equal, warm, cold))


# SHA-256 of eval_real_many's outputs at each degree (_real_digest), as
# the evaluator gave them, under one BLAS thread, before it ran each chart
# in blocks of points.  (A 2-thread BLAS then changed the last bits of 7
# gradient entries of the n=50 grid pass; in blocks they are the same
# bits under one thread and two.)
_REAL_DIGESTS = {
    1: "eb97be9ad39a6685e3a9f6d3f7698a9cac9f97b13f2952064f7d2c1058a0a015",
    7: "8fa396b6f39fb3f13c73cc3f09ca0816cf2c81f16415a993904e574d509740a2",
    50: "8bb1eba57f067555090ed5c43ced35338ea26047b27021725cd113f7435c3db8",
    60: "8393b47a4f77cefe0e96f3ec73d93b0ac925f973f3b86a2dadd6e50fe69c4b75",
}


def _real_digest(n):
    """Digest of the values, gradients and scales of a real field of
    degree n at every with_grad/with_scale combination, on the nu=64
    grid (with and without its kept chart data) and on fixed random sets
    of 1, 16, 2,047, 2,049, 5,003 and 20,003 points."""
    fld = RealField(sample_real_kostlan(n, RandomStream(404).substream(n)))
    grid = icosphere(64).verts
    r = np.random.default_rng(2048)
    sets = [(grid, None), (grid, real_charts(grid, n))]
    for m in (1, 16, 2047, 2049, 5003, 20003):
        v = r.normal(size=(m, 3))
        sets.append((v / np.linalg.norm(v, axis=1)[:, None], None))
    h = hashlib.sha256()
    for pts, charts in sets:
        for grad, scale in itertools.product((False, True), repeat=2):
            out = eval_real_many(fld, pts, grad, scale, charts=charts)
            for a in out if grad or scale else (out,):
                h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_eval_real_many_blocks_change_no_bit():
    # the blocks of _REAL_BLOCK points give the bits of one pass over each
    # chart, on both sides of a block's edge and over many blocks
    for n, digest in _REAL_DIGESTS.items():
        assert _real_digest(n) == digest, n


def test_curve_tangents_bits():
    # the one lift of the four offset chart points against four lifts,
    # with the gradient rows evaluated or given: the same bits
    fld = PairField(sample_rational_pair(30, RandomStream(404)))
    pts = random_sphere(300)
    _, g, _, coord, north = chart_jets(fld, pts)
    assert north.any() and (~north).any()
    h = 1e-7
    e1 = (_lift_chart(coord + h, north) - _lift_chart(coord - h, north)) / (2 * h)
    e2 = (_lift_chart(coord + 1j * h, north) - _lift_chart(coord - 1j * h, north)) / (2 * h)
    want = _unit_cross(pts, g[:, 0, None] * e1 + g[:, 1, None] * e2)
    assert np.array_equal(curve_tangents(fld, pts), want)
    assert np.array_equal(curve_tangents(fld, pts, g), want)
    # a walk step's few points: the lift alone (chart_jets' values depend
    # on the batch in the last bits)
    assert np.array_equal(curve_tangents(fld, pts[:2], g[:2]), want[:2])


def test_newton_rows_are_nan_where_it_did_not_converge():
    # one iteration from points half on the curve, half 1e-3 off it: the
    # points off it do not converge, and only they get NaN rows
    from lemnilab.tracer import trace

    for curve, newton in ((sample_rational_pair(7, RandomStream(31)), newton_correct),
                          (sample_real_kostlan(7, RandomStream(31)), real_newton_correct)):
        t = trace(curve)
        pts = t.vertices[::2].copy()
        pts[1::2] += 1e-3 * rng.normal(size=pts[1::2].shape)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        _, _, _, conv, rows = newton(t.fieldobj, pts, tol_rel=1e-9, max_iters=1)
        assert conv.any() and not conv.all()
        assert rows.shape == (len(pts), t.fieldobj.grad_width)
        assert np.isfinite(rows[conv]).all() and np.isnan(rows[~conv]).all()


def test_real_curve_tangents_bits():
    # the tangent is points x grad normalized, with the gradient of the
    # call that also computes the scale: leaving the scale out of the
    # tangent's call changes no bit
    pts = _real_oracle_points(np.random.default_rng(99))
    for n in (2, 50):
        fld = RealField(sample_real_kostlan(n, RandomStream(404).substream(n)))
        _, grad, _ = eval_real_many(fld, pts, with_grad=True, with_scale=True)
        t = np.cross(pts, grad)
        assert np.array_equal(real_curve_tangents(fld, pts),
                              t / np.linalg.norm(t, axis=1)[:, None])


def test_a_pair_field_builds_its_blocks_once(monkeypatch):
    # the trace and the tangent count of one tangents n=200 trial build
    # the pair's coefficient blocks once: values and derivatives of each
    # of the two charts
    from lemnilab import field
    from lemnilab.experiments import trial_stream
    from lemnilab.geomstats import meridian_stats
    from lemnilab.tracer import trace

    calls = []
    blocks = field._blocks
    monkeypatch.setattr(field, "_blocks", lambda *a: calls.append(1) or blocks(*a))
    t = trace(sample_rational_pair(200, trial_stream(202, 200, 0)))
    meridian_stats(t, np.array([0.0, 0.0, 1.0]))
    assert len(calls) == 4


def test_a_real_field_builds_its_chart_matrices_once(monkeypatch):
    from lemnilab import field

    poly = sample_real_kostlan(7, RandomStream(5))
    built = []
    exps = field.exponents
    monkeypatch.setattr(field, "exponents", lambda n: built.append(n) or exps(n))
    fld = RealField(poly)
    mats = fld.chart_matrices
    pts = random_sphere(30)
    fld.values(pts)
    fld.newton(pts)
    fld.tangents(pts)
    assert built == [7] and fld.chart_matrices is mats


def test_raw_row_blocks_match_a_pair_fields_charts():
    # the constructor's raw-row path against a PairField's two charts (the
    # reversed rows in the northern one), at both orders, in batches of 1,
    # 16 and 5,003 points of the closed unit disk
    from lemnilab.field import _pair_jets

    rp = sample_rational_pair(200, RandomStream(202))
    fld = PairField(rp)
    p, q = rp.p.coeffs, rp.q.coeffs
    z = _disk_points(np.random.default_rng(22), 5003)
    none = (np.zeros(0, dtype=bool), z[:0])
    for m in (1, 16, 5003):
        chart = (np.ones(m, dtype=bool), z[:m])
        for order in (0, 1):
            for rows, charts in (([p, q], (chart, none)), ([p[::-1], q[::-1]], (none, chart))):
                (_, jets), = _pair_jets(fld, charts, order)
                raw = poly_jets_many(jet_blocks(rows), z[:m], order)
                assert all(map(np.array_equal, sum(jets, []), sum(raw, [])))


# SHA-256 of poly_jets_many's values and derivatives (_jets_digest) and of
# the pair field's chart data, values, jets, Newton projection and
# tangents (_pair_digest) per degree, as the field layer gave them before
# it stacked the value and derivative blocks into one product and mapped
# charts in real arithmetic.
_JETS_DIGESTS = {
    1: "4b2b15d9cf8751b83fa91c022421a7a73c764059ae1362d96c7f10e616c2d142",
    5: "83a280a77cac97abf09a6d321028600505b510fbb8cd543de151146b99e4eced",
    25: "ca04f94041b63904e9bb2a9cdddc8d6295bfa82b61290998c40bf8df2227e626",
    100: "7786909b1ed6ddbc681cbb1a3b074b0e6ebe2ab0fcbe734dc570ebf1076f9a9b",
    200: "00fd408dee335e4b5d39a879dba6dd2595f0cace1c38bae14945f0e10b584c21",
}
_PAIR_DIGESTS = {
    5: "b4be42477bb700fdb876989a4325a6892db6985437e419e53be9ff6621344ebb",
    25: "4cdb9550930ab730ed92932616704ba43921eb393282aa418f9d058fefd9f33f",
    200: "6e1f8fbd75718c71a0da902e224494f730537a46f6c12ae8303bdc1e05b00d3e",
}


def _jets_digest(n):
    """Digest of poly_jets_many at orders 0 and 1 for the rows (p, q) of a
    degree-n pair, on the first 1, 2, 16, 63, 8,192, 8,193 and 20,001 of
    fixed points of the closed unit disk."""
    rp = sample_rational_pair(n, RandomStream(303).substream(n))
    blocks = jet_blocks([rp.p.coeffs, rp.q.coeffs])
    z = _disk_points(np.random.default_rng(8193), 20001)
    h = hashlib.sha256()
    for m in (1, 2, 16, 63, 8192, 8193, 20001):
        for order in (0, 1):
            for a in sum(poly_jets_many(blocks, z[:m], order), []):
                h.update(a.tobytes())
    return h.hexdigest()


def _signed_zero_points():
    """The 48 unit points whose components are 0.6, 0.8, 1 or 0 with each
    sign, zeros included: the poles, points on t = +-0 and points with
    x = +-0 or y = +-0."""
    base = [(0.6, 0.8, 0.0), (0.6, 0.0, 0.8), (0.0, 0.6, 0.8),
            (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    signs = list(itertools.product((1.0, -1.0), repeat=3))
    return np.array([np.multiply(b, s) for b in base for s in signs])


def _fixed_sphere_points():
    """5,003 fixed sphere points: _signed_zero_points, 200 points each on
    the rims t = 0, -0 and +-1e-17 (where the two homogeneous charts of
    pair_charts tie up to rounding), and random points."""
    r = np.random.default_rng(5003)
    theta = 2.0 * np.pi * r.uniform(size=(4, 200))
    rims = [np.stack([np.cos(a), np.sin(a), np.full(200, t)], axis=1)
            for a, t in zip(theta, (0.0, -0.0, 1e-17, -1e-17))]
    v = r.normal(size=(5003 - 48 - 800, 3))
    return np.concatenate([_signed_zero_points(), *rims, v / np.linalg.norm(v, axis=1)[:, None]])


def _pair_digest(n):
    """Digest of pair_charts, eval_f_many (with and without the kept
    chart data, with and without the scale), chart_jets, the five outputs
    of newton_correct and curve_tangents (with and without the gradient
    rows) of a degree-n pair field, on _fixed_sphere_points, on its first
    two points and on 16 points of one chart each."""
    fld = PairField(sample_rational_pair(n, RandomStream(303).substream(n)))
    pts = _fixed_sphere_points()
    t = pts[:, 2]
    h = hashlib.sha256()
    for v in (pts, pts[:2], pts[t > 0][:16], pts[t <= 0][:16]):
        charts = pair_charts(v)
        out = [a for chart in charts for a in chart]
        for kept in (None, charts):
            out += [*eval_f_many(fld, v, True, kept), eval_f_many(fld, v, charts=kept)]
        jets = chart_jets(fld, v)
        newt = newton_correct(fld, v)
        conv = newt[3]
        out += [*jets, *newt, curve_tangents(fld, v), curve_tangents(fld, v, jets[1]),
                curve_tangents(fld, newt[0][conv], newt[4][conv])]
        for a in out:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_pair_field_bits():
    # the field layer's bits at every degree and batch pinned above
    for n, digest in _JETS_DIGESTS.items():
        assert _jets_digest(n) == digest, n
    for n, digest in _PAIR_DIGESTS.items():
        assert _pair_digest(n) == digest, n

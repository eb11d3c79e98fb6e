"""Stable evaluation of f = |p|^2 - |q|^2 and its chart derivatives on S^2.

Values are computed projectively: a sphere point is lifted to a unit-norm
homogeneous representative (z_h, w_h) and the homogenized polynomials are
evaluated there, so f is finite everywhere (including infinity) and its
magnitude stays of order the coefficient magnitudes for degrees in the
hundreds.  First derivatives are taken in an affine chart, with the chart
switched at |z| = 1, so every pair evaluation runs at |z| <= 1.  One
evaluator, poly_jets_many, serves them all: a baby-step/giant-step scheme
that keeps about 2 sqrt(n) powers per point instead of n + 1.  The
real-Kostlan evaluator (eval_real_many) multiplies the full power matrices
of its separable charts.  PairField and RealField (see as_field) give the
tracer and the tangent counter one interface to either kind of curve.
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import RationalPair, RealKostlanPolynomial
from .sphere import homogeneous_coords


_CHUNK = 8192


def _power_matrix(z: np.ndarray, n: int) -> np.ndarray:
    """(m, n+1) matrix of z^k, of z's dtype; z should stay in the closed
    unit disk.

    Built by doubling (z^(w+k) = z^w z^k), which vectorizes much better
    than a sequential cumulative product along the degree axis.
    """
    V = np.empty((len(z), n + 1), dtype=z.dtype)
    V[:, 0] = 1.0
    if n >= 1:
        V[:, 1] = z
    w = 1
    while w < n:
        m = min(w, n - w)
        np.multiply(V[:, 1 : m + 1], V[:, w, None], out=V[:, w + 1 : w + m + 1])
        w += m
    return V


def _blocks(rows: np.ndarray, b: int) -> np.ndarray:
    """(r * nb, b) matrix of coefficient rows cut into nb = ceil(L/b) blocks
    of length b (the last one zero-padded); rows is (r, L)."""
    r, L = rows.shape
    nb = -(-L // b)
    C = np.zeros((r, nb * b), dtype=complex)
    C[:, :L] = rows
    return C.reshape(r * nb, b)


def _powers(z: np.ndarray, b: int) -> np.ndarray:
    """(b+1, m) array of z^0..z^b, points last, built by doubling
    (z^(w+k) = z^w z^k) along contiguous rows."""
    Z = np.empty((b + 1, len(z)), dtype=complex)
    Z[0] = 1.0
    if b >= 1:
        Z[1] = z
    w = 1
    while w < b:
        s = min(w, b - w)
        np.multiply(Z[1 : s + 1], Z[w], out=Z[w + 1 : w + s + 1])
        w += s
    return Z


def poly_jets_many(coeff_rows, z: np.ndarray, order: int = 0):
    """Values (order 0) or values and first derivatives (order 1) of several
    equal-degree polynomials at z.

    Returns a list (one entry per coefficient row) of lists [p] or
    [p, p'].  Baby-step/giant-step scheme (Paterson and Stockmeyer, 1973):
    per chunk of points only the baby steps z^0..z^b are built, points
    last as a (b+1, m) array, and one product with the coefficient rows
    cut into blocks of length b gives every block's value B_j.  The giant
    steps (z^b)^j, built by doubling like the baby steps, combine them:
    p = sum_j B_j (z^b)^j.  A single pass over the blocks costs fewer
    array operations than Horner in z^b, which matters at the few points
    of a walk step.  The derivative rows get their own product, so the
    values are the same bits at either order.
    """
    z = np.asarray(z, dtype=complex).ravel()
    rows = np.array(coeff_rows, dtype=complex)
    r, n = len(rows), rows.shape[1] - 1
    # b = 29 at n = 200; a function of the degree only, never of the
    # number of points, so a point's value does not depend on its call
    b = min(n + 1, math.ceil(2.0 * math.sqrt(n + 1)))
    mats = [_blocks(rows, b)]
    if order and n >= 1:
        mats.append(_blocks(rows[:, 1:] * np.arange(1.0, n + 1.0), b))
    out = np.zeros((order + 1, r, len(z)), dtype=complex)
    for lo in range(0, len(z), _CHUNK):
        zc = z[lo : lo + _CHUNK]
        Z = _powers(zc, b)
        G = _powers(Z[b], len(mats[0]) // r - 1)
        for o, C in enumerate(mats):
            B = (C @ Z[:b]).reshape(r, -1, len(zc))
            B *= G[: B.shape[1]]
            out[o, :, lo : lo + len(zc)] = B.sum(axis=1)
    return [[out[o, i] for o in range(order + 1)] for i in range(r)]


def eval_f_many(rp: RationalPair, points: np.ndarray, with_scale: bool = False):
    """f = |hp|^2 - |hq|^2 at unit-norm homogeneous representatives.

    With with_scale=True also returns |hp|^2 + |hq|^2, the natural local
    magnitude against which |f| residuals should be measured.
    """
    zh, wh = homogeneous_coords(points)
    n = rp.degree
    zh = np.atleast_1d(zh)
    wh = np.atleast_1d(wh)
    south = np.abs(zh) <= np.abs(wh)
    ap = np.empty(zh.shape)
    aq = np.empty(zh.shape)
    for mask, pc, qc, num, den in (
        (south, rp.p.coeffs, rp.q.coeffs, zh, wh),
        (~south, rp.p.coeffs[::-1], rp.q.coeffs[::-1], wh, zh),
    ):
        if not np.any(mask):
            continue
        z = num[mask] / den[mask]
        (pv,), (qv,) = poly_jets_many([pc, qc], z)
        # |den|^(2n) factor from homogenization; |den| >= 1/sqrt(2)
        amp = np.exp(2.0 * n * np.log(np.abs(den[mask])))
        ap[mask] = amp * (pv.real**2 + pv.imag**2)
        aq[mask] = amp * (qv.real**2 + qv.imag**2)
    if with_scale:
        return ap - aq, ap + aq
    return ap - aq


def _pair_chart_jet(p_coeffs, q_coeffs, z):
    """(f, fx, fy, scale) of f = |p|^2 - |q|^2 at affine points z."""
    (p0, p1), (q0, q1) = poly_jets_many([p_coeffs, q_coeffs], z, order=1)
    a = p1 * np.conj(p0) - q1 * np.conj(q0)
    f = np.abs(p0) ** 2 - np.abs(q0) ** 2
    scale = np.abs(p0) ** 2 + np.abs(q0) ** 2
    return f, 2.0 * a.real, -2.0 * a.imag, scale


def _chart_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point chart coordinate with modulus <= 1.

    Southern points use z = (x + iy)/(1 - t), northern ones the reciprocal
    chart u = (x - iy)/(1 + t) = 1/z.  Returns (coords, north_mask).
    """
    x, y, t = points[..., 0], points[..., 1], points[..., 2]
    north = t > 0.0
    coord = np.where(north, (x - 1j * y) / (1.0 + np.abs(t)), (x + 1j * y) / (1.0 + np.abs(t)))
    return coord, north


def _lift_chart(coord: np.ndarray, north: np.ndarray) -> np.ndarray:
    """Inverse of _chart_coords."""
    m2 = coord.real**2 + coord.imag**2
    sgn = np.where(north, -1.0, 1.0)
    return np.stack(
        [2.0 * coord.real, sgn * 2.0 * coord.imag, -sgn * (1.0 - m2)], axis=-1
    ) / (1.0 + m2)[..., None]


def chart_jets(rp: RationalPair, points: np.ndarray):
    """(f, fx, fy, scale, coord, north) of f in the per-point chart of
    _chart_coords.

    In the northern chart the values are those of the reversed-coefficient
    pair, which rescales f by |u|^(2n) > 0: same zero set, same sign.
    """
    coord, north = _chart_coords(np.asarray(points, dtype=float))
    f = np.empty(coord.shape)
    gx = np.empty(coord.shape)
    gy = np.empty(coord.shape)
    sc = np.empty(coord.shape)
    south = ~north
    if np.any(south):
        f[south], gx[south], gy[south], sc[south] = _pair_chart_jet(
            rp.p.coeffs, rp.q.coeffs, coord[south]
        )
    if np.any(north):
        f[north], gx[north], gy[north], sc[north] = _pair_chart_jet(
            rp.p.coeffs[::-1], rp.q.coeffs[::-1], coord[north]
        )
    return f, gx, gy, sc, coord, north


# The two other axes, in index order, when axis d dominates a point.
_CHART_AXES = ((1, 2), (0, 2), (0, 1))


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def eval_real_many(
    poly: RealKostlanPolynomial,
    points: np.ndarray,
    with_grad: bool = False,
):
    """Homogeneous real polynomial (and ambient gradient) at sphere points.

    Separable in the chart of each point's dominant coordinate t (largest
    modulus, ties to the lowest axis): with u, v the other two coordinates
    over t (so |u|, |v| <= 1), U, V their power matrices and C[a, b] the
    coefficient of u^a v^b, f = t^n rowsum(U * (V C^T)).  The returned
    scale is the root-sum-square of the monomial terms,
    |t|^n sqrt(rowsum(U^2 * (V^2 (C*C)^T))), and the gradient components
    are t^(n-1) times the same product with C weighted by a, b and
    n - a - b.
    """
    pts = np.asarray(points, dtype=float)
    n = poly.degree
    E = poly.exps
    N = len(pts)
    vals = np.empty(N)
    scale = np.empty(N)
    grad = np.empty((N, 3)) if with_grad else None
    dom = np.argmax(np.abs(pts), axis=1)
    k = np.arange(n + 1.0)
    for d, (i, j) in enumerate(_CHART_AXES):
        idx = np.flatnonzero(dom == d)
        if not len(idx):
            continue
        C = np.zeros((n + 1, n + 1))
        C[E[:, i], E[:, j]] = poly.coeffs
        t = pts[idx, d]
        U = _power_matrix(pts[idx, i] / t, n)
        V = _power_matrix(pts[idx, j] / t, n)
        W = V @ C.T
        tn = t**n
        vals[idx] = tn * _rowdot(U, W)
        scale[idx] = np.abs(tn) * np.sqrt(_rowdot(U * U, (V * V) @ (C * C).T))
        if with_grad:
            # d/du reuses V C^T: column a + 1 weighted by a + 1 meets u^a;
            # d/dv: Cv[a, b] = (b + 1) C[a, b + 1]; d/dt: C[a, b] (n - a - b)
            Cv = np.zeros_like(C)
            Cv[:, :n] = C[:, 1:] * k[1:]
            Wvt = V @ np.concatenate([Cv, C * (n - k[:, None] - k[None, :])]).T
            tn1 = t ** (n - 1)
            grad[idx, i] = tn1 * ((U[:, :n] * W[:, 1:]) @ k[1:])
            grad[idx, j] = tn1 * _rowdot(U, Wvt[:, : n + 1])
            grad[idx, d] = tn1 * _rowdot(U, Wvt[:, n + 1 :])
    if with_grad:
        return vals, grad, scale
    return vals, scale


def _project(jet, points, tol_rel, max_iters):
    """Newton projection onto {f = 0}, shared by both fields.

    jet(v) returns (f, |grad f|^2, scale, move) at the points v, where
    move(step) gives the points moved by step * grad f back on the sphere.
    Only the points still above tol_rel are evaluated again.  Returns
    (points, relative residual, relative gradient norm, converged mask).
    """
    pts = np.array(points, dtype=float)
    rel = np.full(len(pts), np.inf)
    relgrad = np.full(len(pts), np.inf)
    active = np.arange(len(pts))
    for _ in range(max_iters):
        f, g2, sc, move = jet(pts[active])
        r = np.abs(f) / sc
        rel[active] = r
        relgrad[active] = np.sqrt(g2) / sc
        pending = r > tol_rel
        if not np.any(pending):
            break
        ok = g2 > 0
        step = np.where(ok, f / np.where(ok, g2, 1.0), 0.0)
        upd = active[pending]
        pts[upd] = move(step)[pending]
        active = upd
    return pts, rel, relgrad, rel <= tol_rel


def newton_correct(
    rp: RationalPair,
    points: np.ndarray,
    tol_rel: float = 1e-11,
    max_iters: int = 12,
):
    """Project sphere points onto {f = 0} by chart Newton steps.

    Returns (corrected points, relative residual, relative gradient norm,
    converged mask).  Residuals and gradients are measured against the
    local field scale |p|^2 + |q|^2.
    """

    def jet(v):
        f, gx, gy, sc, coord, north = chart_jets(rp, v)
        return f, gx * gx + gy * gy, sc, lambda s: _lift_chart(coord - s * (gx + 1j * gy), north)

    return _project(jet, points, tol_rel, max_iters)


def real_newton_correct(
    poly: RealKostlanPolynomial,
    points: np.ndarray,
    tol_rel: float = 1e-11,
    max_iters: int = 12,
):
    """Project sphere points onto {poly = 0} by tangential Newton steps.

    Same return convention as :func:`newton_correct`; the gradient is the
    ambient gradient projected to the tangent plane, and residuals are
    measured against the root-sum-square of the monomial terms.
    """

    def jet(v):
        f, g, sc = eval_real_many(poly, v, with_grad=True)
        gt = g - np.einsum("ij,ij->i", g, v)[:, None] * v

        def move(step):
            moved = v - step[:, None] * gt
            return moved / np.linalg.norm(moved, axis=1)[:, None]

        return f, np.einsum("ij,ij->i", gt, gt), np.maximum(sc, 1e-300), move

    return _project(jet, points, tol_rel, max_iters)


def _unit_cross(points, g3) -> np.ndarray:
    """points x g3, normalized; zero rows stay zero."""
    t = np.cross(np.asarray(points, dtype=float), g3)
    nrm = np.linalg.norm(t, axis=1)
    return t / np.where(nrm > 0, nrm, 1.0)[:, None]


def curve_tangents(rp: RationalPair, points: np.ndarray) -> np.ndarray:
    """Unit 3-vectors tangent to {f = 0} at points assumed on the curve.

    The chart gradient is pushed forward to R^3 through the chart lift and
    rotated by 90 degrees in the tangent plane; the overall sign is
    arbitrary.
    """
    f, gx, gy, sc, coord, north = chart_jets(rp, points)
    h = 1e-7
    e1 = (_lift_chart(coord + h, north) - _lift_chart(coord - h, north)) / (2 * h)
    e2 = (_lift_chart(coord + 1j * h, north) - _lift_chart(coord - 1j * h, north)) / (2 * h)
    return _unit_cross(points, gx[:, None] * e1 + gy[:, None] * e2)


def real_curve_tangents(poly: RealKostlanPolynomial, points: np.ndarray) -> np.ndarray:
    _, g, _ = eval_real_many(poly, points, with_grad=True)
    return _unit_cross(points, g)


# Relative residual and iteration limit of the Newton projections made by
# the tracer and the tangent counter.
TRACE_NEWTON = (1e-9, 12)


class PairField:
    """f = |p|^2 - |q|^2 of a rational pair."""

    def __init__(self, rp: RationalPair):
        self.rp = rp
        self.degree = rp.degree

    def values(self, pts):
        return eval_f_many(self.rp, pts)

    def newton(self, pts):
        return newton_correct(self.rp, pts, *TRACE_NEWTON)

    def tangents(self, pts):
        return curve_tangents(self.rp, pts)


class RealField:
    """A homogeneous real polynomial restricted to S^2."""

    def __init__(self, poly: RealKostlanPolynomial):
        self.poly = poly
        self.degree = poly.degree

    def values(self, pts):
        return eval_real_many(self.poly, pts)[0]

    def newton(self, pts):
        return real_newton_correct(self.poly, pts, *TRACE_NEWTON)

    def tangents(self, pts):
        return real_curve_tangents(self.poly, pts)


def as_field(curve):
    """The field object of a RationalPair or a RealKostlanPolynomial."""
    if isinstance(curve, RationalPair):
        return PairField(curve)
    if isinstance(curve, RealKostlanPolynomial):
        return RealField(curve)
    raise TypeError(f"cannot trace a {type(curve).__name__}")

"""Stable evaluation of f = |p|^2 - |q|^2 and its chart derivatives on S^2.

Values are computed projectively: a sphere point is lifted to a unit-norm
homogeneous representative (z_h, w_h) and the homogenized polynomials are
evaluated there, so f is finite everywhere (including infinity) and its
magnitude stays of order the coefficient magnitudes for degrees in the
hundreds.  First derivatives are taken in an affine chart, with the chart
switched at |z| = 1, so every pair evaluation runs at |z| <= 1.  One loop,
_pair_jets, runs the pair's two charts for the values and the jets alike:
the forward coefficients in the southern chart, the reversed ones in the
northern chart.  One evaluator, poly_jets_many, serves them all: a
baby-step/giant-step scheme that keeps about 2 sqrt(n) powers per point
instead of n + 1.  A jet is one product: jet_blocks stacks the blocks of
the derivative rows under those of the rows, and the values are the same
bits at either order.  The real-Kostlan evaluator (eval_real_many)
multiplies the full power matrices of its separable charts by the curve's
chart coefficient matrices, in blocks of _REAL_BLOCK points of a chart, so
its temporaries stay in cache; the blocks give the bits of one pass.  One
builder, _powers, makes every table of powers by doubling.  A field
object, PairField or RealField (see as_field), owns its curve's
coefficient data, built once: the pair's blocks of both charts
(jet_blocks), the real curve's chart matrices.  Every evaluator takes the
field object, and a trace carries the one it was traced with.

Each evaluator's chart data depends on the points alone, and the real
one's on the degree too: eval_f_many's (pair_charts: each point's chart,
its chart coordinate and log|den|) and eval_real_many's (real_charts: each
point's dominant axis and coordinate, the power table of the first ratio
and the second ratio).  The pair field's tables (pair_tables) add what
its grid pass builds from the points and the degree alone: the factor
|den|^(2n) and poly_jets_many's baby and giant steps per _CHUNK slice.
The tracer keeps the chart data for the grids it traces trial after
trial, and the tables for its caps, and passes them back.  A repeated
grid pass then builds the baby and giant steps and the products (a
whole-sphere pair grid), runs only the products and the combine (a cap),
or builds only the second power table before the products (the real
field).  They run on the same data with the same expressions, so the
values are the same bits as without the kept data.

Walk steps and Newton tails evaluate a few points per call, so there a
call's array operations cost more than its arithmetic.  The chart maps
(pair_charts, _chart_coords, _lift_chart) work on real and imaginary parts
in place, with the bits of the complex expressions they stand for; a call
whose points all lie in one chart takes that chart's outputs as they are,
without scattering them (_by_point); and Newton lifts only the points it
moves.

One Newton loop (_project) serves both fields.  Besides the points it
returns the gradient row it read at each point it accepted: the chart
gradient (fx, fy) for the pair, the ambient gradient for the real field,
NaN where a point did not converge.  The tangents (curve_tangents,
real_curve_tangents, a field's tangents) are formed from such rows
without evaluating f again; only their last bits can differ from a fresh
evaluation's, as the rows come from another batch.
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import RationalPair, RealKostlanPolynomial, exponents


_CHUNK = 8192
# points per block of one chart in eval_real_many: its temporaries, a few
# (points, n + 1) tables, stay in cache at the degrees traced
_REAL_BLOCK = 2048
# The two other axes, in index order, when axis d dominates a point.
CHART_AXES = ((1, 2), (0, 2), (0, 1))


def _blocks(rows: np.ndarray, b: int, nb: int) -> np.ndarray:
    """(r * nb, b) matrix of coefficient rows cut into nb >= L/b blocks of
    length b (zero-padded at the end); rows is (r, L)."""
    r, L = rows.shape
    C = np.zeros((r, nb * b), dtype=complex)
    C[:, :L] = rows
    return C.reshape(r * nb, b)


def _powers(z: np.ndarray, b: int) -> np.ndarray:
    """(b+1, m) array of z^0..z^b, of z's dtype, points last, built by
    doubling (z^(w+k) = z^w z^k) along contiguous rows."""
    Z = np.empty((b + 1, len(z)), dtype=z.dtype)
    Z[0] = 1.0
    if b >= 1:
        Z[1] = z
    w = 1
    while w < b:
        s = min(w, b - w)
        np.multiply(Z[1 : s + 1], Z[w], out=Z[w + 1 : w + s + 1])
        w += s
    return Z


def _block_shape(n: int) -> tuple[int, int]:
    """(b, nb): poly_jets_many's block length and number of blocks at
    degree n, a function of the degree only, never of the number of
    points; b = 29 and nb = 7 at n = 200, b = n + 1 and nb = 1 at n <= 3."""
    b = min(n + 1, math.ceil(2.0 * math.sqrt(n + 1)))
    return b, -(-(n + 1) // b)


def jet_blocks(coeff_rows) -> tuple:
    """poly_jets_many's coefficient data of several equal-degree
    polynomials: (r, b, blocks), with r the number of rows, b the block
    length and blocks the _blocks of the rows stacked on those of their
    derivative rows, both cut into the same number of blocks."""
    rows = np.array(coeff_rows, dtype=complex)
    r, n = len(rows), rows.shape[1] - 1
    b, nb = _block_shape(n)
    ders = rows[:, 1:] * np.arange(1.0, n + 1.0)
    return r, b, np.concatenate([_blocks(rows, b, nb), _blocks(ders, b, nb)])


def _jet_powers(z: np.ndarray, n: int) -> list:
    """poly_jets_many's powers of the points z at degree n, which depend
    on z and n alone, as it builds them when given none (there the giant
    steps after the product): per _CHUNK slice of z, the baby steps z^0..z^b,
    points last as a (b+1, m) array, and the giant steps (z^b)^0..
    (z^b)^(nb-1), an (nb, m) array (b, nb: _block_shape(n))."""
    b, nb = _block_shape(n)
    out = []
    for lo in range(0, len(z), _CHUNK):
        Z = _powers(z[lo : lo + _CHUNK], b)
        out.append((Z, _powers(Z[b], nb - 1)))
    return out


def poly_jets_many(blocks: tuple, z: np.ndarray, order: int = 0, powers=None):
    """Values (order 0) or values and first derivatives (order 1) of several
    equal-degree polynomials at z; blocks is their jet_blocks.  powers, if
    given, is _jet_powers(z, n) at their degree n, kept from an earlier
    call on the same points: the values are then the same bits without
    building it.

    Returns a list (one entry per coefficient row) of lists [p] or
    [p, p'].  Baby-step/giant-step scheme (Paterson and Stockmeyer, 1973):
    per chunk of points only the baby steps z^0..z^b are built, points
    last as a (b+1, m) array, and one product with the coefficient rows
    cut into blocks of length b gives every block's value B_j.  The giant
    steps (z^b)^j, built by doubling like the baby steps, combine them:
    p = sum_j B_j (z^b)^j.  A single pass over the blocks costs fewer
    array operations than Horner in z^b, which matters at the few points
    of a walk step.  At order 1 one product takes the value blocks and
    the derivative blocks stacked under them, and one combine sums both;
    order 0 takes the value blocks alone.  Each row of the product is
    summed alone, so the values are the same bits at either order.

    A point's value depends on its call in the last bits only: the block
    size is fixed by the degree, but the product's kernel sums a point's
    column in an order that depends on where the column falls in the
    batch.  At n=100, dropping the first 1, 2 or 3 of 5,000 points changes
    3, 2 or 1 of the other values, and most single-point calls differ
    from a batched call in the last bit.  So the same points evaluated in
    another batch (a cap trace against a whole-sphere trace) agree to
    about 1e-16, not bit for bit.
    """
    z = np.asarray(z, dtype=complex).ravel()
    r, b, C = blocks
    nb = len(C) // (2 * r)
    C = C[: (order + 1) * r * nb]
    out = np.empty((order + 1, r, len(z)), dtype=complex)
    for k, lo in enumerate(range(0, len(z), _CHUNK)):
        Z = powers[k][0] if powers else _powers(z[lo : lo + _CHUNK], b)
        m = Z.shape[1]
        B = (C @ Z[:b]).reshape(order + 1, r, nb, m)
        # the giant steps: built after the product, which would otherwise
        # push them out of cache (3% of a grid pass at n = 200)
        B *= powers[k][1] if powers else _powers(Z[b], nb - 1)
        np.add.reduce(B, axis=2, out=out[:, :, lo : lo + m])
    return [[out[o, i] for o in range(order + 1)] for i in range(r)]


def _pair_jets(fld: PairField, charts, order: int):
    """Yield (chart, jets) for each nonempty chart of charts, the
    (mask, z, ...) data of the southern and then the northern chart: the
    jets are poly_jets_many's of p and q at z, of the reversed pair in the
    northern chart (f times |u|^(2n) > 0 at u = 1/z: same zero set, sign),
    on the chart's kept powers if it holds them (pair_tables)."""
    for chart, blocks in zip(charts, fld.blocks):
        if len(chart[1]):
            yield chart, poly_jets_many(blocks, chart[1], order, *chart[4:])


def _by_point(parts, full):
    """Per-point outputs from parts, the (mask, outputs) of each nonempty
    chart: the outputs of a chart that holds every point as they are, else
    full, empty per-point arrays, filled chart by chart."""
    if len(parts) == 1:
        return parts[0][1]
    for mask, outs in parts:
        for a, o in zip(full, outs):
            a[mask] = o
    return full


def _xy(x: np.ndarray, y: np.ndarray, north: np.ndarray) -> np.ndarray:
    """x + iy, and x - iy where north, with +0 as the imaginary part at
    y = +-0: divided by a positive real (which numpy does by multiplying
    with its reciprocal), it gives the bits of the complex expression."""
    c = np.empty(x.shape, dtype=complex)
    c.real = x
    np.add(y, 0.0, out=c.imag)
    np.subtract(0.0, c.imag, out=c.imag, where=north)
    return c


def pair_charts(points: np.ndarray):
    """eval_f_many's chart data of points, which depends on the points
    alone: per chart, the mask of its points (|z_h| <= |w_h| first, then
    the rest), their chart coordinates num/den and log|den|.

    [z_h : w_h] is sphere.homogeneous_coords' pair, [x + iy : 1 - t] in
    the south and [1 + t : x - iy] in the north over its norm, here with
    its real entry a kept real.  A point's chart coordinate is u/a, u the
    complex entry, except on the rim t ~ 0, where rounding can put a point
    in the other chart and its coordinate is a/u.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, t = pts.T
    up = t > 0.0
    a = np.abs(t)
    a += 1.0
    u = _xy(x, y, up)
    norm = np.abs(u)
    norm *= norm
    norm += a * a
    np.sqrt(norm, out=norm)
    # numpy divides u by the real norm through its reciprocal, and so does
    # a here, as a + 0j would be
    u /= norm
    a *= np.divide(1.0, norm, out=norm)
    ru = np.abs(u)
    south = np.where(up, a <= ru, ru <= a)
    flip = south == up
    coord = u / a
    coord[flip] = a[flip] / u[flip]
    a[flip] = ru[flip]
    logden = np.log(a, out=a)
    return tuple((mask, coord[mask], logden[mask]) for mask in (south, ~south))


def pair_tables(charts, n: int):
    """charts, pair_charts' data, with what eval_f_many builds from the
    points and the degree n alone appended to each chart: the factor
    exp(2n log|den|) and poly_jets_many's powers of each _CHUNK slice,
    (b + nb + 1) * 16 + 8 bytes a point (b, nb: _block_shape(n))."""
    return tuple((mask, z, logden, np.exp(2.0 * n * logden), _jet_powers(z, n))
                 for mask, z, logden in charts)


def eval_f_many(fld: PairField, points: np.ndarray, with_scale: bool = False,
                charts=None):
    """f = |hp|^2 - |hq|^2 at unit-norm homogeneous representatives.

    With with_scale=True also returns |hp|^2 + |hq|^2, the natural local
    magnitude against which |f| residuals should be measured.  charts, if
    given, is pair_charts(points), or pair_tables of it at fld.degree,
    kept from an earlier call on the same points: the values are then the
    same bits without recomputing it.
    """
    if charts is None:
        charts = pair_charts(points)
    n = fld.degree
    parts = []
    for (mask, _, logden, *kept), ((pv,), (qv,)) in _pair_jets(fld, charts, 0):
        # |den|^(2n) factor from homogenization; |den| >= 1/sqrt(2)
        amp = kept[0] if kept else np.exp(2.0 * n * logden)
        ap = amp * (pv.real**2 + pv.imag**2)
        aq = amp * (qv.real**2 + qv.imag**2)
        parts.append((mask, (ap - aq, ap + aq) if with_scale else (ap - aq,)))
    m = len(charts[0][0])
    out = _by_point(parts, [np.empty(m) for _ in range(1 + with_scale)])
    return tuple(out) if with_scale else out[0]


def _chart_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point chart coordinate with modulus <= 1.

    Southern points use z = (x + iy)/(1 - t), northern ones the reciprocal
    chart u = (x - iy)/(1 + t) = 1/z.  Returns (coords, north_mask).  The
    numerator is written in place (_xy) and divided by the real 1 + |t|.
    Newton keeps this chart rather than pair_charts': the two differ in the
    last bit at most grid points, and the committed trial bytes rest on it.
    """
    x, y, t = points[..., 0], points[..., 1], points[..., 2]
    north = t > 0.0
    coord = _xy(x, y, north)
    coord /= 1.0 + np.abs(t)
    return coord, north


def _lift_chart(coord: np.ndarray, north: np.ndarray) -> np.ndarray:
    """Inverse of _chart_coords."""
    cr, ci = coord.real, coord.imag
    m2 = cr * cr + ci * ci
    out = np.empty(coord.shape + (3,))
    np.multiply(2.0, cr, out=out[..., 0])
    np.multiply(np.where(north, -2.0, 2.0), ci, out=out[..., 1])
    np.multiply(np.where(north, 1.0, -1.0), 1.0 - m2, out=out[..., 2])
    out /= (1.0 + m2)[..., None]
    return out


def chart_jets(fld: PairField, points: np.ndarray):
    """(f, grad, scale, coord, north) of f in the per-point chart of
    _chart_coords, the northern chart's of the reversed pair (_pair_jets):
    grad is the (points, 2) array of the chart gradient rows (fx, fy)."""
    coord, north = _chart_coords(np.asarray(points, dtype=float))
    south = ~north
    charts = ((south, coord[south]), (north, coord[north]))
    parts = []
    for (mask, _), ((p0, p1), (q0, q1)) in _pair_jets(fld, charts, 1):
        pp = np.abs(p0) ** 2
        qq = np.abs(q0) ** 2
        parts.append((mask, (pp - qq, p1 * np.conj(p0) - q1 * np.conj(q0), pp + qq)))
    m = coord.shape
    f, a, sc = _by_point(parts, (np.empty(m), np.empty(m, dtype=complex), np.empty(m)))
    g = np.empty(m + (2,))
    np.multiply(2.0, a.real, out=g[..., 0])
    np.multiply(-2.0, a.imag, out=g[..., 1])
    return f, g, sc, coord, north


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def real_charts(points: np.ndarray, n: int):
    """eval_real_many's chart data of points at degree n, which depends on
    the points and n alone: per dominant axis d (largest modulus, ties to
    the lowest axis), with (i, j) = CHART_AXES[d], the indices of its
    points, their coordinate t, the (points, n + 1) table of the powers of
    x_i / t and the ratio x_j / t."""
    pts = np.asarray(points, dtype=float)
    dom = np.argmax(np.abs(pts), axis=1)
    out = []
    for d, (i, j) in enumerate(CHART_AXES):
        idx = np.flatnonzero(dom == d)
        t = pts[idx, d]
        out.append((idx, t, np.ascontiguousarray(_powers(pts[idx, i] / t, n).T), pts[idx, j] / t))
    return tuple(out)


def eval_real_many(
    fld: RealField,
    points: np.ndarray,
    with_grad: bool = False,
    with_scale: bool = False,
    charts=None,
):
    """Homogeneous real polynomial (and ambient gradient) at sphere points.

    Separable in the chart of each point's dominant coordinate t: with u,
    v the other two coordinates over t (so |u|, |v| <= 1), U, V their
    power matrices and C[a, b] the coefficient of u^a v^b
    (fld.chart_matrices), f = t^n rowsum(U * (V C^T)).  Returns the
    values, followed by the gradient with with_grad=True and the scale
    with with_scale=True: the gradient components are t^(n-1) times the
    same product with C weighted by a, b and n - a - b, and the scale is
    the root-sum-square of the monomial terms,
    |t|^n sqrt(rowsum(U^2 * (V^2 (C*C)^T))).

    charts, if given, is real_charts(points, fld.degree), kept from an
    earlier call on the same points: only V is built then.  V enters the
    products as the transpose of _powers' table; U stays contiguous, as
    the summation order of the row sums depends on its layout.  The values
    are the same bits with or without charts.  As in poly_jets_many, a
    point's value depends on its batch in the last bit: for a few points
    the BLAS picks its product kernel by the operands' layout, so a
    contiguous copy of V gives other last bits at 2 or 16 points.

    Each chart runs in blocks of _REAL_BLOCK points (a kept U is cut into
    row blocks, still contiguous).  The blocks give the bits of one pass
    over the chart, and, unlike one pass, the same bits under one BLAS
    thread or two (tests/test_field.py pins them).
    """
    n = fld.degree
    if charts is None:
        charts = real_charts(points, n)
    N = len(points)
    vals = np.empty(N)
    scale = np.empty(N)
    grad = np.empty((N, 3))
    k = np.arange(n + 1.0)
    for d, ((i, j), chart, (C, Cjd, C2)) in enumerate(
            zip(CHART_AXES, charts, fld.chart_matrices)):
        for lo in range(0, len(chart[0]), _REAL_BLOCK):
            idx, t, U, v = (a[lo : lo + _REAL_BLOCK] for a in chart)
            V = _powers(v, n).T
            W = V @ C.T
            tn = t**n
            vals[idx] = tn * _rowdot(U, W)
            if with_scale:
                scale[idx] = np.abs(tn) * np.sqrt(_rowdot(U * U, (V * V) @ C2.T))
            if with_grad:
                # d/du reuses V C^T: column a + 1 weighted by a + 1 meets
                # u^a; d/dv and d/dt: the stacked derivative matrices
                Wvt = V @ Cjd.T
                tn1 = t ** (n - 1)
                grad[idx, i] = tn1 * ((U[:, :n] * W[:, 1:]) @ k[1:])
                grad[idx, j] = tn1 * _rowdot(U, Wvt[:, : n + 1])
                grad[idx, d] = tn1 * _rowdot(U, Wvt[:, n + 1 :])
    out = (vals,) + (grad,) * with_grad + (scale,) * with_scale
    return out if len(out) > 1 else vals


def _project(jet, points, tol_rel, max_iters, width):
    """Newton projection onto {f = 0}, shared by both fields.

    jet(v) returns (f, |grad f|^2, scale, grad, move) at the points v,
    where grad holds the field's gradient rows there, width columns each,
    and move(step, k) gives the points v[k] moved by step[k] * grad f back
    on the sphere.  Only the points still above tol_rel are moved and
    evaluated again.
    Returns (points, relative residual, relative gradient norm, converged
    mask, gradient rows): each row is the one jet read at the point it
    accepted, NaN where the point did not converge.
    """
    pts = np.array(points, dtype=float)
    rel = np.full(len(pts), np.inf)
    relgrad = np.full(len(pts), np.inf)
    grads = np.empty((len(pts), width))
    active = np.arange(len(pts))
    for _ in range(max_iters):
        f, g2, sc, g, move = jet(pts[active])
        r = np.abs(f) / sc
        rel[active] = r
        relgrad[active] = np.sqrt(g2) / sc
        # a point's row is that of its last evaluation, the accepted one
        # if it converged
        grads[active] = g
        pending = r > tol_rel
        if not pending.any():
            break
        step = np.divide(f, g2, out=np.zeros_like(f), where=g2 > 0)
        upd = active[pending]
        pts[upd] = move(step, pending)
        active = upd
    conv = rel <= tol_rel
    grads[~conv] = np.nan
    return pts, rel, relgrad, conv, grads


def newton_correct(
    fld: PairField,
    points: np.ndarray,
    tol_rel: float = 1e-11,
    max_iters: int = 12,
):
    """Project sphere points onto {f = 0} by chart Newton steps.

    Returns (corrected points, relative residual, relative gradient norm,
    converged mask, chart gradient rows (fx, fy) at the corrected points).
    Residuals and gradients are measured against the local field scale
    |p|^2 + |q|^2.
    """

    def jet(v):
        f, g, sc, coord, north = chart_jets(fld, v)
        gx, gy = g[:, 0], g[:, 1]

        def move(step, k):
            return _lift_chart((coord - step * (gx + 1j * gy))[k], north[k])

        return f, gx * gx + gy * gy, sc, g, move

    return _project(jet, points, tol_rel, max_iters, PairField.grad_width)


def real_newton_correct(
    fld: RealField,
    points: np.ndarray,
    tol_rel: float = 1e-11,
    max_iters: int = 12,
):
    """Project sphere points onto {poly = 0} by tangential Newton steps.

    Same return convention as :func:`newton_correct`, with the ambient
    gradient as the rows; the step follows that gradient projected to the
    tangent plane, and residuals are measured against the root-sum-square
    of the monomial terms.
    """

    def jet(v):
        f, g, sc = eval_real_many(fld, v, with_grad=True, with_scale=True)
        gt = g - np.einsum("ij,ij->i", g, v)[:, None] * v

        def move(step, k):
            moved = v[k] - step[k, None] * gt[k]
            return moved / np.linalg.norm(moved, axis=1)[:, None]

        return f, np.einsum("ij,ij->i", gt, gt), np.maximum(sc, 1e-300), g, move

    return _project(jet, points, tol_rel, max_iters, RealField.grad_width)


def _unit_cross(points, g3) -> np.ndarray:
    """points x g3, normalized; zero rows stay zero.  The components are
    np.cross's, and the norm sums the squares in np.linalg.norm's order."""
    a0, a1, a2 = np.asarray(points, dtype=float).T
    b0, b1, b2 = np.asarray(g3).T
    t = np.empty((len(a0), 3))
    t0, t1, t2 = t.T
    np.subtract(a1 * b2, a2 * b1, out=t0)
    np.subtract(a2 * b0, a0 * b2, out=t1)
    np.subtract(a0 * b1, a1 * b0, out=t2)
    nrm = np.sqrt((t0 * t0 + t1 * t1) + t2 * t2)
    t /= np.where(nrm > 0, nrm, 1.0)[:, None]
    return t


def curve_tangents(fld: PairField, points: np.ndarray, grads=None) -> np.ndarray:
    """Unit 3-vectors tangent to {f = 0} at points assumed on the curve.

    The chart gradient is pushed forward to R^3 through the chart lift and
    rotated by 90 degrees in the tangent plane; the overall sign is
    arbitrary.  grads, if given, holds the chart gradient rows at the
    points (newton_correct's); f is then not evaluated.  The chart's two
    difference quotients come from one lift of the four offset copies.
    """
    if grads is None:
        _, grads, _, coord, north = chart_jets(fld, points)
    else:
        coord, north = _chart_coords(np.asarray(points, dtype=float))
    h = 1e-7
    d = np.array([[h], [1j * h]])
    L = _lift_chart(np.concatenate([coord + d, coord - d]), north)
    e1, e2 = (L[:2] - L[2:]) / (2 * h)
    return _unit_cross(points, grads[:, :1] * e1 + grads[:, 1:] * e2)


def real_curve_tangents(fld: RealField, points: np.ndarray, grads=None) -> np.ndarray:
    """points x grad f, normalized; grads, if given, holds the ambient
    gradient rows at the points (real_newton_correct's), so f is not
    evaluated."""
    if grads is None:
        _, grads = eval_real_many(fld, points, with_grad=True)
    return _unit_cross(points, grads)


# Relative residual and iteration limit of the Newton projections made by
# the tracer and the tangent counter.
TRACE_NEWTON = (1e-9, 12)


class PairField:
    """f = |p|^2 - |q|^2 of a rational pair.  It builds the pair's
    jet_blocks once: the southern chart's of (p, q), the northern chart's
    of the reversed rows."""

    grad_width = 2  # a gradient row: the chart's (fx, fy)

    def __init__(self, rp: RationalPair):
        self.rp = rp
        self.degree = rp.degree
        p, q = rp.p.coeffs, rp.q.coeffs
        self.blocks = (jet_blocks([p, q]), jet_blocks([p[::-1], q[::-1]]))

    @staticmethod
    def charts(pts, n, tables=False):
        # the same at every degree, unless it holds the tables
        charts = pair_charts(pts)
        return pair_tables(charts, n) if tables else charts

    def values(self, pts, charts=None, with_scale=False):
        return eval_f_many(self, pts, with_scale, charts)

    def newton(self, pts):
        return newton_correct(self, pts, *TRACE_NEWTON)

    def tangents(self, pts, grads=None):
        return curve_tangents(self, pts, grads)


class RealField:
    """A homogeneous real polynomial restricted to S^2.  Its chart data
    (real_charts) holds a power table of n + 1 columns, so it is kept per
    degree.

    It builds the chart matrices once: per dominant axis d, with
    (i, j) = CHART_AXES[d], the matrix C with C[a, b] the coefficient of
    x_i^a x_j^b x_d^(n-a-b), the matrices of the partial derivatives along
    x_j and x_d stacked, [(b + 1) C[a, b + 1]; (n - a - b) C[a, b]], and
    C * C."""

    grad_width = 3  # a gradient row: the ambient gradient

    def __init__(self, poly: RealKostlanPolynomial):
        self.poly = poly
        self.degree = n = poly.degree
        exps = exponents(n)
        k = np.arange(n + 1.0)
        mats = []
        for i, j in CHART_AXES:
            C = np.zeros((n + 1, n + 1))
            C[exps[:, i], exps[:, j]] = poly.coeffs
            Cj = np.zeros_like(C)
            Cj[:, :n] = C[:, 1:] * k[1:]
            mats.append((C, np.concatenate([Cj, C * (n - k[:, None] - k[None, :])]), C * C))
        self.chart_matrices = tuple(mats)

    @staticmethod
    def charts(pts, n, tables=False):
        # it holds its first power table at every grid; no stage traces the
        # real field on a cap, so a cap keeps no other
        return real_charts(pts, n)

    def values(self, pts, charts=None, with_scale=False):
        return eval_real_many(self, pts, with_scale=with_scale, charts=charts)

    def newton(self, pts):
        return real_newton_correct(self, pts, *TRACE_NEWTON)

    def tangents(self, pts, grads=None):
        return real_curve_tangents(self, pts, grads)


def as_field(curve):
    """The field object of a RationalPair or a RealKostlanPolynomial; a field object as it is."""
    if isinstance(curve, (PairField, RealField)):
        return curve
    if isinstance(curve, RationalPair):
        return PairField(curve)
    if isinstance(curve, RealKostlanPolynomial):
        return RealField(curve)
    raise TypeError(f"cannot trace a {type(curve).__name__}")

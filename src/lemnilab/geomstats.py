"""Geometric observables of a traced lemniscate.

Meridian-tangent counts, axis-looping components and great-circle
crossings (pi times their mean is the length, by integral geometry).
Tangents are counted as sign changes of the meridian derivative
G = T . (axis x P) read at curve points, never from differences of
polyline positions, so noise in the vertex positions cannot fake or hide
a tangency (see _tangent_count).
"""

from __future__ import annotations

import math

import numpy as np

from .ensemble import RationalPair
from .field import eval_f_many
from .sphere import GreatCircle, orthonormal_frame, unit_vector
from .tracer import TracedLemniscate, default_options, ring, walk


class AxisTooClose(ValueError):
    """A traced vertex lies too near the axis for longitude statistics."""


class TangencySuspected(RuntimeError):
    """A great-circle crossing looks non-transversal; trial is flagged."""


_POLE_FLOOR = 1e-5
# great_circle_intersections: least relative |f|, and |df/dt| at a crossing
_TANGENCY_TOL = 1e-7


def _refine_near_axis(P: np.ndarray, axis: np.ndarray, field) -> np.ndarray:
    """Subdivide a closed vertex loop so each arc-step stays below a fifth
    of its distance to the axis poles.

    Longitude about the axis varies by at most ~step/dist per segment, so
    this keeps the per-segment longitude change small even where the curve
    dives toward a pole.  Raises AxisTooClose if the curve comes within
    _POLE_FLOOR of a pole.
    """
    for _ in range(40):
        d = np.arccos(np.clip(np.abs(P @ axis), -1.0, 1.0))  # to the nearer pole
        if d.min() < _POLE_FLOOR:
            raise AxisTooClose("curve passes through the axis neighborhood")
        dn = np.minimum(d, np.roll(d, -1))
        step = np.arccos(
            np.clip(np.einsum("ij,ij->i", P, np.roll(P, -1, axis=0)), -1.0, 1.0)
        )
        bad = step > 0.2 * dn
        if not bad.any():
            return P
        mids = P[bad] + np.roll(P, -1, axis=0)[bad]
        mids /= np.linalg.norm(mids, axis=1)[:, None]
        corrected, rel, relgrad, conv = field.newton(mids)
        if not conv.all():
            raise AxisTooClose("refinement near the axis failed to converge")
        P = np.insert(P, np.flatnonzero(bad) + 1, corrected, axis=0)
    raise AxisTooClose("axis refinement did not settle")


# Tangent counting.  Along the curve the meridian derivative is
# G = T . (axis x P): it vanishes exactly where the curve is tangent to a
# meridian, so the tangents are the sign changes of G around each loop.
_SLACK = 0.05  # rad added to the chord bracket of a vertex tangent
_ORDER_COS = math.cos(0.5)  # tangent-chord agreement of a smooth segment
_PAIR_MARGIN = 1e-3  # east component a pair-free segment keeps (model)
_WALK_SHARE = 0.25  # walk step as a share of the walked segment
# a loop shorter than this many grid edges is walked whole: about twelve
# vertices at the tracer's 0.6-edge arc step
_SMALL_LOOP_EDGES = 7.0


def _east(P: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Unit vectors along the parallels (increasing longitude) at P."""
    E = np.cross(axis, P)
    return E / np.linalg.norm(E, axis=1)[:, None]


def _winding(P, e1, e2) -> int:
    """Turns of the closed loop P in longitude about the frame's axis."""
    theta = np.arctan2(P @ e2, P @ e1)
    d = np.diff(np.append(theta, theta[0]))
    d = (d + math.pi) % (2.0 * math.pi) - math.pi  # wrapped to (-pi, pi]
    return round(float(d.sum()) / (2.0 * math.pi))


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def _may_hide_pair(a0, c, a1) -> np.ndarray:
    """Whether a segment whose ends share a sign may hold a pair of zeros.

    a0, a1 are the east components of the end tangents and c that of the
    chord, i.e. of the mean tangent, all multiplied by the ends' sign.  The
    quadratic through the two end values with mean c is minimized over the
    segment; a minimum within a quarter of its curvature term (plus
    _PAIR_MARGIN) of zero counts as a possible pair.
    """
    C = 3.0 * (a0 + a1 - 2.0 * c)
    B = a1 - a0 - C
    t = np.where(C > 0.0, np.clip(-B / (2.0 * np.where(C > 0.0, C, 1.0)), 0.0, 1.0), 0.0)
    low = np.minimum(np.minimum(a0, a1), a0 + B * t + C * t * t)
    return low < 0.25 * np.abs(C) + _PAIR_MARGIN


def _tangent_count(loops, axis, field, small_length, windings) -> tuple[int, int]:
    """Meridian tangents of closed vertex loops: cyclic sign changes of G.

    G = T . east is taken with the field's own tangent orientation T, so
    it is a function on the curve whatever the direction in which the
    polyline runs, and its sign changes are counted in polyline order.

    G's sign at a vertex is read from the field tangent unless the
    polyline settles it: the tangent at a vertex lies within the turn
    angle beta between its chords of either chord, so when both chords
    lean to the same side of the meridian by more than 2 beta + _SLACK,
    G has that side's sign times the direction of the polyline against
    T.  A run of settled vertices takes that direction from the chords
    that join it to the read vertices on either side; where the two
    disagree (the polyline doubles back or cuts a hairpin), the run is
    read too.  A lone short chord that runs against its neighbours joins
    two vertices out of arc order, and their places are swapped.

    A smooth segment whose ends share a sign but may hide a pair of zeros
    of G (_may_hide_pair) is walked along the curve at a quarter of its
    length and G is read at the walk's points.  A loop shorter than
    small_length turns too fast for its chords to bracket its tangents,
    so it is walked whole, at a 24th of its length, instead.  Returns
    (count, walks that did not arrive); a segment or loop whose walk did
    not arrive keeps its vertex signs, and such a loop with zero winding
    (windings, one per loop) counts at least the 2 tangents of its
    longitude extremes.
    """
    if not loops:
        return 0, 0
    sizes = np.array([len(P) for P in loops])
    P = np.concatenate(loops)
    N = len(P)
    first, nxt = ring(sizes)
    idx = np.arange(N)
    prv = np.argsort(nxt)  # the inverse permutation
    E = _east(P, axis)

    d = P[nxt] - P
    h = np.linalg.norm(d, axis=1)
    u = d / np.maximum(h, 1e-300)[:, None]
    g_out = _dot(u, E)  # chord i at its start vertex
    g_in = _dot(u[prv], E)  # chord i-1 at its end vertex i
    beta = np.arccos(np.clip(_dot(u[prv], u), -1.0, 1.0))
    cone = 2.0 * beta + _SLACK
    read = ~(
        (g_in * g_out > 0.0)
        & (np.minimum(np.abs(g_in), np.abs(g_out))
           > np.sin(np.minimum(cone, 0.5 * math.pi)))
        & (cone < 0.5 * math.pi)
    )
    last = np.cumsum(sizes) - 1
    read[first[last]] = True  # one read vertex per loop

    T = np.zeros((N, 3))
    T[read] = field.tangents(P[read])
    tu0, tu1 = _dot(T, u), _dot(T[nxt], u)
    # direction of the polyline against T on the chords leaving (after)
    # and entering (before) each read vertex, carried over settled runs
    R = np.flatnonzero(read)
    loop_of = np.repeat(np.arange(len(loops)), sizes)
    last_read = R[np.searchsorted(R, last, side="right") - 1][loop_of]
    first_read = R[np.searchsorted(R, first[last])][loop_of]
    k = np.searchsorted(R, idx, side="right") - 1
    r1 = R[np.maximum(k, 0)]
    r1 = np.where((k >= 0) & (first[r1] == first), r1, last_read)
    k = np.searchsorted(R, idx)
    r2 = R[np.minimum(k, len(R) - 1)]
    r2 = np.where((k < len(R)) & (first[r2] == first), r2, first_read)
    after = np.sign(tu0[r1])
    before = np.sign(tu1[prv[r2]])
    unsure = ~read & (after != before)
    if unsure.any():
        T[unsure] = field.tangents(P[unsure])
        read |= unsure
        tu0, tu1 = _dot(T, u), _dot(T[nxt], u)
    o = np.where(read, np.sign(tu0), after)
    val = np.where(read, _dot(T, E), o * 0.5 * (g_out + g_in))
    sig = _sign(val)

    # a lone chord shorter than its neighbours that runs against them
    # (seen from both its ends) joins two vertices out of arc order:
    # their places in the sequence are swapped
    back = (
        read & read[nxt] & (np.sign(tu1) == o) & (o[prv] == o[nxt])
        & (o != o[nxt]) & (h < np.minimum(h[prv], h[nxt]))
    )
    order = idx.copy()
    order[back], order[nxt[back]] = nxt[back], idx[back]
    changes = (sig[order] != sig[order[nxt]]).astype(np.int64)

    # smooth segments that may hide a pair; `way` is the segment's
    # direction against T, seen from a read end
    way = np.where(read, np.sign(tu0), np.sign(tu1))
    on = (~read | (way * tu0 >= _ORDER_COS)) & (~read[nxt] | (way * tu1 >= _ORDER_COS))
    swapped = back | back[prv] | back[nxt]
    length = np.bincount(loop_of, h, len(loops))
    small = length < small_length
    sv = sig.astype(float)
    pair = (
        (read | read[nxt]) & on & ~swapped & ~small[loop_of] & (sig == sig[nxt])
        & _may_hide_pair(sv * val, sv * way * 0.5 * (g_out + _dot(u, E[nxt])),
                         sv * val[nxt])
    )
    lost = 0
    seg = np.flatnonzero(pair)
    if len(seg):
        out, _, _ = walk(field, P[seg], P[nxt[seg]], u[seg], _WALK_SHARE * h[seg],
                         np.full(len(seg), 2.0), np.full(len(seg), 20.0))
        for i, res in zip(seg, out):
            if res is None:
                lost += 1
                continue
            # the walk's tangents run along the chord, i.e. along way * T
            g = _sign(way[i] * _dot(res[1], _east(res[0], axis)))
            seq = np.concatenate([sig[i : i + 1], g, sig[nxt[i] : nxt[i] + 1]])
            changes[i] = np.count_nonzero(np.diff(seq))

    # a small loop turns too fast for its chords: walk it whole, from its
    # first vertex along T, and count G at the walk's points instead
    heads = first[last][small]
    if len(heads):
        step = length[small] / 24.0
        out, _, _ = walk(field, P[heads], P[heads], T[heads], step,
                         np.full(len(heads), 12.0), np.full(len(heads), 80.0))
        for j, a, res in zip(np.flatnonzero(small), heads, out):
            if res is None:
                # the walk left along a strand the trace did not close:
                # keep the vertex signs, but a loop that does not wind
                # about the axis has a longitude maximum and minimum
                lost += 1
                if windings[j] == 0 and not changes[a : a + sizes[j]].any():
                    changes[a] = 2
                continue
            seq = np.concatenate([sig[a : a + 1], _sign(_dot(res[1], _east(res[0], axis)))])
            changes[a : a + sizes[j]] = 0
            changes[a] = np.count_nonzero(seq != np.roll(seq, -1))
    return int(changes.sum()), lost


def meridian_stats(t: TracedLemniscate, axis, field):
    """(tangent count, looping components, windings) about one axis.

    field is the traced curve's field object (field.as_field).  Components
    are first subdivided near the axis so longitude increments are
    trustworthy; the windings come from those increments and the tangents
    from sign changes of the meridian derivative G (see _tangent_count).
    """
    axis = unit_vector(axis)
    e1, e2 = orthonormal_frame(axis)
    loops = [_refine_near_axis(c.vertices[:-1], axis, field) for c in t.components]
    windings = np.array([_winding(P, e1, e2) for P in loops], dtype=np.int64)
    # mean edge of the tracer's icosahedral grid: 10 nu^2 + 2 vertices,
    # 20 nu^2 near-equilateral faces on the unit sphere
    edge = math.sqrt(16.0 * math.pi / (20.0 * math.sqrt(3.0))) / t.grid_resolution
    nu, _ = _tangent_count(loops, axis, field, _SMALL_LOOP_EDGES * edge, windings)
    return nu, int(np.count_nonzero(windings)), windings


def great_circle_intersections(rp: RationalPair, g: GreatCircle) -> int:
    """Transversal crossings of Gamma with the great circle g.

    Sign changes of f along a dense sampling of g, each refined by
    bisection in the circle parameter.  Raises TangencySuspected when the
    circle lies on the curve or a crossing has a vanishing derivative of f
    along the circle.
    """
    # match the tracer's default cell size along the circle
    samples = max(512, 8 * default_options(rp.degree).grid_resolution)
    tgrid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = g.point(tgrid)
    f, sc = eval_f_many(rp, pts, with_scale=True)
    if np.max(np.abs(f) / sc) < _TANGENCY_TOL:
        raise TangencySuspected("f vanishes along the whole circle")
    s = f > 0
    change = np.flatnonzero(s != np.roll(s, -1))
    if len(change) == 0:
        return 0
    lo = tgrid[change]
    hi = lo + 2.0 * math.pi / samples
    flo = f[change]
    for _ in range(45):
        tm = 0.5 * (lo + hi)
        fm = eval_f_many(rp, g.point(tm))
        up = (fm > 0) == (flo > 0)
        lo = np.where(up, tm, lo)
        hi = np.where(up, hi, tm)
    troot = 0.5 * (lo + hi)
    h = 1e-6
    fp, scp = eval_f_many(rp, g.point(troot + h), with_scale=True)
    fm2, _ = eval_f_many(rp, g.point(troot - h), with_scale=True)
    deriv = np.abs(fp - fm2) / (2.0 * h * scp)
    if np.any(deriv < _TANGENCY_TOL):
        raise TangencySuspected("near-tangential crossing")
    return len(change)

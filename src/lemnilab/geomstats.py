"""Geometric observables of a traced lemniscate.

Meridian-tangent counts, axis-looping components and great-circle
crossings (pi times their mean is the length, by integral geometry).
Every count reads the field object the trace carries (t.fieldobj), built
once per curve.  The great-circle count takes that field object alone,
never the trace: it samples f along the circle and shares no tracer
code, so its Crofton length checks the traced polyline's independently.
Tangents are counted as sign changes of the meridian derivative
G = T . (axis x P), read from the field tangent T at every polyline
vertex, never from differences of polyline positions, so noise in the
vertex positions cannot fake or hide a tangency.  Each loop's count is
decided once (_tangent_count): the sum of its chords' sign changes, where
a walk along the curve replaces a chord that may hide a pair of zeros.
A loop too small for its chords to bracket its tangents takes instead
its count at its crossings with rays from its centre (one ray solve of
the tracer for all small loops), else that of a walk round it, else its
chord count, or 2 if that is 0 and the loop does not wind about the
axis.  All loops of a trace are handled together, stored back to back
in one vertex array (tracer.ring).
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import GreatCircle, orthonormal_frame, unit_vector
from .tracer import TracedLemniscate, default_options, ray_solve, ring, subdivide, walk


class AxisTooClose(ValueError):
    """A traced vertex lies too near the axis for longitude statistics."""


class TangencySuspected(RuntimeError):
    """A great-circle crossing looks non-transversal; trial is flagged."""


_POLE_FLOOR = 1e-5
# great_circle_intersections: least relative |f|, and |df/dt| at a crossing
_TANGENCY_TOL = 1e-7
# great_circle_intersections: bracket halvings read per field call
_HALVINGS_PER_CALL = 4


def _refine_near_axis(P, grads, sizes, axis, field) -> tuple:
    """Subdivide the closed vertex loops P (stored back to back, with sizes
    vertices each, and grads their gradient rows) so each arc-step stays
    below a fifth of its distance to the axis poles; returns (P, grads,
    sizes).

    Longitude about the axis varies by at most ~step/dist per segment, so
    this keeps the per-segment longitude change small even where the curve
    dives toward a pole.  Raises AxisTooClose if the curve comes within
    _POLE_FLOOR of a pole or the subdivision does not settle.
    """

    def too_long(P, nxt):
        d = np.arccos(np.clip(np.abs(P @ axis), -1.0, 1.0))  # to the nearer pole
        if d.min() < _POLE_FLOOR:
            raise AxisTooClose("curve passes through the axis neighborhood")
        step = np.arccos(np.clip(np.einsum("ij,ij->i", P, P[nxt]), -1.0, 1.0))
        return step > 0.2 * np.minimum(d, d[nxt])

    P, grads, sizes, settled = subdivide(field, P, grads, sizes, too_long, 40)
    if not settled:
        raise AxisTooClose("axis refinement did not settle")
    return P, grads, sizes


# Tangent counting.  Along the curve the meridian derivative is
# G = T . (axis x P): it vanishes exactly where the curve is tangent to a
# meridian, so the tangents are the sign changes of G around each loop.
_ORDER_COS = math.cos(0.5)  # tangent-chord agreement of a smooth segment
_PAIR_MARGIN = 1e-3  # east component a pair-free segment keeps (model)
_WALK_SHARE = 0.25  # walk step as a share of the walked segment
# a loop shorter than this many grid edges is solved along rays from its
# centre (or walked whole): about twelve vertices at the 0.6-edge arc step
_SMALL_LOOP_EDGES = 7.0
_RAYS = 48  # rays about a small loop's centre, one curve point on each
_RADII = 24  # samples per ray, evenly spaced in (0, 2R]


def _east(P: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Unit vectors along the parallels (increasing longitude) at P."""
    E = np.cross(axis, P)
    return E / np.linalg.norm(E, axis=1)[:, None]


def _windings(P, sizes, e1, e2) -> np.ndarray:
    """Turns of each closed loop of P (stored back to back, with sizes
    vertices each) in longitude about the frame's axis."""
    loop_of, nxt = ring(sizes)
    theta = np.arctan2(P @ e2, P @ e1)
    d = (theta[nxt] - theta + math.pi) % (2.0 * math.pi) - math.pi  # wrapped to (-pi, pi]
    turns = np.bincount(loop_of, d, len(sizes)) / (2.0 * math.pi)
    return np.rint(turns).astype(np.int64)


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


def _radial_tangents(P, sizes, axis, field) -> tuple[np.ndarray, np.ndarray]:
    """Meridian tangents of small loops, from one curve point per ray.

    P holds the loops back to back, with sizes vertices each.  Each loop
    gets its centre c (the normalized vertex mean), its radius R (the
    largest angular distance from c to a vertex) and _RAYS geodesic rays
    from c, solved at _RADII radii in (0, 2R], all loops at once
    (tracer.ray_solve).  On a solved loop, one star-shaped oval about c,
    G is read at the crossings and its sign changes counted in ray order,
    which is the curve's order around the oval.  Returns (counts, ok), one
    per loop; a loop that is not ok has count 0.
    """
    starts = np.cumsum(sizes) - sizes
    c = np.add.reduceat(P, starts) / sizes[:, None]
    c /= np.linalg.norm(c, axis=1)[:, None]
    R = np.maximum.reduceat(np.arccos(np.clip(_dot(P, c[ring(sizes)[0]]), -1.0, 1.0)), starts)
    e1 = P[starts] - _dot(P[starts], c)[:, None] * c
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    radii = (2.0 * R)[:, None] * (np.arange(1, _RADII + 1) / _RADII)
    X, rows, ok, _ = ray_solve(field, c, e1, np.cross(c, e1), radii, _RAYS)
    g = _sign(_dot(field.tangents(X, rows), _east(X, axis))).reshape(-1, _RAYS)
    counts = np.zeros(len(sizes), dtype=np.int64)
    counts[ok] = np.count_nonzero(g != np.roll(g, -1, axis=1), axis=1)
    return counts, ok


def _tangent_count(P, grads, sizes, axis, field, small_length, windings) -> tuple[int, int, int]:
    """Meridian tangents of closed vertex loops: cyclic sign changes of G.

    P holds the loops back to back, with sizes vertices each, and grads
    the field's gradient rows at them (fieldobj.newton's).  G = T . east
    is taken with the field's own tangent orientation T, so it is a
    function on the curve whatever the direction in which the polyline
    runs.  G's sign at every vertex is read from the field tangent there,
    formed from the vertex's gradient row; a walk forms its tangents from
    its own projections' rows, so no curve point is evaluated twice.

    A chord counts the sign change between its ends; a lone short chord
    that runs against its neighbours joins two vertices out of arc
    order, and their places are swapped first.  A smooth segment whose
    ends share a sign but may hide a pair of zeros (_may_hide_pair) is
    walked along the curve at a quarter of its length; if the walk
    arrives, its count replaces the chord's.  A loop counts the sum over
    its chords, unless it is shorter than small_length (too short for its
    chords to bracket its tangents); such a small loop counts, in order:

    - its ray count, if _radial_tangents solves it along rays from its
      centre;
    - else the count of a walk round it, from its first vertex along T at
      a 24th of its length, if that walk arrives;
    - else its chord count, or 2 (its longitude extremes) if that is 0 and
      its winding (windings, one per loop) is 0.

    The segments and the loops are walked in one lockstep call, and G's
    sign changes are counted along all walks in one pass, each from the
    sign at its first vertex through G at its points to the sign at its
    last.  Returns (count, walks that did not arrive, small loops walked
    whole).
    """
    loop_of, nxt = ring(sizes)
    idx = np.arange(len(P))
    prv = np.argsort(nxt)  # the inverse permutation
    E = _east(P, axis)

    d = P[nxt] - P
    h = np.linalg.norm(d, axis=1)
    u = d / np.maximum(h, 1e-300)[:, None]
    T = field.tangents(P, grads)
    tu0, tu1 = _dot(T, u), _dot(T[nxt], u)
    o = np.sign(tu0)  # direction of the polyline against T on chord i
    val = _dot(T, E)
    sig = _sign(val)

    # a lone chord shorter than its neighbours that runs against them
    # (seen from both its ends) joins two vertices out of arc order:
    # their places in the sequence are swapped
    back = (
        (np.sign(tu1) == o) & (o[prv] == o[nxt])
        & (o != o[nxt]) & (h < np.minimum(h[prv], h[nxt]))
    )
    order = idx.copy()
    order[back], order[nxt[back]] = nxt[back], idx[back]
    changes = (sig[order] != sig[order[nxt]]).astype(np.int64)

    # smooth segments that may hide a pair
    on = (o * tu0 >= _ORDER_COS) & (o * tu1 >= _ORDER_COS)
    swapped = back | back[prv] | back[nxt]
    length = np.bincount(loop_of, h, len(sizes))
    small = length < small_length
    sv = sig.astype(float)
    seg = np.flatnonzero(
        on & ~swapped & ~small[loop_of] & (sig == sig[nxt])
        & _may_hide_pair(sv * val, sv * o * 0.5 * (_dot(u, E) + _dot(u, E[nxt])),
                         sv * val[nxt])
    )

    # small loops: solved along rays, or else walked whole
    loops = np.flatnonzero(small)
    radial, solved = (_radial_tangents(P[small[loop_of]], sizes[loops], axis, field)
                      if len(loops) else (loops, np.zeros(0, dtype=bool)))
    walked = loops[~solved]
    heads = (np.cumsum(sizes) - sizes)[walked]

    # one walk: the pair segments (rows :k) from vertex to vertex along
    # their chords, then the loops from their first vertex round to it
    k = len(seg)
    first, last = np.concatenate([seg, heads]), np.concatenate([nxt[seg], heads])
    pts, _, tans, owner, lost, _ = walk(
        field, P[first], grads[first], P[last], np.concatenate([u[seg], T[heads]]),
        np.concatenate([_WALK_SHARE * h[seg], length[walked] / 24.0]),
        np.repeat([2.0, 12.0], [k, len(heads)]), np.repeat([20.0, 80.0], [k, len(heads)]))
    # G's signs along each walk, grouped by walk with a stable sort: its
    # first vertex, its points (a segment's walk tangents run along its
    # chord, i.e. along o * T), its last vertex
    orient = np.concatenate([o[seg], np.ones(len(heads))])
    walks = np.arange(len(first))
    key = np.concatenate([walks, owner, walks])
    by = np.argsort(key, kind="stable")
    key = key[by]
    s = np.concatenate([sig[first], _sign(orient[owner] * _dot(tans, _east(pts, axis))),
                        sig[last]])[by]
    count = np.bincount(key[1:], (s[1:] != s[:-1]) & (key[1:] == key[:-1]),
                        len(first)).astype(np.int64)

    # each loop's count, decided once, in the docstring's rule order
    arrived = ~lost
    changes[seg[arrived[:k]]] = count[:k][arrived[:k]]
    nu = np.bincount(loop_of, changes, len(sizes)).astype(np.int64)
    nu[loops[solved]] = radial[solved]
    chord = nu[walked]
    nu[walked] = np.where(arrived[k:], count[k:],
                          np.where((chord == 0) & (windings[walked] == 0), 2, chord))
    return int(nu.sum()), int(lost.sum()), len(walked)


def meridian_stats(t: TracedLemniscate, axis):
    """(tangent count, looping components, windings) about one axis.

    The trace's loops, stored back to back, are first subdivided near the
    axis so longitude increments are trustworthy, in the field the curve
    was traced with (t.fieldobj); the windings come from those increments
    and the tangents from sign changes of the meridian derivative G (see
    _tangent_count).
    """
    if not len(t.sizes):
        return 0, 0, np.zeros(0, dtype=np.int64)
    axis = unit_vector(axis)
    e1, e2 = orthonormal_frame(axis)
    P, grads, sizes = _refine_near_axis(t.vertices, t.grads, t.sizes, axis, t.fieldobj)
    windings = _windings(P, sizes, e1, e2)
    nu, _, _ = _tangent_count(P, grads, sizes, axis, t.fieldobj,
                              _SMALL_LOOP_EDGES * t.grid.mean_edge_length, windings)
    return nu, int(np.count_nonzero(windings)), windings


def great_circle_intersections(fieldobj, g: GreatCircle) -> int:
    """Transversal crossings of Gamma with the great circle g.

    The number of sign changes of f along a dense sampling of g, read
    through the field object's values (the trace's t.fieldobj).  Each
    change is bisected in the circle parameter only as far as the check
    reads it: to h/64 of the step h at which f is differenced.  The
    bisection reads f at every midpoint _HALVINGS_PER_CALL halvings could
    visit in one call, then descends through them; each midpoint is
    0.5 * (lo + hi) of its parent bracket, so the descent ends on the
    brackets of the one-halving-per-call loop, bit for bit.  Raises
    TangencySuspected when the circle lies on the curve or a crossing has
    a vanishing derivative of f along the circle.
    """
    # match the tracer's default cell size along the circle
    samples = max(512, 8 * default_options(fieldobj.degree).grid_resolution)
    tgrid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = g.point(tgrid)
    f, sc = fieldobj.values(pts, with_scale=True)
    if np.max(np.abs(f) / sc) < _TANGENCY_TOL:
        raise TangencySuspected("f vanishes along the whole circle")
    s = f > 0
    change = np.flatnonzero(s != np.roll(s, -1))
    if len(change) == 0:
        return 0
    k = len(change)
    lo = tgrid[change]
    width = 2.0 * math.pi / samples
    hi = lo + width
    h = 1e-6
    # the roots only place the derivative check at troot +- h, so each
    # bracket is halved until it is narrower than h/64
    rows = np.arange(k)
    steps = math.ceil(math.log2(64.0 * width / h))
    while steps > 0:
        d = min(steps, _HALVINGS_PER_CALL)
        steps -= d
        # the midpoints of level l's 2^l brackets, heap order: bracket i
        # splits into 2i (lo half) and 2i + 1 (hi half)
        L, H, mids = lo[:, None], hi[:, None], []
        for _ in range(d):
            m = 0.5 * (L + H)
            mids.append(m)
            L = np.stack([L, m], axis=2).reshape(k, -1)
            H = np.stack([m, H], axis=2).reshape(k, -1)
        tm = np.concatenate(mids, axis=1)
        up = (fieldobj.values(g.point(tm.ravel())) > 0).reshape(k, -1) == s[change, None]
        i = np.zeros(k, dtype=np.int64)
        for level in range(d):
            node = (1 << level) - 1 + i
            at, keep = tm[rows, node], up[rows, node]
            lo = np.where(keep, at, lo)
            hi = np.where(keep, hi, at)
            i = 2 * i + keep
    troot = 0.5 * (lo + hi)
    fpm, scpm = fieldobj.values(g.point(np.concatenate([troot + h, troot - h])),
                                with_scale=True)
    deriv = np.abs(fpm[:k] - fpm[k:]) / (2.0 * h * scpm[:k])
    if np.any(deriv < _TANGENCY_TOL):
        raise TangencySuspected("near-tangential crossing")
    return len(change)

"""Extraction of the level set {f = 0} as closed spherical polylines.

The tracer samples f on an icosahedral geodesic grid, detects sign changes
on grid edges, links crossing edges into cycles (each sign-split triangle
contributes exactly one pass of the curve between two of its edges), then
refines every crossing by bisection plus Newton and densifies to an
arc-step of 0.6 grid edges.  A fixed jitter rotation of the grid removes
the measure-zero event of a vertex landing exactly on the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import RandomStream
from .field import as_field
from .icogrid import icosphere
from .sphere import Rotation, spherical_distance_many

# the grid rotation every trace uses (tie-breaking, see the module doc)
GRID_JITTER = Rotation.random(RandomStream(0x1CE5_9E0D, 0).generator())
# polyline arc-step, as a share of the mean grid edge
_ARC_STEP = 0.6
_BISECT_ITERS = 45  # halvings in the bisection restart: 2^-45 of an edge


class DegenerateLemniscate(RuntimeError):
    """Newton refinement failed to converge: near-singular level set."""


class _StubbornSegment(Exception):
    """A polyline gap that local repair cannot close: two strands of the
    curve pass closer together than the grid can separate."""


@dataclass(frozen=True)
class TraceOptions:
    grid_resolution: int = 64

    def __post_init__(self):
        if self.grid_resolution < 64:
            raise ValueError("grid_resolution must be >= 64")


def default_options(n: int) -> TraceOptions:
    """Resolution scaled so cell diameter tracks the feature scale 1/sqrt(n)."""
    nu = max(64, math.ceil(5.5 * math.sqrt(max(n, 1))))
    return TraceOptions(grid_resolution=nu)


@dataclass(frozen=True)
class ClosedPolyline:
    """A closed polyline on S^2: first vertex equals the last."""

    vertices: np.ndarray  # (k+1, 3), vertices[0] == vertices[-1]
    length: float = field(default=None)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", v)
        if self.length is None:
            length = float(spherical_distance_many(v[:-1], v[1:]).sum())
            object.__setattr__(self, "length", length)

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class TracedLemniscate:
    components: list
    grid_resolution: int
    min_gradient_seen: float
    # combinatorial payload consumed by the topology module
    vertex_signs: np.ndarray = field(default=None, repr=False, compare=False)
    loop_edges: list = field(default=None, repr=False, compare=False)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([c.length for c in self.components])

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum()) if self.components else 0.0


def _slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    dot = np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0)
    om = np.arccos(dot)
    so = np.sin(om)
    # nearly parallel endpoints: fall back to normalized lerp
    small = so < 1e-9
    wa = np.where(small, 1.0 - t, np.sin((1.0 - t) * om) / np.where(small, 1.0, so))
    wb = np.where(small, t, np.sin(t * om) / np.where(small, 1.0, so))
    out = wa[:, None] * a + wb[:, None] * b
    return out / np.linalg.norm(out, axis=1)[:, None]


def _bisect(fieldobj, a, b):
    """Geodesic bisection; a must be on the f<=0 side, b on the f>0 side."""
    lo = np.zeros(len(a))
    hi = np.ones(len(a))
    for _ in range(_BISECT_ITERS):
        tm = 0.5 * (lo + hi)
        pm = _slerp(a, b, tm)
        up = fieldobj.values(pm) > 0
        hi = np.where(up, tm, hi)
        lo = np.where(up, lo, tm)
    return _slerp(a, b, 0.5 * (lo + hi))


def _edge_roots(fieldobj, a, b, fa, fb):
    """Roots of f on the geodesic edges (a, b), with sign(fa) != sign(fb).

    Linear interpolation seeds a Newton polish; the handful of points where
    Newton stalls get a full bisection restart before a second polish.
    Returns (points, min relative gradient seen).
    """
    t0 = np.clip(fa / (fa - fb), 0.02, 0.98)
    start = _slerp(a, b, t0)
    pts, rel, relgrad, conv = fieldobj.newton(start)
    min_grad = float(relgrad.min()) if len(relgrad) else math.inf
    if not conv.all():
        bad = ~conv
        neg = fa[bad] <= 0
        aa = np.where(neg[:, None], a[bad], b[bad])
        bb = np.where(neg[:, None], b[bad], a[bad])
        retry = _bisect(fieldobj, aa, bb)
        pts2, rel2, relgrad2, conv2 = fieldobj.newton(retry)
        if not conv2.all():
            raise DegenerateLemniscate(
                f"{int((~conv2).sum())} crossing(s) failed to converge"
            )
        pts[bad] = pts2
        min_grad = min(min_grad, float(relgrad2.min()))
    return pts, min_grad


def _link_cycles(pair_rows: np.ndarray) -> list:
    """Split a 2-regular multigraph, given as edge rows, into cycles.

    Cycles come in the order of their minimum node; each starts there and
    leaves by that node's first edge in row order.  Half-edge h = 2u + s
    leaves node u by the edge of u's s-th entry in row order, and succ(h)
    leaves that edge's other end by its other edge.  succ is a permutation,
    2-cycles included, that walks every cycle once in each direction.
    Pointer doubling gives each half-edge the least half-edge of its walk,
    2s on the walk that leaves the minimum node s by its first edge, and
    its distance to that walk's end, which orders the walk.
    """
    order = np.argsort(pair_rows.ravel(), kind="stable")
    half = np.empty_like(order)
    half[order] = np.arange(len(order))
    succ = half[order ^ 1] ^ 1
    rounds = max(1, len(succ) - 1).bit_length()
    least, nxt = np.arange(len(succ)), succ
    for _ in range(rounds):
        least = np.minimum(least, least[nxt])
        nxt = nxt[nxt]
    last = succ == least
    dist = (~last).astype(np.int64)
    nxt = np.where(last, np.arange(len(succ)), succ)
    for _ in range(rounds):
        dist += dist[nxt]
        nxt = nxt[nxt]
    fwd = np.flatnonzero(least % 2 == 0)
    walk_order = fwd[np.lexsort((-dist[fwd], least[fwd]))]
    _, sizes = np.unique(least[walk_order], return_counts=True)
    return np.split(walk_order // 2, np.cumsum(sizes)[:-1])


def ring(sizes) -> tuple[np.ndarray, np.ndarray]:
    """(first, next) indices of closed loops stored back to back in one
    vertex array, loop j holding sizes[j] vertices: first[i] is the first
    vertex of i's loop and next[i] the vertex after i, wrapping at the
    loop's end."""
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = np.arange(len(first))
    return first, first + (idx - first + 1) % np.repeat(sizes, sizes)


def walk(fieldobj, starts, targets, dirs, steps, min_steps, caps):
    """Tangent continuation from each start point to its target, in lockstep.

    Each walk steps `steps[k]` along the field tangent oriented by its
    previous step (`dirs[k]` for the first) and Newton-projects back onto
    the curve, so its points are ordered along the arc.  A walk ends at the
    first point past `min_steps[k]` steps within 1.2 steps of its target.
    Returns (walks, stalled, min relative gradient of the Newton steps):
    per walk the (points, oriented unit tangents) it visited after the
    start, or None for a walk whose projection stalled (marked in the
    stalled mask) or that took `caps[k]` steps without arriving.
    """
    m = len(starts)
    if not m:
        return [], np.zeros(0, dtype=bool), math.inf
    cur = np.array(starts, dtype=float)
    last = np.array(dirs, dtype=float)
    k = np.zeros(m, dtype=np.int64)
    failed = np.zeros(m, dtype=bool)
    stalled = np.zeros(m, dtype=bool)
    min_grad = math.inf
    who, pts, tans = [], [], []
    active = np.arange(m)
    while len(active):
        T = fieldobj.tangents(cur[active])
        T *= np.where(np.einsum("ij,ij->i", T, last[active]) < 0.0, -1.0, 1.0)[:, None]
        moved = k[active] > 0
        who.append(active[moved])
        pts.append(cur[active[moved]])
        tans.append(T[moved])
        gap = np.linalg.norm(cur[active] - targets[active], axis=1)
        done = (k[active] >= min_steps[active]) & (gap < 1.2 * steps[active])
        over = ~done & (k[active] >= caps[active])
        failed[active[over]] = True
        active, T = active[~done & ~over], T[~done & ~over]
        if not len(active):
            break
        pred = cur[active] + steps[active, None] * T
        pred /= np.linalg.norm(pred, axis=1)[:, None]
        nxt, _, relgrad, conv = fieldobj.newton(pred)
        min_grad = min(min_grad, float(relgrad.min()))
        failed[active[~conv]] = stalled[active[~conv]] = True
        active, nxt = active[conv], nxt[conv]
        last[active] = nxt - cur[active]
        cur[active] = nxt
        k[active] += 1
    who = np.concatenate(who)
    order = np.argsort(who, kind="stable")
    pts = np.concatenate(pts)[order]
    tans = np.concatenate(tans)[order]
    cut = np.searchsorted(who[order], np.arange(m + 1))
    walks = [
        None if failed[i] else (pts[cut[i] : cut[i + 1]], tans[cut[i] : cut[i + 1]])
        for i in range(m)
    ]
    return walks, stalled, min_grad


def _densify(fieldobj, P, sizes, target):
    """Split over-long segments of the loops P (stored back to back, with
    sizes vertices each) at geodesic midpoints until none exceed roughly
    twice the target arc-step; inserted points are Newton-projected back
    onto the curve.  Returns (P, sizes, min relative gradient seen)."""
    min_grad = math.inf
    thresh = 1.9 * target
    for _ in range(12):
        _, nxt = ring(sizes)
        over = spherical_distance_many(P, P[nxt]) > thresh
        if not over.any():
            break
        s = P[over] + P[nxt[over]]
        corrected, _, relgrad, conv = fieldobj.newton(s / np.linalg.norm(s, axis=1)[:, None])
        min_grad = min(min_grad, float(relgrad.min()))
        P, sizes = _insert_after(P, sizes, np.flatnonzero(over)[conv], corrected[conv])
        if not conv.all():
            # midpoints that stall (vanishing gradient near a hairpin tip)
            # are left for the tangent walk below
            break

    # stubborn segments remain when the curve hairpins away from the chord
    # and midpoints keep projecting onto one endpoint; walk those along the
    # tangent instead
    _, nxt = ring(sizes)
    gap = spherical_distance_many(P, P[nxt])
    bad = np.flatnonzero(gap > thresh)
    if not len(bad):
        return P, sizes, min_grad
    a, b = P[bad], P[nxt[bad]]
    dirs = a - P[np.argsort(nxt)[bad]]  # from the previous vertex
    short = np.linalg.norm(dirs, axis=1) < 1e-13
    dirs[short] = (b - a)[short]
    step = 0.45 * target
    # a genuine hairpin detour is a few gap lengths; anything longer means
    # the linkage jumped between distinct strands
    caps = np.maximum(16, ((8.0 * gap[bad] + 6.0 * step) / step).astype(np.int64)) - 1
    walks, stalled, wg = walk(fieldobj, a, b, dirs, np.full(len(bad), step),
                              np.ones(len(bad)), caps)
    # the first walk in vertex order that failed decides
    for res, st in zip(walks, stalled):
        if st:
            raise DegenerateLemniscate("continuation step failed to converge")
        if res is None:
            raise _StubbornSegment
    walked = [res[0] for res in walks]
    P, sizes = _insert_after(P, sizes, np.repeat(bad, [len(w) for w in walked]),
                             np.concatenate(walked))
    return P, sizes, min(min_grad, wg)


def _insert_after(P, sizes, at, points):
    """Insert points after the vertices at (ascending) of the loops P."""
    loop_of = np.repeat(np.arange(len(sizes)), sizes)
    return (np.insert(P, at + 1, points, axis=0),
            sizes + np.bincount(loop_of[at], minlength=len(sizes)))


def trace(rp, opts: TraceOptions | None = None) -> TracedLemniscate:
    """All components of {f = 0} at the working resolution.

    Accepts a RationalPair (f = |p|^2 - |q|^2) or a RealKostlanPolynomial
    (f = p restricted to the sphere).  When two strands of the curve pass
    closer together than the grid can separate, the trace is retried at up
    to 4x the requested resolution before giving up.  Raises
    DegenerateLemniscate when refinement fails to converge or the retries
    are exhausted.
    """
    fieldobj = as_field(rp)
    if opts is None:
        opts = default_options(fieldobj.degree)
    nu = opts.grid_resolution
    for attempt in range(3):
        try:
            return _trace_once(fieldobj, nu)
        except _StubbornSegment:
            nu *= 2
    raise DegenerateLemniscate("close strands unresolved after resolution doubling")


def _trace_once(fieldobj, nu: int) -> TracedLemniscate:
    grid = icosphere(nu)
    verts = GRID_JITTER.apply(grid.verts)

    F = fieldobj.values(verts)
    pos = F > 0.0  # exact zeros count as positive; jitter makes them moot

    e0, e1 = grid.edges[:, 0], grid.edges[:, 1]
    cross = pos[e0] != pos[e1]
    if not cross.any():
        return TracedLemniscate([], nu, math.inf, pos, [])

    ce = cross[grid.tri_edges]
    split = ce.sum(axis=1) == 2
    pairs = grid.tri_edges[split][ce[split]].reshape(-1, 2)

    cids = np.flatnonzero(cross)
    remap = np.full(len(grid.edges), -1, dtype=np.int64)
    remap[cids] = np.arange(len(cids))
    cycles = _link_cycles(remap[pairs])

    a = verts[e0[cids]]
    b = verts[e1[cids]]
    refined, min_grad = _edge_roots(fieldobj, a, b, F[e0[cids]], F[e1[cids]])

    sizes = np.array([len(c) for c in cycles])
    P, sizes, g2 = _densify(fieldobj, refined[np.concatenate(cycles)], sizes,
                            _ARC_STEP * grid.mean_edge_length)
    min_grad = min(min_grad, g2)

    components = [
        ClosedPolyline(np.concatenate([L, L[:1]], axis=0))
        for L in np.split(P, np.cumsum(sizes)[:-1])
    ]
    loop_edges = [cids[c] for c in cycles]
    return TracedLemniscate(components, nu, min_grad, pos, loop_edges)

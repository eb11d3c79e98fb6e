"""Extraction of the level set {f = 0} as closed spherical polylines.

The tracer samples f on an icosahedral geodesic grid, detects sign changes
on grid edges, links crossing edges into cycles (each sign-split triangle
contributes exactly one pass of the curve between two of its edges), then
refines every crossing by bisection plus Newton and densifies to an
arc-step of 0.6 grid edges.  The grid's own rotation (see icogrid) keeps
its vertices off the curve.  A trace carries the field object it was
traced with (fieldobj, built once by as_field in trace_levels; a re-trace
takes it) and the grid it evaluated (grid, from _trace_grid), which
icogrid built with its raster; every consumer of the curve takes both
from it, and the tracer builds no grid itself.

Each curve point comes with the gradient row the Newton projection that
placed it read there (fieldobj.newton's fifth item).  The crossings,
subdivide's midpoints, the walks' points and ray_solve's crossings all
carry their rows, a trace holds one per vertex (grads), and the tangents
along a walk and in the tangent counter are formed from them, so no curve
point is evaluated twice.

A cap trace evaluates f only on the part of the same grid that lies in a
spherical cap (icogrid.cap_grid) and returns the loops whose grid
triangles all lie inside it; the arcs cut by the cap's rim are dropped.
Its loops are the whole sphere's loops there, up to the last bits of the
field's batched values.

trace_levels traces one curve at several resolutions (the local stage's
nu and 2nu) and refines the kept crossings of all levels in one Newton
batch, so they share its per-call overhead.  Each level agrees with its
one-level trace, trace's, up to the last bits of that batch.

A grid that trials trace again and again keeps its plan: the field's
chart data of its vertices (kind.charts), about 26 bytes a vertex for the
pair field and 8(n + 4) for the real field of degree n, 17.7 MB for the
whole sphere at n = 50.  These grids are every cap, and the whole sphere
at the curve's default_options resolution (_kept_plan, four entries,
keyed by the field's kind and degree).  A cap's pair plan adds the
tables (field.pair_tables): everything the grid pass builds from the
points and the degree alone, (b + nb + 1) * 16 + 8 bytes a vertex with
b, nb the evaluator's block shape, about 2.2 MB for the local stage's two
rho = 3 caps at n = 100 and about 11 MB for its rho = 7 caps; a
whole-sphere plan holds the chart data alone.  On any other whole-sphere
grid (the constructor's resolutions, trace's retries at 2 and 4 times the
default, a configured grid_resolution) the field builds that data and
drops it, so large grids add no memory.  A kept plan holds the arrays
the evaluators would build, so the traces are the same bits.

Besides the grid trace, ray_solve finds a known oval directly: the one
crossing of f on each of a fan of rays from its centre.  The tangent
counter solves its small loops with it, and the constructor its new ovals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .field import as_field
from .icogrid import IcoGrid, cap_grid, icosphere
from .sphere import spherical_distance_many, unit_vector

# polyline arc-step, as a share of the mean grid edge
_ARC_STEP = 0.6
_BISECT_ITERS = 45  # halvings in the bisection restart: 2^-45 of an edge
_MAX_RESOLUTION = 768  # finest retry grid in trace; the constructor's cap


class DegenerateLemniscate(RuntimeError):
    """Newton refinement failed to converge: near-singular level set."""


class _StubbornSegment(Exception):
    """A polyline gap that local repair cannot close: two strands of the
    curve pass closer together than the grid can separate."""


@dataclass(frozen=True)
class TraceOptions:
    grid_resolution: int = 64

    def __post_init__(self):
        nu = self.grid_resolution
        if isinstance(nu, bool) or not isinstance(nu, numbers.Integral):
            raise ValueError(f"grid_resolution must be an integer, got {nu!r}")
        if nu < 64:
            raise ValueError("grid_resolution must be >= 64")


def default_options(n: int) -> TraceOptions:
    """Resolution scaled so cell diameter tracks the feature scale 1/sqrt(n)."""
    nu = max(64, math.ceil(5.5 * math.sqrt(max(n, 1))))
    return TraceOptions(grid_resolution=nu)


@dataclass(frozen=True, eq=False)
class TracedLemniscate:
    """The traced loops, stored open and back to back: loop j holds
    sizes[j] vertices of `vertices` (tracer.ring indexes them), its first
    vertex not repeated, and lengths[j] is its spherical length.  grads
    holds one row per vertex: the field's gradient there, as the Newton
    projection that placed the vertex read it (fieldobj.newton).

    grid is the grid f was evaluated on (_trace_grid's: icosphere's, or
    cap_grid's for a cap trace), with the raster icogrid built for it, and
    vertex_signs, crossings and loop_edges index it: crossings
    are the ascending ids of every sign-change edge, the loops' (one array
    each in loop_edges) and, on a cap, those of the arcs its rim cuts;
    select keeps them all, so a dropped loop's are in no loop_edges.
    """

    vertices: np.ndarray = field(repr=False)  # (sum(sizes), 3)
    grads: np.ndarray = field(repr=False)  # (sum(sizes), fieldobj.grad_width)
    sizes: np.ndarray
    lengths: np.ndarray
    grid: IcoGrid = field(repr=False)
    # combinatorial payload consumed by the topology module
    vertex_signs: np.ndarray = field(default=None, repr=False)
    crossings: np.ndarray = field(default=None, repr=False)
    loop_edges: list = field(default=None, repr=False)
    fieldobj: object = field(default=None, repr=False)  # as_field(curve)

    @property
    def components(self) -> list:
        """One closed (k + 1, 3) copy of each loop, first vertex repeated."""
        starts = np.cumsum(self.sizes) - self.sizes
        return [self.vertices[np.r_[a : a + k, a]] for a, k in zip(starts, self.sizes)]

    @property
    def grid_resolution(self) -> int:
        return self.grid.nu

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    def select(self, keep) -> "TracedLemniscate":
        """The trace of the loops j with keep[j], on the same grid and signs."""
        keep = np.asarray(keep, dtype=bool)
        on = np.repeat(keep, self.sizes)
        return replace(self, vertices=self.vertices[on], grads=self.grads[on],
                       sizes=self.sizes[keep], lengths=self.lengths[keep],
                       loop_edges=[e for e, k in zip(self.loop_edges, keep) if k])


def _slerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points at fractions t along the geodesics a -> b; a and b are grid
    edge ends, never nearly parallel."""
    om = np.arccos(np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0))
    so = np.sin(om)
    out = (np.sin((1.0 - t) * om) / so)[:, None] * a + (np.sin(t * om) / so)[:, None] * b
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
    """Roots of f on the geodesic edges (a, b), with sign(fa) != sign(fb),
    and the field's gradient rows there (fieldobj.newton's).

    Linear interpolation seeds a Newton polish; the handful of points where
    Newton stalls get a full bisection restart before a second polish.
    """
    t0 = np.clip(fa / (fa - fb), 0.02, 0.98)
    start = _slerp(a, b, t0)
    pts, _, _, conv, grads = fieldobj.newton(start)
    if not conv.all():
        bad = ~conv
        neg = fa[bad] <= 0
        aa = np.where(neg[:, None], a[bad], b[bad])
        bb = np.where(neg[:, None], b[bad], a[bad])
        retry = _bisect(fieldobj, aa, bb)
        pts2, _, _, conv2, grads2 = fieldobj.newton(retry)
        if not conv2.all():
            raise DegenerateLemniscate(
                f"{int((~conv2).sum())} crossing(s) failed to converge"
            )
        pts[bad] = pts2
        grads[bad] = grads2
    return pts, grads


def ray_solve(fieldobj, c, e1, e2, radii, rays):
    """The one crossing of f on each of `rays` geodesic rays from each
    centre c[i], in the directions cos(a) e1[i] + sin(a) e2[i] at the
    angles a = 2 pi j / rays.

    f is sampled in one field call at the centres, then along every ray
    of centre i at the ascending angular radii radii[i].  A centre is
    solved when f, its value at the centre first, changes sign exactly
    once along each ray (one oval, star-shaped about the centre), and
    Newton, seeded by linear interpolation in each bracket, converges
    within the bracket's width of every seed.  Returns (X, G, ok, F): the
    polished points of the solved centres, back to back in ray order; the
    field's gradient rows there (fieldobj.newton's); the solved mask; the
    samples, (centres, rays, 1 + radii).
    """
    m, K = radii.shape
    ang = 2.0 * math.pi * np.arange(rays) / rays
    # one row per ray, centre by centre: its origin o, direction d and radii
    o = np.repeat(c, rays, axis=0)
    d = (np.cos(ang)[:, None] * e1[:, None] + np.sin(ang)[:, None] * e2[:, None]).reshape(-1, 3)
    rad = np.repeat(np.concatenate([np.zeros((m, 1)), radii], axis=1), rays, axis=0)
    pts = np.cos(rad[:, 1:, None]) * o[:, None] + np.sin(rad[:, 1:, None]) * d[:, None]
    F = fieldobj.values(np.concatenate([c, pts.reshape(-1, 3)]))
    F = np.concatenate([np.repeat(F[:m], rays)[:, None], F[m:].reshape(-1, K)], axis=1)
    s = F > 0
    flip = s[:, 1:] != s[:, :-1]
    ok = (np.count_nonzero(flip, axis=1) == 1).reshape(m, rays).all(axis=1)
    rows = np.flatnonzero(np.repeat(ok, rays))
    k = np.argmax(flip[rows], axis=1)
    r0, r1 = rad[rows, k], rad[rows, k + 1]
    f0, f1 = F[rows, k], F[rows, k + 1]
    r = r0 + (r1 - r0) * f0 / (f0 - f1)
    seed = np.cos(r)[:, None] * o[rows] + np.sin(r)[:, None] * d[rows]
    X, _, _, conv, G = fieldobj.newton(seed)
    held = (conv & (np.linalg.norm(X - seed, axis=1) <= r1 - r0)).reshape(-1, rays).all(axis=1)
    ok[ok] = held
    w = G.shape[1]
    X, G = X.reshape(-1, rays, 3)[held], G.reshape(-1, rays, w)[held]
    return X.reshape(-1, 3), G.reshape(-1, w), ok, F.reshape(m, rays, K + 1)


def _link_cycles(pair_rows: np.ndarray) -> list:
    """Split a 2-regular multigraph, given as edge rows, into cycles.

    Cycles come in the order of their minimum node; each starts there and
    leaves by that node's first edge in row order; no rows give no cycles.
    Half-edge h = 2u + s leaves node u by the edge of u's s-th entry in row
    order, and succ(h) leaves that edge's other end by its other edge, so
    succ is a permutation that walks every cycle once in each direction (a
    self-loop row (u, u) is a fixed point, a cycle of size 1).  One walk in
    ascending node order follows succ from half-edge 2s of each node s no
    earlier cycle holds.
    """
    if not len(pair_rows):
        return []
    order = np.argsort(pair_rows.ravel(), kind="stable")
    half = np.empty_like(order)
    half[order] = np.arange(len(order))
    succ = (half[order ^ 1] ^ 1).tolist()
    seen = bytearray(len(succ) // 2)
    walked, ends = [], []
    for s in range(len(seen)):
        if seen[s]:
            continue
        h = start = 2 * s
        while True:
            walked.append(h)
            seen[h >> 1] = 1
            h = succ[h]
            if h == start:
                break
        ends.append(len(walked))
    return np.split(np.array(walked, dtype=np.int64) >> 1, ends[:-1])


def ring(sizes) -> tuple[np.ndarray, np.ndarray]:
    """(loop, next) indices of closed loops stored back to back in one
    vertex array, loop j holding sizes[j] vertices: loop[i] is the loop of
    vertex i and next[i] the vertex after i, wrapping at the loop's end."""
    loop = np.repeat(np.arange(len(sizes)), sizes)
    first = (np.cumsum(sizes) - sizes)[loop]
    return loop, first + (np.arange(len(loop)) - first + 1) % np.asarray(sizes)[loop]


def walk(fieldobj, starts, grads, targets, dirs, steps, min_steps, caps):
    """Tangent continuation from each start point to its target, in lockstep.

    Each walk steps `steps[k]` along the field tangent oriented by its
    previous step (`dirs[k]` for the first) and Newton-projects back onto
    the curve, so its points are ordered along the arc.  The tangent at a
    point is formed from the gradient row the point came with: grads[k]
    at the start (fieldobj.newton's), then the projection's.  A walk ends
    at the first point past `min_steps[k]` steps within 1.2 steps of its
    target.  Returns (points, rows, tangents, owner, lost, stalled): the
    points the walks visited after their starts, their gradient rows and
    the oriented unit tangents there, back to back walk by walk like a
    trace's loops, owner[i] the walk of point i; and per walk whether it
    is lost, i.e. its projection stalled (marked in stalled too) or it
    took `caps[k]` steps without arriving.  A lost walk contributes no
    points.
    """
    m = len(starts)
    cur = np.array(starts, dtype=float)
    G = np.array(grads, dtype=float)
    last = np.array(dirs, dtype=float)
    k = np.zeros(m, dtype=np.int64)
    lost = np.zeros(m, dtype=bool)
    stalled = np.zeros(m, dtype=bool)
    who = [np.zeros(0, dtype=np.int64)]
    pts, rows, tans = [np.zeros((0, 3))], [np.zeros((0, G.shape[1]))], [np.zeros((0, 3))]
    active = np.arange(m)
    while len(active):
        T = fieldobj.tangents(cur[active], G[active])
        T *= np.where(np.einsum("ij,ij->i", T, last[active]) < 0.0, -1.0, 1.0)[:, None]
        moved = k[active] > 0
        who.append(active[moved])
        pts.append(cur[active[moved]])
        rows.append(G[active[moved]])
        tans.append(T[moved])
        gap = np.linalg.norm(cur[active] - targets[active], axis=1)
        done = (k[active] >= min_steps[active]) & (gap < 1.2 * steps[active])
        over = ~done & (k[active] >= caps[active])
        lost[active[over]] = True
        active, T = active[~done & ~over], T[~done & ~over]
        if not len(active):
            break
        pred = cur[active] + steps[active, None] * T
        pred /= np.linalg.norm(pred, axis=1)[:, None]
        nxt, _, _, conv, g = fieldobj.newton(pred)
        lost[active[~conv]] = stalled[active[~conv]] = True
        active, nxt = active[conv], nxt[conv]
        last[active] = nxt - cur[active]
        cur[active] = nxt
        G[active] = g[conv]
        k[active] += 1
    who = np.concatenate(who)
    order = np.argsort(who, kind="stable")
    order = order[~lost[who[order]]]
    return (np.concatenate(pts)[order], np.concatenate(rows)[order], np.concatenate(tans)[order],
            who[order], lost, stalled)


def subdivide(fieldobj, P, G, sizes, too_long, rounds):
    """Split the segments of the loops P (stored back to back, with sizes
    vertices each, and G their gradient rows) at geodesic midpoints,
    Newton-projected back onto the curve, in up to `rounds` passes.
    too_long(P, next) marks the segments (vertex i to next[i]) a pass
    splits.  A pass whose midpoint projection stalls keeps the midpoints
    that converged and ends the passes.  Returns (P, G, sizes, settled),
    settled when a pass found nothing to split."""
    for _ in range(rounds):
        _, nxt = ring(sizes)
        over = too_long(P, nxt)
        if not over.any():
            return P, G, sizes, True
        s = P[over] + P[nxt[over]]
        corrected, _, _, conv, rows = fieldobj.newton(s / np.linalg.norm(s, axis=1)[:, None])
        P, G, sizes = _insert_after(P, G, sizes, np.flatnonzero(over)[conv], corrected[conv],
                                    rows[conv])
        if not conv.all():
            break
    return P, G, sizes, False


def _densify(fieldobj, P, G, sizes, target):
    """Split over-long segments of the loops P (stored back to back, with
    sizes vertices each, and G their gradient rows) at geodesic midpoints
    until none exceed roughly twice the target arc-step, then walk the
    ones that stay over.  Returns (P, G, sizes)."""
    thresh = 1.9 * target
    # midpoints that stall (vanishing gradient near a hairpin tip) are
    # left for the tangent walk below
    P, G, sizes, _ = subdivide(
        fieldobj, P, G, sizes, lambda P, nxt: spherical_distance_many(P, P[nxt]) > thresh, 12)

    # stubborn segments remain when the curve hairpins away from the chord
    # and midpoints keep projecting onto one endpoint; walk those along the
    # tangent instead
    _, nxt = ring(sizes)
    gap = spherical_distance_many(P, P[nxt])
    bad = np.flatnonzero(gap > thresh)
    if not len(bad):
        return P, G, sizes
    a, b = P[bad], P[nxt[bad]]
    dirs = a - P[np.argsort(nxt)[bad]]  # from the previous vertex
    short = np.linalg.norm(dirs, axis=1) < 1e-13
    dirs[short] = (b - a)[short]
    step = 0.45 * target
    # a genuine hairpin detour is a few gap lengths; anything longer means
    # the linkage jumped between distinct strands
    caps = np.maximum(16, ((8.0 * gap[bad] + 6.0 * step) / step).astype(np.int64)) - 1
    pts, rows, _, owner, lost, stalled = walk(fieldobj, a, G[bad], b, dirs,
                                              np.full(len(bad), step), np.ones(len(bad)), caps)
    if lost.any():
        # the first lost walk in vertex order decides
        if stalled[np.argmax(lost)]:
            raise DegenerateLemniscate("continuation step failed to converge")
        raise _StubbornSegment
    return _insert_after(P, G, sizes, bad[owner], pts, rows)


def _insert_after(P, G, sizes, at, points, rows):
    """Insert points, with their gradient rows, after the vertices at
    (ascending) of the loops P, whose rows are G."""
    return (np.insert(P, at + 1, points, axis=0), np.insert(G, at + 1, rows, axis=0),
            sizes + np.bincount(ring(sizes)[0][at], minlength=len(sizes)))


def trace(rp, opts: TraceOptions | None = None, cap=None) -> TracedLemniscate:
    """All components of {f = 0} at the working resolution, or, with
    cap = (centre, radius), those whose grid triangles lie in that cap:
    trace_levels' one-level case.

    Accepts a RationalPair (f = |p|^2 - |q|^2), a RealKostlanPolynomial
    (f = p restricted to the sphere) or the field object of either, such
    as a trace's fieldobj, which a re-trace then shares.  When two strands
    of the curve pass closer together than the grid can separate, the
    trace is retried at up to 4x the requested resolution, never above
    max(requested, _MAX_RESOLUTION), before giving up.  Raises
    DegenerateLemniscate when refinement fails to converge or the retries
    are exhausted.
    """
    return trace_levels(rp, (opts,), cap)[0]


def trace_levels(curve, levels, cap=None) -> list:
    """One trace of curve per TraceOptions in levels (None for
    default_options), all on the same cap and with one field object.

    Each level has its own grid pass, crossing graph, linker and
    densification; the kept crossings of every level are refined in one
    batch, in level order.  A level agrees with its one-level trace up to
    the last bits of that batch, as a cap trace agrees with the whole
    sphere's.  When a level meets close strands, every level is traced
    alone through trace's retry ladder, and so has trace's bits.
    """
    fieldobj = as_field(curve)
    if cap is not None:
        centre, radius = cap
        if not 0.0 < radius <= math.pi:
            raise ValueError("cap radius must lie in (0, pi]")
        cap = (tuple(float(x) for x in unit_vector(centre)), float(radius))
    nus = [(o or default_options(fieldobj.degree)).grid_resolution for o in levels]
    if len(nus) > 1:
        try:
            return _trace_grids(fieldobj, nus, cap)
        except _StubbornSegment:
            pass
    return [_retried(fieldobj, nu, cap) for nu in nus]


def _retried(fieldobj, nu: int, cap) -> TracedLemniscate:
    """One level alone at nu, retried on close strands at 2 and 4 nu."""
    for nu in [nu] + [k * nu for k in (2, 4) if k * nu <= _MAX_RESOLUTION]:
        try:
            return _trace_grids(fieldobj, (nu,), cap)[0]
        except _StubbornSegment:
            pass
    raise DegenerateLemniscate("close strands unresolved after resolution doubling")


def _trace_grid(nu: int, cap) -> IcoGrid:
    """The grid a trace at (nu, cap) evaluates, as icogrid builds it:
    icosphere(nu), or its cap (cap_grid)."""
    return icosphere(nu) if cap is None else cap_grid(nu, *cap)


@lru_cache(maxsize=4)
def _kept_plan(kind, n: int, nu: int, cap):
    """kind.charts, at degree n, of the grid a trace at (nu, cap) evaluates.

    A cap's plan holds the tables too: at n = 100 they take about a third
    off the local stage's two cap grid passes (0.57-0.74 to 0.35-0.50 ms
    on a 2-core host).  A whole-sphere plan holds the chart data only: at
    n = 25 its tables would save 0.5 ms of a 2.2-3.1 ms grid pass, inside
    the noise of a trial, and at n = 200 they would take 28 + 7 MB.
    """
    return kind.charts(_trace_grid(nu, cap).verts, n, tables=cap is not None)


def _trace_grids(fieldobj, nus, cap) -> list:
    """One trace attempt per resolution in nus, on the same cap; raises
    _StubbornSegment when any level meets close strands."""
    n = fieldobj.degree
    links, ends = [], []
    for nu in nus:
        grid = _trace_grid(nu, cap)
        # a cap, or the whole sphere at the default resolution, is traced
        # trial after trial; the field builds any other grid's chart data
        kept = cap is not None or nu == default_options(n).grid_resolution
        F = fieldobj.values(grid.verts, _kept_plan(type(fieldobj), n, nu, cap) if kept else None)
        pos = F > 0.0  # exact zeros count as positive; the grid's rotation makes them moot

        e0, e1 = grid.edges[:, 0], grid.edges[:, 1]
        cross = pos[e0] != pos[e1]
        # a triangle's three vertex signs change an even number of times
        # around it, so it crosses on no edge or on two: its crossing
        # edges, read row by row, come in pairs
        pairs = grid.tri_edges[cross[grid.tri_edges]].reshape(-1, 2)

        cids = np.flatnonzero(cross)
        remap = np.full(len(grid.edges), -1, dtype=np.int64)
        remap[cids] = np.arange(len(cids))
        rows = remap[pairs]
        # every crossing has two split triangles on the whole sphere; in a
        # cap, one at the end of an arc cut by the rim has one, and a
        # crossing on a rim edge may have none.  Pairing the arc ends and
        # closing each lone crossing on itself makes every node's degree 2
        # for the linker; the cycles through those nodes are dropped.
        deg = np.bincount(rows.ravel(), minlength=len(cids))
        lone = np.flatnonzero(deg == 0)
        rows = np.concatenate([rows, np.flatnonzero(deg == 1).reshape(-1, 2),
                               np.stack([lone, lone], axis=1)])
        cycles = [c for c in _link_cycles(rows) if (deg[c] == 2).all()]

        # refine only the crossings of kept cycles, in crossing order; a
        # global trace keeps them all
        nodes = np.concatenate(cycles or [np.zeros(0, dtype=np.int64)])
        keep = np.zeros(len(cids), dtype=bool)
        keep[nodes] = True
        a, b = e0[cids[keep]], e1[cids[keep]]
        # the last item: each node's row among the level's kept crossings
        links.append((grid, pos, cids, cycles, (np.cumsum(keep) - 1)[nodes]))
        ends.append((grid.verts[a], grid.verts[b], F[a], F[b]))

    # every level's kept crossings in one batch, the one its refined bits
    # depend on
    counts = np.array([len(e[2]) for e in ends])
    if counts.any():
        X, G = _edge_roots(fieldobj, *(np.concatenate(c) for c in zip(*ends)))
    out = []
    for (grid, pos, cids, cycles, at), first in zip(links, np.cumsum(counts) - counts):
        if not cycles:
            out.append(TracedLemniscate(np.zeros((0, 3)), np.zeros((0, fieldobj.grad_width)),
                                        np.zeros(0, dtype=np.int64), np.zeros(0), grid, pos,
                                        cids, [], fieldobj))
            continue
        sizes = np.array([len(c) for c in cycles])
        P, R, sizes = _densify(fieldobj, X[first + at], G[first + at], sizes,
                               _ARC_STEP * grid.mean_edge_length)
        # one sum per loop slice: pairwise, like a sum over the loop alone
        seg = spherical_distance_many(P, P[ring(sizes)[1]])
        lengths = np.array([d.sum() for d in np.split(seg, np.cumsum(sizes)[:-1])])
        out.append(TracedLemniscate(P, R, sizes, lengths, grid, pos, cids,
                                    [cids[c] for c in cycles], fieldobj))
    return out

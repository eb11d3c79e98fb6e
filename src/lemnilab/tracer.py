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
from .sphere import Rotation, spherical_distance, spherical_distance_many

# the grid rotation every trace uses (tie-breaking, see the module doc)
GRID_JITTER = Rotation.random(RandomStream(0x1CE5_9E0D, 0).generator())
# polyline arc-step, as a share of the mean grid edge
_ARC_STEP = 0.6


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


def _bisect(fieldobj, a, b, iters=45):
    """Geodesic bisection; a must be on the f<=0 side, b on the f>0 side."""
    lo = np.zeros(len(a))
    hi = np.ones(len(a))
    for _ in range(iters):
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


def _link_cycles(pair_rows: np.ndarray, n_nodes: int) -> list:
    """Split a 2-regular multigraph (given as edge rows) into cycles."""
    order = np.argsort(pair_rows.ravel(), kind="stable")
    partner = pair_rows[:, ::-1].ravel()
    nbr = partner[order].reshape(n_nodes, 2)
    visited = np.zeros(n_nodes, dtype=bool)
    cycles = []
    for start in range(n_nodes):
        if visited[start]:
            continue
        cyc = []
        prev, cur = -1, start
        while True:
            visited[cur] = True
            cyc.append(cur)
            n0, n1 = nbr[cur]
            nxt = n1 if n0 == prev else n0
            if nxt == start:
                break
            prev, cur = cur, nxt
        cycles.append(np.array(cyc, dtype=np.int64))
    return cycles


def _densify(fieldobj, loops, target):
    """Split over-long segments at geodesic midpoints until none exceed
    roughly twice the target arc-step; inserted points are Newton-projected
    back onto the curve."""
    min_grad = math.inf
    thresh = 1.9 * target
    for _ in range(12):
        masks = [
            spherical_distance_many(P, np.roll(P, -1, axis=0)) > thresh for P in loops
        ]
        counts = [int(m.sum()) for m in masks]
        if sum(counts) == 0:
            break
        mids = []
        for P, m in zip(loops, masks):
            if m.any():
                s = P[m] + np.roll(P, -1, axis=0)[m]
                mids.append(s / np.linalg.norm(s, axis=1)[:, None])
        allmids = np.concatenate(mids)
        corrected, rel, relgrad, conv = fieldobj.newton(allmids)
        min_grad = min(min_grad, float(relgrad.min()))
        out = []
        pos = 0
        for P, m, k in zip(loops, masks, counts):
            if k:
                ok = conv[pos : pos + k]
                keep = np.flatnonzero(m)[ok]
                out.append(np.insert(P, keep + 1, corrected[pos : pos + k][ok], axis=0))
                pos += k
            else:
                out.append(P)
        loops = out
        if not conv.all():
            # midpoints that stall (vanishing gradient near a hairpin tip)
            # are left for the tangent-walk stage below
            break

    # stubborn segments remain when the curve hairpins away from the chord
    # and midpoints keep projecting onto one endpoint; walk those along the
    # tangent instead
    out = []
    for P in loops:
        g = spherical_distance_many(P, np.roll(P, -1, axis=0))
        bad = np.flatnonzero(g > thresh)
        if len(bad) == 0:
            out.append(P)
            continue
        pieces = []
        prev_cut = 0
        for i in bad:
            pieces.append(P[prev_cut : i + 1])
            walked, wg = _walk_segment(fieldobj, P, int(i), 0.45 * target)
            min_grad = min(min_grad, wg)
            if walked:
                pieces.append(np.array(walked))
            prev_cut = i + 1
        pieces.append(P[prev_cut:])
        out.append(np.concatenate([p for p in pieces if len(p)]))
    return out, min_grad


def _walk_segment(fieldobj, loop, i, step):
    """Bridge loop[i] -> loop[i+1] by tangent-predictor continuation."""
    a = loop[i]
    b = loop[(i + 1) % len(loop)]
    last_dir = a - loop[i - 1]
    if np.linalg.norm(last_dir) < 1e-13:
        last_dir = b - a
    gap = spherical_distance(a, b)
    # a genuine hairpin detour is a few gap lengths; anything longer means
    # the linkage jumped between distinct strands
    cap = max(16, int((8.0 * gap + 6.0 * step) / step))
    cur = a
    pts = []
    min_grad = math.inf
    for _ in range(cap):
        if spherical_distance(cur, b) < 1.2 * step and len(pts) > 0:
            return pts, min_grad
        t = fieldobj.tangents(cur[None, :])[0]
        if np.dot(t, last_dir) < 0:
            t = -t
        pred = cur + step * t
        pred /= np.linalg.norm(pred)
        nxt, rel, relgrad, conv = fieldobj.newton(pred[None, :])
        if not conv.all():
            raise DegenerateLemniscate("continuation step failed to converge")
        min_grad = min(min_grad, float(relgrad[0]))
        last_dir = nxt[0] - cur
        cur = nxt[0]
        pts.append(cur)
    raise _StubbornSegment


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
    cycles = _link_cycles(remap[pairs], len(cids))

    a = verts[e0[cids]]
    b = verts[e1[cids]]
    refined, min_grad = _edge_roots(fieldobj, a, b, F[e0[cids]], F[e1[cids]])

    loops = [refined[c] for c in cycles]
    loops, g2 = _densify(fieldobj, loops, _ARC_STEP * grid.mean_edge_length)
    min_grad = min(min_grad, g2)

    components = [
        ClosedPolyline(np.concatenate([P, P[:1]], axis=0)) for P in loops
    ]
    loop_edges = [cids[c] for c in cycles]
    return TracedLemniscate(components, nu, min_grad, pos, loop_edges)

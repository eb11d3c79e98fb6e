"""Constructive realization of circle arrangements as rational lemniscates.

Any rooted tree of m circles is realized by a degree-m pair: each circle
is added by perturbing r = p/q with a simple pole eps/z at a point moved
to the chart origin, which spawns one oval around the pole without
disturbing the rest of the arrangement.  Rational lemniscates are closed
under pullback by Mobius maps, and every change of the frame is one: a
2x2 matrix M moves the homogeneous markers [z : w], the traced ovals and
the pair together (_Frame.moved).  Before every step the frame is
renormalized (an SU(2) rotation takes the target point to the origin, a
dilation diag(1, lam) brings the free disk to unit size); this keeps each
new oval at O(1) scale and the ratio between nesting levels shallow.  eps
is found by halving from near its theoretical ceiling delta*(1-c0) until
three scale-free checks pass: the new oval is star-shaped about the pole
inside the pole disk, one crossing of f on each ray from it (solved by
tracer.ray_solve), every old oval persists under Newton continuation
(with at most n+1 ovals possible in degree n+1, nothing else can appear),
and the derivative certificate eps/|z|^2 - |r'(z)| is positive on the new
oval.  One global trace at the end (deepest node at the origin, root face
unfolded to infinity, one balancing dilation, finer grids if need be)
confirms the whole tree; the construction keeps the nesting tree that
verified it, and the round trip and the certificate read that tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import KostlanPolynomial, RationalPair, mobius_polynomials
from .field import PairField, chart_jets, jet_blocks, newton_correct, poly_jets_many
from .sphere import Rotation, from_homogeneous, homogeneous_coords
from .tracer import _MAX_RESOLUTION, DegenerateLemniscate, TraceOptions, ray_solve, trace
from .topology import (
    Arrangement,
    InconsistentTopology,
    NestingTree,
    PointOnCurve,
    _parse,
    nesting_tree,
    rooted_canonical_form,
)


class InvalidSpec(ValueError):
    pass


class EpsilonExhausted(RuntimeError):
    """No epsilon small enough was found for one inductive step."""


_ORIGIN = np.array([0.0, 0.0, -1.0])  # chart coordinate z = 0
# the directions of chart coordinates 1 and i at the origin
_ORIGIN_FRAME = (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))
_MAX_CIRCLES = 12
_OVAL_RAYS = 64  # _local_oval: rays from the pole, one oval point on each
# certify_nondegenerate: least relative chart gradient along the curve
_MIN_REL_GRADIENT = 1e-6
# degree 0, |r| = 1/2 everywhere: the empty lemniscate the first step perturbs
_EMPTY = RationalPair(
    KostlanPolynomial(0, np.array([0.5 + 0j])),
    KostlanPolynomial(0, np.array([1.0 + 0j])),
)


@dataclass(frozen=True, eq=False)
class ConstructedLemniscate:
    pair: RationalPair
    spec: Arrangement
    epsilons: tuple
    certificates: tuple  # min eps/|z|^2 - |r'| over the new oval, per step
    root_point: np.ndarray  # a point of the outer face
    # the nesting tree that verified spec, with its trace (not serialized)
    tree: NestingTree = field(repr=False)

    @property
    def degree(self) -> int:
        return self.pair.degree

    @property
    def trace_resolution(self) -> int:
        """Grid frequency of the trace that verified the tree."""
        return self.tree.trace.grid_resolution

    def to_json(self) -> dict:
        return {
            "spec": self.spec.canonical,
            "pair": self.pair.to_json(),
            "epsilons": list(self.epsilons),
            "certificates": list(self.certificates),
            "root_point": self.root_point.tolist(),
            "trace_resolution": self.trace_resolution,
        }


def _pair(n: int, pc: np.ndarray, qc: np.ndarray) -> RationalPair:
    """The pair (pc, qc) scaled to unit max coefficient."""
    s = max(np.abs(pc).max(), np.abs(qc).max())
    return RationalPair(KostlanPolynomial(n, pc / s), KostlanPolynomial(n, qc / s))


def _chart_abs(verts: np.ndarray) -> np.ndarray:
    zh, wh = homogeneous_coords(verts)
    return np.abs(zh) / np.abs(wh)


def _to_origin(h) -> np.ndarray:
    """The SU(2) move taking the point [z : w] to the chart origin."""
    return Rotation.align(from_homogeneous(h), _ORIGIN).su2()


def _diameters(verts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-oval diameter (3D chord): twice the largest distance of a
    vertex from its oval's vertex mean."""
    starts = np.cumsum(sizes) - sizes
    c = np.add.reduceat(verts, starts) / sizes[:, None]
    r = np.linalg.norm(verts - np.repeat(c, sizes, axis=0), axis=1)
    return 2.0 * np.maximum.reduceat(r, starts)


@dataclass(frozen=True, eq=False)
class _Frame:
    """The pair plus everything that must ride along under Mobius moves:
    homogeneous markers [z : w] of the faces placed so far, and the ovals,
    stored open and back to back (oval j holds sizes[j] of verts)."""

    rp: RationalPair
    markers: dict
    verts: np.ndarray
    sizes: np.ndarray

    def moved(self, M: np.ndarray) -> "_Frame":
        """The frame in the coordinate [z : w] -> M [z : w].

        The pair is pulled back by M's adjugate, so the new curve is the
        image of the old one.
        """
        (a, b), (c, d) = M
        n = self.rp.degree
        pc, qc = mobius_polynomials(
            [self.rp.p.coeffs, self.rp.q.coeffs], n, d, -b, -c, a
        )
        return _Frame(
            _pair(n, pc, qc),
            {k: M @ h for k, h in self.markers.items()},
            from_homogeneous(np.stack(homogeneous_coords(self.verts), axis=-1) @ M.T),
            self.sizes,
        )


def _resolution_for(feature: float) -> int:
    # icosphere edge is about 1.1/nu; want a few cells across the feature
    return int(np.clip(math.ceil(4.5 / feature), 96, _MAX_RESOLUTION))


def _verify(frame: _Frame, expected: str, nu: int) -> NestingTree | None:
    """The nesting tree of the trace at nu, if every face spans at least 4
    grid vertices and the tree rooted at the root marker is expected."""
    tree = nesting_tree(trace(frame.rp, TraceOptions(grid_resolution=nu)))
    if np.bincount(tree.face_of_vertex).min() < 4:
        return None
    form = rooted_canonical_form(tree, from_homogeneous(frame.markers["root"]))
    return tree if form.canonical == expected else None


def _add_circle(frame: _Frame, key, shrink: float = 1.0):
    """One inductive step; returns (new frame, eps, certificate)."""
    # normalize: parent face marker to the origin, free disk to unit size
    frame = frame.moved(_to_origin(frame.markers[key[0]]))
    if len(frame.sizes):
        frame = frame.moved(np.diag([1.0, _chart_abs(frame.verts).min()]))
    # pole goes next to the parent marker, not on top of it
    frame = frame.moved(_to_origin(np.array([0.45, 1.0])))

    dists = [float(_chart_abs(frame.verts).min(initial=1.0))]
    dists.extend(
        abs(z / w) for z, w in frame.markers.values() if z != 0 and w != 0
    )
    delta = 0.5 * min(dists)

    p, q = frame.rp.p.coeffs, frame.rp.q.coeffs
    if abs(p[0]) >= abs(q[0]):
        p, q = q, p  # ensure |r(0)| < 1

    # c0 = max |r| over the pole disk; no curve there, so c0 < 1
    rr = delta * np.sqrt(np.linspace(0.02, 1.0, 16))
    th = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 32, endpoint=False))
    zs = np.concatenate([[0.0 + 0j], np.outer(rr, th).ravel()])
    blocks = jet_blocks([p, q])
    (pv,), (qv,) = poly_jets_many(blocks, zs)
    c0 = float(np.abs(pv / qv).max())
    if c0 >= 1.0:
        raise EpsilonExhausted("pole disk touches the current lemniscate")

    n = len(p) - 1
    eps = 0.9 * shrink * delta * (1.0 - c0)
    for _ in range(60):
        pc = np.zeros(n + 2, dtype=complex)
        pc[1:] = p
        pc[: n + 1] += eps * q
        qc = np.zeros(n + 2, dtype=complex)
        qc[1:] = q
        cand = PairField(_pair(n + 1, pc, qc))
        # local checks only; they are scale free, so deep nests cost the
        # same as shallow ones.  Correctness of the global picture follows
        # from the count bound: degree-(n+1) lemniscates have at most n+1
        # ovals, and we exhibit n persisting ones plus the new one.
        oval = _local_oval(cand, eps, delta)
        if oval is None:
            eps *= 0.5
            continue
        moved = _persisted_components(cand, frame.verts, frame.sizes)
        if moved is None:
            eps *= 0.5
            continue
        zh, wh = homogeneous_coords(oval)
        oval_z = zh / wh
        (p0, p1), (q0, q1) = poly_jets_many(blocks, oval_z, order=1)
        r_prime = (p1 * q0 - p0 * q1) / q0**2
        cert = float((eps / np.abs(oval_z) ** 2 - np.abs(r_prime)).min())
        if cert > 0.0:
            markers = {**frame.markers, key: np.array([0.0, 1.0 + 0j])}
            verts = np.concatenate([moved, oval])
            return _Frame(cand.rp, markers, verts, np.append(frame.sizes, len(oval))), eps, cert
        eps *= 0.5
    raise EpsilonExhausted("no epsilon passed after 60 halvings")


def _local_oval(cand: PairField, eps: float, delta: float):
    """The new oval of the candidate pair's field cand about the pole at
    the origin, solved along _OVAL_RAYS rays at chart radii from eps/8 to
    delta (tracer.ray_solve).

    Requires one star-shaped oval about the origin, f > 0 throughout the
    inner ring and f <= 0 at radius delta; returns its points, in ray
    order, or None.
    """
    radii = 2.0 * np.arctan(np.geomspace(eps / 8.0, delta, 96))
    X, _, ok, F = ray_solve(cand, _ORIGIN[None], *_ORIGIN_FRAME, radii[None], _OVAL_RAYS)
    if not ok[0] or not np.all(F[0, :, 1] > 0) or np.any(F[0, :, -1] > 0):
        return None
    return X


def _persisted_components(cand: PairField, verts: np.ndarray, sizes: np.ndarray):
    """Newton-project the old ovals (stored back to back, sizes vertices
    each) onto the perturbed curve.

    Returns the corrected vertices, or None if any point failed to
    converge or drifted by more than a fifth of its oval's diameter
    (which would void the persistence argument).
    """
    if not len(sizes):
        return verts
    # 1e-7 residual at healthy gradient puts the point within ~1e-9
    # of the curve, plenty below the drift threshold
    pts, rel, relgrad, _, _ = newton_correct(cand, verts, tol_rel=1e-8)
    if rel.max() > 1e-7 or relgrad.min() < 1e-9:
        return None
    drift = np.maximum.reduceat(np.linalg.norm(pts - verts, axis=1), np.cumsum(sizes) - sizes)
    if np.any(drift > 0.2 * _diameters(verts, sizes)):
        return None
    return pts


def _balance_frame(frame: _Frame, spec: Arrangement, anchor_key):
    """Unfold and dilate so feature scales straddle 1, then verify.

    The frame is first centered at the deepest node, where the scales
    accumulate.  Unfolding, [z : w] -> [w_m z : z_m w - w_m z], sends the
    root marker [z_m : w_m] to infinity and keeps the origin; with the
    root face wrapped around infinity the nest spreads into rings at
    hierarchical chart radii, which one dilation then balances.  Only nu
    escalates, up to _MAX_RESOLUTION; returns (frame, verifying tree).
    """
    frame = frame.moved(_to_origin(frame.markers[anchor_key]))
    zm, wm = frame.markers["root"]
    frame = frame.moved(np.array([[wm, 0.0], [-wm, zm]]))
    radii = [np.median(r) for r in
             np.split(_chart_abs(frame.verts), np.cumsum(frame.sizes)[:-1])]
    lam = float(np.exp(np.mean(np.log(np.maximum(radii, 1e-12)))))
    frame = frame.moved(np.diag([1.0, lam]))
    nu = _resolution_for(float(_diameters(frame.verts, frame.sizes).min()))
    while True:
        try:
            tree = _verify(frame, spec.canonical, nu)
        except (DegenerateLemniscate, InconsistentTopology, PointOnCurve):
            tree = None
        if tree is not None:
            return frame, tree
        if nu >= _MAX_RESOLUTION:
            raise EpsilonExhausted("could not verify the finished arrangement")
        nu = min(2 * nu, _MAX_RESOLUTION)


def check_circles(m: int):
    """InvalidSpec unless realize takes a tree of m circles."""
    if not 1 <= m <= _MAX_CIRCLES:
        raise InvalidSpec("construct realizes 1 to %d circles, not %d" % (_MAX_CIRCLES, m))


def realize(spec: Arrangement) -> ConstructedLemniscate:
    """A nondegenerate rational pair whose lemniscate nests like spec."""
    check_circles(spec.n_nodes - 1)
    root_children = _parse(spec.canonical)

    # parent-first order, deepest subtree first within each node
    order = []

    def depth_of(ch):
        return 1 + max((depth_of(c) for c in ch), default=0)

    def walk(children, parent_key, d):
        ranked = sorted(
            enumerate(children), key=lambda ic: -depth_of(ic[1])
        )
        for i, ch in ranked:
            order.append(((parent_key, i), d))
            walk(ch, (parent_key, i), d + 1)

    walk(root_children, "root", 1)
    anchor_key = max(order, key=lambda kd: kd[1])[0]

    last = None
    for attempt in range(3):
        frame = _Frame(_EMPTY, {"root": np.array([1.0 + 0j, 0.0])},
                       np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
        epsilons, certs = [], []
        try:
            for key, _depth in order:
                frame, eps, cert = _add_circle(frame, key, shrink=0.5**attempt)
                epsilons.append(eps)
                certs.append(cert)
            frame, tree = _balance_frame(frame, spec, anchor_key)
        except EpsilonExhausted as e:
            last = e
            continue
        return ConstructedLemniscate(
            frame.rp,
            spec,
            tuple(epsilons),
            tuple(certs),
            from_homogeneous(frame.markers["root"]),
            tree,
        )
    raise last


def certify_nondegenerate(c: ConstructedLemniscate) -> bool:
    """One traced component per circle, each with a healthy chart gradient."""
    t = c.tree.trace
    if len(t.sizes) != c.degree:
        return False
    _, g, sc, _, _ = chart_jets(t.fieldobj, t.vertices)
    return bool((np.hypot(g[:, 0], g[:, 1]) / sc).min() >= _MIN_REL_GRADIENT)


def realized_tree(c: ConstructedLemniscate) -> Arrangement:
    """Rooted canonical form of the verifying tree (round-trip check)."""
    return rooted_canonical_form(c.tree, c.root_point)


def all_rooted_trees(max_nodes: int) -> list:
    """Canonical strings of all rooted trees with up to max_nodes nodes."""
    forms = {1: ["()"]}
    for n in range(2, max_nodes + 1):
        seen = set()
        # attach one new leaf at every node of every (n-1)-node tree
        for s in forms[n - 1]:
            for i, ch in enumerate(s):
                if ch == "(":
                    seen.add(Arrangement(s[: i + 1] + "()" + s[i + 1 :]).canonical)
        forms[n] = sorted(seen)
    out = []
    for n in range(1, max_nodes + 1):
        out.extend(forms[n])
    return out

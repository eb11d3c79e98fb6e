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
three scale-free checks pass: the oval exists as a single radial crossing
inside the pole disk, every old oval persists under Newton continuation
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
from .field import chart_jets, newton_correct, poly_jets_many
from .sphere import (
    Rotation,
    from_homogeneous,
    homogeneous_coords,
    inverse_stereographic_many,
)
from .tracer import DegenerateLemniscate, TraceOptions, trace
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
_MAX_CIRCLES = 12
_MAX_RESOLUTION = 768
_OVAL_RAYS = 64  # _local_oval: rays the new oval is bisected along
# certify_nondegenerate: least relative chart gradient along the curve
_MIN_REL_GRADIENT = 1e-6
# degree 0, |r| = 1/2 everywhere: the empty lemniscate the first step perturbs
_EMPTY = RationalPair(
    KostlanPolynomial(0, np.array([0.5 + 0j])),
    KostlanPolynomial(0, np.array([1.0 + 0j])),
)


@dataclass(frozen=True)
class ConstructedLemniscate:
    pair: RationalPair
    spec: Arrangement
    epsilons: tuple
    certificates: tuple  # min eps/|z|^2 - |r'| over the new oval, per step
    root_point: np.ndarray  # a point of the outer face
    # the nesting tree that verified spec, with its trace (not serialized)
    tree: NestingTree = field(repr=False, compare=False)

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


@dataclass(frozen=True)
class _Frame:
    """The pair plus everything that must ride along under Mobius moves:
    homogeneous markers [z : w] of the faces placed so far, and the
    per-component vertex arrays of the ovals."""

    rp: RationalPair
    markers: dict
    comp_verts: list

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
            [
                from_homogeneous(np.stack(homogeneous_coords(v), axis=-1) @ M.T)
                for v in self.comp_verts
            ],
        )

    def min_feature(self) -> float:
        """Smallest component diameter (3D chord) in the current frame."""
        best = math.inf
        for v in self.comp_verts:
            c = v.mean(axis=0)
            best = min(best, 2.0 * float(np.linalg.norm(v - c, axis=1).max()))
        return best


def _resolution_for(feature: float) -> int:
    # icosphere edge is about 1.1/nu; want a few cells across the feature
    return int(np.clip(math.ceil(4.5 / feature), 96, _MAX_RESOLUTION))


def _verify(frame: _Frame, expected: str, nu: int) -> NestingTree | None:
    """The nesting tree of the trace at nu, if every face spans at least 4
    grid vertices and the tree rooted at the root marker is expected."""
    tree = nesting_tree(frame.rp, trace(frame.rp, TraceOptions(grid_resolution=nu)))
    if np.bincount(tree.face_of_vertex).min() < 4:
        return None
    form = rooted_canonical_form(tree, from_homogeneous(frame.markers["root"]))
    return tree if form.canonical == expected else None


def _add_circle(frame: _Frame, key, shrink: float = 1.0):
    """One inductive step; returns (new frame, eps, certificate)."""
    # normalize: parent face marker to the origin, free disk to unit size
    frame = frame.moved(_to_origin(frame.markers[key[0]]))
    if frame.comp_verts:
        lam = min(float(_chart_abs(v).min()) for v in frame.comp_verts)
        frame = frame.moved(np.diag([1.0, lam]))
    # pole goes next to the parent marker, not on top of it
    frame = frame.moved(_to_origin(np.array([0.45, 1.0])))

    dists = [1.0]
    dists.extend(float(_chart_abs(v).min()) for v in frame.comp_verts)
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
    (pv,), (qv,) = poly_jets_many([p, q], zs)
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
        cand = _pair(n + 1, pc, qc)
        # local checks only; they are scale free, so deep nests cost the
        # same as shallow ones.  Correctness of the global picture follows
        # from the count bound: degree-(n+1) lemniscates have at most n+1
        # ovals, and we exhibit n persisting ones plus the new one.
        oval_z = _local_oval(pc, qc, eps, delta)
        if oval_z is None:
            eps *= 0.5
            continue
        moved = _persisted_components(cand, frame.comp_verts)
        if moved is None:
            eps *= 0.5
            continue
        (p0, p1), (q0, q1) = poly_jets_many([p, q], oval_z, order=1)
        r_prime = (p1 * q0 - p0 * q1) / q0**2
        cert = float((eps / np.abs(oval_z) ** 2 - np.abs(r_prime)).min())
        if cert > 0.0:
            markers = {**frame.markers, key: np.array([0.0, 1.0 + 0j])}
            ovals = moved + [inverse_stereographic_many(oval_z)]
            return _Frame(cand, markers, ovals), eps, cert
        eps *= 0.5
    raise EpsilonExhausted("no epsilon passed after 60 halvings")


def _local_oval(pc, qc, eps, delta):
    """The new oval, found by radial bisection inside the pole disk.

    Requires f > 0 throughout the inner ring, f < 0 at radius delta, and
    exactly one sign change along every ray; returns None otherwise.
    """
    ang = np.exp(2j * np.pi * np.arange(_OVAL_RAYS) / _OVAL_RAYS)
    rad = np.geomspace(eps / 8.0, delta, 96)
    F = _cand_field(pc, qc, rad[None, :] * ang[:, None])
    s = F > 0
    if not np.all(s[:, 0]) or np.any(s[:, -1]):
        return None
    flips = np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)
    if np.any(flips != 1):
        return None
    idx = np.argmax(s[:, 1:] != s[:, :-1], axis=1)
    lo, hi = rad[idx], rad[idx + 1]
    for _ in range(45):
        mid = np.sqrt(lo * hi)
        up = _cand_field(pc, qc, mid * ang) > 0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi) * ang


def _cand_field(pc, qc, z):
    (pv,), (qv,) = poly_jets_many([pc, qc], z)
    return (np.abs(pv) ** 2 - np.abs(qv) ** 2).reshape(np.shape(z))


def _persisted_components(cand: RationalPair, comp_verts: list):
    """Newton-project each old oval onto the perturbed curve.

    Returns the corrected vertex arrays, or None if any point failed to
    converge or drifted by more than a fifth of its oval's diameter
    (which would void the persistence argument).
    """
    moved = []
    for v in comp_verts:
        # 1e-7 residual at healthy gradient puts the point within ~1e-9
        # of the curve, plenty below the drift threshold
        pts, rel, relgrad, conv = newton_correct(cand, v, tol_rel=1e-8)
        if rel.max() > 1e-7 or relgrad.min() < 1e-9:
            return None
        disp = np.linalg.norm(pts - v, axis=1).max()
        diam = 2.0 * np.linalg.norm(v - v.mean(axis=0), axis=1).max()
        if disp > 0.2 * diam:
            return None
        moved.append(pts)
    return moved


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
    radii = [np.median(_chart_abs(v)) for v in frame.comp_verts]
    lam = float(np.exp(np.mean(np.log(np.maximum(radii, 1e-12)))))
    frame = frame.moved(np.diag([1.0, lam]))
    nu = _resolution_for(frame.min_feature())
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


def realize(spec: Arrangement) -> ConstructedLemniscate:
    """A nondegenerate rational pair whose lemniscate nests like spec."""
    try:
        root_children = _parse(spec.canonical)
    except ValueError as e:
        raise InvalidSpec(str(e))
    m = spec.n_nodes - 1
    if m > _MAX_CIRCLES:
        raise InvalidSpec("at most %d circles supported" % _MAX_CIRCLES)
    if m == 0:
        raise InvalidSpec("spec must contain at least one circle")

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
        frame = _Frame(_EMPTY, {"root": np.array([1.0 + 0j, 0.0])}, [])
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
    if len(c.tree.trace.components) != c.degree:
        return False
    for comp in c.tree.trace.components:
        f, gx, gy, sc, _, _ = chart_jets(c.pair, comp.vertices[:-1])
        rel = np.hypot(gx, gy) / sc
        if rel.min() < _MIN_REL_GRADIENT:
            return False
    return True


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

"""Nesting trees of the lemniscate complement and arrangement statistics.

The complement of a disjoint union of circles on the sphere is a forest of
faces; adjacency across each circle makes it a tree with b0 + 1 nodes.
Faces are recovered combinatorially from the tracer's grid: vertices keep
their sign of f, crossing edges are walls, and a flood fill groups the
rest.  Rooted trees are compared through AHU canonical strings (balanced
parentheses, children sorted), which are the stable cross-run identifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .ensemble import RandomStream, RationalPair, sample_rational_pair
from .field import eval_f_many
from .icogrid import icosphere
from .sphere import orthonormal_frame, unit_vector
from .tracer import (
    GRID_JITTER,
    DegenerateLemniscate,
    TracedLemniscate,
    default_options,
    trace,
)


_DISK_CENTER = np.array([0.0, 0.0, 1.0])  # local_arrangement_probability


class InconsistentTopology(RuntimeError):
    """Grid faces disagree with the traced components (resolution issue)."""


class PointOnCurve(ValueError):
    """The requested root point lies on the lemniscate."""


@dataclass(frozen=True)
class Arrangement:
    """Canonical form of a rooted tree: nested balanced parentheses with
    children sorted lexicographically at every node."""

    canonical: str

    def __post_init__(self):
        object.__setattr__(self, "canonical", _canonicalize(self.canonical))

    @property
    def n_nodes(self) -> int:
        return self.canonical.count("(")

    @staticmethod
    def chain(k: int) -> "Arrangement":
        """k nested circles: a path of k+1 faces rooted at the outside."""
        return Arrangement("(" * (k + 1) + ")" * (k + 1))

    @staticmethod
    def siblings(k: int) -> "Arrangement":
        """k disjoint circles side by side."""
        return Arrangement("(" + "()" * k + ")")


def _parse(s: str) -> list:
    """Parenthesization -> nested child lists for the single outer node."""
    if not s or s[0] != "(" or s[-1] != ")":
        raise ValueError("not a balanced parenthesization: %r" % s)
    children, depth, start = [], 0, 1
    for i, ch in enumerate(s[1:-1], start=1):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                children.append(_parse(s[start : i + 1]))
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        else:
            raise ValueError("unexpected character %r" % ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    return children


def _render(children: list) -> str:
    return "(" + "".join(sorted(_render(c) for c in children)) + ")"


def _canonicalize(s: str) -> str:
    return _render(_parse(s))


@dataclass(frozen=True)
class NestingTree:
    """Faces of the complement with adjacency across curve components."""

    n_faces: int
    edges: np.ndarray  # (b0, 2) face ids joined by component i
    # lookup payload for rooting at a point: each grid vertex's face, and
    # the pair and trace the faces were flood-filled from
    face_of_vertex: np.ndarray = field(repr=False, compare=False)
    rp: RationalPair = field(repr=False, compare=False)
    trace: TracedLemniscate = field(repr=False, compare=False)

    @property
    def n_components(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list:
        adj = [[] for _ in range(self.n_faces)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def _build_faces(t: TracedLemniscate):
    grid = icosphere(t.grid_resolution)
    pos = t.vertex_signs
    e0, e1 = grid.edges[:, 0], grid.edges[:, 1]
    keep = pos[e0] == pos[e1]
    nv = grid.n_vertices
    m = coo_matrix(
        (np.ones(keep.sum(), dtype=np.int8), (e0[keep], e1[keep])), shape=(nv, nv)
    )
    n_faces, labels = connected_components(m, directed=False)
    return grid, labels, n_faces


def _tree_edges(t: TracedLemniscate, grid, labels):
    """One (negative-face, positive-face) pair per traced loop."""
    pos = t.vertex_signs
    edges = []
    for cids in t.loop_edges:
        ends = grid.edges[cids]
        s0 = pos[ends[:, 0]]
        neg = np.where(s0, ends[:, 1], ends[:, 0])
        ppos = np.where(s0, ends[:, 0], ends[:, 1])
        fneg = np.unique(labels[neg])
        fpos = np.unique(labels[ppos])
        if len(fneg) != 1 or len(fpos) != 1:
            raise InconsistentTopology("loop borders more than two faces")
        edges.append((int(fneg[0]), int(fpos[0])))
    return edges


def nesting_tree(rp: RationalPair, t: TracedLemniscate) -> NestingTree:
    """The tree of faces of S^2 minus the traced curve t.

    Raises InconsistentTopology when the flood fill disagrees with t: the
    face count is not b0 + 1, a loop borders more than two faces, or the
    face graph is not a tree.  It never re-traces; a caller that needs a
    finer grid traces again itself.
    """
    grid, labels, n_faces = _build_faces(t)
    b0 = len(t.components)
    if n_faces != b0 + 1:
        raise InconsistentTopology(
            "expected %d faces, flood fill found %d" % (b0 + 1, n_faces)
        )
    edges = np.array(_tree_edges(t, grid, labels), dtype=np.int64).reshape(-1, 2)
    # b0 + 1 nodes and b0 edges: connected if and only if acyclic
    adj = coo_matrix(
        (np.ones(b0, dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(n_faces, n_faces),
    )
    if connected_components(adj, directed=False)[0] != 1:
        raise InconsistentTopology("face adjacency is not a tree")
    return NestingTree(n_faces, edges, labels, rp, t)


def face_of_point(tree: NestingTree, point) -> int:
    """Which face a (generic) point belongs to."""
    point = unit_vector(point)
    f, sc = eval_f_many(tree.rp, point[None, :], with_scale=True)
    if abs(f[0]) / sc[0] < 1e-12:
        raise PointOnCurve("point lies on the lemniscate")
    want = f[0] > 0
    t = tree.trace
    verts = GRID_JITTER.apply(icosphere(t.grid_resolution).verts)
    # nearest grid vertex on the same side of the curve, by the signs the
    # faces were flood-filled from
    d = verts @ point
    order = np.argpartition(-d, min(64, len(d) - 1))[:64]
    order = order[np.argsort(-d[order])]
    same = order[t.vertex_signs[order] == want]
    if len(same) == 0:
        raise PointOnCurve("no same-sign grid vertex near the point")
    return int(tree.face_of_vertex[same[0]])


def rooted_canonical_form(tree: NestingTree, root_point) -> Arrangement:
    """AHU canonical string of the face tree rooted at root_point's face."""
    adj = tree.adjacency()

    def kids(v, parent):
        return [kids(w, v) for w in adj[v] if w != parent]

    return Arrangement(_render(kids(face_of_point(tree, root_point), -1)))


@dataclass(frozen=True)
class ArrangementEstimate:
    estimate: float
    stderr: float
    hits: int
    trials_used: int
    rejected: int


def _local_tree(loops_xy: list) -> str:
    """Canonical rooted parenthesization of planar loops nested by containment.

    loops_xy: closed polylines in chart coordinates, first == last vertex.
    """
    k = len(loops_xy)

    def contains(b, pt) -> bool:
        x, y = b[:-1, 0] - pt[0], b[:-1, 1] - pt[1]
        x2, y2 = b[1:, 0] - pt[0], b[1:, 1] - pt[1]
        ang = np.arctan2(x * y2 - y * x2, x * x2 + y * y2)
        return abs(ang.sum()) > math.pi

    inside = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            if i != j:
                inside[i, j] = contains(loops_xy[j], loops_xy[i][0])
    depth = inside.sum(axis=1)
    children = [[] for _ in range(k + 1)]  # index k = the disk face (root)
    for i in range(k):
        cand = [j for j in range(k) if inside[i, j]]
        if cand:
            # immediate container = the deepest loop containing i
            par = max(cand, key=lambda j: depth[j])
            children[par].append(i)
        else:
            children[k].append(i)

    def nested(v):
        return [nested(c) for c in children[v]]

    return _render(nested(k))


def local_arrangement_probability(
    target: Arrangement,
    n: int,
    rho: float,
    trials: int,
    rng: RandomStream,
) -> ArrangementEstimate:
    """Frequency of the target arrangement inside a shrinking disk.

    Each trial restricts the lemniscate to the spherical disk of radius
    rho / sqrt(n) about the north pole, keeps only the components lying
    entirely inside with a one-arc-step margin, and compares the rooted
    containment tree (rooted at the disk-boundary face) against the target.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if rho <= 0:
        raise ValueError("rho must be positive")
    radius = rho / math.sqrt(n)
    # chart axes for the planar containment test
    e1, e2 = orthonormal_frame(_DISK_CENTER)

    opts = default_options(n)
    margin = 0.6 * icosphere(opts.grid_resolution).mean_edge_length

    hits = used = rejected = 0
    for i in range(trials):
        rp = sample_rational_pair(n, rng.substream(i))
        try:
            t = trace(rp)
        except DegenerateLemniscate:
            rejected += 1
            continue
        used += 1
        kept = []
        for c in t.components:
            d = np.arccos(np.clip(c.vertices @ _DISK_CENTER, -1.0, 1.0))
            if d.max() <= radius - margin:
                v = c.vertices
                kept.append(np.stack([v @ e1, v @ e2], axis=1))
        hits += _local_tree(kept) == target.canonical
    if used == 0:
        raise DegenerateLemniscate("all trials rejected")
    p = hits / used
    stderr = math.sqrt(max(p * (1.0 - p), 1.0 / used) / used)
    return ArrangementEstimate(p, stderr, hits, used, rejected)

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
    TraceOptions,
    TracedLemniscate,
    default_options,
    trace,
)


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
    # lookup payload for rooting at a point
    _face_of_vertex: np.ndarray = field(default=None, repr=False, compare=False)
    _rp: object = field(default=None, repr=False, compare=False)
    _grid_resolution: int = field(default=0, repr=False, compare=False)

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


def _try_nesting_tree(
    rp: RationalPair, t: TracedLemniscate, strict_size: bool = True
) -> NestingTree:
    grid, labels, n_faces = _build_faces(t)
    b0 = len(t.components)
    if n_faces != b0 + 1:
        raise InconsistentTopology(
            "expected %d faces, flood fill found %d" % (b0 + 1, n_faces)
        )
    sizes = np.bincount(labels, minlength=n_faces)
    if strict_size and b0 and sizes.min() < 4:
        raise InconsistentTopology("face smaller than 4 grid cells")
    edges = _tree_edges(t, grid, labels)

    parent = list(range(n_faces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise InconsistentTopology("face adjacency contains a cycle")
        parent[ra] = rb

    return NestingTree(
        n_faces,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        labels,
        rp,
        t.grid_resolution,
    )


def nesting_tree(rp: RationalPair, t: TracedLemniscate) -> NestingTree:
    """The tree of faces of S^2 minus the traced curve.

    If the flood fill disagrees with the traced component count (or a face
    is tiny), the curve is re-traced once at doubled resolution before
    giving up with InconsistentTopology.
    """
    try:
        return _try_nesting_tree(rp, t)
    except InconsistentTopology:
        # audit pass: double the resolution; a face that is tiny but
        # structurally consistent at the audited resolution is accepted
        # (small ovals are real), a structural mismatch is not
        t2 = trace(rp, TraceOptions(grid_resolution=2 * t.grid_resolution))
        return _try_nesting_tree(rp, t2, strict_size=False)


def face_of_point(tree: NestingTree, point) -> int:
    """Which face a (generic) point belongs to."""
    point = unit_vector(point)
    f, sc = eval_f_many(tree._rp, point[None, :], with_scale=True)
    if abs(f[0]) / sc[0] < 1e-12:
        raise PointOnCurve("point lies on the lemniscate")
    want = f[0] > 0
    grid = icosphere(tree._grid_resolution)
    verts = GRID_JITTER.apply(grid.verts)
    # nearest grid vertex on the same side of the curve
    d = verts @ point
    order = np.argpartition(-d, min(64, len(d) - 1))[:64]
    order = order[np.argsort(-d[order])]
    fv = eval_f_many(tree._rp, verts[order]) > 0
    for vid, side in zip(order, fv):
        if side == want:
            return int(tree._face_of_vertex[vid])
    raise PointOnCurve("no same-sign grid vertex near the point")


def rooted_canonical_form(tree: NestingTree, root_point) -> Arrangement:
    """AHU canonical string of the face tree rooted at root_point's face."""
    root = face_of_point(tree, root_point)
    return _canonical_from_root(tree, root)


def _canonical_from_root(tree: NestingTree, root: int) -> Arrangement:
    adj = tree.adjacency()
    # iterative AHU to survive deep chains
    order, parent = [], [-1] * tree.n_faces
    stack = [root]
    seen = [False] * tree.n_faces
    seen[root] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    label = [""] * tree.n_faces
    for v in reversed(order):
        kids = sorted(label[w] for w in adj[v] if parent[w] == v)
        label[v] = "(" + "".join(kids) + ")"
    return Arrangement(label[root])


def unrooted_canonical_form(tree: NestingTree) -> Arrangement:
    """Canonicalize by rooting at the tree center (both, if two)."""
    adj = tree.adjacency()
    n = tree.n_faces
    if n == 1:
        return Arrangement("()")
    degree = np.array([len(a) for a in adj])
    removed = np.zeros(n, dtype=bool)
    layer = list(np.flatnonzero(degree == 1))
    remaining = n
    while remaining > 2:
        removed[layer] = True
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                if not removed[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = list(np.flatnonzero(~removed))
    forms = [_canonical_from_root(tree, c).canonical for c in centers]
    return Arrangement(min(forms))


@dataclass(frozen=True)
class ArrangementEstimate:
    estimate: float
    stderr: float
    hits: int
    trials_used: int
    rejected: int


def _local_tree(loops_xy: list) -> str:
    """Rooted parenthesization of planar loops nested by containment.

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

    def render(v):
        return "(" + "".join(sorted(render(c) for c in children[v])) + ")"

    return render(k)


def local_arrangement_probability(
    target: Arrangement,
    n: int,
    rho: float,
    trials: int,
    rng: RandomStream,
    center=(0.0, 0.0, 1.0),
) -> ArrangementEstimate:
    """Frequency of the target arrangement inside a shrinking disk.

    Each trial restricts the lemniscate to the spherical disk of radius
    rho / sqrt(n) about center, keeps only the components lying entirely
    inside with a one-arc-step margin, and compares the rooted containment
    tree (rooted at the disk-boundary face) against the target.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if rho <= 0:
        raise ValueError("rho must be positive")
    center = unit_vector(center)
    radius = rho / math.sqrt(n)
    # chart axes for the planar containment test
    e1, e2 = orthonormal_frame(center)

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
            d = np.arccos(np.clip(c.vertices @ center, -1.0, 1.0))
            if d.max() <= radius - margin:
                v = c.vertices
                kept.append(np.stack([v @ e1, v @ e2], axis=1))
        form = _canonicalize(_local_tree(kept))
        hits += form == target.canonical
    if used == 0:
        raise DegenerateLemniscate("all trials rejected")
    p = hits / used
    stderr = math.sqrt(max(p * (1.0 - p), 1.0 / used) / used)
    return ArrangementEstimate(p, stderr, hits, used, rejected)

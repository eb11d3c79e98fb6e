"""Nesting trees of the lemniscate complement and arrangement statistics.

The complement of a disjoint union of circles on the sphere is a forest of
faces; adjacency across each circle makes it a tree with b0 + 1 nodes.
Faces are recovered combinatorially from the grid the curve was traced on,
which the trace carries (t.grid, the whole sphere or a cap): the crossing
edges of the traced loops are walls, and a flood fill groups the rest.  On
a whole sphere those walls are exactly the grid's sign changes; on a cap,
the arcs its rim cuts are no walls, so the faces are the cap's minus its
loops.  Rooted trees are compared through AHU canonical strings (balanced
parentheses, children sorted), which are the stable cross-run identifier.

The local stage (local_arrangement_probability) traces each trial's cap
at two resolutions in one tracer.trace_levels call, which refines both
levels' crossings in one batch; each level agrees with its own trace up
to the last bits of that batch, as a cap trace agrees with the whole
sphere's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .ensemble import RandomStream, sample_rational_pair
from .icogrid import icosphere
from .sphere import unit_vector
from .tracer import (
    _ARC_STEP,
    DegenerateLemniscate,
    TracedLemniscate,
    TraceOptions,
    default_options,
    trace_levels,
)


_DISK_CENTER = (0.0, 0.0, 1.0)  # local_disk's, as trace normalizes a cap's centre
LOCAL_MIN_TRIALS = 100  # the fewest trials local_arrangement_probability takes
LOCAL_MAX_RADIUS = math.pi / 2  # rho/sqrt(n) below it: the cap has a rim to root at


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
        object.__setattr__(self, "canonical", _render(_parse(self.canonical)))

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
                if _balanced(s):
                    raise ValueError("not a single rooted tree: %r" % s)
                raise ValueError("unbalanced parentheses")
        else:
            raise ValueError("unexpected character %r" % ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    return children


def _balanced(s: str) -> bool:
    """Whether s is a balanced string of parentheses (a forest)."""
    depth = 0
    for ch in s:
        if ch not in "()":
            return False
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def _render(children: list) -> str:
    return "(" + "".join(sorted(_render(c) for c in children)) + ")"


@dataclass(frozen=True, eq=False)
class NestingTree:
    """Faces of the complement with adjacency across curve components."""

    n_faces: int
    edges: np.ndarray  # (b0, 2) face ids joined by component i
    # lookup payload for rooting at a point: each grid vertex's face, and
    # the trace the faces were flood-filled from, which carries the field
    # and the grid
    face_of_vertex: np.ndarray = field(repr=False)
    trace: TracedLemniscate = field(repr=False)

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
    keep = np.ones(len(t.grid.edges), dtype=bool)
    for cids in t.loop_edges:
        keep[cids] = False
    e0, e1 = t.grid.edges[:, 0], t.grid.edges[:, 1]
    nv = t.grid.n_vertices
    # gathered inline, so only coo_matrix's int32 copies outlive this line
    m = coo_matrix((np.ones(keep.sum(), dtype=np.int8), (e0[keep], e1[keep])), shape=(nv, nv))
    n_faces, labels = connected_components(m, directed=False)
    return labels, n_faces


def _tree_edges(t: TracedLemniscate, labels):
    """One (negative-face, positive-face) pair per traced loop."""
    pos = t.vertex_signs
    edges = []
    for cids in t.loop_edges:
        ends = t.grid.edges[cids]
        s0 = pos[ends[:, 0]]
        neg = np.where(s0, ends[:, 1], ends[:, 0])
        ppos = np.where(s0, ends[:, 0], ends[:, 1])
        fneg = np.unique(labels[neg])
        fpos = np.unique(labels[ppos])
        if len(fneg) != 1 or len(fpos) != 1:
            raise InconsistentTopology("loop borders more than two faces")
        edges.append((int(fneg[0]), int(fpos[0])))
    return edges


def nesting_tree(t: TracedLemniscate) -> NestingTree:
    """The tree of faces of S^2, or of t's cap, minus t's traced loops.

    Raises InconsistentTopology when the flood fill disagrees with t: the
    face count is not b0 + 1, a loop borders more than two faces, or the
    face graph is not a tree.  It never re-traces; a caller that needs a
    finer grid traces again itself.
    """
    labels, n_faces = _build_faces(t)
    b0 = len(t.sizes)
    if n_faces != b0 + 1:
        raise InconsistentTopology(
            "expected %d faces, flood fill found %d" % (b0 + 1, n_faces)
        )
    edges = np.array(_tree_edges(t, labels), dtype=np.int64).reshape(-1, 2)
    # b0 + 1 nodes and b0 edges: connected if and only if acyclic
    adj = coo_matrix(
        (np.ones(b0, dtype=np.int8), (edges[:, 0], edges[:, 1])),
        shape=(n_faces, n_faces),
    )
    if connected_components(adj, directed=False)[0] != 1:
        raise InconsistentTopology("face adjacency is not a tree")
    return NestingTree(n_faces, edges, labels, t)


def face_of_point(tree: NestingTree, point) -> int:
    """Which face a (generic) point belongs to."""
    point = unit_vector(point)
    t = tree.trace
    f, sc = t.fieldobj.values(point[None, :], with_scale=True)
    # <=: the real field's scale vanishes where all its monomials do
    if abs(f[0]) <= 1e-12 * sc[0]:
        raise PointOnCurve("point lies on the lemniscate")
    want = f[0] > 0
    # nearest vertex of the trace's grid on the same side of the curve, by
    # the trace's vertex signs
    d = t.grid.verts @ point
    order = np.argpartition(-d, min(64, len(d) - 1))[:64]
    order = order[np.argsort(-d[order])]
    same = order[t.vertex_signs[order] == want]
    if len(same) == 0:
        raise PointOnCurve("no same-sign grid vertex near the point")
    return int(tree.face_of_vertex[same[0]])


def _rooted(tree: NestingTree, face: int) -> Arrangement:
    """AHU canonical string of the face tree rooted at face."""
    adj = tree.adjacency()

    def kids(v, parent):
        return [kids(w, v) for w in adj[v] if w != parent]

    return Arrangement(_render(kids(face, -1)))


def rooted_canonical_form(tree: NestingTree, root_point) -> Arrangement:
    """AHU canonical string of the face tree rooted at root_point's face."""
    return _rooted(tree, face_of_point(tree, root_point))


@dataclass(frozen=True)
class ArrangementEstimate:
    estimate: float
    stderr: float
    hits: int
    trials_used: int
    rejected: int
    regridded: int  # trials whose tree at the default grid differs at 2x


def local_radius(n: int, rho: float, trials: int) -> float:
    """The disk radius rho/sqrt(n) of local_arrangement_probability; a
    ValueError unless trials >= LOCAL_MIN_TRIALS and the radius lies in
    (0, LOCAL_MAX_RADIUS), so a NaN rho fails too."""
    if trials < LOCAL_MIN_TRIALS:
        raise ValueError("local-arrangement needs at least %d trials" % LOCAL_MIN_TRIALS)
    radius = rho / math.sqrt(n)
    if not 0 < radius < LOCAL_MAX_RADIUS:
        raise ValueError("local-arrangement needs 0 < rho/sqrt(n) < pi/2, not %g at n=%d"
                         % (radius, n))
    return radius


def local_disk(n: int, rho: float) -> tuple:
    """(cap, inner) of the local stage's disk of radius rho/sqrt(n) about
    the north pole.  The cap is one longest default-grid edge wider than
    the disk, so it holds every grid triangle of a loop in the disk; both
    levels keep a loop whose vertices lie within inner, the default grid's
    margin of one arc step inside the disk."""
    grid = icosphere(default_options(n).grid_resolution)
    radius = rho / math.sqrt(n)
    cap = (_DISK_CENTER, radius + grid.max_edge_length)
    return cap, radius - _ARC_STEP * grid.mean_edge_length


def local_arrangement_probability(
    target: Arrangement,
    n: int,
    rho: float,
    trials: int,
    rng: RandomStream,
) -> ArrangementEstimate:
    """Frequency of the target arrangement inside a shrinking disk.

    Each trial restricts the lemniscate to the spherical disk of radius
    rho / sqrt(n) (below LOCAL_MAX_RADIUS) about the north pole, keeps only
    the components lying within local_disk's inner radius, and compares
    their nesting tree, flood-filled on the grid of local_disk's cap and
    rooted at the face of its rim, against the target.  The trial traces
    that cap at the default grid and at twice its resolution in one
    trace_levels call, with one field and one crossing refinement; each
    level agrees with its own trace up to the last bits of that
    refinement.  The finer tree is counted, and `regridded` counts the
    trials whose two trees differ.  A trial whose trace degenerates or
    whose faces do not form the tree is rejected.
    """
    local_radius(n, rho, trials)
    cap, inner = local_disk(n, rho)
    opts = default_options(n)
    fine_opts = TraceOptions(2 * opts.grid_resolution)

    def local_tree(t):
        V, starts = t.vertices, np.cumsum(t.sizes) - t.sizes
        far = np.maximum.reduceat(np.arccos(np.clip(V @ _DISK_CENTER, -1.0, 1.0)), starts)
        keep = far <= inner
        k = np.count_nonzero(keep)
        if k < 2:
            return Arrangement.chain(k)  # no loop, or one: no fill needed
        tree = nesting_tree(t.select(keep))
        # the cap's vertex farthest from the centre lies outside every kept loop
        return _rooted(tree, tree.face_of_vertex[np.argmin(t.grid.verts @ _DISK_CENTER)])

    hits = used = rejected = regridded = 0
    for i in range(trials):
        rp = sample_rational_pair(n, rng.substream(i))
        try:
            coarse, fine = map(local_tree, trace_levels(rp, (opts, fine_opts), cap))
        except (DegenerateLemniscate, InconsistentTopology):
            rejected += 1
            continue
        used += 1
        regridded += coarse != fine
        hits += fine == target
    if used == 0:
        raise DegenerateLemniscate("all trials rejected")
    p = hits / used
    stderr = math.sqrt(max(p * (1.0 - p), 1.0 / used) / used)
    return ArrangementEstimate(p, stderr, hits, used, rejected, regridded)

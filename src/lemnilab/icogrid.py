"""Icosahedral geodesic grids: quasi-uniform triangulations of the sphere.

A grid of frequency nu subdivides each of the 20 icosahedron faces into
nu^2 triangles and projects the lattice to the unit sphere, giving
10 nu^2 + 2 vertices with no polar clustering.  Grids are cached since the
tracer reuses the same frequency across Monte Carlo trials.

All 20 faces share one local lattice: points (i, j) with i + j <= nu, and
up cells (i, j) with i + j <= nu - 1.  Each up cell owns three lattice
edges, its i-edge (i,j)-(i+1,j), j-edge (i,j)-(i,j+1) and d-edge
(i+1,j)-(i,j+1).  Vertex ids put the rim first (the 12 corners, then each
icosahedron edge's nu - 1 inner points) and then each face's interior row
by row, so the edges come numbered in sorted (e0, e1) order without
sorting them all.  An edge with a rim end sorts before every other; those
are O(nu), and one sort of their keys min*V + max numbers them and gives
each triangle's edge ids there.  The rest join two interior points of one
face and run, face after face, in the order of their first end and then
of the direction to (i, j+1), (i+1, j-1) or (i+1, j): their ids, and the
triangles' edge ids, are one face-independent rank table (an exclusive
cumsum of which directions stay inside) plus a per-face offset.
Positions are built face by face in a (3, P) column layout.  A grid
keeps its triangles only as edge triples (`tri_edges`), the one form the
tracer and topology read; no vertex-triple table is stored.  Ids are
int64, numpy's index type: a narrower id array is cast on every fancy
index the tracer makes.

icosphere returns the grid turned by one fixed rotation, GRID_JITTER.  The
unrotated lattice (_lattice, which also measures the edges) is symmetric
in the coordinate planes and, at even nu, has a vertex on each pole, where
the local stage and the constructor centre their curves; the rotation
makes a vertex on a curve or on a cap's rim a measure-zero event.  It is
applied once per build, and no reader of the grid rotates it again.

On glibc the import also sets malloc's mmap threshold to 32 MiB and its
trim threshold to 64 MiB, the caps glibc's dynamic thresholds reach once
a 32 MiB block has been freed.  The grid build frees no block that large,
and every trace allocates and frees 12-17 MB of grid-sized temporaries.
Below the caps those pages are mapped afresh, or trimmed off the heap,
on every trace and fault in again: about 6,000 minor faults per n=200
trace and 4,600 per real n=50 trial.  At the caps a trial reuses them.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .ensemble import RandomStream
from .sphere import Rotation


def _pin_malloc_thresholds():
    """Set glibc's mmap and trim thresholds to their dynamic caps (see the
    module doc); a no-op on any other C library."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_CORNERS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)
_CORNERS /= np.linalg.norm(_CORNERS, axis=1)[:, None]

_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)

# the 30 icosahedron edges, sorted (lo, hi) corner pairs, and their ids
_EDGE_ID = np.full((12, 12), -1, dtype=np.int64)
_pairs = np.unique(np.sort(_FACES[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2), axis=1), axis=0)
_EDGE_ID[_pairs[:, 0], _pairs[:, 1]] = np.arange(len(_pairs))
assert len(_pairs) == 30
del _pairs

_CHUNK = 1 << 16  # edges per gather in the mean edge length

# the rotation of every grid icosphere returns (tie-breaking, see the module doc)
GRID_JITTER = Rotation.random(RandomStream(0x1CE5_9E0D, 0).generator())


@dataclass(frozen=True, eq=False)
class IcoGrid:
    nu: int
    verts: np.ndarray      # (V, 3) unit vectors
    edges: np.ndarray      # (E, 2) vertex ids, sorted pairs
    tri_edges: np.ndarray  # (T, 3) edge ids
    mean_edge_length: float
    max_edge_length: float

    @property
    def n_vertices(self) -> int:
        return len(self.verts)


def _triangle(m):
    """Lattice points (i, j) with i + j < m, row by row, and the index of
    (i, j) in that order."""
    i, j = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    return i, j, lambda i, j: i * m - i * (i - 1) // 2 + j


def _rim_ids(nu, i, j):
    """(20, len(i)) global ids of every face's rim points (i, j), those on
    an icosahedron edge: corners first, then each icosahedron edge's
    nu - 1 inner points from its lower corner."""
    ids = np.empty((20, len(i)), dtype=np.int64)
    on = (i > 0) & (i < nu)
    for mask, (s, t), k in (
        ((j == 0) & on, (0, 1), i),
        ((i == 0) & (j > 0) & (j < nu), (0, 2), j),
        ((i + j == nu) & on, (1, 2), j),
    ):
        # k counts from corner s toward corner t; the stored edge runs from
        # the smaller corner id to the larger
        u, v = _FACES[:, s], _FACES[:, t]
        eid = _EDGE_ID[np.minimum(u, v), np.maximum(u, v)]
        kk = np.where((u > v)[:, None], nu - k[mask], k[mask])
        ids[:, mask] = 12 + eid[:, None] * (nu - 1) + (kk - 1)
    for s, corner in enumerate(((i == 0) & (j == 0), i == nu, j == nu)):
        ids[:, corner] = _FACES[:, [s]]
    return ids


@lru_cache(maxsize=3)
def icosphere(nu: int) -> IcoGrid:
    """Build (or fetch) the geodesic grid of frequency nu >= 1, rotated."""
    g = _lattice(nu)
    return replace(g, verts=GRID_JITTER.apply(g.verts))


def _lattice(nu: int) -> IcoGrid:
    """The unrotated geodesic grid of frequency nu >= 1."""
    if isinstance(nu, bool) or not isinstance(nu, numbers.Integral):
        raise ValueError(f"frequency must be an integer, got {nu!r}")
    if nu < 1:
        raise ValueError(f"frequency must be >= 1, got {nu!r}")
    nu = int(nu)
    n_verts = 10 * nu * nu + 2
    n_int = (nu - 1) * (nu - 2) // 2  # interior points per face
    first = 12 + 30 * (nu - 1) + n_int * np.arange(20)  # each face's first interior id

    # local points in id order: the interior row by row, then the rim
    i, j, point = _triangle(nu + 1)
    inner = (i > 0) & (j > 0) & (i + j < nu)
    order = np.concatenate([np.flatnonzero(inner), np.flatnonzero(~inner)])
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    rim_ids = _rim_ids(nu, i[order[n_int:]], j[order[n_int:]])

    def ids(s):
        """(20, len(s)) global ids of the local points order[s]."""
        out = first[:, None] + s
        on = s >= n_int
        out[:, on] = rim_ids[:, s[on] - n_int]
        return out

    # x = ((fk a + fi b) + fj c) / nu over the corners a, b, c, divided by
    # sqrt((x0 x0 + x1 x1) + x2 x2), the sum order of np.linalg.norm(axis=1)
    fk, fi, fj = (w[order].astype(float) for w in (nu - i - j, i, j))
    verts = np.empty((n_verts, 3))
    for f, (a, b, c) in enumerate(_CORNERS[_FACES]):
        x = (fk * a[:, None] + fi * b[:, None] + fj * c[:, None]) / nu
        x /= np.sqrt((x[0] * x[0] + x[1] * x[1]) + x[2] * x[2])
        verts[first[f] : first[f] + n_int] = x[:, :n_int].T
        verts[rim_ids[f]] = x[:, n_int:].T  # a shared point keeps the last face's

    # An interior point's edges to later interior points, to (i, j+1),
    # (i+1, j-1) and (i+1, j), run in sorted (e0, e1) order, face after
    # face; every edge with a rim end sorts before them.
    ii, jj = i[order[:n_int]], j[order[:n_int]]
    later = slot[np.stack([point(ii, jj + 1), point(ii + 1, jj - 1), point(ii + 1, jj)], axis=1)]
    keep = later < n_int
    local = np.cumsum(keep.ravel()).reshape(keep.shape) - 1  # id within the face
    n_face = np.count_nonzero(keep)

    # three lattice edges per up cell: i-edge (i,j)-(i+1,j), j-edge
    # (i,j)-(i,j+1), d-edge (i,j+1)-(i+1,j), each named by its first end
    # and its direction from there
    ci, cj, cell = _triangle(nu)
    p00, p10, p01 = point(ci, cj), point(ci + 1, cj), point(ci, cj + 1)
    end0 = slot[np.stack([p00, p00, p01], axis=1)].ravel()
    end1 = slot[np.stack([p10, p01, p10], axis=1)].ravel()
    way = np.tile([2, 0, 1], len(ci))
    both = (end0 < n_int) & (end1 < n_int)
    up = np.full(len(end0), -1, dtype=np.int64)
    up[both] = local[end0[both], way[both]]

    # the up-cell edges with a rim end, in every face: the only keys sorted
    u, v = ids(end0[~both]), ids(end1[~both])
    uniq, inverse = np.unique(np.minimum(u, v) * n_verts + np.maximum(u, v), return_inverse=True)
    inverse = inverse.reshape(u.shape)
    n_rim = len(uniq)

    edges = np.empty((30 * nu * nu, 2), dtype=np.int64)
    np.divmod(uniq, n_verts, out=(edges[:n_rim, 0], edges[:n_rim, 1]))
    np.add(np.stack([np.nonzero(keep)[0], later[keep]], axis=1), first[:, None, None],
           out=edges[n_rim:].reshape(20, n_face, 2))

    # per face: the up cells, then the down cells (i,j) with i + j <= nu - 2,
    # bounded by the j-edge of (i+1,j), the d-edge of (i,j), the i-edge of (i,j+1)
    di, dj, _ = _triangle(nu - 1)
    down = 3 * np.stack([cell(di + 1, dj), cell(di, dj), cell(di, dj + 1)], axis=1) + [1, 2, 0]
    src = np.concatenate([np.arange(len(up)), down.ravel()])
    tri_edges = np.add.outer(n_rim + n_face * np.arange(20), up[src])
    hit = np.flatnonzero(~both[src])
    tri_edges[:, hit] = inverse[:, (np.cumsum(~both) - 1)[src[hit]]]

    d = np.empty(len(edges))
    for lo in range(0, len(edges), _CHUNK):
        e = edges[lo : lo + _CHUNK]
        d[lo : lo + _CHUNK] = np.einsum("ij,ij->i", np.take(verts, e[:, 0], axis=0),
                                        np.take(verts, e[:, 1], axis=0))
    np.arccos(np.clip(d, -1, 1, out=d), out=d)
    return IcoGrid(nu, verts, edges, tri_edges.reshape(-1, 3), float(np.mean(d)), float(d.max()))

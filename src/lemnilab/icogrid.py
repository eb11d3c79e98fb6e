"""Icosahedral geodesic grids: quasi-uniform triangulations of the sphere.

A grid of frequency nu subdivides each of the 20 icosahedron faces into
nu^2 triangles and projects the lattice to the unit sphere, giving
10 nu^2 + 2 vertices with no polar clustering.  Grids are cached since the
tracer reuses the same frequency across Monte Carlo trials.

All 20 faces share one local lattice: points (i, j) with i + j <= nu, and
up cells (i, j) with i + j <= nu - 1.  Each up cell owns three lattice
edges, its i-edge (i,j)-(i+1,j), j-edge (i,j)-(i,j+1) and d-edge
(i+1,j)-(i,j+1), so one sort of their keys min*V + max numbers the edges
in sorted (e0, e1) order, and each triangle's edge ids are read from the
sort's inverse in closed form.  A grid keeps its triangles only as edge
triples (`tri_edges`), the one form the tracer and topology read; no
vertex-triple table is stored.  Ids are int64, numpy's index type: a
narrower id array is cast on every fancy index the tracer makes.

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
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


@dataclass(frozen=True)
class IcoGrid:
    nu: int
    verts: np.ndarray      # (V, 3) unit vectors
    edges: np.ndarray      # (E, 2) vertex ids, sorted pairs
    tri_edges: np.ndarray  # (T, 3) edge ids
    mean_edge_length: float

    @property
    def n_vertices(self) -> int:
        return len(self.verts)


def _triangle(m):
    """Lattice points (i, j) with i + j < m, row by row, and the index of
    (i, j) in that order."""
    i, j = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    return i, j, lambda i, j: i * m - i * (i - 1) // 2 + j


def _vertex_ids(nu, i, j):
    """(20, P) global ids of every face's lattice points (i, j): corners
    first, then each icosahedron edge's nu - 1 inner points from its lower
    corner, then each face's interior row by row."""
    ids = np.empty((20, len(i)), dtype=np.int64)
    inner = (i > 0) & (j > 0) & (i + j < nu)
    n_int = np.count_nonzero(inner)
    ids[:, inner] = 12 + 30 * (nu - 1) + np.arange(20 * n_int).reshape(20, n_int)
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
    ids[:, [0, len(i) - 1, nu]] = _FACES  # (0,0), (nu,0), (0,nu)
    return ids


@lru_cache(maxsize=3)
def icosphere(nu: int) -> IcoGrid:
    """Build (or fetch) the geodesic grid of frequency nu >= 1."""
    if nu < 1:
        raise ValueError("frequency must be >= 1")
    n_verts = 10 * nu * nu + 2

    i, j, point = _triangle(nu + 1)
    ids = _vertex_ids(nu, i, j)
    a, b, c = (_CORNERS[_FACES[:, k]][:, None, :] for k in range(3))
    pos = (
        (nu - i - j)[None, :, None] * a + i[None, :, None] * b + j[None, :, None] * c
    ).reshape(-1, 3) / nu
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    verts = np.empty((n_verts, 3))
    verts[ids.ravel()] = pos  # faces in order; a shared point keeps the last face's
    del pos

    # three lattice edges per up cell: i-edge, j-edge, d-edge
    ci, cj, cell = _triangle(nu)
    g0, g1, g2 = ids[:, point(ci, cj)], ids[:, point(ci + 1, cj)], ids[:, point(ci, cj + 1)]
    del ids
    keys = np.empty((20, len(ci), 3), dtype=np.int64)
    for col, (u, v) in enumerate(((g0, g1), (g0, g2), (g1, g2))):
        keys[:, :, col] = np.minimum(u, v) * n_verts + np.maximum(u, v)
    del g0, g1, g2
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    del keys
    edges = np.empty((len(uniq), 2), dtype=np.int64)
    np.divmod(uniq, n_verts, out=(edges[:, 0], edges[:, 1]))
    del uniq
    lattice = inverse.reshape(20, len(ci), 3)

    # per face: the up cells, then the down cells (i,j) with i + j <= nu - 2,
    # bounded by the j-edge of (i+1,j), the d-edge of (i,j), the i-edge of (i,j+1)
    di, dj, _ = _triangle(nu - 1)
    tri_edges = np.empty((20, nu * nu, 3), dtype=np.int64)
    tri_edges[:, : len(ci)] = lattice
    down = tri_edges[:, len(ci):]
    down[:, :, 0] = lattice[:, cell(di + 1, dj), 1]
    down[:, :, 1] = lattice[:, cell(di, dj), 2]
    down[:, :, 2] = lattice[:, cell(di, dj + 1), 0]
    del inverse, lattice

    d = np.empty(len(edges))
    for lo in range(0, len(edges), _CHUNK):
        e = edges[lo : lo + _CHUNK]
        d[lo : lo + _CHUNK] = np.einsum("ij,ij->i", verts[e[:, 0]], verts[e[:, 1]])
    mean_len = float(np.mean(np.arccos(np.clip(d, -1, 1, out=d), out=d)))
    return IcoGrid(nu, verts, edges, tri_edges.reshape(-1, 3), mean_len)

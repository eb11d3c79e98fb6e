"""Geometry of the unit sphere and the extended complex plane.

Points on S^2 are unit 3-vectors (numpy arrays).  A point of the extended
plane is a homogeneous pair [z : w] of complex numbers, w = 0 being the
point at infinity; homogeneous_coords and from_homogeneous are the two
directions of the chart, with z/w the chart coordinate
(x + iy)/(1 - t) of the sphere point (x, y, t).  A 2x2 complex matrix acts
on pairs as a Mobius map; rotations are stored in SU(2) form (lam, mu),
and their matrix acts on pairs as the sphere rotation does on points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def unit_vector(v) -> np.ndarray:
    """Return v renormalized to a unit 3-vector."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite vector")
    return v / n


def homogeneous_coords(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm homogeneous coordinates [z_h : w_h] of sphere points.

    Uses (x + iy, 1 - t) on the southern half and the equivalent
    (1 + t, x - iy) on the northern half, each normalized; the two differ
    by a unit phase, which |f| does not see.
    """
    points = np.asarray(points, dtype=float)
    x, y, t = points[..., 0], points[..., 1], points[..., 2]
    south = t <= 0.0
    zh = np.where(south, x + 1j * y, 1.0 + t + 0j)
    wh = np.where(south, 1.0 - t + 0j, x - 1j * y)
    norm = np.sqrt(np.abs(zh) ** 2 + np.abs(wh) ** 2)
    return zh / norm, wh / norm


def from_homogeneous(h) -> np.ndarray:
    """Sphere points of pairs [z : w] stacked on the last axis.

    (2 z conj(w), |z|^2 - |w|^2) / (|z|^2 + |w|^2): exact at both poles,
    [1 : 0] giving the north pole and [0 : 1] the south pole.
    """
    h = np.asarray(h, dtype=complex)
    z, w = h[..., 0], h[..., 1]
    zw = z * np.conj(w)
    a, b = np.abs(z) ** 2, np.abs(w) ** 2
    out = np.stack([2.0 * zw.real, 2.0 * zw.imag, a - b], axis=-1)
    return out / (a + b)[..., None]


def spherical_distance_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.einsum("...i,...i->...", np.asarray(a, float), np.asarray(b, float))
    return np.arccos(np.clip(d, -1.0, 1.0))


def orthonormal_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing axis to a right-handed orthonormal frame."""
    axis = unit_vector(axis)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(axis[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(axis, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


@dataclass(frozen=True)
class Rotation:
    """An SU(2) element (lam, mu; -conj(mu), conj(lam)), |lam|^2+|mu|^2 = 1.

    Acts on the extended plane as the Mobius map
    z -> (lam z + mu)/(-conj(mu) z + conj(lam)), the matrix su2() on
    [z : w], and on the sphere as the corresponding rigid rotation.
    """

    lam: complex
    mu: complex

    def __post_init__(self):
        norm = abs(self.lam) ** 2 + abs(self.mu) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("not an SU(2) element: |lam|^2+|mu|^2 != 1")
        s = 1.0 / math.sqrt(norm)
        object.__setattr__(self, "lam", complex(self.lam) * s)
        object.__setattr__(self, "mu", complex(self.mu) * s)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(1.0 + 0j, 0j)

    @staticmethod
    def from_quaternion(w: float, x: float, y: float, z: float) -> "Rotation":
        n = math.sqrt(w * w + x * x + y * y + z * z)
        w, x, y, z = w / n, x / n, y / n, z / n
        return Rotation(complex(w, z), complex(-y, x))

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Rotation":
        axis = unit_vector(axis)
        h = 0.5 * angle
        s = math.sin(h)
        return Rotation.from_quaternion(math.cos(h), s * axis[0], s * axis[1], s * axis[2])

    @staticmethod
    def align(src, dst) -> "Rotation":
        """Rotation taking the sphere point src to dst (shortest arc)."""
        src = unit_vector(src)
        dst = unit_vector(dst)
        c = float(np.dot(src, dst))
        if c > 1.0 - 1e-14:
            return Rotation.identity()
        if c < -1.0 + 1e-14:
            e1, _ = orthonormal_frame(src)
            return Rotation.from_axis_angle(e1, math.pi)
        axis = np.cross(src, dst)
        return Rotation.from_axis_angle(axis, math.acos(max(-1.0, min(1.0, c))))

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation":
        """Haar-uniform rotation via a normalized 4-Gaussian quaternion."""
        q = rng.normal(size=4)
        return Rotation.from_quaternion(*q)

    def inverse(self) -> "Rotation":
        return Rotation(np.conj(self.lam), -self.mu)

    def su2(self) -> np.ndarray:
        """The 2x2 matrix of this rotation, acting on pairs [z : w]."""
        lam, mu = self.lam, self.mu
        return np.array([[lam, mu], [-np.conj(mu), np.conj(lam)]])

    def matrix(self) -> np.ndarray:
        """The SO(3) matrix of this rotation, built on each call."""
        w, z = self.lam.real, self.lam.imag
        y, x = -self.mu.real, self.mu.imag
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )

    def apply(self, p: np.ndarray) -> np.ndarray:
        """Rotate one or many sphere points."""
        return np.asarray(p, dtype=float) @ self.matrix().T


@dataclass(frozen=True, eq=False)
class GreatCircle:
    """A parametrized great circle with a distinguished axis."""

    axis: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def point(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.outer(np.cos(t), self.e1) + np.outer(np.sin(t), self.e2)


def random_great_circle(rng: np.random.Generator) -> GreatCircle:
    """A Haar-uniform rotated copy of a meridian (axis uniform on S^2)."""
    r = Rotation.random(rng)
    m = r.matrix()
    return GreatCircle(axis=m[:, 2], e1=m[:, 0], e2=m[:, 1])

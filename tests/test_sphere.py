import math

import numpy as np

from lemnilab.sphere import (
    Rotation,
    from_homogeneous,
    homogeneous_coords,
    orthonormal_frame,
    random_great_circle,
    spherical_distance_many,
    unit_vector,
)

NORTH = np.array([0.0, 0.0, 1.0])
SOUTH = np.array([0.0, 0.0, -1.0])

rng = np.random.default_rng(20240817)


def random_points(k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def homogeneous(points):
    return np.stack(homogeneous_coords(points), axis=-1)


def test_stereographic_poles():
    # [1 : 0] is infinity, [0 : 1] the chart origin, both exact
    assert np.array_equal(from_homogeneous([1.0, 0.0]), NORTH)
    assert np.array_equal(from_homogeneous([0.0, 1.0]), SOUTH)
    assert np.array_equal(from_homogeneous([0.0, 2.5j]), SOUTH)
    assert np.array_equal(from_homogeneous(homogeneous(NORTH)), NORTH)
    assert np.array_equal(from_homogeneous(homogeneous(SOUTH)), SOUTH)


def test_stereographic_round_trip():
    pts = np.vstack([random_points(200), NORTH, SOUTH, [1.0, 0.0, 0.0]])
    back = from_homogeneous(homogeneous(pts))
    assert np.max(np.abs(back - pts)) < 1e-12
    # the chart coordinate z/w is the projection (x + iy)/(1 - t)
    south = pts[:, 2] < 0.5
    zh, wh = homogeneous_coords(pts[south])
    x, y, t = pts[south].T
    assert np.allclose(zh / wh, (x + 1j * y) / (1.0 - t), atol=1e-12)
    z1 = np.stack([zh / wh, np.ones(len(zh))], axis=-1)
    assert np.allclose(from_homogeneous(z1), pts[south], atol=1e-12)


def test_stereographic_unit_circle_is_equator():
    ang = np.linspace(0, 2 * math.pi, 7)
    p = from_homogeneous(np.stack([np.exp(1j * ang), np.ones(7)], axis=-1))
    assert np.max(np.abs(p[:, 2])) < 1e-14


def test_spherical_distance_antipodal_and_symmetry():
    pts = random_points(50)
    assert abs(spherical_distance_many(NORTH, SOUTH) - math.pi) < 1e-14
    d1 = spherical_distance_many(pts, -pts)
    assert np.allclose(d1, math.pi)
    a, b = random_points(1)[0], random_points(1)[0]
    assert abs(spherical_distance_many(a, b) - spherical_distance_many(b, a)) < 1e-14


def test_orthonormal_frame():
    for axis in random_points(20):
        e1, e2 = orthonormal_frame(axis)
        m = np.array([e1, e2, axis])
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)


def test_rotation_is_isometry():
    g = np.random.default_rng(5)
    pts = random_points(100)
    for _ in range(5):
        r = Rotation.random(g)
        rp = r.apply(pts)
        d0 = spherical_distance_many(pts[:-1], pts[1:])
        d1 = spherical_distance_many(rp[:-1], rp[1:])
        assert np.max(np.abs(d0 - d1)) < 1e-10


def test_rotation_compose_inverse():
    # composition is the product of the SU(2) matrices; inverse undoes
    g = np.random.default_rng(6)
    r = Rotation.random(g)
    s = Rotation.random(g)
    pts = random_points(30)
    both = from_homogeneous(homogeneous(pts) @ (r.su2() @ s.su2()).T)
    assert np.allclose(both, r.apply(s.apply(pts)), atol=1e-12)
    assert np.allclose(r.inverse().apply(r.apply(pts)), pts, atol=1e-12)


def test_rotation_align():
    for a, b in zip(random_points(10), random_points(10)):
        r = Rotation.align(a, b)
        assert np.allclose(r.apply(a), b, atol=1e-12)


def test_mobius_matches_rotation_on_sphere():
    # su2() acting on [z : w] is the rotation of the sphere, poles included
    g = np.random.default_rng(7)
    pts = np.vstack([random_points(60), NORTH, SOUTH])
    h = homogeneous(pts)
    for _ in range(4):
        r = Rotation.random(g)
        via_mobius = from_homogeneous(h @ r.su2().T)
        assert np.max(np.abs(via_mobius - r.apply(pts))) < 1e-12
    flip = Rotation.align(NORTH, SOUTH).su2()
    assert np.allclose(from_homogeneous(flip @ [1.0, 0.0]), SOUTH, atol=1e-15)
    assert np.allclose(from_homogeneous(flip @ [0.0, 1.0]), NORTH, atol=1e-15)


def test_great_circle_points_on_sphere():
    g = random_great_circle(np.random.default_rng(8))
    pts = g.point(np.linspace(0, 2 * math.pi, 64, endpoint=False))
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert np.max(np.abs(pts @ g.axis)) < 1e-12
    # closed loop of radius one: perimeter 2 pi
    per = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1).sum()
    assert abs(per - 2 * math.pi) < 0.02


def test_unit_vector_normalizes():
    v = unit_vector([3.0, 0.0, 4.0])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15

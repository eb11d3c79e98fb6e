import numpy as np
import pytest

from lemnilab import constructor, topology
from lemnilab.constructor import (
    InvalidSpec,
    _Frame,
    all_rooted_trees,
    certify_nondegenerate,
    realize,
    realized_tree,
)
from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
)
from lemnilab.field import newton_correct
from lemnilab.sphere import Rotation, from_homogeneous, homogeneous_coords
from lemnilab.topology import Arrangement, nesting_tree, rooted_canonical_form
from lemnilab.tracer import TraceOptions, trace


def test_all_rooted_trees_counts():
    counts = {}
    for form in all_rooted_trees(6):
        a = Arrangement(form)
        counts[a.n_nodes] = counts.get(a.n_nodes, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}


def test_realize_single_circle():
    c = realize(Arrangement("(())"))
    assert c.degree == 1
    assert len(c.epsilons) == 1
    assert realized_tree(c) == Arrangement("(())")
    assert certify_nondegenerate(c)


def test_realize_two_nested():
    c = realize(Arrangement.chain(2))
    assert c.degree == 2
    assert realized_tree(c) == Arrangement("((()))")


def test_realize_two_disjoint():
    c = realize(Arrangement.siblings(2))
    assert c.degree == 2
    assert realized_tree(c) == Arrangement("(()())")


def test_realize_mixed_tree():
    spec = Arrangement("((())()(()))")
    c = realize(spec)
    assert c.degree == spec.n_nodes - 1
    assert realized_tree(c) == spec
    assert certify_nondegenerate(c)
    assert all(e > 0 for e in c.epsilons)


def test_round_trip_and_certificate_read_the_verifying_trace(monkeypatch):
    spec = Arrangement("((())())")
    c = realize(spec)
    calls = []

    def counted(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(constructor, "trace", counted(trace))
    monkeypatch.setattr(topology, "trace", counted(trace))
    monkeypatch.setattr(constructor, "nesting_tree", counted(nesting_tree))
    assert realized_tree(c) == spec
    assert certify_nondegenerate(c)
    assert calls == []
    assert c.trace_resolution == c.tree.trace.grid_resolution


def test_balance_frame_doubles_nu_past_a_rejected_grid(monkeypatch):
    # at nu=64 some face of the balanced frame spans fewer than 4 grid
    # vertices, so verification must double nu before the tree is kept
    spec = Arrangement("((())(()))")
    tried = []
    verify = constructor._verify

    def counted(frame, expected, nu):
        tried.append(nu)
        return verify(frame, expected, nu)

    monkeypatch.setattr(constructor, "_resolution_for", lambda feature: 64)
    monkeypatch.setattr(constructor, "_verify", counted)
    c = realize(spec)
    assert tried[:2] == [64, 128]
    assert realized_tree(c) == spec
    assert certify_nondegenerate(c)
    assert c.trace_resolution == c.tree.trace.grid_resolution == tried[-1]


def test_verify_rejects_faces_under_four_grid_vertices(monkeypatch):
    # r = c (z - a) / (z - b) with a, b close: one Apollonius oval of chart
    # radius |a - b| c / (c^2 - 1), about 1.6 grid edges across at nu=64
    a, b, c = 0.3 + 0.1j, 0.3125 + 0.1j, 2.0
    rp = RationalPair(
        KostlanPolynomial(1, np.array([-c * a, c])),
        KostlanPolynomial(1, np.array([-b, 1.0])),
    )
    frame = _Frame(rp, {"root": np.array([1.0 + 0j, 0.0])}, [])
    t = trace(rp, TraceOptions(grid_resolution=64))

    def no_trace(*args, **kwargs):
        raise AssertionError("nesting_tree must not trace")

    monkeypatch.setattr(topology, "trace", no_trace)
    tree = nesting_tree(rp, t)
    assert tree.n_components == len(t.components) == 1
    assert np.bincount(tree.face_of_vertex).min() < 4
    root = from_homogeneous(frame.markers["root"])
    assert rooted_canonical_form(tree, root) == Arrangement("(())")
    monkeypatch.undo()
    assert constructor._verify(frame, "(())", 64) is None
    assert constructor._verify(frame, "(())", 256) is not None


def test_realize_rejects_oversized_spec():
    with pytest.raises(InvalidSpec):
        realize(Arrangement.chain(13))


def test_json_round_trip():
    c = realize(Arrangement.chain(3))
    d = c.to_json()
    assert d["spec"] == Arrangement.chain(3).canonical
    # the serialized pair re-traces to the same tree
    rp = RationalPair.from_json(d["pair"])
    t = trace(rp, TraceOptions(grid_resolution=c.trace_resolution))
    tree = nesting_tree(rp, t)
    assert rooted_canonical_form(tree, c.root_point) == Arrangement.chain(3)


def _adjugate(M):
    (a, b), (c, d) = M
    return np.array([[d, -b], [-c, a]])


def _frame_on_curve():
    # a degree-4 pair, its traced ovals projected onto the curve, and three
    # markers: one random point and both poles
    rp = sample_rational_pair(4, RandomStream(11))
    verts = [
        newton_correct(rp, c.vertices[:-1], tol_rel=1e-14)[0]
        for c in trace(rp).components
    ]
    h = homogeneous_coords(np.array([0.6, -0.48, 0.64]))
    markers = {
        "a": np.array([h[0], h[1]]),
        "root": np.array([1.0 + 0j, 0.0]),
        "origin": np.array([0.0, 1.0 + 0j]),
    }
    return _Frame(rp, markers, verts)


def _one_of_each_move(frame):
    """A random SU(2) move, a dilation and an unfold of marker "a"."""
    rot = Rotation.random(np.random.default_rng(12)).su2()
    yield rot
    yield np.diag([1.0, 0.3])
    zm, wm = frame.moved(rot).moved(np.diag([1.0, 0.3])).markers["a"]
    yield np.array([[wm, 0.0], [-wm, zm]])


def test_moved_ovals_stay_on_the_moved_curve():
    frame = _frame_on_curve()
    assert len(frame.comp_verts) >= 1
    for M in _one_of_each_move(frame):
        frame = frame.moved(M)
        for v in frame.comp_verts:
            # one Newton pass records the residual of the points as given
            _, rel, _, _ = newton_correct(frame.rp, v, tol_rel=1e-9, max_iters=1)
            assert rel.max() <= 1e-9
    # the unfold sends marker "a" to infinity
    assert np.allclose(from_homogeneous(frame.markers["a"]), [0.0, 0.0, 1.0])


def _assert_same_frame(f0, f1):
    """Markers name the same points, vertices agree, the pair up to scale."""
    for k, h in f0.markers.items():
        assert np.allclose(
            from_homogeneous(f1.markers[k]), from_homogeneous(h), atol=1e-12
        ), k
    for v0, v1 in zip(f0.comp_verts, f1.comp_verts, strict=True):
        assert np.max(np.abs(v1 - v0)) < 1e-9
    a = np.concatenate([f0.rp.p.coeffs, f0.rp.q.coeffs])
    b = np.concatenate([f1.rp.p.coeffs, f1.rp.q.coeffs])
    phase = np.vdot(b, a) / np.vdot(b, b)
    assert np.linalg.norm(a - phase * b) <= 1e-9 * np.linalg.norm(a)


def test_moved_by_the_adjugate_comes_back():
    start = _frame_on_curve()
    moves = list(_one_of_each_move(start))
    frame = start
    for M in moves:
        _assert_same_frame(frame, frame.moved(M).moved(_adjugate(M)))
        frame = frame.moved(M)
    for M in reversed(moves):
        frame = frame.moved(_adjugate(M))
    _assert_same_frame(start, frame)

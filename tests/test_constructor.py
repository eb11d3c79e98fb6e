import numpy as np
import pytest

from lemnilab import constructor, topology
from lemnilab.constructor import (
    _EMPTY,
    InvalidSpec,
    _add_circle,
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
from lemnilab.field import PairField, eval_f_many, newton_correct
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
    monkeypatch.setattr(topology, "trace_levels", counted(topology.trace_levels))
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


def test_realize_retries_with_halved_epsilon(monkeypatch):
    # this form's first attempt fails; it realizes on the retry, where
    # every step starts eps from half its ceiling
    spec = Arrangement("(((()))()()()())")
    shrinks = []
    add = constructor._add_circle

    def counted(frame, key, shrink=1.0):
        shrinks.append(shrink)
        return add(frame, key, shrink)

    monkeypatch.setattr(constructor, "_add_circle", counted)
    c = realize(spec)
    assert 0.5 in shrinks and 0.25 not in shrinks
    assert realized_tree(c) == spec
    assert certify_nondegenerate(c)


def test_verify_rejects_faces_under_four_grid_vertices(monkeypatch):
    # r = c (z - a) / (z - b) with a, b close: one Apollonius oval of chart
    # radius |a - b| c / (c^2 - 1), about 1.6 grid edges across at nu=64
    a, b, c = 0.3 + 0.1j, 0.3125 + 0.1j, 2.0
    rp = RationalPair(
        KostlanPolynomial(1, np.array([-c * a, c])),
        KostlanPolynomial(1, np.array([-b, 1.0])),
    )
    frame = _Frame(rp, {"root": np.array([1.0 + 0j, 0.0])}, np.zeros((0, 3)),
                   np.zeros(0, dtype=np.int64))
    t = trace(rp, TraceOptions(grid_resolution=64))

    def no_trace(*args, **kwargs):
        raise AssertionError("nesting_tree must not trace")

    monkeypatch.setattr(topology, "trace_levels", no_trace)
    tree = nesting_tree(t)
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
    tree = nesting_tree(t)
    assert rooted_canonical_form(tree, c.root_point) == Arrangement.chain(3)


def test_new_oval_lies_on_the_curve_in_ray_order():
    # the second step of the two-circle chain: its new oval, about the
    # pole at the chart origin, holds one point per ray
    frame = _Frame(_EMPTY, {"root": np.array([1.0 + 0j, 0.0])},
                   np.zeros((0, 3)), np.zeros(0, dtype=np.int64))
    frame, _, _ = _add_circle(frame, ("root", 0))
    frame, _, _ = _add_circle(frame, (("root", 0), 0))
    assert frame.sizes.tolist() == [constructor._OVAL_RAYS] * 2
    oval = frame.verts[-frame.sizes[-1]:]
    f, sc = eval_f_many(PairField(frame.rp), oval, with_scale=True)
    assert np.max(np.abs(f) / sc) <= 1e-9
    zh, wh = homogeneous_coords(oval)
    turn = np.angle(np.roll(zh / wh, -1) / (zh / wh))  # from each ray to the next
    assert np.all(turn > 0.0) and abs(turn.sum() - 2.0 * np.pi) < 1e-9


def _adjugate(M):
    (a, b), (c, d) = M
    return np.array([[d, -b], [-c, a]])


def _frame_on_curve():
    # a degree-4 pair, its traced ovals projected onto the curve, and three
    # markers: one random point and both poles
    rp = sample_rational_pair(4, RandomStream(11))
    t = trace(rp)
    verts = newton_correct(PairField(rp), t.vertices, tol_rel=1e-14)[0]
    h = homogeneous_coords(np.array([0.6, -0.48, 0.64]))
    markers = {
        "a": np.array([h[0], h[1]]),
        "root": np.array([1.0 + 0j, 0.0]),
        "origin": np.array([0.0, 1.0 + 0j]),
    }
    return _Frame(rp, markers, verts, t.sizes)


def _one_of_each_move(frame):
    """A random SU(2) move, a dilation and an unfold of marker "a"."""
    rot = Rotation.random(np.random.default_rng(12)).su2()
    yield rot
    yield np.diag([1.0, 0.3])
    zm, wm = frame.moved(rot).moved(np.diag([1.0, 0.3])).markers["a"]
    yield np.array([[wm, 0.0], [-wm, zm]])


def test_moved_ovals_stay_on_the_moved_curve():
    frame = _frame_on_curve()
    assert len(frame.sizes) >= 1
    for M in _one_of_each_move(frame):
        frame = frame.moved(M)
        # one Newton pass records the residual of the points as given
        _, rel, _, _, _ = newton_correct(PairField(frame.rp), frame.verts, tol_rel=1e-9,
                                        max_iters=1)
        assert rel.max() <= 1e-9
    # the unfold sends marker "a" to infinity
    assert np.allclose(from_homogeneous(frame.markers["a"]), [0.0, 0.0, 1.0])


def _assert_same_frame(f0, f1):
    """Markers name the same points, vertices agree, the pair up to scale."""
    for k, h in f0.markers.items():
        assert np.allclose(
            from_homogeneous(f1.markers[k]), from_homogeneous(h), atol=1e-12
        ), k
    assert np.array_equal(f0.sizes, f1.sizes)
    assert np.max(np.abs(f1.verts - f0.verts)) < 1e-9
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

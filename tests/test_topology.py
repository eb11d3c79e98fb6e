import csv
import itertools
import math
import os

import numpy as np
import pytest

from lemnilab import topology
from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    RealKostlanPolynomial,
    sample_rational_pair,
)
from lemnilab.constructor import realize
from lemnilab.field import PairField
from lemnilab.topology import (
    Arrangement,
    InconsistentTopology,
    PointOnCurve,
    local_arrangement_probability,
    local_disk,
    nesting_tree,
    rooted_canonical_form,
)
from lemnilab.experiments import trial_stream
from lemnilab.sphere import spherical_distance_many
from lemnilab.tracer import TraceOptions, _cap_grid, default_options, trace


def _winding_tree(loops_xy: list) -> str:
    """Canonical rooted parenthesization of planar loops nested by
    containment: a reference for the local stage's tree that shares no
    code with the flood fill.

    loops_xy: closed polylines in chart coordinates, first vertex not
    repeated; the root is the plane outside every loop.
    """
    k = len(loops_xy)

    def contains(b, pt) -> bool:
        x, y = b[:, 0] - pt[0], b[:, 1] - pt[1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        ang = np.arctan2(x * y2 - y * x2, x * x2 + y * y2)
        return abs(ang.sum()) > math.pi

    inside = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(k):
            if i != j:
                inside[i, j] = contains(loops_xy[j], loops_xy[i][0])
    depth = inside.sum(axis=1)
    children = [[] for _ in range(k + 1)]  # index k = the outside (root)
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

    return topology._render(nested(k))


def circle_pair():
    return RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )


def test_equator_tree_two_nodes():
    rp = circle_pair()
    t = trace(rp)
    tree = nesting_tree(t)
    assert tree.n_components == 1
    assert tree.n_faces == 2
    # path of two nodes is symmetric: same rooted form from either side
    north = rooted_canonical_form(tree, (0, 0, 1))
    south = rooted_canonical_form(tree, (0, 0, -1))
    assert north == south == Arrangement("(())")


def test_point_on_curve_rejected():
    rp = circle_pair()
    t = trace(rp)
    tree = nesting_tree(t)
    with pytest.raises(PointOnCurve):
        rooted_canonical_form(tree, (1.0, 0.0, 0.0))


def test_real_curve_roots_through_its_field():
    # f = x^2 + y^2 - z^2 (exponents (a, b, c) of x^a y^b z^c in
    # lexicographic order): the circles z = +-1/sqrt(2) bound a northern
    # cap, a band and a southern cap
    poly = RealKostlanPolynomial(2, np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 1.0]))
    t = trace(poly)
    tree = nesting_tree(t)
    assert len(t.sizes) == 2 and tree.n_faces == 3
    assert rooted_canonical_form(tree, (0, 0, 1)) == Arrangement("((()))")
    assert rooted_canonical_form(tree, (1, 0, 0)) == Arrangement("(()())")
    # f is exactly 0 there
    with pytest.raises(PointOnCurve):
        rooted_canonical_form(tree, (math.sqrt(0.5), 0.0, math.sqrt(0.5)))
    # f = x^2 - yz: at the north pole f and every monomial, so the scale,
    # are 0
    tree = nesting_tree(trace(RealKostlanPolynomial(2, np.array([0.0, -1.0, 0, 0, 0, 1.0]))))
    assert tree.n_faces == 3
    with pytest.raises(PointOnCurve):
        rooted_canonical_form(tree, (0, 0, 1))


def test_alexander_duality_and_tree_property():
    for i in range(6):
        rp = sample_rational_pair(10, RandomStream(83).substream(i))
        t = trace(rp)
        tree = nesting_tree(t)
        faces = tree.n_faces
        assert faces == len(t.components) + 1
        edges = sum(len(a) for a in tree.adjacency()) // 2
        assert edges == faces - 1


def _no_trace(*args, **kwargs):
    raise AssertionError("nesting_tree must not trace")


def test_nesting_tree_is_the_tree_of_the_given_trace(monkeypatch):
    # seed-202 n=200 trial 2 at the default grid has faces smaller than 4
    # grid vertices; its tree still has one edge per traced loop
    rp = sample_rational_pair(200, trial_stream(202, 200, 2))
    t = trace(rp)
    monkeypatch.setattr(topology, "trace_levels", _no_trace)
    tree = nesting_tree(t)
    assert tree.n_components == len(t.components) == 52
    assert tree.n_faces == 53


def test_nesting_tree_of_a_cap_trace():
    # the cap holds the whole equator: the cap minus it is two faces
    t = trace(circle_pair(), cap=((0.0, 0.0, 1.0), 2.0))
    assert len(t.components) == 1
    tree = nesting_tree(t)
    assert tree.n_faces == 2
    assert rooted_canonical_form(tree, (0, 0, 1)) == Arrangement("(())")


def test_nesting_tree_of_a_cap_of_radius_pi_is_the_global_tree():
    rp = sample_rational_pair(10, RandomStream(83).substream(0))
    g, c = nesting_tree(trace(rp)), nesting_tree(trace(rp, cap=((0.0, 0.0, 1.0), math.pi)))
    assert c.trace.grid is _cap_grid(64, (0.0, 0.0, 1.0), math.pi) and c.n_faces == g.n_faces > 2
    assert np.array_equal(c.edges, g.edges)
    assert np.array_equal(c.face_of_vertex, g.face_of_vertex)


@pytest.mark.parametrize("spec", ["((())())", "(()()())", "(((())))"])
def test_cap_tree_about_the_outer_face_reads_the_spec(spec):
    # the cap leaves out a disk about the root point that misses the curve;
    # its vertex farthest from the centre lies in the outer face
    c = realize(Arrangement(spec))
    t = c.tree.trace
    d = spherical_distance_many(t.vertices, np.broadcast_to(c.root_point, t.vertices.shape))
    centre = -c.root_point
    ct = trace(c.pair, TraceOptions(t.grid_resolution), (centre, math.pi - d.min() / 2))
    tree = nesting_tree(ct)
    rim = np.argmin(ct.grid.verts @ centre)
    assert topology._rooted(tree, tree.face_of_vertex[rim]) == c.spec


def test_nesting_tree_rejects_a_repeated_loop_edge(monkeypatch):
    # b0 edges on b0 + 1 faces: a repeated edge leaves a face unreached
    rp = sample_rational_pair(10, RandomStream(83).substream(0))
    t = trace(rp)
    edges = topology._tree_edges(t, topology._build_faces(t)[0])
    assert len(edges) >= 2
    monkeypatch.setattr(
        topology, "_tree_edges", lambda *args: edges[:-1] + edges[:1]
    )
    with pytest.raises(InconsistentTopology):
        nesting_tree(t)


def test_star_vs_path_distinct():
    # two disjoint circles vs two nested circles
    assert Arrangement.siblings(2) != Arrangement.chain(2)
    assert Arrangement.siblings(2) == Arrangement("(()())")
    assert Arrangement.chain(2) == Arrangement("((()))")


def test_canonical_form_invariant_under_relabeling():
    # same rooted tree entered with children permuted in every order
    forms = {Arrangement("((())()(()))").canonical}
    for perm in itertools.permutations(["(())", "()", "(())"]):
        forms.add(Arrangement("(%s)" % "".join(perm)).canonical)
    assert len(forms) == 1


def test_canonical_form_random_shuffles():
    rng = np.random.default_rng(11)
    children = ["()", "(())", "((()))", "()"]
    base = Arrangement("(%s)" % "".join(children))
    for _ in range(1000):
        rng.shuffle(children)
        assert Arrangement("(%s)" % "".join(children)) == base


def test_canonical_soundness_small_trees():
    # enumerate all rooted trees on <= 5 nodes and confirm forms are
    # pairwise distinct (form equality iff isomorphism)
    from lemnilab.constructor import all_rooted_trees

    forms = list(all_rooted_trees(5))
    assert len(forms) == len(set(forms)) == 1 + 1 + 2 + 4 + 9


def test_arrangement_validation():
    with pytest.raises(ValueError):
        Arrangement("(()")
    with pytest.raises(ValueError):
        Arrangement(")(")


def test_a_forest_is_not_called_unbalanced():
    # "()()" is balanced, but two trees side by side; a string that does
    # close below depth 0 is still unbalanced
    with pytest.raises(ValueError, match=r"^not a single rooted tree: '\(\)\(\)'$"):
        Arrangement("()()")
    with pytest.raises(ValueError, match="^unbalanced parentheses$"):
        Arrangement("())()")


def test_local_tree_nests_by_containment():
    # a circle inside another plus a third beside them
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    loops = [ring, 0.5 * ring, 0.2 * ring + [3.0, 0.0]]
    assert _winding_tree(loops) == "((())())"


def test_local_arrangement_requires_trials():
    with pytest.raises(ValueError):
        local_arrangement_probability(Arrangement("(())"), 20, 1.0, 10, RandomStream(1))


def test_local_arrangement_requires_a_disk_within_a_hemisphere():
    # n = 4: rho/sqrt(n) = pi/2 exactly, and beyond
    for rho in (math.pi, 5.0):
        with pytest.raises(ValueError):
            local_arrangement_probability(Arrangement("(())"), 4, rho, 100, RandomStream(11))


def test_local_arrangement_refuses_a_nan_rho_before_any_trial(monkeypatch):
    monkeypatch.setattr(topology, "sample_rational_pair",
                        lambda n, rng: pytest.fail("sampled a pair"))
    with pytest.raises(ValueError, match="rho/sqrt"):
        local_arrangement_probability(Arrangement("(())"), 100, math.nan, 100, RandomStream(1))


def test_local_arrangement_rejects_a_trial_whose_faces_are_no_tree(monkeypatch):
    # a repeated tree edge leaves a face unreached, in every disk with two
    # or more loops; each rejected trial fails its first fill
    fills = []

    def repeated(t, labels):
        fills.append(len(t.sizes))
        return [(0, 1)] * len(t.sizes)

    monkeypatch.setattr(topology, "_tree_edges", repeated)
    est = local_arrangement_probability(Arrangement("(())"), 30, 4.0, 100, RandomStream(5))
    assert est.trials_used + est.rejected == 100
    assert est.rejected == len(fills) > 0 and min(fills) >= 2


def test_local_arrangement_single_circle_positive():
    est = local_arrangement_probability(Arrangement("(())"), 30, 2.0, 200, RandomStream(5))
    assert est.trials_used + est.rejected == 200
    assert est.hits > 0
    assert 0 < est.estimate <= 1
    assert est.stderr > 0


def test_a_local_trial_builds_one_field(monkeypatch):
    # the trial's finer trace re-traces the field of its coarse one
    builds, init = [], PairField.__init__
    monkeypatch.setattr(PairField, "__init__", lambda self, rp: builds.append(init(self, rp)))
    est = local_arrangement_probability(Arrangement("(())"), 100, 3.0, 100, RandomStream(505))
    assert est.trials_used == len(builds) == 100


def test_local_stage_replays_its_committed_row():
    # results/local_1circle at n=100: rho=3, seed 505, target (()), 2,000 trials
    est = local_arrangement_probability(Arrangement("(())"), 100, 3.0, 2000,
                                        RandomStream(505).substream(100))
    assert (est.hits, est.trials_used, est.rejected, est.regridded) == (453, 2000, 0, 10)
    path = os.path.join(os.path.dirname(__file__), os.pardir, "results", "local_1circle",
                        "local-arrangement_summary.csv")
    with open(path, newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh) if r["n"] == "100"]
    assert (float(row["estimate"]), row["trials_used"], row["rejected"], row["flags"]) == (
        est.estimate, "2000", "0", "rho=3;regridded=10")


def test_regridded_counts_the_trials_whose_two_trees_differ():
    # the stage's flood-filled trees against the winding-sum reference
    n, rho, seed = 100, 7.0, 606
    target = Arrangement("(()())")
    est = local_arrangement_probability(target, n, rho, 100, RandomStream(seed))
    nu = default_options(n).grid_resolution
    cap, inner = local_disk(n, rho)
    differ = hits = 0
    for i in range(100):
        rp = sample_rational_pair(n, RandomStream(seed).substream(i))
        trees = []
        for res in (nu, 2 * nu):
            loops = [c[:-1, :2] for c in trace(rp, TraceOptions(res), cap).components
                     if np.arccos(np.clip(c[:, 2], -1.0, 1.0)).max() <= inner]
            trees.append(_winding_tree(loops))
        differ += trees[0] != trees[1]
        hits += trees[1] == target.canonical
    assert est.trials_used == 100 and est.regridded == differ > 0
    assert est.hits == hits > 0

import itertools

import numpy as np
import pytest

from lemnilab import topology
from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
)
from lemnilab.topology import (
    Arrangement,
    InconsistentTopology,
    PointOnCurve,
    local_arrangement_probability,
    nesting_tree,
    rooted_canonical_form,
)
from lemnilab.experiments import trial_stream
from lemnilab.tracer import trace


def circle_pair():
    return RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )


def test_equator_tree_two_nodes():
    rp = circle_pair()
    t = trace(rp)
    tree = nesting_tree(rp, t)
    assert tree.n_components == 1
    assert tree.n_faces == 2
    # path of two nodes is symmetric: same rooted form from either side
    north = rooted_canonical_form(tree, (0, 0, 1))
    south = rooted_canonical_form(tree, (0, 0, -1))
    assert north == south == Arrangement("(())")


def test_point_on_curve_rejected():
    rp = circle_pair()
    t = trace(rp)
    tree = nesting_tree(rp, t)
    with pytest.raises(PointOnCurve):
        rooted_canonical_form(tree, (1.0, 0.0, 0.0))


def test_alexander_duality_and_tree_property():
    for i in range(6):
        rp = sample_rational_pair(10, RandomStream(83).substream(i))
        t = trace(rp)
        tree = nesting_tree(rp, t)
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
    monkeypatch.setattr(topology, "trace", _no_trace)
    tree = nesting_tree(rp, t)
    assert tree.n_components == len(t.components) == 52
    assert tree.n_faces == 53


def test_nesting_tree_rejects_a_repeated_loop_edge(monkeypatch):
    # b0 edges on b0 + 1 faces: a repeated edge leaves a face unreached
    rp = sample_rational_pair(10, RandomStream(83).substream(0))
    t = trace(rp)
    edges = topology._tree_edges(t, *topology._build_faces(t)[:2])
    assert len(edges) >= 2
    monkeypatch.setattr(
        topology, "_tree_edges", lambda *args: edges[:-1] + edges[:1]
    )
    with pytest.raises(InconsistentTopology):
        nesting_tree(rp, t)


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


def test_local_tree_nests_by_containment():
    # a circle inside another plus a third beside them
    th = np.linspace(0.0, 2.0 * np.pi, 65)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    loops = [ring, 0.5 * ring, 0.2 * ring + [3.0, 0.0]]
    assert topology._local_tree(loops) == "((())())"


def test_local_arrangement_requires_trials():
    with pytest.raises(ValueError):
        local_arrangement_probability(
            Arrangement("(())"), 20, 1.0, 10, RandomStream(1)
        )


def test_local_arrangement_single_circle_positive():
    est = local_arrangement_probability(
        Arrangement("(())"), 30, 2.0, 200, RandomStream(5)
    )
    assert est.trials_used + est.rejected == 200
    assert est.hits > 0
    assert 0 < est.estimate <= 1
    assert est.stderr > 0


import math
import os

import numpy as np
import pytest

from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
    sample_real_kostlan,
)
from lemnilab.experiments import TRIAL_COLUMNS, ResultsTable, run_trial, trial_stream
from lemnilab.field import as_field
from lemnilab.tracer import (
    TraceOptions,
    _link_cycles,
    default_options,
    trace,
    walk,
)

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")

# seed-202 n=200 trials whose trace bridges one segment by a tangent walk,
# with the grid resolution the trace ends at: trial 26's walk arrives,
# trial 18's hits its cap and the trace is redone on the doubled grid
BRIDGED = {26: 78, 18: 156}


def unit_circle_pair():
    return RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )


def test_equator_length():
    t = trace(unit_circle_pair())
    assert len(t.components) == 1
    assert abs(t.total_length - 2 * math.pi) < 0.005 * 2 * math.pi


def test_empty_lemniscate():
    rp = RationalPair(
        KostlanPolynomial(1, np.array([2, 0], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    t = trace(rp)
    assert len(t.components) == 0
    assert t.total_length == 0.0


def test_options_validation():
    with pytest.raises(ValueError):
        TraceOptions(grid_resolution=10)
    assert default_options(100).grid_resolution >= 55


def test_components_closed_and_on_curve():
    rp = sample_rational_pair(8, RandomStream(13))
    t = trace(rp)
    from lemnilab.field import eval_f_many

    for c in t.components:
        v = c.vertices
        assert np.allclose(v[0], v[-1])
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        f, sc = eval_f_many(rp, v, with_scale=True)
        assert np.max(np.abs(f) / sc) < 1e-8


def test_component_count_stable_under_resolution_doubling():
    rp = sample_rational_pair(6, RandomStream(29))
    base = default_options(6)
    t1 = trace(rp, base)
    t2 = trace(rp, TraceOptions(grid_resolution=2 * base.grid_resolution))
    assert len(t1.components) == len(t2.components)
    assert abs(t1.total_length - t2.total_length) < 0.01 * t2.total_length


def test_component_bound_and_length_bound():
    for i in range(5):
        rp = sample_rational_pair(10, RandomStream(37).substream(i))
        t = trace(rp)
        assert len(t.components) <= 10
        assert t.total_length <= 2 * math.pi * 10 * 1.01


def test_real_kostlan_traceable():
    poly = sample_real_kostlan(12, RandomStream(43))
    t = trace(poly)
    assert len(t.components) >= 1
    for c in t.components:
        assert np.allclose(np.linalg.norm(c.vertices, axis=1), 1.0, atol=1e-12)


def test_unit_circle_trace_on_equator():
    t = trace(unit_circle_pair())
    v = t.components[0].vertices
    assert np.max(np.abs(v[:, 2])) < 1e-8


def test_jitter_determinism():
    rp = sample_rational_pair(7, RandomStream(51))
    t1 = trace(rp)
    t2 = trace(rp)
    assert len(t1.components) == len(t2.components)
    for c1, c2 in zip(t1.components, t2.components):
        assert np.array_equal(c1.vertices, c2.vertices)


def _walk_cycles(pair_rows, n_nodes):
    # plain walk: from each unvisited node in index order, leave by its
    # first edge in row order, then always by the edge not arrived on
    nbr = [[] for _ in range(n_nodes)]
    for e, (u, v) in enumerate(pair_rows.tolist()):
        nbr[u].append((e, v))
        nbr[v].append((e, u))
    seen = [False] * n_nodes
    cycles = []
    for start in range(n_nodes):
        if seen[start]:
            continue
        cyc, cur, (edge, nxt) = [], start, nbr[start][0]
        while True:
            seen[cur] = True
            cyc.append(cur)
            if nxt == start:
                break
            cur = nxt
            edge, nxt = next(en for en in nbr[cur] if en[0] != edge)
        cycles.append(cyc)
    return cycles


def test_link_cycles_matches_plain_walk():
    gen = np.random.default_rng(7)
    for _ in range(200):
        # a random 2-regular multigraph: random cycle sizes >= 2, so
        # 2-cycles (a doubled edge) are common, in shuffled row order
        # and orientation
        sizes = gen.integers(2, 9, size=gen.integers(1, 8))
        nodes = gen.permutation(int(sizes.sum()))
        rows = []
        for c in np.split(nodes, np.cumsum(sizes)[:-1]):
            rows += [(c[j], c[(j + 1) % len(c)]) for j in range(len(c))]
        rows = np.array(rows)[gen.permutation(len(rows))]
        flip = gen.random(len(rows)) < 0.5
        rows[flip] = rows[flip, ::-1]
        got = _link_cycles(rows)
        assert [c.tolist() for c in got] == _walk_cycles(rows, len(nodes))
        assert all(c.dtype == np.int64 for c in got)


def _walk_equator(caps):
    start, target = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    (res,), stalled, _ = walk(as_field(unit_circle_pair()), start, target,
                              target - start, np.array([0.1]), np.array([1]),
                              np.array([caps]))
    return res, stalled[0]


def test_walk_arrives_along_the_curve():
    res, stalled = _walk_equator(40)
    assert res is not None and not stalled
    pts = res[0]
    assert len(pts) >= 12
    assert np.max(np.abs(pts[:, 2])) < 1e-8
    assert np.linalg.norm(pts[-1] - [0.0, 1.0, 0.0]) < 0.12


def test_walk_cap_is_not_a_stall():
    res, stalled = _walk_equator(2)
    assert res is None and not stalled


def test_bridged_trials_match_committed_rows(tmp_path):
    rows = [run_trial("tangents", 200, 202, i) for i in BRIDGED]
    path = tmp_path / "rows.csv"
    ResultsTable([{k: r[k] for k in TRIAL_COLUMNS} for r in rows]).write_csv(str(path))
    with open(os.path.join(RESULTS, "tangents_n200_trials.csv")) as fh:
        committed = {ln.split(",")[1]: ln for ln in fh.read().splitlines()[1:]}
    assert path.read_text().splitlines()[1:] == [committed[str(i)] for i in BRIDGED]


def test_bridged_trace_resolution():
    for i, nu in BRIDGED.items():
        rp = sample_rational_pair(200, trial_stream(202, 200, i))
        assert trace(rp).grid_resolution == nu

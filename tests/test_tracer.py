import dataclasses
import itertools
import math
import os
import re

import numpy as np
import pytest

from lemnilab.ensemble import (
    KostlanPolynomial,
    RandomStream,
    RationalPair,
    sample_rational_pair,
    sample_real_kostlan,
)
from lemnilab.experiments import TRIAL_COLUMNS, run_trial, trial_stream, write_csv
from lemnilab.field import _CHUNK, PairField, RealField, as_field
from lemnilab.geomstats import meridian_stats
from lemnilab.icogrid import cap_grid, icosphere
from lemnilab.sphere import homogeneous_coords, spherical_distance_many
from lemnilab.topology import local_disk, nesting_tree, rooted_canonical_form
from lemnilab import tracer
from lemnilab.tracer import (
    _ARC_STEP,
    DegenerateLemniscate,
    TraceOptions,
    _StubbornSegment,
    _link_cycles,
    default_options,
    ray_solve,
    trace,
    walk,
)
from test_topology import _winding_tree

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")

# seed-202 n=200 trials whose trace bridges one segment by a tangent walk,
# with the grid resolution the trace ends at: trial 26's walk arrives,
# trial 18's hits its cap and the trace is redone on the doubled grid
BRIDGED = {26: 78, 18: 156}


SOUTH = np.array([[0.0, 0.0, -1.0]])  # chart coordinate z = 0
# chart directions 1 and i at z = 0
E1, E2 = np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])


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
    assert t.vertices.shape == (0, 3)
    assert len(t.sizes) == 0 and len(t.lengths) == 0
    assert t.components == []
    assert t.total_length == 0.0


def test_loops_stored_back_to_back():
    # loop j holds sizes[j] open vertices; components closes each copy, and
    # the length of a loop is the sum over its closed copy, bit for bit
    rp = sample_rational_pair(50, RandomStream(7))
    t = trace(rp)
    assert len(t.sizes) > 1 and t.sizes.sum() == len(t.vertices)
    starts = np.cumsum(t.sizes) - t.sizes
    for c, a, k, length in zip(t.components, starts, t.sizes, t.lengths, strict=True):
        assert np.array_equal(c[:-1], t.vertices[a : a + k])
        assert np.array_equal(c[-1], c[0])
        assert length == spherical_distance_many(c[:-1], c[1:]).sum()
    assert t.total_length == float(t.lengths.sum())


def test_options_validation():
    with pytest.raises(ValueError):
        TraceOptions(grid_resolution=10)
    assert default_options(100).grid_resolution >= 55


def test_grid_resolution_must_be_an_integer():
    for nu in (100.5, 96.0, True, "96", None):
        with pytest.raises(ValueError, match=re.escape(repr(nu))):
            TraceOptions(grid_resolution=nu)
    assert TraceOptions(np.int64(96)).grid_resolution == 96  # numpy integers are integers


def test_components_closed_and_on_curve():
    rp = sample_rational_pair(8, RandomStream(13))
    t = trace(rp)
    from lemnilab.field import PairField, eval_f_many

    for v in t.components:
        assert np.allclose(v[0], v[-1])
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
        f, sc = eval_f_many(PairField(rp), v, with_scale=True)
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
        assert np.allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)


def test_trace_carries_the_field_it_traced():
    rp = sample_rational_pair(12, RandomStream(43))
    poly = sample_real_kostlan(12, RandomStream(43))
    local = sample_rational_pair(100, RandomStream(505).substream(100).substream(0))
    # no loops: the trace refines no crossing
    empty = RationalPair(KostlanPolynomial(1, np.array([2, 0], complex)),
                         KostlanPolynomial(1, np.array([1, 0], complex)))
    # the whole sphere, a cap, and the local stage's rho=3 cap at n=100, nu and 2nu
    cases = [(rp, None, None), (poly, None, None), (rp, None, (NORTH, 1.0)), (empty, None, None),
             (local, None, _local_cap(3)), (local, TraceOptions(128), _local_cap(3))]
    traces = [trace(curve, opts, c) for curve, opts, c in cases]
    assert traces[2].grid is cap_grid(64, NORTH, 1.0)
    assert len(traces[3].sizes) == 0 < len(traces[4].sizes)
    pts = np.concatenate([traces[0].vertices, traces[1].vertices])
    for (curve, opts, c), t in zip(cases, traces):
        kind, attr = (RealField, "poly") if curve is poly else (PairField, "rp")
        assert type(t.fieldobj) is kind and getattr(t.fieldobj, attr) is curve
        assert np.array_equal(t.fieldobj.values(pts), as_field(curve).values(pts))
        # a trace of the field object carries it and has the curve's bits
        again = trace(t.fieldobj, opts, c)
        assert again.fieldobj is t.fieldobj
        _same_trace(again, t)


def test_unit_circle_trace_on_equator():
    t = trace(unit_circle_pair())
    v = t.vertices
    assert np.max(np.abs(v[:, 2])) < 1e-8


def test_records_with_arrays_compare_by_identity():
    # two traces of different pairs at one grid are different records; a
    # pair, a trace and a nesting tree hash, and compare to a copy
    a, b = (trace(sample_rational_pair(8, RandomStream(s))) for s in (1, 2))
    assert a.grid is b.grid
    assert a != b and len(a.sizes) != len(b.sizes)
    rp = sample_rational_pair(8, RandomStream(1))
    tree = nesting_tree(a)
    for obj, copy in ((rp, RationalPair.from_json(rp.to_json())),
                      (a, dataclasses.replace(a)), (tree, dataclasses.replace(tree))):
        assert isinstance(hash(obj), int)
        assert obj == obj and obj != copy


def test_jitter_determinism():
    rp = sample_rational_pair(7, RandomStream(51))
    t1 = trace(rp)
    t2 = trace(rp)
    assert np.array_equal(t1.sizes, t2.sizes)
    assert np.array_equal(t1.vertices, t2.vertices)


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
        # a random 2-regular multigraph: random cycle sizes >= 1, so
        # 2-cycles (a doubled edge) and 1-cycles (a self-loop row (u, u),
        # as a trace closes a lone cap crossing) are common, in shuffled
        # row order and orientation
        sizes = gen.integers(1, 9, size=gen.integers(1, 8))
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


def _walk_equator(*caps):
    """walk's output for walks from (1, 0, 0) to (0, 1, 0) on the unit
    circle, one per cap."""
    m = len(caps)
    start, target = np.tile([1.0, 0.0, 0.0], (m, 1)), np.tile([0.0, 1.0, 0.0], (m, 1))
    fieldobj = as_field(unit_circle_pair())
    pts, _, tans, owner, lost, stalled = walk(
        fieldobj, start, fieldobj.newton(start)[4], target, target - start,
        np.full(m, 0.1), np.ones(m, dtype=np.int64), np.array(caps))
    return pts, tans, owner, lost, stalled


def test_walk_arrives_along_the_curve():
    pts, _, owner, lost, stalled = _walk_equator(40)
    assert not lost[0] and not stalled[0]
    assert (owner == 0).all()
    assert len(pts) >= 12
    assert np.max(np.abs(pts[:, 2])) < 1e-8
    assert np.linalg.norm(pts[-1] - [0.0, 1.0, 0.0]) < 0.12


def test_walk_cap_is_not_a_stall():
    pts, _, _, lost, stalled = _walk_equator(2)
    assert lost[0] and len(pts) == 0 and not stalled[0]


def test_walk_drops_lost_walks_from_the_layout():
    # a capped walk and one that arrives, in one call: only the second
    # contributes points, the same as it walked alone
    pts, tans, owner, lost, stalled = _walk_equator(2, 40)
    assert list(lost) == [True, False] and list(stalled) == [False, False]
    assert len(pts) >= 12 and (owner == 1).all() and (np.diff(owner) >= 0).all()
    alone, alone_tans, _, _, _ = _walk_equator(40)
    assert np.array_equal(pts, alone) and np.array_equal(tans, alone_tans)


def test_bridged_trials_match_committed_rows(tmp_path):
    rows = [run_trial("tangents", 200, 202, i) for i in BRIDGED]
    path = tmp_path / "rows.csv"
    write_csv(str(path), [{k: r[k] for k in TRIAL_COLUMNS} for r in rows])
    with open(os.path.join(RESULTS, "tangents_n200_trials.csv")) as fh:
        committed = {ln.split(",")[1]: ln for ln in fh.read().splitlines()[1:]}
    assert path.read_text().splitlines()[1:] == [committed[str(i)] for i in BRIDGED]


# (seed, n, trial): (meridian tangents, looping components) about the z
# axis.  Seed-202 trials 0 and 5 have small loops, and trial 26 a bridge
# walk; seed 404 is kostlan-compare's real field.
CARRIED = {(202, 200, 0): (246, 0), (202, 200, 5): (258, 0), (202, 200, 26): (252, 0),
           (404, 50, 0): (104, 0), (404, 50, 20): (80, 2)}


def test_traces_carry_the_gradient_rows_newton_read():
    # every vertex has its Newton projection's gradient row, and tangents
    # formed from the rows are those of a fresh evaluation at the
    # vertices, up to the last bits of the evaluation's batch
    for (seed, n, i), counts in CARRIED.items():
        sample = sample_rational_pair if seed == 202 else sample_real_kostlan
        t = trace(sample(n, trial_stream(seed, n, i)))
        assert t.grads.shape == (len(t.vertices), t.fieldobj.grad_width)
        assert np.isfinite(t.grads).all()
        carried = t.fieldobj.tangents(t.vertices, t.grads)
        fresh = t.fieldobj.tangents(t.vertices)
        assert np.max(np.abs(carried - fresh)) <= 1e-12
        assert np.count_nonzero((carried == fresh).all(axis=1)) >= 0.99 * len(carried)
        assert meridian_stats(t, NORTH)[:2] == counts


def test_bridged_trace_resolution():
    for i, nu in BRIDGED.items():
        rp = sample_rational_pair(200, trial_stream(202, 200, i))
        assert trace(rp).grid_resolution == nu


NORTH = (0.0, 0.0, 1.0)


def _loops_within(t, radius):
    """The open loops of t whose vertices all lie within radius of NORTH."""
    return [c[:-1] for c in t.components
            if np.arccos(np.clip(c[:, 2], -1.0, 1.0)).max() <= radius]


def test_stubborn_segment_retries_stop_at_the_resolution_cap(monkeypatch):
    tried = []

    def stubborn(fieldobj, nus, cap):
        tried.extend(nus)
        raise _StubbornSegment

    monkeypatch.setattr(tracer, "_trace_grids", stubborn)
    for nu, want in ((78, [78, 156, 312]), (384, [384, 768]), (768, [768]),
                     (1000, [1000])):
        tried.clear()
        with pytest.raises(DegenerateLemniscate):
            trace(unit_circle_pair(), TraceOptions(nu))
        assert tried == want


def _identical(a, b):
    """Whether traces a and b are the same bits on the same grid."""
    assert a.grid is b.grid and a.fieldobj is b.fieldobj
    _same_trace(a, b)
    assert a.grads.tobytes() == b.grads.tobytes()
    assert a.crossings.tobytes() == b.crossings.tobytes()
    assert [e.tobytes() for e in a.loop_edges] == [e.tobytes() for e in b.loop_edges]


def test_one_level_is_the_trace():
    local = sample_rational_pair(100, RandomStream(505).substream(100).substream(0))
    for curve, c in ((sample_rational_pair(25, trial_stream(101, 25, 0)), None),
                     (sample_real_kostlan(50, trial_stream(404, 50, 0)), None),
                     (local, _local_cap(3))):
        fld = as_field(curve)
        (t,) = tracer.trace_levels(fld, (None,), c)
        assert len(t.sizes) >= 1
        _identical(t, trace(fld, None, c))


def test_two_levels_agree_with_two_traces():
    # the local stage's trials at n=100: each level of a (nu, 2nu) trace
    # against its own trace, up to the last bits of the shared refinement
    n, stream = 100, RandomStream(505).substream(100)
    nu = default_options(n).grid_resolution
    levels = (TraceOptions(nu), TraceOptions(2 * nu))
    for rho in (3.0, 7.0):
        cap, inner = local_disk(n, rho)
        loops = 0
        for i in range(100):
            fld = as_field(sample_rational_pair(n, stream.substream(i)))
            for a, b in zip(tracer.trace_levels(fld, levels, cap),
                            [trace(fld, o, cap) for o in levels], strict=True):
                assert a.grid is b.grid, (rho, i)
                for name in ("sizes", "vertex_signs"):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), (rho, i)
                assert all(np.array_equal(x, y) for x, y in zip(
                    a.loop_edges, b.loop_edges, strict=True)), (rho, i)
                assert np.abs(a.vertices - b.vertices).max(initial=0.0) < 1e-12, (rho, i)
                trees = [_winding_tree([L[:, :2] for L in _loops_within(t, inner)])
                         for t in (a, b)]
                assert trees[0] == trees[1], (rho, i)
                loops += len(a.sizes)
        assert loops >= 50


def test_close_strands_trace_every_level_alone():
    # trials 366 and 516 of the local stage's stream meet close strands at
    # nu=64 on the rho=3 cap: both levels are then the one-level traces
    n, stream = 100, RandomStream(505).substream(100)
    cap = local_disk(n, 3.0)[0]
    levels = (TraceOptions(64), TraceOptions(128))
    for i in (366, 516):
        fld = as_field(sample_rational_pair(n, stream.substream(i)))
        together = tracer.trace_levels(fld, levels, cap)
        assert [t.grid_resolution for t in together] == [128, 128]
        for a, b in zip(together, [trace(fld, o, cap) for o in levels], strict=True):
            _identical(a, b)


def test_select_keeps_the_chosen_loops_on_the_same_grid():
    t = trace(sample_rational_pair(20, RandomStream(3)))
    keep = np.arange(len(t.sizes)) % 2 == 0
    s = t.select(keep)
    assert len(t.sizes) >= 3 and len(s.sizes) == keep.sum()
    for a, b in zip(s.components, [c for c, k in zip(t.components, keep) if k], strict=True):
        assert np.array_equal(a, b)
    on = np.repeat(keep, t.sizes)
    assert np.array_equal(s.grads, t.grads[on]) and np.array_equal(s.lengths, t.lengths[keep])
    assert all(np.array_equal(a, b) for a, b in zip(
        s.loop_edges, [e for e, k in zip(t.loop_edges, keep) if k], strict=True))
    assert s.vertex_signs is t.vertex_signs and s.fieldobj is t.fieldobj
    assert s.grid is t.grid


def _assert_carries_its_crossings(t):
    e = t.grid.edges
    want = np.flatnonzero(t.vertex_signs[e[:, 0]] != t.vertex_signs[e[:, 1]])
    assert t.crossings.dtype == np.int64 and np.array_equal(t.crossings, want)


def test_traces_carry_their_crossings():
    # every sign-change edge of the trace's grid, ascending: on the whole
    # sphere its loops' edges, on a cap also the rim arcs'
    g = trace(sample_rational_pair(25, trial_stream(101, 25, 0)))
    _assert_carries_its_crossings(g)
    assert np.array_equal(g.crossings, np.sort(np.concatenate(g.loop_edges)))
    _assert_carries_its_crossings(trace(sample_real_kostlan(50, trial_stream(404, 50, 0))))
    # the local stage's rho=7 caps at n=100: seed 606's trial 1 has rim
    # arcs beside its loops at both levels, trial 0 keeps no loop at nu
    n = 100
    nu, cap = default_options(n).grid_resolution, local_disk(n, 7.0)[0]
    fld = as_field(sample_rational_pair(n, RandomStream(606).substream(1)))
    for t in tracer.trace_levels(fld, (TraceOptions(nu), TraceOptions(2 * nu)), cap):
        _assert_carries_its_crossings(t)
        assert len(t.crossings) > sum(len(c) for c in t.loop_edges) > 0
    t = trace(sample_rational_pair(n, RandomStream(606).substream(0)), cap=cap)
    _assert_carries_its_crossings(t)
    assert len(t.sizes) == 0 and len(t.crossings) > 0
    # select keeps them all: a dropped loop's crossings are open
    assert g.select(np.arange(len(g.sizes)) != 0).crossings is g.crossings


def test_consumers_read_the_grid_the_trace_carries(monkeypatch):
    # a trace holds the grid its field was evaluated on; with the grid
    # caches emptied after tracing, the tangent counter, the flood fill and
    # the rooting build no grid
    evaluated = []
    values = PairField.values

    def spy(self, pts, *args, **kwargs):
        evaluated.append(pts)
        return values(self, pts, *args, **kwargs)

    monkeypatch.setattr(PairField, "values", spy)
    g = trace(sample_rational_pair(25, trial_stream(101, 25, 0)))
    c = trace(sample_rational_pair(100, RandomStream(505).substream(100).substream(0)),
              cap=(NORTH, 0.5))
    assert g.grid is icosphere(g.grid_resolution)
    assert c.grid is cap_grid(c.grid_resolution, NORTH, 0.5)
    assert c.grid.n_vertices < g.grid.n_vertices == 10 * g.grid_resolution ** 2 + 2
    for t in (g, c):
        assert any(pts is t.grid.verts for pts in evaluated)
    icosphere.cache_clear()
    cap_grid.cache_clear()
    assert meridian_stats(g, NORTH)[0] > 0
    tree = nesting_tree(g)
    assert rooted_canonical_form(tree, (0.6, 0.0, 0.8)).n_nodes == len(g.sizes) + 1
    assert nesting_tree(c).n_faces == len(c.sizes) + 1 >= 2
    assert icosphere.cache_info().misses == 0
    assert cap_grid.cache_info().misses == 0


def test_cap_of_radius_pi_is_the_global_trace():
    rp = sample_rational_pair(50, RandomStream(7))
    g, c = trace(rp), trace(rp, cap=(NORTH, math.pi))
    assert c.grid is cap_grid(64, NORTH, math.pi) and g.grid is icosphere(64)
    _same_trace(g, c)
    assert all(np.array_equal(a, b) for a, b in zip(g.loop_edges, c.loop_edges, strict=True))


def test_cap_loops_are_the_global_loops_in_the_disk():
    # the local stage's trials at n=100, rho=3: a cap one longest grid edge
    # wider than the disk holds every grid triangle of a loop in the disk
    n, radius = 100, 3.0 / 10.0
    cap = local_disk(n, 3.0)[0]
    stream = RandomStream(505).substream(n)
    found = 0
    for i in range(40):
        rp = sample_rational_pair(n, stream.substream(i))
        g, c = _loops_within(trace(rp), radius), _loops_within(trace(rp, cap=cap), radius)
        assert [len(L) for L in g] == [len(L) for L in c], i
        for a, b in zip(g, c):
            assert np.abs(a - b).max() < 1e-12, i
        assert _winding_tree([L[:, :2] for L in g]) == _winding_tree([L[:, :2] for L in c])
        found += len(g)
    assert found >= 10


def test_cap_trace_returns_no_open_arc():
    rp = sample_rational_pair(100, RandomStream(505).substream(100).substream(0))
    t = trace(rp, cap=(NORTH, 0.5))
    grid = t.grid
    pos = t.vertex_signs
    assert len(pos) == grid.n_vertices < icosphere(t.grid_resolution).n_vertices
    cross = pos[grid.edges[:, 0]] != pos[grid.edges[:, 1]]
    split = grid.tri_edges[cross[grid.tri_edges].sum(axis=1) == 2]
    kept = np.concatenate(t.loop_edges)
    # the rim cut some arcs, and none of their crossings was kept: every
    # kept crossing lies on two split triangles of the cap
    assert len(t.sizes) >= 1 and len(kept) < cross.sum()
    assert (np.bincount(split.ravel(), minlength=len(cross))[kept] == 2).all()
    # each loop closes within the densified arc-step
    last = np.cumsum(t.sizes) - 1
    gap = spherical_distance_many(t.vertices[last], t.vertices[last - t.sizes + 1])
    assert (gap <= 1.9 * _ARC_STEP * grid.mean_edge_length).all()


def test_triangles_cross_on_no_edge_or_two():
    # the parity the tracer pairs crossings by: whole-sphere traces at
    # n=25 and n=200, and the local stage's rho=3 cap at n=100
    for rp, c in ((sample_rational_pair(25, trial_stream(101, 25, 0)), None),
                  (sample_rational_pair(200, trial_stream(202, 200, 0)), None),
                  (sample_rational_pair(100, RandomStream(505).substream(100).substream(0)),
                   _local_cap(3))):
        t = trace(rp, cap=c)
        grid = t.grid
        pos = t.vertex_signs
        cross = pos[grid.edges[:, 0]] != pos[grid.edges[:, 1]]
        count = np.bincount(cross[grid.tri_edges].sum(axis=1), minlength=4)
        assert count[0] > 0 and count[2] > 0 and count[1] == count[3] == 0


def test_cap_grid_selects_the_rotated_grid():
    # the local stage's caps at n=100 (rho = 3, 4 and 7, one longest edge
    # wider), at the default grid and twice it: the cap's vertices are the
    # grid's own, selected by their distance to the centre alone
    nu = default_options(100).grid_resolution
    for rho, k in itertools.product((3.0, 4.0, 7.0), (1, 2)):
        radius = _local_cap(rho)[1]
        verts = icosphere(k * nu).verts
        inside = np.clip(verts @ np.array(NORTH), -1.0, 1.0) >= math.cos(radius)
        assert np.array_equal(cap_grid(k * nu, NORTH, radius).verts, verts[inside])


def _same_trace(a, b):
    for name in ("vertices", "sizes", "lengths", "vertex_signs"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _local_cap(rho, centre=NORTH):
    """The local stage's cap of rho at n=100, about centre."""
    return (centre, local_disk(100, rho)[0][1])


def test_kept_plan_changes_no_bit():
    # a trace with a warm plan against one that builds it: the global
    # length n=25 grid, the local stage's rho=3 cap at n=100, its rho=7
    # cap at 2nu (20,675 vertices: one chart, three chunks), that cap
    # centred on the equator (both charts) and the kostlan-compare n=50
    # grid; the grid values on a cap's tabled plan are the bits of an
    # evaluation without one
    local = sample_rational_pair(100, RandomStream(505).substream(100).substream(0))
    fine = TraceOptions(2 * default_options(100).grid_resolution)
    for rp, opts, c in ((sample_rational_pair(25, trial_stream(101, 25, 0)), None, None),
                        (local, None, _local_cap(3)),
                        (local, fine, _local_cap(7)),
                        (local, fine, _local_cap(7, (1.0, 0.0, 0.0))),
                        (sample_real_kostlan(50, trial_stream(404, 50, 0)), None, None)):
        tracer._kept_plan.cache_clear()
        cold = trace(rp, opts, c)
        hits = tracer._kept_plan.cache_info().hits
        warm = trace(rp, opts, c)
        assert tracer._kept_plan.cache_info().hits == hits + 1
        assert len(cold.sizes) >= 1
        _same_trace(cold, warm)
        if c is not None:
            fld, verts = warm.fieldobj, warm.grid.verts
            plan = tracer._kept_plan(PairField, 100, warm.grid_resolution, c)
            for scale in (False, True):
                assert (np.array(fld.values(verts, plan, scale)).tobytes()
                        == np.array(fld.values(verts, None, scale)).tobytes())


def test_cap_plans_keep_the_tables():
    # a cap's plan holds, per chart, the factor exp(2n log|den|) and the
    # baby and giant steps of each _CHUNK slice; a whole-sphere plan holds
    # pair_charts' data alone
    n, nu = 100, default_options(100).grid_resolution
    b, nb = 21, 5  # _block_shape(100)
    whole = tracer._kept_plan(PairField, n, nu, None)
    assert [len(chart) for chart in whole] == [3, 3]
    rp = sample_rational_pair(n, RandomStream(505).substream(n).substream(0))
    for centre in (NORTH, (1.0, 0.0, 0.0)):
        trace(rp, TraceOptions(2 * nu), _local_cap(7, centre))
        plan = tracer._kept_plan(PairField, n, 2 * nu, _local_cap(7, centre))
        assert [len(chart) for chart in plan] == [5, 5]
        counts = [len(chart[1]) for chart in plan]
        if centre == NORTH:
            assert counts == [0, 20675]  # one chart, three chunks
        else:
            assert min(counts) > _CHUNK  # both charts, two chunks or more each
        for mask, z, logden, amp, powers in plan:
            assert np.array_equal(amp, np.exp(2.0 * n * logden))
            assert len(powers) == -(-len(z) // _CHUNK)
            for k, (Z, G) in enumerate(powers):
                zc = z[k * _CHUNK : (k + 1) * _CHUNK]
                assert Z.shape == (b + 1, len(zc)) and G.shape == (nb, len(zc))
                assert np.array_equal(Z[1], zc) and np.array_equal(G[1], Z[b])


def test_real_plans_of_two_degrees_on_one_grid():
    # n=50 and n=60 both trace the nu=64 grid, but their power tables
    # differ in width: each degree keeps its own plan
    polys = [sample_real_kostlan(n, trial_stream(404, n, 0)) for n in (50, 60)]
    assert {default_options(p.degree).grid_resolution for p in polys} == {64}
    tracer._kept_plan.cache_clear()
    cold = [trace(p) for p in polys]
    assert tracer._kept_plan.cache_info().currsize == 2
    for p, c in zip(polys, cold):
        assert len(c.sizes) >= 1
        _same_trace(c, trace(p))
    assert tracer._kept_plan.cache_info().hits == 2


def test_other_resolutions_keep_no_plan():
    # the constructor's explicit nu, and a retry on a doubled grid, use
    # their plan once and leave the kept ones as they were; so does a real
    # trace at a configured grid
    rp = sample_rational_pair(25, trial_stream(101, 25, 0))
    trace(rp)
    before = tracer._kept_plan.cache_info()
    t = trace(rp, TraceOptions(96))
    assert t.grid_resolution == 96 and len(t.sizes) >= 1
    assert tracer._kept_plan.cache_info() == before
    t = trace(sample_real_kostlan(50, trial_stream(404, 50, 0)), TraceOptions(96))
    assert t.grid_resolution == 96 and len(t.sizes) >= 1
    assert tracer._kept_plan.cache_info() == before
    tracer._kept_plan.cache_clear()
    # retried at 2nu; only the default nu=78 grid is kept
    assert trace(sample_rational_pair(200, trial_stream(202, 200, 18))).grid_resolution == 156
    assert tracer._kept_plan.cache_info().currsize == 1


def _ray_solve_about_zero(p, q, rays=32):
    """ray_solve of |p| = |q| from z = 0, on chart radii 0.01 to 1."""
    rp = RationalPair(KostlanPolynomial(len(p) - 1, np.array(p, complex)),
                      KostlanPolynomial(len(q) - 1, np.array(q, complex)))
    radii = 2.0 * np.arctan(np.geomspace(0.01, 1.0, 40))
    return ray_solve(PairField(rp), SOUTH, E1, E2, radii[None], rays)


def test_ray_solve_circle_about_its_centre():
    # |z| = rho: one point per ray on the circle, in ray order
    rho = 0.1
    X, _, ok, F = _ray_solve_about_zero([0.0, 1.0], [rho, 0.0])
    assert ok.tolist() == [True] and X.shape == (32, 3) and F.shape == (1, 32, 41)
    assert np.all(F[0, :, 0] < 0)  # |p| < |q| at the centre
    zh, wh = homogeneous_coords(X)
    z = zh / wh
    assert np.max(np.abs(np.abs(z) - rho)) <= 1e-9
    assert np.allclose(np.angle(z * np.exp(-2j * np.pi * np.arange(32) / 32)), 0.0,
                       atol=1e-9)


def test_ray_solve_refuses_two_ovals():
    # |z^2 - a^2| = rho < a^2: two ovals about +-a, so the rays towards
    # them cross the curve twice and the others not at all
    a2, rho = 0.25, 0.1
    X, _, ok, _ = _ray_solve_about_zero([-a2, 0.0, 1.0], [rho, 0.0, 0.0])
    assert ok.tolist() == [False] and X.shape == (0, 3)

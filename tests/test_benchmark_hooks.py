"""The benchmark's tracer (perfbench/spans.py) wraps lemnilab functions by
module and name from outside the package; a rename or a call that bypasses
the module-level function would silently drop a layer from its report."""

import os
import sys

import lemnilab.constructor  # noqa: F401  (loads every traced module)
import lemnilab.experiments  # noqa: F401
from lemnilab.ensemble import RandomStream, sample_rational_pair, sample_real_kostlan
from lemnilab.experiments import trial_stream
from lemnilab.geomstats import meridian_stats
from lemnilab.topology import Arrangement
from lemnilab.tracer import default_options, trace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import spans  # noqa: E402

sys.path.pop(0)


def test_traced_targets_exist():
    for home, attr, _, _ in spans.full_targets():
        assert callable(getattr(sys.modules[home], attr)), (home, attr)


def test_traced_layers_see_the_pipeline():
    rp = sample_rational_pair(8, RandomStream(3))
    rec = spans.Recorder()
    with rec.installed(spans.full_targets()):
        from lemnilab import geomstats, tracer

        t = tracer.trace(rp)
        geomstats.meridian_stats(t, (0.0, 0.0, 1.0))
    names = [s[0] for s in rec.spans]
    parents = {(s[0], rec.spans[s[3]][0]) for s in rec.spans if s[3] >= 0}
    assert "tracer.trace" in names and "geomstats.meridian_stats" in names
    # the trace span counts what the trace itself holds
    info = rec.spans[names.index("tracer.trace")][4]
    assert info["vertices"] == t.sizes.sum() > 0
    assert info["crossings"] == sum(len(e) for e in t.loop_edges) > 0
    assert ("icogrid.icosphere", "tracer.trace") in parents
    assert ("field.eval_f_many", "tracer.trace") in parents
    assert ("field.newton_correct", "tracer.trace") in parents
    assert ("field.curve_tangents", "geomstats.meridian_stats") in parents
    # the pair's FLOP and byte counts read the degree and the point count
    # from the field object and the points passed
    evals = [s[4] for s in rec.spans if s[0] == "field.eval_f_many"]
    assert all(info["degree"] == 8 for info in evals)
    assert evals[0]["points"] == 10 * default_options(8).grid_resolution ** 2 + 2
    # the recorder restores the originals on exit
    assert tracer.trace is trace and geomstats.meridian_stats is meridian_stats


def test_real_layers_are_traced():
    # kostlan-compare's trace: the grid pass hands eval_real_many the kept
    # chart data by keyword, and the span still counts its points
    poly = sample_real_kostlan(50, trial_stream(404, 50, 0))
    rec = spans.Recorder()
    with rec.installed(spans.full_targets()):
        from lemnilab import tracer

        tracer.trace(poly)
    parents = [(s[0], rec.spans[s[3]][0]) for s in rec.spans if s[3] >= 0]
    assert ("field.eval_real_many", "tracer.trace") in parents
    assert ("field.real_newton_correct", "tracer.trace") in parents
    grid_pass = rec.spans[[s[0] for s in rec.spans].index("field.eval_real_many")]
    assert rec.spans[grid_pass[3]][0] == "tracer.trace"
    assert grid_pass[4]["points"] == 10 * default_options(50).grid_resolution ** 2 + 2
    assert all(s[4]["degree"] == 50 for s in rec.spans if s[0] == "field.eval_real_many")


def test_bridge_walk_is_traced():
    # seed-202 n=200 trial 26 bridges a segment of its trace by a tangent
    # walk; the benchmark counts the walk's steps from the curve_tangents
    # calls made under trace
    rp = sample_rational_pair(200, trial_stream(202, 200, 26))
    rec = spans.Recorder()
    with rec.installed(spans.full_targets()):
        from lemnilab import tracer

        tracer.trace(rp)
    parents = {(s[0], rec.spans[s[3]][0]) for s in rec.spans if s[3] >= 0}
    assert ("field.curve_tangents", "tracer.trace") in parents
    assert ("field.newton_correct", "tracer.trace") in parents


def test_constructor_layers_are_traced():
    # construct-6 reads the constructor's traces, its persistence Newton
    # steps (from the second circle on) and the certificate's chart jets
    # through the module-level names the recorder rebinds
    rec = spans.Recorder()
    with rec.installed(spans.full_targets()):
        from lemnilab import constructor

        c = constructor.realize(Arrangement("(()())"))
        assert constructor.certify_nondegenerate(c)
    parents = {(s[0], rec.spans[s[3]][0]) for s in rec.spans if s[3] >= 0}
    assert ("tracer.trace", "constructor.realize") in parents
    assert ("field.newton_correct", "constructor.realize") in parents
    assert ("field.chart_jets", "constructor.certify_nondegenerate") in parents
    cert = [s[4] for s in rec.spans if s[0] == "field.chart_jets"][-1]
    assert cert == {"points": len(c.tree.trace.vertices), "degree": c.degree}

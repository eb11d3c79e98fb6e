"""Spans around lemnilab's public functions, patched in from outside.

The package is not instrumented itself.  `Recorder.installed` wraps each
target function and rebinds the wrapper in every lemnilab module that
imported the function by name (tracer, geomstats, topology, experiments and
constructor each bind `trace`, `eval_f_many`, `newton_correct` and so on at
import time), and restores the originals on exit.

A span is ``[name, start, end, parent, info]``: perf_counter seconds, the
index of the enclosing span (-1 at the top) and a dict of counts read from
the call's arguments and return value.  Spans stay in memory; the worker
writes them out when the run ends.  A span's self time is its duration
minus the durations of its direct children.

The unit span of a workload also times a fixed host-speed reference at its
start (`host_ref`), by which the worker scales each unit's time.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


@functools.lru_cache(maxsize=None)
def _probe_matrices(size):
    rng = np.random.default_rng(0)
    return rng.standard_normal((size, size)), rng.standard_normal((size, size))


def host_probe(size, reps, loop):
    """Seconds of a fixed size x size float64 GEMM made reps times, and of a
    fixed pure-Python loop of `loop` steps.  Neither touches lemnilab, so
    they read the host's speed alone."""
    a, b = _probe_matrices(size)
    t = perf_counter()
    for _ in range(reps):
        a @ b
    gemm = perf_counter() - t
    t = perf_counter()
    acc = 0
    for i in range(loop):
        acc += i * i
    return gemm, perf_counter() - t


# The per-unit reference: about 7 ms at full speed on the 2-core host the
# benchmark was set up on.  That host alternates, every few seconds,
# between full speed and about 1.5x slower, and the reference slows with
# the trials.
REF_SIZES = (300, 4, 60_000)
REF_NOMINAL_S = 0.007


def host_ref() -> float:
    return sum(host_probe(*REF_SIZES))


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, info, ref):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, {}]
            if ref:
                span[4]["ref"] = host_ref()
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[4]["raised"] = 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info is not None:
                span[4].update(info(args, kwargs, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets, ref_span=None):
        """Patch (home module, attribute, span name, info) targets whose home
        module is loaded into every loaded lemnilab module binding them.
        Spans named ref_span time host_ref at their start, into info["ref"]."""
        mods = [m for k, m in list(sys.modules.items()) if k.startswith("lemnilab.")]
        patches = []
        try:
            for home, attr, name, info in targets:
                if home not in sys.modules:
                    continue
                orig = getattr(sys.modules[home], attr)
                wrapper = self._wrap(name, orig, info, name == ref_span)
                for m in mods:
                    if m.__dict__.get(attr) is orig:
                        setattr(m, attr, wrapper)
                        patches.append((m, attr, orig))
            yield self
        finally:
            for m, attr, orig in reversed(patches):
                setattr(m, attr, orig)


# ---- counts read from arguments and return values -------------------------

def _points(args, kwargs, out):
    return {"points": len(args[1]), "degree": args[0].degree}


def _newton(args, kwargs, out):
    return {"points": len(args[1]), "stalled": int((~out[3]).sum())}


def _trace(args, kwargs, out):
    from lemnilab.tracer import default_options

    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    if opts is None:
        opts = default_options(args[0].degree)
    return {
        "doublings": round(math.log2(out.grid_resolution / opts.grid_resolution)),
        "crossings": sum(len(e) for e in out.loop_edges),
        "vertices": sum(len(c) - 1 for c in out.components),
    }


def _icosphere_info(cached):
    """Builds are the calls that add a miss to icosphere's lru_cache."""
    state = {"misses": cached.cache_info().misses}

    def info(args, kwargs, out):
        misses = cached.cache_info().misses
        built = misses > state["misses"]
        state["misses"] = misses
        return {"nu": args[0], "built": int(built)}

    return info


def full_targets():
    """Every layer boundary the traced run records."""
    # taken before any patching, so this is the lru_cache object itself
    ico = _icosphere_info(sys.modules["lemnilab.icogrid"].icosphere)
    return [
        ("lemnilab.experiments", "run", "experiments.run", None),
        ("lemnilab.experiments", "run_trial", "experiments.run_trial", None),
        ("lemnilab.ensemble", "sample_rational_pair", "ensemble.sample", None),
        ("lemnilab.ensemble", "sample_real_kostlan", "ensemble.sample", None),
        ("lemnilab.tracer", "trace", "tracer.trace", _trace),
        ("lemnilab.field", "eval_f_many", "field.eval_f_many", _points),
        ("lemnilab.field", "chart_jets", "field.chart_jets", _points),
        ("lemnilab.field", "newton_correct", "field.newton_correct", _newton),
        ("lemnilab.field", "eval_real_many", "field.eval_real_many", _points),
        ("lemnilab.field", "real_newton_correct", "field.real_newton_correct", _newton),
        ("lemnilab.field", "curve_tangents", "field.curve_tangents", None),
        ("lemnilab.field", "real_curve_tangents", "field.real_curve_tangents", None),
        ("lemnilab.geomstats", "meridian_stats", "geomstats.meridian_stats", None),
        ("lemnilab.geomstats", "great_circle_intersections",
         "geomstats.great_circle_intersections", None),
        ("lemnilab.topology", "local_arrangement_probability",
         "topology.local_arrangement_probability", None),
        ("lemnilab.topology", "nesting_tree", "topology.nesting_tree", None),
        ("lemnilab.icogrid", "icosphere", "icogrid.icosphere", ico),
        ("lemnilab.constructor", "realize", "constructor.realize", None),
        ("lemnilab.constructor", "realized_tree", "constructor.realized_tree", None),
        ("lemnilab.constructor", "certify_nondegenerate",
         "constructor.certify_nondegenerate", None),
    ]


def marker_targets(workload):
    """The few calls that delimit units of work in an untraced pass."""
    names = {workload.unit_span, workload.close_span}
    if workload.unit_parent:
        names.add(workload.unit_parent)
    return [t for t in full_targets() if t[2] in names]


def unit_times(spans, workload) -> list:
    """(seconds, opening span's info) per unit: from one unit's opening call
    to the next one's, the last closed by the return of the workload's
    closing call."""
    opens = [
        s for s in spans
        if s[0] == workload.unit_span
        and (workload.unit_parent is None
             or (s[3] >= 0 and spans[s[3]][0] == workload.unit_parent))
    ]
    ends = [s[2] for s in spans if s[0] == workload.close_span]
    if not opens or not ends:
        return []
    bounds = [s[1] for s in opens] + [ends[-1]]
    return [(b - a, s[4]) for a, b, s in zip(bounds[:-1], bounds[1:], opens)]


# ---- per-layer metrics ------------------------------------------------------

# FLOPs and bytes of the pair-field power-matrix evaluation, per point at
# degree n: the (n+1)-column complex power matrix costs n complex products
# (6 flops each) and is written once (16 bytes per entry); each complex
# matrix-vector product over it costs 8 flops per column and reads it once.
# eval_f_many runs two products (p, q); chart_jets runs four (p, p', q, q').
def _pair_flops(n, products):
    return 6 * n + 8 * products * (n + 1)


def _pair_bytes(n, products):
    return 16 * (n + 1) * (1 + products)


_PRODUCTS = {"field.eval_f_many": 2, "field.chart_jets": 4}
_NEWTONS = ("field.newton_correct", "field.real_newton_correct")
_EVALS = ("field.eval_f_many", "field.eval_real_many")

# name -> unit, in report order; values are totals divided by the number of
# units (trials, or forms on construct-6) the traced pass ran
PER_LAYER = {
    "field.eval_f_many.s": "s/trial",
    "field.eval_f_many.calls": "1/trial",
    "field.eval_f_many.points": "1/trial",
    "field.newton_correct.s": "s/trial",
    "field.newton_correct.calls": "1/trial",
    "field.newton_correct.points": "1/trial",
    "field.newton_correct.stalled": "1/trial",
    "field.pair_flop_computed": "flop/trial",
    "field.pair_bytes_computed": "B/trial",
    "field.eval_real_many.s": "s/trial",
    "field.eval_real_many.points": "1/trial",
    "field.real_newton_correct.s": "s/trial",
    "field.real_newton_correct.points": "1/trial",
    "field.real_newton_correct.stalled": "1/trial",
    "tracer.trace.s": "s/trial",
    "tracer.trace.calls": "1/trial",
    "tracer.self_s": "s/trial",
    "tracer.grid_eval_s": "s/trial",
    "tracer.crossings": "1/trial",
    "tracer.polyline_vertices": "1/trial",
    "tracer.resolution_doublings": "1/trial",
    "tracer.bisect_passes": "1/trial",
    "tracer.tangent_walk_steps": "1/trial",
    "geomstats.meridian_stats.s": "s/trial",
    "geomstats.meridian_stats.self_s": "s/trial",
    "geomstats.meridian_stats.calls": "1/trial",
    "geomstats.refine_points": "1/trial",
    "geomstats.axis_retries": "1/trial",
    "geomstats.coarse_fallbacks": "1/trial",
    "geomstats.great_circle_s": "s/trial",
    "topology.local_self_s": "s/trial",
    "topology.nesting_tree.s": "s/trial",
    "topology.nesting_tree.calls": "1/trial",
    "topology.nesting_retraces": "1/trial",
    "icogrid.builds": "1/trial",
    "icogrid.build_s": "s/trial",
    "constructor.realize.s": "s/trial",
    "constructor.verify_s": "s/trial",
    "ensemble.sample_s": "s/trial",
    "experiments.self_s": "s/trial",
}

# each fallback counter and the count it is a share of
FALLBACK_BASES = {
    "tracer.resolution_doublings": "tracer.trace.calls",
    "tracer.bisect_passes": "tracer.trace.calls",
    "field.newton_correct.stalled": "field.newton_correct.points",
    "field.real_newton_correct.stalled": "field.real_newton_correct.points",
    "geomstats.axis_retries": "experiments.trials",
    "geomstats.coarse_fallbacks": "geomstats.meridian_stats.calls",
    "tracer.tangent_walk_steps": "tracer.polyline_vertices",
    "topology.nesting_retraces": "topology.nesting_tree.calls",
}


def layer_totals(spans) -> dict:
    """Totals over one traced pass, keyed like PER_LAYER.  A span's own
    time leaves out the host-speed reference the worker times inside it."""
    raw = [s[2] - s[1] for s in spans]
    dur = [r - s[4].get("ref", 0.0) for r, s in zip(raw, spans)]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    self_s = [d - sum(raw[c] for c in children[i]) for i, d in enumerate(dur)]

    secs, selfs, calls, sums = defaultdict(float), defaultdict(float), Counter(), Counter()
    flop = byte = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        secs[name] += dur[i]
        selfs[name] += self_s[i]
        calls[name] += 1
        for k, v in info.items():
            sums[name, k] += v
        pname = spans[parent][0] if parent >= 0 else None
        if name in _PRODUCTS:
            n, m = info["degree"], info["points"]
            flop += m * _pair_flops(n, _PRODUCTS[name])
            byte += m * _pair_bytes(n, _PRODUCTS[name])
        if name in _NEWTONS and pname == "geomstats.meridian_stats":
            sums["refine_points"] += info["points"]
            if info["stalled"] and not spans[parent][4].get("raised"):
                # _component_tangents kept the coarse count for this loop
                sums["coarse_fallbacks"] += 1
        if name == "tracer.trace" and pname == "topology.nesting_tree":
            sums["nesting_retraces"] += 1
        if name == "icogrid.icosphere" and info.get("built"):
            sums["builds"] += 1
            sums["build_s"] += dur[i]
        if name == "experiments.run_trial":
            axes = sum(spans[c][0] == "geomstats.meridian_stats" for c in children[i])
            sums["axis_retries"] += max(0, axes - 1)
        if name == "tracer.trace":
            # the first field pass after each grid fetch, over all grid
            # vertices, is the grid evaluation; other value passes bisect
            nu = None
            for c in children[i]:
                cname, cinfo = spans[c][0], spans[c][4]
                if cname == "icogrid.icosphere":
                    nu = cinfo["nu"]
                elif cname in _EVALS:
                    if nu is not None and cinfo["points"] == 10 * nu * nu + 2:
                        sums["grid_eval_s"] += dur[c]
                        nu = None
                    else:
                        sums["bisect_passes"] += 1

    return {
        "field.eval_f_many.s": secs["field.eval_f_many"],
        "field.eval_f_many.calls": calls["field.eval_f_many"],
        "field.eval_f_many.points": sums["field.eval_f_many", "points"],
        "field.newton_correct.s": secs["field.newton_correct"],
        "field.newton_correct.calls": calls["field.newton_correct"],
        "field.newton_correct.points": sums["field.newton_correct", "points"],
        "field.newton_correct.stalled": sums["field.newton_correct", "stalled"],
        "field.pair_flop_computed": flop,
        "field.pair_bytes_computed": byte,
        "field.eval_real_many.s": secs["field.eval_real_many"],
        "field.eval_real_many.points": sums["field.eval_real_many", "points"],
        "field.real_newton_correct.s": secs["field.real_newton_correct"],
        "field.real_newton_correct.points": sums["field.real_newton_correct", "points"],
        "field.real_newton_correct.stalled": sums["field.real_newton_correct", "stalled"],
        "tracer.trace.s": secs["tracer.trace"],
        "tracer.trace.calls": calls["tracer.trace"],
        "tracer.self_s": selfs["tracer.trace"],
        "tracer.grid_eval_s": sums["grid_eval_s"],
        "tracer.crossings": sums["tracer.trace", "crossings"],
        "tracer.polyline_vertices": sums["tracer.trace", "vertices"],
        "tracer.resolution_doublings": sums["tracer.trace", "doublings"],
        "tracer.bisect_passes": sums["bisect_passes"],
        "tracer.tangent_walk_steps": (
            calls["field.curve_tangents"] + calls["field.real_curve_tangents"]
        ),
        "geomstats.meridian_stats.s": secs["geomstats.meridian_stats"],
        "geomstats.meridian_stats.self_s": selfs["geomstats.meridian_stats"],
        "geomstats.meridian_stats.calls": calls["geomstats.meridian_stats"],
        "geomstats.refine_points": sums["refine_points"],
        "geomstats.axis_retries": sums["axis_retries"],
        "geomstats.coarse_fallbacks": sums["coarse_fallbacks"],
        "geomstats.great_circle_s": secs["geomstats.great_circle_intersections"],
        "topology.local_self_s": selfs["topology.local_arrangement_probability"],
        "topology.nesting_tree.s": secs["topology.nesting_tree"],
        "topology.nesting_tree.calls": calls["topology.nesting_tree"],
        "topology.nesting_retraces": sums["nesting_retraces"],
        "icogrid.builds": sums["builds"],
        "icogrid.build_s": sums["build_s"],
        "constructor.realize.s": secs["constructor.realize"],
        "constructor.verify_s": (
            secs["constructor.realized_tree"] + secs["constructor.certify_nondegenerate"]
        ),
        "ensemble.sample_s": secs["ensemble.sample"],
        "experiments.self_s": selfs["experiments.run"] + selfs["experiments.run_trial"],
        "experiments.trials": calls["experiments.run_trial"],
    }


def fallbacks(totals: dict) -> dict:
    """Each fallback counter with its base and their ratio."""
    out = {}
    for name, base in FALLBACK_BASES.items():
        b = totals[base]
        out[name] = {"count": totals[name], "base": base, "base_count": b,
                     "ratio": totals[name] / b if b else None}
    return out

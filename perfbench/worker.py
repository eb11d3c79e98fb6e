"""One workload in a fresh interpreter: set-up, timed passes, gate.

Started by run.py with BLAS/OpenMP threads pinned to 1 and PYTHONPATH set
to the checkout's src/.  Set-up is measured from the parent's spawn time
through imports, the grid build and one warm-up trial.  With --setup-only
it stops there.  Otherwise it runs passes of `experiments.run` over the
workload's trial window, each into a fresh output directory, and gates
every pass.  An untraced run makes the workload's fixed number of passes
(one, or two on construct-6), wrapping only the calls that delimit trials.
Each trial also times a fixed host-speed reference, by which its time is
scaled.  A traced run makes one untraced and one traced pass over the same
window; the gap between their summed scaled trial times is the tracing
overhead.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from time import perf_counter

import gate
import spans
from workloads import LOCAL_RHO, LOCAL_TARGET, WORKLOADS


def _warm_up(w):
    """Grid build plus one trial of fixed input, whatever the seed."""
    from lemnilab import experiments
    from lemnilab.icogrid import icosphere
    from lemnilab.tracer import default_options

    if w.experiment == "construct":
        from lemnilab.constructor import certify_nondegenerate, realize, realized_tree
        from lemnilab.topology import Arrangement

        c = realize(Arrangement("(())"))
        realized_tree(c)
        certify_nondegenerate(c)
        return
    nu = default_options(w.n).grid_resolution
    icosphere(nu)
    icosphere(2 * nu)  # the grid trace falls back to when strands are close
    if w.experiment == "local-arrangement":
        from lemnilab.ensemble import RandomStream, sample_rational_pair
        from lemnilab.tracer import trace

        stream = RandomStream(w.default_seed).substream(w.n).substream(0)
        trace(sample_rational_pair(w.n, stream))
    else:
        experiments.run_trial(w.experiment, w.n, w.default_seed, 0)


def _scaled(units, last_ref):
    """Unit seconds net of the reference run at each unit's start, and the
    same scaled to reference speed by the mean of the references that
    bracket the unit."""
    refs = [info["ref"] for _, info in units] + [last_ref]
    net = [dt - info["ref"] for dt, info in units]
    scaled = [x * 2.0 * spans.REF_NOMINAL_S / (a + b)
              for x, a, b in zip(net, refs[:-1], refs[1:])]
    return net, scaled


def _run_pass(w, seed, window, root, traced):
    from lemnilab import experiments

    outdir = tempfile.mkdtemp(prefix="pass-", dir=os.path.join(root, "perfbench", "out"))
    try:
        cfg = experiments.ExperimentConfig(
            w.experiment, [w.n], trials=window, seed=seed, workers=1,
            rho=LOCAL_RHO if w.experiment == "local-arrangement" else None,
            target=LOCAL_TARGET if w.experiment == "local-arrangement" else None,
            output_dir=outdir,
        )
        rec = spans.Recorder()
        targets = spans.full_targets() if traced else spans.marker_targets(w)
        refused = None
        t0 = perf_counter()
        with rec.installed(targets, ref_span=w.unit_span):
            try:
                experiments.run(cfg)
            except RuntimeError as e:
                # run() refuses a window whose rejection rate tops 0.1%
                # after writing its rows: a gate error, like a flagged row
                if "rejection rate" not in str(e):
                    raise
                refused = "experiments.run refused the window: %s" % e
        wall = perf_counter() - t0
        last_ref = spans.host_ref()
        result = gate.check(w, seed, window, outdir, root)
        if refused:
            result["errors"].append(refused)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    units = spans.unit_times(rec.spans, w)
    if len(units) != window:
        result["errors"].append("%d units timed, expected %d" % (len(units), window))
    net, scaled = _scaled(units, last_ref)
    return {"wall": wall, "units": net, "scaled": scaled, "spans": rec.spans, **result}


def tail(values):
    """The sample with 10 samples beyond it, or the median when that one
    lies below the median.  Returns (value, percentile)."""
    s = sorted(values)
    n = len(s)
    median = statistics.median(s)
    if n - 10 < (n + 1) / 2:
        return median, 50.0
    return max(s[n - 11], median), 100.0 * (n - 10) / n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="pipeline seed")
    ap.add_argument("--window", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    import lemnilab.experiments

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(lemnilab.experiments.__file__).startswith(src + os.sep):
        sys.exit("lemnilab was imported from outside %s" % src)
    _warm_up(w)
    setup_s = time.time() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if args.trace:
        modes = (False, True)
    else:
        modes = (False,) * w.passes
    passes = [_run_pass(w, args.seed, args.window, args.root, m) for m in modes]

    errors = [e for p in passes for e in p["errors"]]
    if len({p["digest"] for p in passes}) != 1:
        errors.append("passes of one window produced different outputs")
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(len(p["units"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": errors,
        "digest": passes[0]["digest"],
        "pass_walls": [p["wall"] for p in passes],
        "unit_s": [p["units"] for p in passes],
    }
    if args.trace:
        plain, traced = passes
        totals = spans.layer_totals(traced["spans"])
        n = len(traced["units"]) or 1
        out["per_layer"] = {k: totals[k] / n for k in spans.PER_LAYER}
        out["tracing_overhead_frac"] = sum(traced["scaled"]) / sum(plain["scaled"]) - 1.0
        out["traced_units"] = len(traced["units"])
        out["fallbacks"] = spans.fallbacks(totals)
        out["spans"] = traced["spans"]
    else:
        units = [u for p in passes for u in p["units"]]
        scaled = [u for p in passes for u in p["scaled"]]
        value, pct = tail(scaled)
        out.update(
            trials_per_s=len(scaled) / sum(scaled),
            raw_trials_per_s=len(units) / sum(units),
            raw_trial_s_p50=statistics.median(units),
            raw_trial_s_tail=tail(units)[0],
            scaled_unit_s=[p["scaled"] for p in passes],
            trial_s_p50=statistics.median(scaled),
            trial_s_tail=value,
            tail_percentile=pct,
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()

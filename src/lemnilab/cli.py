"""Command line front end.

Subcommands: run, render, compare, construct, kacrice.  A JSON config
file can seed any run; explicit flags override config fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import kacrice
from .ensemble import sample_rational_pair
from .experiments import (ExperimentConfig, RunRefused, compare_table, render_svg, run,
                          trial_stream)
from .topology import Arrangement
from .tracer import trace


def _add_run(sub):
    p = sub.add_parser("run", help="run an experiment over a degree grid")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--experiment")
    p.add_argument("--n", type=int, nargs="+", dest="n_values")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--target")
    p.add_argument("--grid-resolution", type=int, dest="grid_resolution")
    p.add_argument("--out", dest="output_dir")
    p.add_argument("--workers", type=int)
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when any |z| >= 3 against theory")
    p.set_defaults(func=_cmd_run)


def _cmd_run(args) -> int:
    # each config field's flag has the field's name as its dest
    cfg = ExperimentConfig.from_json(
        args.config, **{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    try:
        rows, refused = run(cfg), None
    except RunRefused as e:
        rows, refused = e.rows, e
    bad = 0
    for r in rows:
        print(" ".join("%s=%s" % kv for kv in r.items()))
        z = r.get("z_score")
        if args.check and isinstance(z, float) and not math.isnan(z) and abs(z) >= 3:
            bad += 1
    if refused is not None:
        raise refused
    return 1 if bad else 0


def _add_render(sub):
    p = sub.add_parser("render", help="trace one random sample and write an SVG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--projection", type=float, nargs=3, default=(0.0, 0.0, 1.0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)


def _cmd_render(args) -> int:
    rp = sample_rational_pair(args.n, trial_stream(args.seed, args.n, args.trial))
    t = trace(rp)
    render_svg(t, np.asarray(args.projection), args.out)
    print("%s: %d components" % (args.out, len(t.sizes)))
    return 0


def _add_compare(sub):
    p = sub.add_parser("compare", help="emit the lemniscate vs Kostlan table")
    p.add_argument("--out", default="results")
    p.set_defaults(func=_cmd_compare)


def _cmd_compare(args) -> int:
    for r in compare_table(args.out):
        print(" ".join("%s=%s" % kv for kv in r.items()))
    return 0


def _add_construct(sub):
    p = sub.add_parser("construct", help="realize a circle arrangement")
    p.add_argument("spec", help="rooted tree as nested parentheses, e.g. ((()))")
    p.add_argument("--out", help="write the constructed pair as JSON")
    p.set_defaults(func=_cmd_construct)


def _cmd_construct(args) -> int:
    from .constructor import EpsilonExhausted, certify_nondegenerate, realize, realized_tree

    try:
        spec = Arrangement(args.spec)
        c = realize(spec)
    except (ValueError, EpsilonExhausted) as e:
        print("%s: %s" % (args.spec, e), file=sys.stderr)
        return 1
    back = realized_tree(c).canonical
    ok = back == spec.canonical and certify_nondegenerate(c)
    print("degree=%d realized=%s roundtrip=%s epsilons=%s"
          % (c.degree, back, ok, ["%.4g" % e for e in c.epsilons]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(c.to_json(), fh, indent=1)
    return 0 if ok else 1


def _add_kacrice(sub):
    p = sub.add_parser("kacrice", help="analytic verifications and constants")
    ps = p.add_subparsers(dest="kcmd", required=True)
    v = ps.add_parser("verify", help="residue chain vs quadrature oracles")
    v.add_argument("--n", type=int, nargs="+", default=[5])
    v.set_defaults(func=_cmd_kacrice_verify)
    c = ps.add_parser("constants", help="print the closed-form constants")
    c.add_argument("--n", type=int, nargs="+", default=[25, 50, 100, 200])
    c.set_defaults(func=_cmd_kacrice_constants)


def _cmd_kacrice_verify(args) -> int:
    worst = 0.0
    for n in args.n:
        rep = kacrice.verify_chain(n)
        for k, v in rep.items():
            print("n=%d chain.%s = %.3g" % (n, k, v))
        krep = kacrice.verify_kostlan(n)
        for k, v in krep.items():
            print("n=%d kostlan.%s = %.3g" % (n, k, v))
        worst = max(worst, rep["s_step"], rep["u_h1_step"],
                    rep["endpoint_rel_err"])
    return 0 if worst < 1e-6 else 1


def _cmd_kacrice_constants(args) -> int:
    print("tangent asymptotic constant (32-sqrt2)/28 = %.10f"
          % kacrice.tangent_asymptotic_constant())
    print("component upper constant (32-sqrt2)/56 = %.10f"
          % kacrice.component_upper_constant())
    print("tangent limit constant 2-sqrt2/2 = %.10f"
          % kacrice.tangent_limit_constant())
    for n in args.n:
        print("n=%d  E|Gamma|=%.6f  C(n)=%.6f  E nu (exact)=%.6f  "
              "E nu_K=%.6f  E nu_n=%.6f"
              % (n, kacrice.expected_length(n), kacrice.length_constant(n),
                 kacrice.exact_meridian_expectation(n),
                 kacrice.kostlan_meridian_expectation(n),
                 kacrice.meridian_expectation(n)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lemnilab")
    sub = ap.add_subparsers(dest="cmd", required=True)
    _add_run(sub)
    _add_render(sub)
    _add_compare(sub)
    _add_construct(sub)
    _add_kacrice(sub)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

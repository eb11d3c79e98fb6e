"""Experiment orchestration: configs, per-trial streams, CSV/JSON output.

Every trial draws from its own counter-based stream keyed by (seed, n,
trial), so results are reproducible and independent of worker count or
completion order.  Theory columns always come from the analytic module,
never from inline literals.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import kacrice
from .ensemble import (
    RandomStream,
    sample_rational_pair,
    sample_real_kostlan,
)
from .field import as_field
from .geomstats import (
    AxisTooClose,
    TangencySuspected,
    great_circle_intersections,
    meridian_stats,
)
from .sphere import random_great_circle, unit_vector
from .topology import Arrangement, local_arrangement_probability
from .tracer import DegenerateLemniscate, TraceOptions, trace


class ConfigError(ValueError):
    pass


class MissingResults(FileNotFoundError):
    pass


_EXPERIMENTS = (
    "length",
    "tangents",
    "components",
    "local-arrangement",
    "kostlan-compare",
    "construct",
)

# frozen trial-row schema; summary files derive from these
TRIAL_COLUMNS = (
    "n",
    "trial",
    "seed",
    "length",
    "nu",
    "b0",
    "loops",
    "crossings",
    "flags",
)

_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass
class ExperimentConfig:
    experiment: str
    n_values: list
    trials: int = 100
    seed: int = 1
    rho: float | None = None
    target: str | None = None
    grid_resolution: int | None = None
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError("unknown experiment %r" % (self.experiment,))
        if not self.n_values:
            raise ConfigError("n_values must be nonempty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.experiment == "local-arrangement":
            if self.rho is None or self.rho <= 0:
                raise ConfigError("local-arrangement needs rho > 0")
            if not self.target:
                raise ConfigError("local-arrangement needs a target form")
        serial = self.experiment in ("local-arrangement", "construct")
        if serial and (self.grid_resolution is not None or self.workers != 1):
            # both run serially, each trace at a grid of its own choosing
            raise ConfigError("%s takes neither grid_resolution nor workers"
                              % self.experiment)

    @staticmethod
    def from_json(path: str, **overrides) -> "ExperimentConfig":
        with open(path) as fh:
            d = json.load(fh)
        d.update({k: v for k, v in overrides.items() if v is not None})
        return ExperimentConfig(**d)


@dataclass
class ResultsTable:
    rows: list
    metadata: dict = field(default_factory=dict)

    def write_csv(self, path: str):
        if not self.rows:
            raise ValueError("no rows to write")
        cols = list(self.rows[0].keys())
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
            w.writeheader()
            for r in self.rows:
                w.writerow({k: _fmt(v) for k, v in r.items()})

    def write_json(self, path: str):
        with open(path, "w") as fh:
            json.dump({"rows": self.rows, "metadata": self.metadata}, fh, indent=1)


def _fmt(v):
    if isinstance(v, float):
        return "%.12g" % v
    return v


def trial_stream(seed: int, n: int, trial: int) -> RandomStream:
    return RandomStream(seed).substream(n).substream(trial)


def run_trial(experiment: str, n: int, seed: int, trial: int,
              grid_resolution: int | None = None) -> dict:
    """One trial; never raises, failures are flagged in the row."""
    stream = trial_stream(seed, n, trial)
    row = dict(n=n, trial=trial, seed=seed, length=math.nan, nu=-1,
               b0=-1, loops=-1, crossings=-1, flags="")
    opts = None
    if grid_resolution:
        opts = TraceOptions(grid_resolution=grid_resolution)
    try:
        if experiment == "kostlan-compare":
            curve = sample_real_kostlan(n, stream)
        else:
            curve = sample_rational_pair(n, stream)
        t = trace(curve, opts)
        nu, loops = _axis_stats(t, as_field(curve), stream)
        row.update(length=t.total_length, nu=nu, loops=loops,
                   b0=len(t.components))
        if experiment == "length":
            g = random_great_circle(stream.substream(999).generator())
            row["crossings"] = great_circle_intersections(curve, g)
    except DegenerateLemniscate:
        row["flags"] = "degenerate"
    except TangencySuspected:
        row["flags"] = "tangency"
    except AxisTooClose:
        row["flags"] = "axis"
    return row


def _axis_stats(t, fieldobj, stream: RandomStream) -> tuple:
    """Meridian tangents about the z axis, retried about random axes when
    the curve passes too close to a pole (the ensemble is rotation
    invariant, so any axis yields the same statistic)."""
    gen = stream.substream(777).generator()
    axis = _AXIS
    for attempt in range(4):
        try:
            nu, loops, _ = meridian_stats(t, axis, fieldobj)
            return nu, loops
        except AxisTooClose:
            if attempt == 3:
                raise
            v = gen.normal(size=3)
            axis = v / np.linalg.norm(v)


def _trial_star(args):
    return run_trial(*args)


def _mean_stderr(x: np.ndarray) -> tuple:
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        return (float(x.mean()) if len(x) else math.nan, math.nan)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _theory(experiment: str, n: int) -> tuple:
    """(statistic name, theory value) for the summary row."""
    if experiment == "length":
        return "mean_length", kacrice.expected_length(n)
    if experiment == "tangents":
        return "mean_nu", kacrice.meridian_expectation(n)
    if experiment == "components":
        # no closed-form mean; component_upper_constant() bounds it only
        return "mean_b0", math.nan
    if experiment == "kostlan-compare":
        return "mean_nu", kacrice.kostlan_meridian_expectation(n)
    return "mean", math.nan


def _summarize(experiment: str, n: int, rows: list) -> dict:
    good = [r for r in rows if not r["flags"]]
    rej = len(rows) - len(good)
    stat, theory = _theory(experiment, n)
    key = {"mean_length": "length", "mean_nu": "nu", "mean_b0": "b0"}[stat]
    est, se = _mean_stderr([r[key] for r in good])
    z = (est - theory) / se if (se and se > 0 and not math.isnan(theory)) else math.nan
    out = dict(n=n, statistic=stat, estimate=est, stderr=se, theory=theory,
               z_score=z, trials_used=len(good), rejected=rej, flags="")
    if experiment == "length":
        cr, cse = _mean_stderr(
            [r["crossings"] for r in good if r["crossings"] >= 0]
        )
        out["crofton_length"] = math.pi * cr
        out["crofton_stderr"] = math.pi * cse
    if experiment in ("tangents", "components"):
        # Morse bound: each oval meets a generic meridian family in >= 2
        # tangents unless it loops the axis, so b0 <= nu/2 + loops
        bad = [r for r in good if r["b0"] > r["nu"] / 2 + r["loops"]]
        out["morse_violations"] = len(bad)
        over = [r for r in good if r["b0"] > n]
        out["b0_over_degree"] = len(over)
    return out


def _trials_path(cfg: ExperimentConfig, n: int) -> str:
    return os.path.join(cfg.output_dir, "%s_n%d_trials.csv" % (cfg.experiment, n))


def _read_trials(path: str) -> list:
    with open(path) as fh:
        rows = []
        for r in csv.DictReader(fh):
            for k in ("n", "trial", "seed", "nu", "b0", "loops", "crossings"):
                r[k] = int(r[k])
            r["length"] = float(r["length"])
            rows.append(r)
        return rows


def run(config: ExperimentConfig) -> ResultsTable:
    """Execute one experiment across its n grid; returns the summary table.

    Per-n trial CSVs already on disk are trusted and skipped, which makes
    long runs resumable.  A trial failure is recorded and excluded; the
    run aborts if more than 0.1% of trials are rejected.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    t0 = time.time()
    if config.experiment == "local-arrangement":
        return _run_local(config, t0)
    if config.experiment == "construct":
        return _run_construct(config, t0)

    summary = []
    total_rej = total = 0
    for n in config.n_values:
        path = _trials_path(config, n)
        if os.path.exists(path):
            rows = _read_trials(path)
        else:
            args = [
                (config.experiment, n, config.seed, i, config.grid_resolution)
                for i in range(config.trials)
            ]
            if config.workers > 1:
                with ProcessPoolExecutor(max_workers=config.workers) as ex:
                    rows = list(ex.map(_trial_star, args, chunksize=8))
            else:
                rows = [run_trial(*a) for a in args]
            rows.sort(key=lambda r: (r["n"], r["trial"]))
            tbl = ResultsTable([{k: r[k] for k in TRIAL_COLUMNS} for r in rows])
            tbl.write_csv(path)
        summary.append(_summarize(config.experiment, n, rows))
        total += len(rows)
        total_rej += summary[-1]["rejected"]
    if total and total_rej / total > 1e-3:
        raise RuntimeError(
            "rejection rate %.2g%% exceeds 0.1%%" % (100 * total_rej / total)
        )
    meta = _metadata(config, t0, total_rej)
    table = ResultsTable(summary, meta)
    table.write_csv(os.path.join(config.output_dir,
                                 "%s_summary.csv" % config.experiment))
    table.write_json(os.path.join(config.output_dir,
                                  "%s_summary.json" % config.experiment))
    return table


def _metadata(config: ExperimentConfig, t0: float, rejections: int) -> dict:
    return dict(
        seed=config.seed,
        experiment=config.experiment,
        trials=config.trials,
        wall_time=time.time() - t0,
        rejections=rejections,
    )


def _run_local(config: ExperimentConfig, t0: float) -> ResultsTable:
    target = Arrangement(config.target)
    rows = []
    rej = 0
    for n in config.n_values:
        est = local_arrangement_probability(
            target, n, config.rho, config.trials,
            RandomStream(config.seed).substream(n),
        )
        rows.append(dict(
            n=n, statistic="p[%s]" % target.canonical, estimate=est.estimate,
            stderr=est.stderr, theory=math.nan, z_score=math.nan,
            trials_used=est.trials_used, rejected=est.rejected,
            flags="rho=%g" % config.rho,
        ))
        rej += est.rejected
    table = ResultsTable(rows, _metadata(config, t0, rej))
    table.write_csv(os.path.join(config.output_dir, "local-arrangement_summary.csv"))
    table.write_json(os.path.join(config.output_dir, "local-arrangement_summary.json"))
    return table


def _run_construct(config: ExperimentConfig, t0: float) -> ResultsTable:
    from .constructor import all_rooted_trees, certify_nondegenerate, realize, realized_tree

    forms = (
        [config.target]
        if config.target
        else [s for s in all_rooted_trees(max(config.n_values)) if s != "()"]
    )
    rows = []
    built = []
    for s in forms:
        spec = Arrangement(s)
        c = realize(spec)
        ok = realized_tree(c).canonical == spec.canonical
        cert = certify_nondegenerate(c)
        rows.append(dict(n=c.degree, statistic="construct[%s]" % s,
                         estimate=float(ok and cert), stderr=math.nan,
                         theory=1.0, z_score=math.nan, trials_used=1,
                         rejected=0, flags="" if ok and cert else "failed"))
        built.append(c.to_json())
    table = ResultsTable(rows, _metadata(config, t0, 0))
    table.write_csv(os.path.join(config.output_dir, "construct_summary.csv"))
    with open(os.path.join(config.output_dir, "construct_pairs.json"), "w") as fh:
        json.dump(built, fh, indent=1)
    return table


def render_svg(t, projection_point, path: str):
    """SVG of the curve projected stereographically from projection_point."""
    from .sphere import Rotation

    proj = unit_vector(np.asarray(projection_point, dtype=float))
    rot = Rotation.align(proj, np.array([0.0, 0.0, 1.0]))
    paths = []
    all_r = []
    for comp in t.components:
        v = rot.apply(comp.vertices)
        tt = np.minimum(v[:, 2], 1.0 - 1e-9)
        z = (v[:, 0] + 1j * v[:, 1]) / (1.0 - tt)
        if not np.all(np.isfinite(z.view(float))):
            raise ValueError("projection point lies on the curve")
        paths.append(z)
        all_r.append(np.abs(z).max())
    if all_r:
        finite = sorted(all_r)
        # clip the farthest component gracefully instead of growing the box
        box = 1.25 * (finite[-2] if len(finite) > 1 else finite[0])
        box = max(box, 1e-3)
    else:
        box = 1.0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%g %g %g %g">'
        % (-box, -box, 2 * box, 2 * box),
        '<rect x="%g" y="%g" width="%g" height="%g" fill="white"/>'
        % (-box, -box, 2 * box, 2 * box),
    ]
    for z in paths:
        pts = " ".join("%.5g,%.5g" % (w.real, w.imag) for w in z)
        lines.append(
            '<polyline points="%s" fill="none" stroke="black" '
            'stroke-width="%g"/>' % (pts, box / 300.0)
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def compare_table(output_dir: str) -> ResultsTable:
    """Three-row lemniscate vs Kostlan comparison from prior runs."""
    need = {
        "length": "length_summary.json",
        "tangents": "tangents_summary.json",
        "components": "components_summary.json",
        "kostlan": "kostlan-compare_summary.json",
    }
    data = {}
    for k, fn in need.items():
        p = os.path.join(output_dir, fn)
        if not os.path.exists(p):
            raise MissingResults("missing %s; run the %s experiment first" % (p, k))
        with open(p) as fh:
            data[k] = json.load(fh)["rows"]

    def largest(rows):
        return max(rows, key=lambda r: r["n"])

    ln = largest(data["length"])
    tg = largest(data["tangents"])
    cp = largest(data["components"])
    ko = largest(data["kostlan"])
    rows = [
        dict(statistic="length", n=ln["n"],
             lemniscate_empirical=ln["estimate"],
             lemniscate_theory=kacrice.expected_length(ln["n"]),
             kostlan_empirical=math.nan,
             kostlan_theory=kacrice.kostlan_expected_length(ln["n"])),
        dict(statistic="meridian_tangents", n=tg["n"],
             lemniscate_empirical=tg["estimate"],
             lemniscate_theory=kacrice.meridian_expectation(tg["n"]),
             kostlan_empirical=ko["estimate"],
             kostlan_theory=kacrice.kostlan_meridian_expectation(ko["n"])),
        dict(statistic="components", n=cp["n"],
             lemniscate_empirical=cp["estimate"],
             lemniscate_theory=math.nan,
             kostlan_empirical=math.nan, kostlan_theory=math.nan),
    ]
    table = ResultsTable(rows, dict(source=output_dir))
    table.write_csv(os.path.join(output_dir, "compare_table.csv"))
    return table

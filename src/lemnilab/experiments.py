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
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
import scipy

from . import constructor, kacrice
from .ensemble import (
    RandomStream,
    sample_rational_pair,
    sample_real_kostlan,
)
from .geomstats import (
    AxisTooClose,
    TangencySuspected,
    great_circle_intersections,
    meridian_stats,
)
from .sphere import Rotation, homogeneous_coords, random_great_circle, unit_vector
from .topology import Arrangement, local_arrangement_probability, local_radius
from .tracer import DegenerateLemniscate, TraceOptions, trace


class ConfigError(ValueError):
    pass


class RunRefused(RuntimeError):
    """run wrote its summary but rejected more than 0.1% of the trials;
    rows holds the summary rows it wrote."""

    def __init__(self, message: str, rows: list):
        super().__init__(message)
        self.rows = rows


class MissingResults(FileNotFoundError):
    pass


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

# the type of each config field that a --config file can get wrong
_FIELD_TYPES = {"experiment": str, "n_values": list, "trials": Integral,
                "seed": Integral, "workers": Integral, "grid_resolution": Integral | None,
                "rho": Real | None, "target": str | None, "output_dir": str}

_AXIS = np.array([0.0, 0.0, 1.0])
# summary statistic of each trial experiment: its name, its trial column
# and its theory value at degree n
_STATISTICS = {
    "length": ("mean_length", "length", kacrice.expected_length),
    "tangents": ("mean_nu", "nu", kacrice.meridian_expectation),
    # no closed-form mean; component_upper_constant() bounds it only
    "components": ("mean_b0", "b0", lambda n: math.nan),
    "kostlan-compare": ("mean_nu", "nu", kacrice.kostlan_meridian_expectation),
}


@dataclass
class ExperimentConfig:
    # required; None only so that a config without them is a ConfigError
    experiment: str | None = None
    n_values: list | None = None
    trials: int = 100
    seed: int = 1
    rho: float | None = None
    target: str | None = None
    grid_resolution: int | None = None
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        for name in ("experiment", "n_values"):
            if getattr(self, name) is None:
                raise ConfigError("the config gives no %s" % name)
        # a --config file may give any JSON type, and true is no number
        for name, kind in _FIELD_TYPES.items():
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, kind):
                raise ConfigError("%s has the wrong type: %r" % (name, v))
        if self.experiment not in _STATISTICS and self.experiment not in _SERIAL:
            raise ConfigError("unknown experiment %r" % (self.experiment,))
        if not all(isinstance(n, Integral) and not isinstance(n, bool) for n in self.n_values):
            raise ConfigError("n_values must hold integers")
        if not self.n_values:
            raise ConfigError("n_values must be nonempty")
        if len(set(self.n_values)) < len(self.n_values):
            # one summary row per (n, statistic), one local stage per n
            raise ConfigError("n_values repeats a degree")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # the meridian theory, and a tree with a circle, need degree 2
        least = 2 if self.experiment in ("tangents", "kostlan-compare", "construct") else 1
        if min(self.n_values) < least:
            raise ConfigError("%s needs every n >= %d" % (self.experiment, least))
        # a stage that ignores rho or target would write rows as if the
        # flag were not given
        if self.rho is not None and self.experiment != "local-arrangement":
            raise ConfigError("%s takes no rho" % self.experiment)
        if self.target is not None and self.experiment not in ("local-arrangement", "construct"):
            raise ConfigError("%s takes no target" % self.experiment)
        if self.experiment == "local-arrangement" and (self.rho is None or not self.target):
            raise ConfigError("local-arrangement needs rho and a target form")
        if self.experiment in _SERIAL and (self.grid_resolution is not None
                                           or self.workers != 1):
            raise ConfigError("%s takes neither grid_resolution nor workers"
                              % self.experiment)
        # the rules of the stages themselves, checked before any output; a
        # rho/sqrt(n) that holds at the least n holds at every n
        try:
            spec = Arrangement(self.target) if self.target else None
            if self.grid_resolution is not None:
                TraceOptions(self.grid_resolution)
            if self.experiment == "local-arrangement":
                local_radius(min(self.n_values), self.rho, self.trials)
            elif self.experiment == "construct":
                constructor.check_circles(
                    spec.n_nodes - 1 if spec else max(self.n_values) - 1)
        except ValueError as e:
            raise ConfigError(str(e)) from None

    @staticmethod
    def from_json(path: str | None = None, **overrides) -> "ExperimentConfig":
        """The JSON config at path, if given, with the overrides not None."""
        d = {}
        if path is not None:
            with open(path) as fh:
                d = json.load(fh)
        d.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(d) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))
        return ExperimentConfig(**d)


def write_csv(path: str, rows: list):
    """rows (dicts with the keys of the first) as CSV, floats to 12 digits."""
    if not rows:
        raise ValueError("no rows to write")
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({k: "%.12g" % v if isinstance(v, float) else v for k, v in r.items()})


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
        nu, loops = _axis_stats(t, stream)
        row.update(length=t.total_length, nu=nu, loops=loops,
                   b0=len(t.sizes))
        if experiment == "length":
            g = random_great_circle(stream.substream(999).generator())
            row["crossings"] = great_circle_intersections(t.fieldobj, g)
    except DegenerateLemniscate:
        row["flags"] = "degenerate"
    except TangencySuspected:
        row["flags"] = "tangency"
    except AxisTooClose:
        row["flags"] = "axis"
    return row


def _axis_stats(t, stream: RandomStream) -> tuple:
    """Meridian tangents about the z axis, retried about random axes when
    the curve passes too close to a pole (the ensemble is rotation
    invariant, so any axis yields the same statistic)."""
    gen = stream.substream(777).generator()
    axis = _AXIS
    for attempt in range(4):
        try:
            nu, loops, _ = meridian_stats(t, axis)
            return nu, loops
        except AxisTooClose:
            if attempt == 3:
                raise
            v = gen.normal(size=3)
            axis = v / np.linalg.norm(v)


def _mean_stderr(x: np.ndarray) -> tuple:
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        return (float(x.mean()) if len(x) else math.nan, math.nan)
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _summarize(experiment: str, n: int, rows: list) -> dict:
    good = [r for r in rows if not r["flags"]]
    rej = len(rows) - len(good)
    stat, column, theory = _STATISTICS[experiment]
    theory = theory(n)
    est, se = _mean_stderr([r[column] for r in good])
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


def _grid_tag(cfg: ExperimentConfig) -> str:
    """_nu{grid} for a run at a set grid_resolution, whose trials and
    summary rows are other trials and rows; empty for any other run."""
    return "_nu%d" % cfg.grid_resolution if cfg.grid_resolution else ""


def _trials_path(cfg: ExperimentConfig, n: int) -> str:
    """{experiment}_n{n}_trials.csv, or _n{n}_nu{grid}_trials.csv for a run
    at a set grid_resolution."""
    return os.path.join(cfg.output_dir, "%s_n%d%s_trials.csv" % (cfg.experiment, n,
                                                                 _grid_tag(cfg)))


def _read_trials(path: str) -> list:
    with open(path) as fh:
        rows = []
        for r in csv.DictReader(fh):
            for k in ("n", "trial", "seed", "nu", "b0", "loops", "crossings"):
                r[k] = int(r[k])
            r["length"] = float(r["length"])
            rows.append(r)
        return rows


def run(config: ExperimentConfig) -> list:
    """Execute one experiment across its n grid; returns the summary rows
    it wrote, which keep the rows of earlier calls (see _write_summary).

    A per-n trial CSV already on disk is reused if it holds exactly this
    run's trials, which makes long runs resumable; one that holds others
    (another seed or trial count) raises ConfigError.  A trial failure is
    recorded and excluded; the run writes its summary, then raises
    RunRefused, which carries the summary rows, if more than 0.1% of
    trials are rejected.  The summary's metadata is the run's manifest:
    every config field but output_dir, and the rest of _manifest.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    t0, cpu0 = time.time(), os.times()
    rows = _SERIAL.get(config.experiment, _trial_rows)(config)
    rejected = sum(r["rejected"] for r in rows)
    total = rejected + sum(r["trials_used"] for r in rows)
    summary = _write_summary(config, rows, dict(
        seed=config.seed, experiment=config.experiment, trials=config.trials,
        n_values=config.n_values, rho=config.rho, target=config.target,
        grid_resolution=config.grid_resolution,
        wall_time=time.time() - t0, rejections=rejected, **_manifest(config, cpu0)))
    if total and rejected / total > 1e-3:
        raise RunRefused("rejection rate %.2g%% exceeds 0.1%%" % (100 * rejected / total),
                         summary)
    return summary


def _manifest(config: ExperimentConfig, cpu0) -> dict:
    """What a run's figures were computed with and what they cost: the
    numpy and scipy versions, the BLAS numpy was built with, the worker
    count, the CPU seconds of this process and of its waited-for children
    (worker processes) since os.times() read cpu0, and the commit of the
    source tree, None where git cannot tell it."""
    cpu = os.times()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=os.path.dirname(os.path.abspath(__file__)), timeout=10)
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return dict(numpy=np.__version__, scipy=scipy.__version__, blas=blas.get("name"),
                blas_version=blas.get("version"), workers=config.workers,
                cpu_s=(cpu.user - cpu0.user) + (cpu.system - cpu0.system),
                children_cpu_s=(cpu.children_user - cpu0.children_user)
                + (cpu.children_system - cpu0.children_system),
                git_commit=commit)


def _trial_rows(config: ExperimentConfig) -> list:
    """One summary row per n, read back from its trial CSV, which is
    written first unless it is on disk."""
    summary = []
    for n in config.n_values:
        path = _trials_path(config, n)
        if not os.path.exists(path):
            args = [(config.experiment, n, config.seed, i, config.grid_resolution)
                    for i in range(config.trials)]
            if config.workers > 1:
                with ProcessPoolExecutor(max_workers=config.workers) as ex:
                    rows = list(ex.map(run_trial, *zip(*args), chunksize=8))
            else:
                rows = [run_trial(*a) for a in args]
            rows.sort(key=lambda r: (r["n"], r["trial"]))
            write_csv(path, [{k: r[k] for k in TRIAL_COLUMNS} for r in rows])
        rows = _read_trials(path)
        want = [(n, i, config.seed) for i in range(config.trials)]
        if [(r["n"], r["trial"], r["seed"]) for r in rows] != want:
            raise ConfigError("%s does not hold trials 0-%d of n=%d, seed %d"
                              % (path, config.trials - 1, n, config.seed))
        summary.append(_summarize(config.experiment, n, rows))
        if config.grid_resolution:
            summary[-1]["flags"] = "grid_resolution=%d" % config.grid_resolution
    return summary


def _local_rows(config: ExperimentConfig) -> list:
    target = Arrangement(config.target)
    rows = []
    for n in config.n_values:
        est = local_arrangement_probability(
            target, n, config.rho, config.trials,
            RandomStream(config.seed).substream(n),
        )
        rows.append(dict(
            n=n, statistic="p[%s]" % target.canonical, estimate=est.estimate,
            stderr=est.stderr, theory=math.nan, z_score=math.nan,
            trials_used=est.trials_used, rejected=est.rejected,
            flags="rho=%g;regridded=%d" % (config.rho, est.regridded),
        ))
    return rows


def _construct_rows(config: ExperimentConfig) -> list:
    """One row per form, a rejected trial unless it realizes, round-trips and
    certifies; also writes construct_pairs.json, where a realized form
    replaces its spec's entry."""
    forms = (
        [config.target]
        if config.target
        else [s for s in constructor.all_rooted_trees(max(config.n_values)) if s != "()"]
    )
    rows = []
    built = []
    for s in forms:
        spec = Arrangement(s)
        try:
            c = constructor.realize(spec)
        except constructor.EpsilonExhausted:
            c = None
        ok = c is not None and (
            (constructor.realized_tree(c).canonical == spec.canonical)
            & constructor.certify_nondegenerate(c))
        rows.append(dict(n=spec.n_nodes - 1, statistic="construct[%s]" % s,
                         estimate=float(ok), stderr=math.nan,
                         theory=1.0, z_score=math.nan, trials_used=int(ok),
                         rejected=int(not ok), flags="" if ok else "failed"))
        if c is not None:
            built.append(c.to_json())
    path = os.path.join(config.output_dir, "construct_pairs.json")
    built = _merged(_read_json(path, []), built, lambda c: c["spec"])
    with open(path, "w") as fh:
        json.dump(built, fh, indent=1)
    return rows


# the stages that run serially, each trace at a grid of its own choosing;
# every other experiment is a trial stage with a _STATISTICS entry
_SERIAL = {"local-arrangement": _local_rows, "construct": _construct_rows}


def _read_json(path: str, missing):
    if not os.path.exists(path):
        return missing
    with open(path) as fh:
        return json.load(fh)


def _merged(old: list, new: list, key) -> list:
    """The entries of old whose key no entry of new has, then new."""
    keys = {key(r) for r in new}
    return [r for r in old if key(r) not in keys] + new


def _write_summary(config: ExperimentConfig, rows: list, metadata: dict) -> list:
    """Write {experiment}_summary.csv and .json, {experiment}_nu{grid}_...
    for a run at a set grid_resolution, and return their rows.  A row
    replaces the row on disk with the same (n, statistic), every other row
    on disk is kept, and the rows are stably sorted by n; the metadata, in
    the JSON only, describes this call."""
    stem = os.path.join(config.output_dir, "%s%s_summary" % (config.experiment,
                                                             _grid_tag(config)))
    old = _read_json(stem + ".json", {"rows": []})["rows"]
    rows = sorted(_merged(old, rows, lambda r: (r["n"], r["statistic"])),
                  key=lambda r: r["n"])
    write_csv(stem + ".csv", rows)
    with open(stem + ".json", "w") as fh:
        json.dump({"rows": rows, "metadata": metadata}, fh, indent=1)
    return rows


def render_svg(t, projection_point, path: str):
    """SVG of the curve projected stereographically from projection_point."""
    proj = unit_vector(np.asarray(projection_point, dtype=float))
    rot = Rotation.align(proj, np.array([0.0, 0.0, 1.0]))
    paths = []
    all_r = []
    for comp in t.components:
        zh, wh = homogeneous_coords(rot.apply(comp))
        z = zh / wh
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


def compare_table(output_dir: str) -> list:
    """Three-row lemniscate vs Kostlan comparison from prior runs, written
    to compare_table.csv; returns the rows."""
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
    write_csv(os.path.join(output_dir, "compare_table.csv"), rows)
    return rows

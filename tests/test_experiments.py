import json
import math
import os

import numpy as np
import pytest

from lemnilab.ensemble import KostlanPolynomial, RationalPair
from lemnilab.experiments import (
    TRIAL_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MissingResults,
    ResultsTable,
    _axis_stats,
    compare_table,
    render_svg,
    run,
    run_trial,
    trial_stream,
)
from lemnilab.field import as_field
from lemnilab.geomstats import AxisTooClose, meridian_stats
from lemnilab.tracer import trace


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig("nonsense", [4])
    with pytest.raises(ConfigError):
        ExperimentConfig("length", [])
    with pytest.raises(ConfigError):
        ExperimentConfig("length", [4], trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig("local-arrangement", [4], target="(())")  # no rho
    with pytest.raises(ConfigError):
        ExperimentConfig("local-arrangement", [4], rho=1.0)  # no target


def test_config_rejects_options_the_serial_experiments_ignore():
    local = dict(rho=1.0, target="(())")
    for experiment, extra in (("local-arrangement", local), ("construct", {})):
        ExperimentConfig(experiment, [4], workers=1, **extra)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, [4], workers=2, **extra)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, [4], grid_resolution=128, **extra)


def test_axis_stats_retries_about_a_random_axis():
    # |p_2| = |q_2|: f vanishes at the north pole, so the curve passes
    # through the z axis and the count moves to another axis
    rp = RationalPair(
        KostlanPolynomial(2, np.array([0.3, 0.2, 1.0], complex)),
        KostlanPolynomial(2, np.array([0.5, -0.1, 1j], complex)),
    )
    t = trace(rp)
    with pytest.raises(AxisTooClose):
        meridian_stats(t, np.array([0.0, 0.0, 1.0]), as_field(rp))
    nu, loops = _axis_stats(t, as_field(rp), trial_stream(1, 2, 0))
    assert nu % 2 == 0 and nu >= 2


def test_config_from_json_with_overrides(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "length", "n_values": [4], "seed": 9}))
    cfg = ExperimentConfig.from_json(str(p), trials=7)
    assert cfg.seed == 9 and cfg.trials == 7 and cfg.experiment == "length"


def test_trial_stream_deterministic():
    a = trial_stream(5, 10, 3).generator().normal(size=4)
    b = trial_stream(5, 10, 3).generator().normal(size=4)
    c = trial_stream(5, 10, 4).generator().normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def run_tiny(tmp_path, sub, workers=1):
    out = str(tmp_path / sub)
    cfg = ExperimentConfig(
        "length", [4], trials=20, seed=7, output_dir=out, workers=workers
    )
    run(cfg)
    return out


def test_tiny_run_golden_file(tmp_path):
    out = run_tiny(tmp_path, "a")
    got = open(os.path.join(out, "length_n4_trials.csv"), "rb").read()
    golden = os.path.join(os.path.dirname(__file__), "golden_length_n4.csv")
    assert got == open(golden, "rb").read()


def test_determinism_across_worker_counts(tmp_path):
    out1 = run_tiny(tmp_path, "a", workers=1)
    out2 = run_tiny(tmp_path, "b", workers=2)
    f1 = open(os.path.join(out1, "length_n4_trials.csv"), "rb").read()
    f2 = open(os.path.join(out2, "length_n4_trials.csv"), "rb").read()
    assert f1 == f2
    s1 = open(os.path.join(out1, "length_summary.csv"), "rb").read()
    s2 = open(os.path.join(out2, "length_summary.csv"), "rb").read()
    assert s1 == s2


def test_kostlan_rows_match_committed(tmp_path):
    # the real evaluator feeds every kostlan-compare row; 17 and 307 are
    # rows whose last length digit moves with its rounding
    trials = [0, 17, 307]
    rows = [run_trial("kostlan-compare", 50, 404, i) for i in trials]
    path = tmp_path / "rows.csv"
    ResultsTable([{k: r[k] for k in TRIAL_COLUMNS} for r in rows]).write_csv(str(path))
    results = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    with open(os.path.join(results, "kostlan-compare_n50_trials.csv")) as fh:
        committed = fh.read().splitlines()[1:]
    assert path.read_text().splitlines()[1:] == [committed[i] for i in trials]


def test_summary_contents(tmp_path):
    out = run_tiny(tmp_path, "a")
    with open(os.path.join(out, "length_summary.json")) as fh:
        d = json.load(fh)
    assert d["metadata"]["seed"] == 7
    row = d["rows"][0]
    assert row["n"] == 4
    assert row["stderr"] > 0
    # z-score recomputes from the stored columns
    z = (row["estimate"] - row["theory"]) / row["stderr"]
    assert abs(z - row["z_score"]) < 1e-9


def test_components_run_within_degree(tmp_path):
    table = run(ExperimentConfig("components", [12], trials=100, seed=7,
                                 output_dir=str(tmp_path)))
    row = table.rows[0]
    assert row["b0_over_degree"] == 0
    assert row["trials_used"] == 100 and row["estimate"] > 0
    # no closed-form mean: nothing to score the estimate against
    assert math.isnan(row["theory"]) and math.isnan(row["z_score"])


def test_resume_skips_existing(tmp_path):
    out = run_tiny(tmp_path, "a")
    path = os.path.join(out, "length_n4_trials.csv")
    before = os.path.getmtime(path)
    run(ExperimentConfig("length", [4], trials=20, seed=7, output_dir=out))
    assert os.path.getmtime(path) == before


def test_render_svg_path_counts(tmp_path):
    circle = RationalPair(
        KostlanPolynomial(1, np.array([0, 1], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    t = trace(circle)
    out = str(tmp_path / "circle.svg")
    render_svg(t, np.array([0.0, 0.0, 1.0]), out)
    body = open(out).read()
    assert body.count("<polyline") == 1

    empty = RationalPair(
        KostlanPolynomial(1, np.array([2, 0], complex)),
        KostlanPolynomial(1, np.array([1, 0], complex)),
    )
    out2 = str(tmp_path / "empty.svg")
    render_svg(trace(empty), np.array([0.0, 0.0, 1.0]), out2)
    body2 = open(out2).read()
    assert "<svg" in body2 and body2.count("<polyline") == 0


def test_compare_table_missing_results(tmp_path):
    with pytest.raises(MissingResults):
        compare_table(str(tmp_path))


def test_compare_constants():
    from scipy import integrate

    from lemnilab import kacrice

    # ratio of the two theoretical tangent slopes
    ratio = kacrice.tangent_asymptotic_constant() / (4 * math.sqrt(2) / math.pi)
    assert abs(ratio - 0.6066) < 5e-4
    # theory columns at n=16: (pi^2/2) sqrt(16) vs 2 pi sqrt(16)
    assert abs(kacrice.expected_length(16) - 2 * math.pi**2) < 1e-12
    # Kostlan length: 4 pi E|grad f| p_f(0) with grad f ~ N(0, n I_2) and
    # f ~ N(0, 1), E|grad f| integrated over the radial density
    n = 16
    e_grad, _ = integrate.quad(lambda r: r * r / n * math.exp(-r * r / (2 * n)), 0, math.inf)
    kac_rice = 4 * math.pi * e_grad / math.sqrt(2 * math.pi)
    assert abs(kacrice.kostlan_expected_length(n) - kac_rice) < 1e-9 * kac_rice

import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

from lemnilab.ensemble import KostlanPolynomial, RandomStream, RationalPair
from lemnilab import experiments
from lemnilab.experiments import (
    TRIAL_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MissingResults,
    _axis_stats,
    _read_trials,
    _summarize,
    compare_table,
    render_svg,
    run,
    run_trial,
    trial_stream,
    write_csv,
)
from lemnilab.geomstats import AxisTooClose, meridian_stats
from lemnilab.topology import Arrangement, ArrangementEstimate, local_arrangement_probability
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


@pytest.mark.parametrize("experiment, n", [
    ("tangents", 1), ("kostlan-compare", 1), ("length", 0), ("construct", 1),
])
def test_config_rejects_degrees_the_stage_cannot_run(tmp_path, experiment, n):
    # refused before any trial runs, so no output is written
    out = str(tmp_path / "out")
    with pytest.raises(ConfigError):
        run(ExperimentConfig(experiment, [n], trials=2, output_dir=out))
    assert not os.path.exists(out)


def test_config_rejects_options_the_serial_experiments_ignore():
    local = dict(rho=1.0, target="(())")
    for experiment, extra in (("local-arrangement", local), ("construct", {})):
        ExperimentConfig(experiment, [4], workers=1, **extra)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, [4], workers=2, **extra)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, [4], grid_resolution=128, **extra)


def test_config_rejects_a_local_disk_past_a_hemisphere():
    # rho/sqrt(n) < pi/2 for every n, checked before any output
    local = dict(rho=3.0, target="(())")
    ExperimentConfig("local-arrangement", [4, 100], **local)
    for rho in (math.pi, 5.0):
        with pytest.raises(ConfigError, match="pi/2"):
            ExperimentConfig("local-arrangement", [100, 4], rho=rho, target="(())")


@pytest.mark.parametrize("rho, trials, n", [
    (0.0, 100, 100), (-1.0, 100, 100), (math.nan, 100, 100), (math.inf, 100, 100),
    (3.0, 99, 100), (math.pi, 100, 4),
], ids=["rho-0", "rho-negative", "rho-nan", "rho-inf", "trials-99", "radius-pi/2"])
def test_config_refuses_a_local_run_in_the_stage_own_words(rho, trials, n):
    # the config asks the local stage, so both refuse with the same text
    with pytest.raises(ValueError) as stage:
        local_arrangement_probability(Arrangement("(())"), n, rho, trials, RandomStream(1))
    with pytest.raises(ConfigError) as config:
        ExperimentConfig("local-arrangement", [n], trials=trials, rho=rho, target="(())")
    assert str(config.value) == str(stage.value)


def test_axis_stats_retries_about_a_random_axis():
    # |p_2| = |q_2|: f vanishes at the north pole, so the curve passes
    # through the z axis and the count moves to another axis
    rp = RationalPair(
        KostlanPolynomial(2, np.array([0.3, 0.2, 1.0], complex)),
        KostlanPolynomial(2, np.array([0.5, -0.1, 1j], complex)),
    )
    t = trace(rp)
    with pytest.raises(AxisTooClose):
        meridian_stats(t, np.array([0.0, 0.0, 1.0]))
    nu, loops = _axis_stats(t, trial_stream(1, 2, 0))
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


def _assert_rows_match_committed(tmp_path, experiment, n, seed, trials):
    rows = [run_trial(experiment, n, seed, i) for i in trials]
    path = tmp_path / "rows.csv"
    write_csv(str(path), [{k: r[k] for k in TRIAL_COLUMNS} for r in rows])
    results = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    with open(os.path.join(results, "%s_n%d_trials.csv" % (experiment, n))) as fh:
        committed = fh.read().splitlines()[1:]
    assert path.read_text().splitlines()[1:] == [committed[i] for i in trials]


def test_kostlan_rows_match_committed(tmp_path):
    # the real evaluator feeds every kostlan-compare row; 17 and 307 are
    # rows whose last length digit moves with its rounding
    _assert_rows_match_committed(tmp_path, "kostlan-compare", 50, 404, [0, 17, 307])


def test_small_loop_rows_match_committed(tmp_path):
    # small loops whose whole-loop walks get lost (one in trials 0 and 5,
    # two in 37) or arrive only after 50-70 steps (5, 19, 32, 38); a lost
    # loop counts 2 in 0, 5 and 37, and keeps its chord count (2) in 23,
    # 31 and 34
    _assert_rows_match_committed(tmp_path, "tangents", 200, 202,
                                 [0, 5, 19, 23, 31, 32, 34, 37, 38])


_COMMITTED_TRIALS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "results", "*_n*_trials.csv")))


@pytest.mark.parametrize("path", _COMMITTED_TRIALS, ids=os.path.basename)
def test_committed_trial_csvs_replay(tmp_path, path):
    # every committed per-trial CSV: its first 20 rows re-run byte for byte
    experiment, n = re.fullmatch(r"(.+)_n(\d+)_trials\.csv", os.path.basename(path)).groups()
    seed = _read_trials(path)[0]["seed"]
    _assert_rows_match_committed(tmp_path, experiment, int(n), seed, range(20))


def test_pair_walk_rows_match_committed(tmp_path):
    # rows whose pair-walk candidates depend on how G's vertex signs are
    # found: signs inferred from chord geometry walked one more segment in
    # tangents row 39 and length row 93, and two more in kostlan-compare
    # row 20, than signs read at every vertex.  In tangents rows 76 and 93
    # a pair walk's G flips at its last walked point, which counts twice
    _assert_rows_match_committed(tmp_path, "tangents", 200, 202, [39, 76, 93])
    _assert_rows_match_committed(tmp_path, "length", 25, 101, [93])
    _assert_rows_match_committed(tmp_path, "kostlan-compare", 50, 404, [20])


def test_swap_rows_match_committed(tmp_path):
    # the trials of 0-199 in which _tangent_count swaps a lone backward
    # chord's vertices (9 swaps, two in trial 178); trial 90 counts 64
    # tangents with the swap and would count 66 without it
    _assert_rows_match_committed(tmp_path, "tangents", 50, 202,
                                 [56, 90, 99, 106, 132, 140, 158, 178])


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


def test_summary_metadata_is_the_run_manifest(tmp_path):
    out = run_tiny(tmp_path, "a", workers=2)
    with open(os.path.join(out, "length_summary.json")) as fh:
        meta = json.load(fh)["metadata"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (meta["numpy"], meta["scipy"], meta["blas"], meta["blas_version"], meta["workers"]) \
        == (np.__version__, scipy.__version__, blas["name"], blas["version"], 2)
    assert meta["cpu_s"] >= 0 and meta["children_cpu_s"] >= 0
    commit = meta["git_commit"]
    assert commit is None or re.fullmatch("[0-9a-f]{40}", commit)
    assert {"seed", "experiment", "trials", "wall_time", "rejections"} < meta.keys()
    assert (meta["n_values"], meta["rho"], meta["target"], meta["grid_resolution"]) \
        == ([4], None, None, None)
    out = str(tmp_path / "local")
    run(ExperimentConfig("local-arrangement", [100], trials=100, seed=0, rho=3.0,
                         target="(())", output_dir=out))
    with open(os.path.join(out, "local-arrangement_summary.json")) as fh:
        meta = json.load(fh)["metadata"]
    assert (meta["n_values"], meta["rho"], meta["target"], meta["grid_resolution"]) \
        == ([100], 3.0, "(())", None)


def test_summary_keeps_rows_of_earlier_calls(tmp_path):
    out = str(tmp_path)

    def call(n):
        rows = run(ExperimentConfig("length", [n], trials=20, seed=7, output_dir=out))
        with open(os.path.join(out, "length_summary.json")) as fh:
            d = json.load(fh)
        with open(os.path.join(out, "length_summary.csv")) as fh:
            lines = fh.read().splitlines()[1:]
        assert [r["n"] for r in rows] == [r["n"] for r in d["rows"]]
        assert d["metadata"]["trials"] == 20
        return [r["n"] for r in d["rows"]], lines

    call(4)
    ns, first = call(5)
    assert ns == [4, 5]
    # repeating n=4 replaces its row with the same one
    ns, again = call(4)
    assert ns == [4, 5] and again == first


def test_refused_window_leaves_its_summary(tmp_path, monkeypatch):
    # one of 100 trials rejected: the summary is written, then run refuses
    est = ArrangementEstimate(0.25, 0.04, 25, 99, 1, 0)
    monkeypatch.setattr(experiments, "local_arrangement_probability",
                        lambda *args: est)
    cfg = ExperimentConfig("local-arrangement", [100], trials=100, seed=0, rho=3.0,
                           target="(())", output_dir=str(tmp_path))
    with pytest.raises(RuntimeError, match="rejection rate"):
        run(cfg)
    with open(tmp_path / "local-arrangement_summary.json") as fh:
        (row,) = json.load(fh)["rows"]
    assert (row["n"], row["trials_used"], row["rejected"]) == (100, 99, 1)


def test_construct_keeps_pairs_and_rows_of_earlier_calls(tmp_path):
    for target in ("(())", "(()())", "(())"):
        run(ExperimentConfig("construct", [2], target=target, output_dir=str(tmp_path)))
    with open(tmp_path / "construct_pairs.json") as fh:
        assert [c["spec"] for c in json.load(fh)] == ["(()())", "(())"]
    with open(tmp_path / "construct_summary.json") as fh:
        rows = json.load(fh)["rows"]
    assert [(r["n"], r["statistic"], r["estimate"]) for r in rows] == [
        (1, "construct[(())]", 1.0), (2, "construct[(()())]", 1.0)]


def test_committed_summaries_cover_their_trial_csvs():
    results = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    paths = glob.glob(os.path.join(results, "**", "*_n*_trials.csv"), recursive=True)
    assert paths
    for path in paths:
        # a grid run's trials, _n{n}_nu{grid}_trials.csv, have their own summary
        exp, n, grid = re.fullmatch(r"(.+)_n(\d+)(_nu\d+)?_trials\.csv",
                                    os.path.basename(path)).groups()
        with open(os.path.join(os.path.dirname(path), exp + (grid or "") + "_summary.json")) as fh:
            ns = [r["n"] for r in json.load(fh)["rows"]]
        assert int(n) in ns, path


def test_components_run_within_degree(tmp_path):
    (row,) = run(ExperimentConfig("components", [12], trials=100, seed=7,
                                  output_dir=str(tmp_path)))
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


def test_resume_refuses_other_trials(tmp_path):
    # a trial CSV from another seed or trial count is not this run's
    out = run_tiny(tmp_path, "a")
    for trials, seed in ((20, 8), (10, 7), (21, 7)):
        with pytest.raises(ConfigError, match="length_n4_trials.csv"):
            run(ExperimentConfig("length", [4], trials=trials, seed=seed, output_dir=out))


def test_grid_run_resumes_from_its_own_trials(tmp_path):
    # a grid run into a directory that holds the default grid's trials
    # writes and summarizes its own; a fresh directory agrees with it
    # and its own summary, leaving the default grid's summary as it was
    base = dict(experiment="length", n_values=[4], trials=20, seed=7)
    out = run_tiny(tmp_path, "a")
    default = open(os.path.join(out, "length_n4_trials.csv"), "rb").read()
    summary = {ext: open(os.path.join(out, "length_summary." + ext), "rb").read()
               for ext in ("csv", "json")}
    shared = run(ExperimentConfig(**base, grid_resolution=96, output_dir=out))
    fresh = run(ExperimentConfig(**base, grid_resolution=96,
                                 output_dir=str(tmp_path / "b")))
    assert shared == fresh and fresh[0]["flags"] == "grid_resolution=96"
    assert open(os.path.join(out, "length_n4_trials.csv"), "rb").read() == default
    for ext, data in summary.items():
        assert open(os.path.join(out, "length_summary." + ext), "rb").read() == data
    with open(os.path.join(out, "length_nu96_summary.json")) as fh:
        d = json.load(fh)
    assert d["rows"] == shared and d["metadata"]["grid_resolution"] == 96
    grid = open(os.path.join(out, "length_n4_nu96_trials.csv"), "rb").read()
    assert grid == open(os.path.join(tmp_path, "b", "length_n4_nu96_trials.csv"), "rb").read()


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


RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "results")


@pytest.mark.parametrize("experiment", ["length", "tangents", "components", "kostlan-compare"])
def test_committed_summaries_reproduce_from_trial_csvs(tmp_path, experiment):
    # every committed summary row is _summarize of its committed trial CSV,
    # in the JSON and in the CSV, as rerunning the README's commands gives
    stem = os.path.join(RESULTS, "%s_summary" % experiment)
    with open(stem + ".json") as fh:
        rows = json.load(fh)["rows"]
    want = [_summarize(experiment, r["n"], _read_trials(
        os.path.join(RESULTS, "%s_n%d_trials.csv" % (experiment, r["n"])))) for r in rows]
    assert json.dumps(rows) == json.dumps(want)  # as text, so NaN theories compare equal
    write_csv(str(tmp_path / "s.csv"), want)
    assert (tmp_path / "s.csv").read_bytes() == open(stem + ".csv", "rb").read()


def test_trials_do_not_import_scipy_integrate():
    # only kacrice's quadrature companions integrate, and they import
    # scipy.integrate on first use
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from lemnilab import experiments\n"
            "assert not experiments.run_trial('length', 25, 101, 0)['flags']\n"
            "print('scipy.integrate' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"

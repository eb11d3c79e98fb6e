import json
import os

import pytest

from lemnilab.cli import main
from lemnilab.constructor import EpsilonExhausted
from lemnilab.experiments import ConfigError


def test_kacrice_constants(capsys):
    assert main(["kacrice", "constants", "--n", "25"]) == 0
    out = capsys.readouterr().out
    assert "1.0923495156" in out
    assert "n=25" in out


def test_kacrice_verify(capsys):
    assert main(["kacrice", "verify", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "chain.s_step" in out
    assert "kostlan.ratio" in out


def test_construct_round_trip(tmp_path, capsys):
    out = str(tmp_path / "c.json")
    assert main(["construct", "((()))", "--out", out]) == 0
    d = json.load(open(out))
    assert d["spec"] == "((()))"
    assert "roundtrip=True" in capsys.readouterr().out


@pytest.mark.parametrize("spec, error", [
    ("((((((()))))))", "no epsilon passed"),
    ("(" * 14 + ")" * 14, "1 to 12 circles, not 13"),
    ("(()", "unbalanced"),
], ids=["epsilon-exhausted", "13-circles", "malformed"])
def test_construct_reports_a_spec_it_cannot_realize(capsys, spec, error):
    assert main(["construct", spec]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(spec + ": ") and error in line


def _exhausted(spec):
    raise EpsilonExhausted("no epsilon passed after 60 halvings")


@pytest.mark.parametrize("check", ["certify_nondegenerate", "realized_tree", "realize"])
@pytest.mark.parametrize("flags", [[], ["--check"]], ids=["plain", "check"])
def test_run_refuses_a_construct_form_that_fails_its_check(tmp_path, monkeypatch, capsys,
                                                          check, flags):
    # a form that fails its round trip or its certificate, or that realize
    # gives up on, is a rejected trial: the summary is written and
    # printed, then the run is refused; a form that passes keeps its row,
    # and only a realized form has a pair
    from lemnilab import constructor
    from lemnilab.topology import Arrangement

    out = str(tmp_path / "res")
    run = ["run", "--experiment", "construct", "--n", "2", "--out", out] + flags
    assert main(run + ["--target", "(())"]) == 0
    fake = {"certify_nondegenerate": lambda c: False,
            "realized_tree": lambda c: Arrangement("((()))"),
            "realize": _exhausted}[check]
    monkeypatch.setattr(constructor, check, fake)
    capsys.readouterr()
    with pytest.raises(RuntimeError, match="rejection rate"):
        main(run + ["--target", "(()())"])
    assert capsys.readouterr().out.splitlines() == [
        "n=1 statistic=construct[(())] estimate=1.0 stderr=nan theory=1.0 z_score=nan "
        "trials_used=1 rejected=0 flags=",
        "n=2 statistic=construct[(()())] estimate=0.0 stderr=nan theory=1.0 z_score=nan "
        "trials_used=0 rejected=1 flags=failed",
    ]
    with open(os.path.join(out, "construct_summary.csv")) as fh:
        assert fh.read().splitlines()[1:] == [
            "1,construct[(())],1,nan,1,nan,1,0,",
            "2,construct[(()())],0,nan,1,nan,0,1,failed",
        ]
    with open(os.path.join(out, "construct_pairs.json")) as fh:
        assert [c["spec"] for c in json.load(fh)] == (
            ["(())"] if check == "realize" else ["(())", "(()())"])


def test_run_and_render(tmp_path, capsys):
    out = str(tmp_path / "res")
    rc = main([
        "run", "--experiment", "length", "--n", "4", "--trials", "20",
        "--seed", "7", "--out", out, "--check",
    ])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "length_summary.csv"))
    svg = str(tmp_path / "pic.svg")
    assert main(["render", "--n", "6", "--seed", "3", "--out", svg]) == 0
    assert "<svg" in open(svg).read()


def test_run_check_components(tmp_path):
    # components have no closed-form mean, so --check has nothing to fail on
    out = str(tmp_path / "res")
    assert main([
        "run", "--experiment", "components", "--n", "12", "--trials", "20",
        "--seed", "7", "--out", out, "--check",
    ]) == 0


def test_run_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "length", "n_values": [4], "trials": 20, "seed": 7,
        "output_dir": str(tmp_path / "res"),
    }))
    assert main(["run", "--config", str(cfg)]) == 0


LOCAL = ["--experiment", "local-arrangement", "--n", "100", "--rho", "3"]
LENGTH = ["--experiment", "length", "--n", "4", "--trials", "1"]


def _config(**entries):
    """--config flags of a length run with entries set; the test writes
    the file."""
    return ["--config", {"experiment": "length", "n_values": [4], **entries}]


@pytest.mark.parametrize("flags", [
    LENGTH + ["--grid-resolution", "32"],
    LOCAL + ["--trials", "50", "--target", "(())"],
    LOCAL + ["--trials", "100", "--target", "(()"],
    ["--experiment", "construct", "--n", "3", "--target", "(()"],
    _config(trails=3),
    LENGTH + ["--workers", "0"],
    LENGTH + ["--workers", "-1"],
    ["--experiment", "length", "--n", "4", "4", "--trials", "3", "--seed", "7"],
    _config(n_values=4),
    _config(trials="2"),
    _config(n_values=[4.5]),
    ["--n", "4"],
    ["--experiment", "length"],
    ["--config", {"n_values": [4]}],
    LENGTH + ["--rho", "3"],
    LENGTH + ["--target", "(())"],
    ["--experiment", "construct", "--n", "3", "--rho", "3"],
    _config(rho=3.0),
    _config(target="(())"),
    ["--experiment", "local-arrangement", "--n", "100", "--rho", "nan", "--trials", "100",
     "--target", "(())"],
    ["--experiment", "construct", "--n", "3", "--target", "(" * 14 + ")" * 14],
    ["--experiment", "construct", "--n", "14"],
], ids=["grid", "local-trials", "local-target", "construct-target", "config-key",
        "workers-0", "workers-negative", "repeated-n", "config-n-values-int",
        "config-trials-str", "config-n-values-float", "no-experiment", "no-n",
        "config-no-experiment", "length-rho", "length-target", "construct-rho",
        "config-rho", "config-target", "local-rho-nan", "construct-13-circles",
        "construct-n-14"])
def test_run_refuses_a_bad_config_before_any_output(tmp_path, monkeypatch, flags):
    from lemnilab import constructor

    # and it realizes no form: construct --n 14 would otherwise try some 20,000
    monkeypatch.setattr(constructor, "realize", lambda spec: pytest.fail("realized a form"))
    out = str(tmp_path / "res")
    cfg = tmp_path / "cfg.json"
    if isinstance(flags[-1], dict):
        cfg.write_text(json.dumps({**flags[-1], "output_dir": out}))
        flags = flags[:-1] + [str(cfg)]
    with pytest.raises(ConfigError):
        main(["run", "--out", out] + flags)
    assert not os.path.exists(out)


@pytest.mark.parametrize("output_dir", [5, None])
def test_run_refuses_a_config_output_dir_that_is_no_path(tmp_path, monkeypatch, output_dir):
    # no --out, so the file's output_dir is the one run would create
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "length", "n_values": [4], "trials": 1,
                               "output_dir": output_dir}))
    with pytest.raises(ConfigError, match="output_dir"):
        main(["run", "--config", str(cfg)])
    assert os.listdir(tmp_path) == ["cfg.json"]

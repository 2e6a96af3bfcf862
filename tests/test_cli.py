import json

import pytest

from pixelinv import cli, experiments
from pixelinv.cli import main


def test_unknown_experiment_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    code = main(["stability", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, setting",
    [
        ("nonuniqueness", "sigma_step=0"),
        ("nonuniqueness", "sigma_step=-0.1"),
        ("nonuniqueness", "sigma_step=1e-300"),
        ("nonuniqueness", "sigma_step=2\nsigma_max=1"),
        ("landscape", "landscape_step=1"),
        ("landscape", "landscape_step=0"),
        ("landscape", "landscape_step=nan"),
        ("stability", "tol=nan"),
        ("properties", "tol=inf"),
        ("properties", "nx=1"),
        ("nonuniqueness", "k=-1"),
        ("stability", "k=0"),
        ("nonuniqueness", "max_iter=-1"),
        ("properties", "tol_jacobain_fd=1e-30"),
        ("properties", "tol_jacobian_fd=nan"),
        ("landscape", "nx=0"),
        ("landscape", "landscape_step=1e-6"),
        ("landscape", "nx=4"),
        ("stability", "nx_min=1"),
        ("stability", "nx_min=5\nnx_max=3"),
        ("stability", "radius_fraction=-0.25"),
        ("nonuniqueness", "radius_fraction=0.5"),
        ("landscape", "radius_fraction=5"),
        ("properties", "radius_fraction=nan"),
        ("properties", "seed=-1"),
    ],
)
def test_bad_step_or_tolerance_is_usage_error(tmp_path, capsys, experiment, setting):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(setting + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and setting.split("=")[0] in err
    assert not out.exists()


def test_nonuniqueness_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_step=1.0\nk=1\n", encoding="utf-8")
    code = main(["nonuniqueness", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("# config:")
    assert lines[1] == "pixel,sigma_i,F_value"
    assert len(lines) == 2 + 27


def test_cli_flags_override_config(tmp_path):
    out = tmp_path / "stab.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx_min=2\nnx_max=3\nk=4\n", encoding="utf-8")
    code = main(["stability", "--config", str(cfg), "--k", "2", "--out", str(out)])
    assert code == 0
    comment = out.read_text(encoding="utf-8").split("\n")[0]
    assert "k=2" in comment


def test_zero_k_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert main(["stability", "--k", "0", "--out", str(out)]) == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["nonuniqueness", "properties"])
def test_out_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch, experiment):
    # Refused before the study runs, not when its output is written.
    def not_run(config):
        raise AssertionError("the study ran")

    monkeypatch.setitem(cli._RUNNERS, "nonuniqueness", not_run)
    monkeypatch.setattr(cli, "run_property_suite", not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main([experiment, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad config" in err and "does not exist" in err
    assert not out.parent.exists()


def test_properties_pass_and_fail_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "props.json"
    assert main(["properties", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_passed"]

    monkeypatch.setitem(experiments.CHECKS, "difference_identity", (1e-18, "le"))
    out2 = tmp_path / "props2.json"
    assert main(["properties", "--out", str(out2)]) == 1
    report = json.loads(out2.read_text(encoding="utf-8"))
    assert not report["all_passed"]

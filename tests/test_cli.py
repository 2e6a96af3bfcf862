import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "experiment, setting, named",
    [
        ("stability", "tol=1e-300", "missed tolerance 1e-300"),
        ("properties", "tol=1e-300", "missed tolerance 1e-300"),
        ("nonuniqueness", "sigma_step=1e6\nsigma_max=1e8", "sweep sample 2 of 100"),
    ],
)
def test_failed_solve_is_one_line_and_exit_2(tmp_path, capsys, experiment, setting, named):
    # A config that is valid when built can still ask for more than the solver
    # gives: the run ends in SolverError, reported as one line, not a traceback.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"pixelinv: {experiment} failed: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("nx", [3, 6])
def test_refused_input_is_one_line_and_exit_2(tmp_path, capsys, nx):
    # A study's ValueError on a valid config (dependent loads at k=1) is reported
    # like a failed solve: one line, exit 2, no output written.
    out = tmp_path / "props.json"
    assert main(["properties", "--k", "1", "--nx", str(nx), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("pixelinv: properties failed: ") and "have rank" in err
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


def test_flags_apply_before_the_one_check(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx=1\nsigma_step=1.0\nk=1\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    assert main(["nonuniqueness", "--config", str(cfg), "--nx", "3", "--out", str(out)]) == 0
    assert "nx=3" in out.read_text(encoding="utf-8").split("\n")[0].split()

    out.unlink()
    cfg.write_text("nx=1\nsigma_step=0\n", encoding="utf-8")
    assert main(["nonuniqueness", "--config", str(cfg), "--nx", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "pixelinv: bad config: sigma_step must be positive and finite, got 0.0\n"
    assert not out.exists()


def test_zero_k_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    assert main(["stability", "--k", "0", "--out", str(out)]) == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_unparsable_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=2\nnx=3.5\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["nonuniqueness", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"bad config: {cfg}:2: bad value for config key 'nx'" in err and "'3.5'" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("k", True), ("seed", 2.5), ("nx_min", 2.5)])
def test_non_integer_config_field_is_usage_error(tmp_path, capsys, monkeypatch, field, value):
    config = experiments.ExperimentConfig
    monkeypatch.setattr(experiments, "ExperimentConfig", lambda **flags: config(**flags, **{field: value}))
    out = tmp_path / "stab.csv"
    assert main(["stability", "--out", str(out)]) == 2
    assert f"bad config: {field} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["nonuniqueness", "properties"])
def test_out_in_missing_directory_is_usage_error(tmp_path, capsys, monkeypatch, experiment):
    # Refused before the study runs, not when its output is written.
    def not_run(config):
        raise AssertionError("the study ran")

    monkeypatch.setattr(experiments, "run_nonuniqueness_sweep", not_run)
    monkeypatch.setattr(experiments, "run_property_suite", not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main([experiment, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "bad config" in err and "does not exist" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("experiment", ["nonuniqueness", "properties"])
def test_out_naming_a_directory_is_usage_error(tmp_path, capsys, monkeypatch, experiment):
    def not_run(config):
        raise AssertionError("the study ran")

    monkeypatch.setattr(experiments, "run_nonuniqueness_sweep", not_run)
    monkeypatch.setattr(experiments, "run_property_suite", not_run)
    assert main([experiment, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"pixelinv: bad config: out={tmp_path} is a directory\n"
    assert list(tmp_path.iterdir()) == []


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


def test_cli_nx_and_seed_flags_override_config(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_step=1.0\nsigma_max=3.0\n", encoding="utf-8")
    code = main(["nonuniqueness", "--config", str(cfg), "--nx", "4", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    fields = lines[0].split()
    assert "nx=4" in fields and "seed=5" in fields
    assert len(lines) == 2 + 16 * 3


def fresh_python(code, *args):
    """Standard output of ``code`` (or of ``-m pixelinv.cli`` with ``args``) in
    a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    command = ["-c", code] if code else ["-m", "pixelinv.cli", *args]
    return subprocess.run([sys.executable, *command], env=environ, capture_output=True, text=True,
                          check=True, timeout=120).stdout


def test_import_loads_no_numpy_and_leaves_the_environment_alone():
    code = """
import os, sys
before = dict(os.environ)
import pixelinv, pixelinv.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
pixelinv.cli.build_parser()
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
for name in pixelinv.__all__:
    getattr(pixelinv, name)
print("numpy" in sys.modules, dict(os.environ) == before)
"""
    assert fresh_python(code).split("\n") == ["[]", "[]", "True True", ""]


def test_module_entry_runs_a_study(tmp_path):
    out = tmp_path / "stab.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx_min=2\nnx_max=3\n", encoding="utf-8")
    assert fresh_python(None, "stability", "--config", str(cfg), "--out", str(out)) == f"2 rows written to {out}\n"
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1] == "nx,n,m,cond" and [line.rsplit(",", 1)[0] for line in lines[2:]] == ["2,4,4", "3,9,8"]


def test_main_in_process_leaves_the_environment_alone(tmp_path):
    before = dict(os.environ)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nx_min=2\nnx_max=3\n", encoding="utf-8")
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "stab.csv")]) == 0
    assert main(["stability", "--k", "0"]) == 2
    assert dict(os.environ) == before

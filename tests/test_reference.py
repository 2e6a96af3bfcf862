"""The four studies' outputs, at small configs, against references committed under ``tests/data``.

The references were written by running this file as a script::

    PYTHONPATH=src python tests/test_reference.py tests/data

Every study runs on one OpenBLAS thread whatever the caller's count, so the files it writes are the same on one
thread and on two, byte for byte, and an in-process run from a caller on two threads writes those bytes too.

The config comment, the header, the row count and every column not produced by a solve (integers, the sample
grids) compare as text. Each solved float column is allowed ``FACTOR`` times the largest legitimate change
recorded for it so far:

* landscape ``R``: 1.36e-14 of max R (the factor-less solve's block substitution), 1e-14 and 7.7e-15 (the
  sweep's batches);
* nonuniqueness ``F_value``: 1.02e-15 relative (the factor-less solve's block substitution, at the defaults);
* stability ``cond``: 2.8e-13 relative (the SVD kernel), 2.7e-13 (two BLAS threads);
* ``properties``: 3.1e-14 relative (the refinement checks on two BLAS threads). Measurements at rounding
  level moved from 3.7e-16 to 0 (``solve_symmetry``), so each also gets an absolute floor of ``FACTOR``
  times that; ``jacobian_fd`` divides a drift in F by its 1e-5 step, so its floor is ``FACTOR`` times the
  F drift over the step.

A reference that is regenerated is stated with its largest old-to-new difference per column, and so is a
change that moves the outputs; to print it, for every solved column and ``properties`` measurement (absolute, of
the column's largest reference entry, and entry by entry relative), run::

    PYTHONPATH=src python tests/test_reference.py --compare
"""

import ctypes
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from pixelinv import experiments
from pixelinv.cli import _RUNNERS, main
from pixelinv.linsolve import SolverError

DATA = Path(__file__).resolve().parent / "data"
FACTOR = 10.0
_F_DRIFT = 1.02e-15

# Each CSV study: its config, and the allowed difference of each solved column from the reference column.
STUDIES = {
    "landscape": (
        dict(landscape_step=0.02), {"R": lambda ref: FACTOR * 1.36e-14 * np.abs(ref).max()}),
    "nonuniqueness": (
        dict(sigma_step=0.1), {"F_value": lambda ref: FACTOR * _F_DRIFT * np.abs(ref)}),
    "stability": (
        dict(nx_max=12), {"cond": lambda ref: FACTOR * 2.8e-13 * np.abs(ref)}),
}
_PROPERTIES_RELATIVE, _PROPERTIES_FLOOR = FACTOR * 3.1e-14, FACTOR * 3.7e-16
_FLOORS = {"jacobian_fd": FACTOR * _F_DRIFT / 1e-5}
FILES = [f"{name}.csv" for name in STUDIES] + ["properties.json"]

# The thread-count setter of numpy's and of scipy's OpenBLAS; each returns the count it replaces.
SETTERS = [ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)(("openblas_set_num_threads_local", ctypes.CDLL(path)))
           for path in (np._core._multiarray_umath.__file__, scipy.linalg._flapack.__file__)]


def write_outputs(directory: Path) -> None:
    """The three CSV studies and the ``properties`` measured values, written into ``directory``."""
    for name, (config, _) in STUDIES.items():
        result = getattr(experiments, _RUNNERS[name])(experiments.ExperimentConfig(experiment=name, **config))
        experiments.write_csv(result, directory / f"{name}.csv")
    report = experiments.run_property_suite(experiments.ExperimentConfig(experiment="properties"))
    measured = {check["name"]: check["measured"] for check in report["checks"]}
    (directory / "properties.json").write_text(json.dumps(measured, indent=2) + "\n", encoding="utf-8")


def _assert_within(label, got, ref, bound):
    excess = np.abs(got - ref) - bound
    worst = int(np.argmax(excess))
    assert not (excess > 0.0).any(), f"{label} row {worst + 1}: {got[worst]!r} against {ref[worst]!r}"


def assert_match_references(directory: Path) -> None:
    for name, (_, tolerances) in STUDIES.items():
        got, ref = ((path / f"{name}.csv").read_text(encoding="utf-8").splitlines() for path in (directory, DATA))
        assert got[:2] == ref[:2] and len(got) == len(ref), f"{name}: config, header or row count"
        got_cells, ref_cells = (np.array([line.split(",") for line in lines[2:]]) for lines in (got, ref))
        for j, column in enumerate(ref[1].split(",")):
            if column in tolerances:
                want = ref_cells[:, j].astype(float)
                _assert_within(f"{name} {column}", got_cells[:, j].astype(float), want, tolerances[column](want))
            else:
                assert got_cells[:, j].tolist() == ref_cells[:, j].tolist(), f"{name} {column}"
    got, ref = (json.loads((path / "properties.json").read_text(encoding="utf-8")) for path in (directory, DATA))
    assert list(got) == list(ref), "properties: check names"
    for check, want in ref.items():
        bound = max(_PROPERTIES_RELATIVE * abs(want), _FLOORS.get(check, _PROPERTIES_FLOOR))
        _assert_within(f"properties {check}", np.array([got[check]]), np.array([want]), bound)


def _solved_columns(directory: Path):
    """``(label, values)`` of each solved column of the CSV studies, then of each ``properties`` measurement."""
    for name, (_, tolerances) in STUDIES.items():
        lines = (directory / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        cells = np.array([line.split(",") for line in lines[2:]])
        for j, column in enumerate(lines[1].split(",")):
            if column in tolerances:
                yield f"{name} {column}", cells[:, j].astype(float)
    for check, value in json.loads((directory / "properties.json").read_text(encoding="utf-8")).items():
        yield f"properties {check}", np.array([value])


def print_differences(directory: Path) -> None:
    """Print the largest difference of each solved column written into ``directory`` from its reference."""
    for (label, got), (_, ref) in zip(_solved_columns(directory), _solved_columns(DATA), strict=True):
        if got.shape != ref.shape:
            print(f"{label}: {got.size} rows against {ref.size}")
            continue
        diff = np.abs(got - ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(diff == 0.0, 0.0, diff / np.abs(ref)).max()
            of_largest = diff.max() / np.abs(ref).max() if diff.any() else 0.0
        print(f"{label}: {diff.max():.2g} absolute, {of_largest:.2g} of the largest, {relative:.2g} relative")


def test_compare_prints_one_line_a_solved_column(capsys):
    print_differences(DATA)  # the references against themselves
    lines = capsys.readouterr().out.splitlines()
    checks = json.loads((DATA / "properties.json").read_text(encoding="utf-8"))
    assert [line.split(":")[0] for line in lines] == [f"{name} {column}" for name, (_, tolerances) in STUDIES.items()
                                                      for column in tolerances] + [f"properties {c}" for c in checks]
    assert all(line.endswith(": 0 absolute, 0 of the largest, 0 relative") for line in lines)


def test_outputs_match_the_references(tmp_path):
    write_outputs(tmp_path)
    assert_match_references(tmp_path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The directories this file, run as a script, writes on one and on two OpenBLAS threads."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    directories = {}
    for threads in (1, 2):
        directories[threads] = tmp_path_factory.mktemp(f"threads{threads}")
        environ = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, __file__, str(directories[threads])], env=environ, check=True, timeout=120)
    return directories


def test_outputs_match_the_references_on_two_blas_threads(written):
    assert_match_references(written[2])


def test_outputs_are_the_same_bytes_on_one_and_two_blas_threads(written):
    for name in FILES:
        assert (written[2] / name).read_bytes() == (written[1] / name).read_bytes(), name


@pytest.fixture()
def two_threads():
    """Both OpenBLAS copies on two threads while the test runs, then back at the counts found. Calling the
    fixture's value reads both counts, leaving them at two."""
    found = [set_threads(2) for set_threads in SETTERS]
    yield lambda: [set_threads(2) for set_threads in SETTERS]
    for set_threads, count in zip(SETTERS, found):
        set_threads(count)


def test_runners_and_main_write_the_one_thread_bytes_and_restore_the_callers_count(tmp_path, written, two_threads):
    write_outputs(tmp_path)
    assert two_threads() == [2, 2]
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (written[1] / name).read_bytes(), name
    for name, (config, _) in STUDIES.items():
        (tmp_path / "study.cfg").write_text("".join(f"{key}={value}\n" for key, value in config.items()),
                                             encoding="utf-8")
        assert main([name, "--config", str(tmp_path / "study.cfg"), "--out", str(tmp_path / "main.csv")]) == 0
        assert two_threads() == [2, 2]
        assert (tmp_path / "main.csv").read_bytes() == (written[1] / f"{name}.csv").read_bytes(), name
    assert main(["properties", "--out", str(tmp_path / "main.json")]) == 0
    assert two_threads() == [2, 2]
    report = json.loads((tmp_path / "main.json").read_text(encoding="utf-8"))
    measured = json.loads((written[1] / "properties.json").read_text(encoding="utf-8"))
    assert {check["name"]: check["measured"] for check in report["checks"]} == measured


def test_a_failed_study_restores_the_callers_count(tmp_path, two_threads):
    with pytest.raises(SolverError):
        experiments.run_stability_study(experiments.ExperimentConfig(nx_max=3, tol=1e-300))
    assert two_threads() == [2, 2]
    (tmp_path / "study.cfg").write_text("nx_max=3\ntol=1e-300\n", encoding="utf-8")
    assert main(["stability", "--config", str(tmp_path / "study.cfg"), "--out", str(tmp_path / "s.csv")]) == 2
    assert two_threads() == [2, 2]
    assert not (tmp_path / "s.csv").exists()


def test_concurrent_studies_take_turns_and_restore_the_callers_count(tmp_path, written, two_threads, monkeypatch):
    # Study A is parked inside its set-up, holding the one-thread pin; study B, started on a second thread, must
    # not enter its set-up until A is done, so neither restores the other's count.
    entered, parked, release = [], threading.Event(), threading.Event()

    def build_mesh(*args, **kwargs):
        entered.append(threading.current_thread().name)
        if len(entered) == 1:
            parked.set()
            release.wait(timeout=60)
        return original(*args, **kwargs)

    original = experiments.build_mesh
    monkeypatch.setattr(experiments, "build_mesh", build_mesh)
    results = {}

    def run(name):
        config, _ = STUDIES[name]
        results[name] = getattr(experiments, _RUNNERS[name])(experiments.ExperimentConfig(experiment=name, **config))

    studies = [threading.Thread(target=run, args=(name,), name=name) for name in ("landscape", "nonuniqueness")]
    try:
        studies[0].start()
        assert parked.wait(timeout=60)
        studies[1].start()
        studies[1].join(timeout=0.5)
        assert entered == ["landscape"]
    finally:
        release.set()
        for study in studies:
            if study.ident is not None:  # started
                study.join(timeout=120)
    assert not any(study.is_alive() for study in studies) and entered == ["landscape", "nonuniqueness"]
    for name in ("landscape", "nonuniqueness"):
        experiments.write_csv(results[name], tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (written[1] / f"{name}.csv").read_bytes(), name
    assert two_threads() == [2, 2]


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        with tempfile.TemporaryDirectory() as directory:
            write_outputs(Path(directory))
            print_differences(Path(directory))
    else:
        write_outputs(Path(sys.argv[1]))

"""The four studies' outputs, at small configs, against references committed under ``tests/data``.

The references were written on one BLAS thread by running this file as a script::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_reference.py tests/data

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

A reference that is regenerated is stated with its largest old-to-new difference per column.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pixelinv import experiments
from pixelinv.cli import _RUNNERS

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


def test_outputs_match_the_references(tmp_path):
    write_outputs(tmp_path)
    assert_match_references(tmp_path)


def test_outputs_match_the_references_on_two_blas_threads(tmp_path):
    environ = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    src = str(Path(experiments.__file__).resolve().parents[1])
    environ["PYTHONPATH"] = os.pathsep.join([src, environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=environ, check=True, timeout=120)
    assert_match_references(tmp_path)


if __name__ == "__main__":
    write_outputs(Path(sys.argv[1]))

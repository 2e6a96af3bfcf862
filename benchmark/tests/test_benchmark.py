"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import pixelinv  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "forward": {**workloads.PINNED["forward"], "nx": 3, "k": 2, "evals_per_pass": 2, "oracle_evals": 1},
    "landscape": {**workloads.PINNED["landscape"], "k": 2, "landscape_step": 0.1, "oracle_rows": 4},
    "stability": {**workloads.PINNED["stability"], "nx_min": 3, "nx_max": 4},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric(name, trace, kind):
    result, record = workloads.run(name, seed=3, seconds=0.05, trace=trace, inputs=TINY[name])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["errors"]
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared(kind)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_traced_run_finds_every_probe_and_counts_one_solve_per_load():
    result, record = workloads.run("forward", seed=3, seconds=0.05, trace=1, inputs=TINY["forward"])
    assert record["missing_probes"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["forward.solves_per_load"] == 1.0
    assert metrics["linsolve.solves"] == metrics["forward.matrix_calls"] * 8  # m = 8 on the 3x3 grid


def test_computed_counts_repeat_for_a_seed():
    counts = ("linsolve.cg_iterations", "linsolve.solves", "linsolve.spmv_bytes_computed", "assembly.nnz_computed")
    runs = [workloads.run("forward", seed=3, seconds=seconds, trace=1, inputs=TINY["forward"])[0]["metrics"]
            for seconds in (0.05, 0.3)]
    assert [{k: m[k]["value"] for k in counts} for m in runs] == [{k: runs[0][k]["value"] for k in counts}] * 2


def test_corrupted_output_counts_as_failed(monkeypatch):
    original = pixelinv.forward_matrix

    def corrupted(*args, **kwargs):
        F, jac = original(*args, **kwargs)
        F.values[0, 1] *= 1.0 + 1e-6
        return F, jac

    monkeypatch.setattr(pixelinv, "forward_matrix", corrupted)
    result, _ = workloads.run("forward", seed=3, seconds=0.05, trace=0, inputs=TINY["forward"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_corrupted_landscape_row_counts_as_failed(monkeypatch):
    original = pixelinv.run_residual_landscape

    def corrupted(config):
        result = original(config)
        result.rows[0] = (result.rows[0][0], result.rows[0][1], -1.0)
        return result

    monkeypatch.setattr(pixelinv, "run_residual_landscape", corrupted)
    result, record = workloads.run("landscape", seed=3, seconds=0.05, trace=0, inputs=TINY["landscape"])
    assert result["failed"] == record["passes"] and not result["correct"]  # one row in each pass


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "forward", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

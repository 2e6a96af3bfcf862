import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pixelinv import experiments, forward
from pixelinv.assembly import assemble_pixel_matrices
from pixelinv.experiments import (
    CHECKS,
    ExperimentConfig,
    load_config,
    run_nonuniqueness_sweep,
    run_property_suite,
    run_residual_landscape,
    run_stability_study,
    write_csv,
)


def read_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "nx=4\n"
            "k = 2\n"
            "sigma_step=0.1\n"
            "out=result.csv\n",
            encoding="utf-8",
        )
        cfg = load_config(cfg_file)
        assert cfg.nx == 4
        assert cfg.k == 2
        assert cfg.sigma_step == 0.1
        assert cfg.out == "result.csv"

    def test_unknown_key_rejected(self, tmp_path):
        # The refinement cap and the check tolerances are constants, not
        # settings: their old keys are unknown, whatever the value.
        cfg_file = tmp_path / "bad.cfg"
        for line in (
            "bogus=1",
            "max_iter=-1",
            "max_iter=10",
            "tol_jacobain_fd=1e-30",
            "tol_jacobian_fd=nan",
            "tol_jacobian_fd=-1e-5",
            "tol_jacobian_fd=1e-7",
            "tolerance_overrides=1",
        ):
            cfg_file.write_text(line + "\n", encoding="utf-8")
            key = line.partition("=")[0]
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                load_config(cfg_file)

    @pytest.mark.parametrize("field", ["sigma_step", "landscape_step", "tol"])
    @pytest.mark.parametrize("value", [0.0, -0.5, float("nan"), float("inf")])
    def test_nonpositive_or_nonfinite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            run_stability_study(dataclasses.replace(ExperimentConfig(nx_min=2, nx_max=2), **{field: value}))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"sigma_step": 2.0, "sigma_max": 1.0}, "sigma_step=2.0 is larger than sigma_max"),
            ({"landscape_step": 1.0}, "landscape_step=1.0 is larger than landscape_max"),
            ({"sigma_step": 1e-300}, "sigma_step=1e-300 asks for 3e\\+300 sweep points"),
            ({"landscape_step": 1e-7}, "landscape_step=1e-07 asks for 6e\\+06 sweep points"),
            ({"nx": 1}, "nx must be at least 2, got 1"),
            ({"k": -1}, "k must be at least 1, got -1"),
            ({"nx_min": 1}, "nx_min must be at least 2, got 1"),
            ({"nx_min": 5, "nx_max": 3}, "nx_min=5 is larger than nx_max=3"),
            ({"experiment": "landscape", "nx": 4}, "nx must be 3 for the landscape study"),
            ({"radius_fraction": -0.25}, r"radius_fraction must be in \(0, 0.5\), got -0.25"),
            ({"radius_fraction": 0.5}, r"radius_fraction must be in \(0, 0.5\), got 0.5"),
            ({"radius_fraction": 5.0}, r"radius_fraction must be in \(0, 0.5\), got 5.0"),
            ({"radius_fraction": float("nan")}, r"radius_fraction must be in \(0, 0.5\), got nan"),
            ({"radius_fraction": 0.0}, r"radius_fraction must be in \(0, 0.5\), got 0.0"),
            ({"k": 0}, "k must be at least 1, got 0"),
            ({"seed": -1}, "seed must be at least 0, got -1"),
            ({"sigma_max": 0.0}, "sigma_max must be positive and finite, got 0.0"),
            ({"sigma_max": float("nan")}, "sigma_max must be positive and finite, got nan"),
            ({"landscape_max": float("inf")}, "landscape_max must be positive and finite, got inf"),
            ({"landscape_step": 1e-6}, "landscape_step=1e-06 asks for 6e\\+05 sweep points per axis .* at most 1000"),
            ({"landscape_step": 1e-300}, "landscape_step=1e-300 asks for 6e\\+299 sweep points per axis"),
        ],
    )
    def test_empty_or_oversized_sweep_rejected(self, settings, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**settings)
        with pytest.raises(ValueError, match=message):
            run_nonuniqueness_sweep(dataclasses.replace(ExperimentConfig(), **settings))

    @pytest.mark.parametrize(
        "field, value",
        [("k", True), ("seed", 2.5), ("nx", 3.5), ("nx_min", 2.5), ("nx_max", 4.0), ("seed", False),
         ("nx", "3"), ("k", np.float64(2.0))],
    )
    def test_integer_fields_refuse_bools_and_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            run_stability_study(dataclasses.replace(ExperimentConfig(), **{field: value}))

    def test_numpy_integers_are_integers(self):
        ExperimentConfig(nx=np.int64(3), k=np.int32(2), seed=np.uint8(7))

    @pytest.mark.parametrize(
        "field, value",
        [("tol", True), ("tol", "1e-10"), ("sigma_step", None), ("radius_fraction", True), ("sigma_max", False),
         ("landscape_step", "0.02"), ("landscape_max", np.bool_(True)), ("tol", 1e-10j), ("sigma_step", [0.01])],
    )
    def test_float_fields_refuse_bools_and_non_reals(self, field, value):
        # True would pass as 1.0 (tol=True accepts nearly any solve), and a string or None
        # would end in a bare TypeError from the range checks.
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {re.escape(repr(value))}$"):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            run_stability_study(dataclasses.replace(ExperimentConfig(), **{field: value}))

    def test_numbers_of_any_real_type_are_accepted(self):
        # Integers and numpy scalars are real numbers too; none of them changes what the study computes.
        cfg = ExperimentConfig(experiment="landscape", radius_fraction=np.float32(0.25), sigma_step=np.float64(0.01),
                               sigma_max=3, landscape_step=0.2, landscape_max=np.int64(1), tol=np.float64(1e-10))
        plain = dataclasses.replace(cfg, radius_fraction=0.25, sigma_max=3.0, landscape_max=1.0, tol=1e-10)
        assert run_residual_landscape(cfg).rows == run_residual_landscape(plain).rows

    @pytest.mark.parametrize(
        "step, stop, count",
        [(0.01, 3.0, 300), (0.002, 0.6, 300), (0.02, 0.6, 30), (0.4, 0.6, 1), (0.6, 0.6, 1), (0.7, 3.0, 4)],
    )
    def test_sweep_values_stay_within_max(self, step, stop, count):
        values = experiments._sweep_values(step, stop)
        assert len(values) == count
        assert values[0] == step and values[-1] <= stop

    def test_sweep_rounds_down_rather_than_pass_max(self):
        # round(2.0 / 0.7) = 3 samples would end at 2.1, past sigma_max.
        assert experiments._sweep_values(0.7, 2.0).tolist() == [0.7, 1.4]
        result = run_nonuniqueness_sweep(ExperimentConfig(k=1, sigma_step=0.7, sigma_max=2.0))
        assert sorted({row[1] for row in result.rows}) == [0.7, 1.4]
        assert len(result.rows) == 9 * 2

    # Most draws are invalid and cost nothing; about one in ten runs the study.
    @settings(max_examples=300, deadline=None)
    @given(
        nx=st.integers(-2, 4),
        k=st.integers(-2, 4),
        nx_min=st.integers(-2, 4),
        nx_max=st.integers(-2, 4),
    )
    def test_grid_values_give_clean_error_or_valid_rows(self, nx, k, nx_min, nx_max):
        try:
            cfg = ExperimentConfig(nx=nx, k=k, nx_min=nx_min, nx_max=nx_max)
        except ValueError:
            event("rejected")
            return
        event("ran")
        result = run_stability_study(cfg)
        assert [r[0] for r in result.rows] == list(range(nx_min, nx_max + 1))
        for row in result.rows:
            assert row[3] == np.inf or (np.isfinite(row[3]) and row[3] >= 1.0)

    def test_config_is_frozen(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nx = 4
        assert cfg.nx == 3

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
            dataclasses.replace(ExperimentConfig(), k=0)

    def test_landscape_checks_an_untagged_config_and_keeps_its_tag(self):
        with pytest.raises(ValueError, match="nx must be 3 for the landscape study"):
            run_residual_landscape(ExperimentConfig(nx=4))
        cfg = ExperimentConfig(experiment="scan", landscape_step=0.3)
        result = run_residual_landscape(cfg)
        assert result.config is cfg and "experiment=scan " in result.config.comment()

    def test_defaults_are_the_values_used(self):
        cfg = ExperimentConfig()
        assert (cfg.k, cfg.radius_fraction, cfg.tol) == (4, 0.25, 1e-10)
        comment = cfg.comment()
        assert " k=4 " in comment and " radius_fraction=0.25 " in comment and " tol=1e-10 " in comment
        assert "max_iter" not in comment and "tol_" not in comment

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nx 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key=value"):
            load_config(cfg_file)

    def test_unparsable_value_names_file_line_and_key(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("# grid\nnx=3.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: bad value for config key 'nx': invalid literal"):
            load_config(cfg_file)


@pytest.fixture(scope="module")
def coarse_result():
    # Coarser sampling than the production default keeps the test fast
    # while preserving the curve shapes.
    return run_nonuniqueness_sweep(ExperimentConfig(k=2, sigma_step=0.05))


@pytest.fixture(scope="module")
def suite_report():
    return run_property_suite(ExperimentConfig())


class TestNonuniquenessSweep:
    def test_row_count_and_header(self, coarse_result):
        assert coarse_result.header == ["pixel", "sigma_i", "F_value"]
        assert len(coarse_result.rows) == 9 * 60

    def test_curve_shapes(self, coarse_result):
        rows = np.array(coarse_result.rows, dtype=float)
        curves = {int(p): rows[rows[:, 0] == p][:, 2] for p in range(1, 10)}
        for corner in (1, 3, 7, 9):
            assert np.all(np.diff(curves[corner]) < 0)
        assert np.all(np.diff(curves[5]) > 0)
        for edge in (2, 4, 6, 8):
            diffs = np.diff(curves[edge])
            peak = int(np.argmax(curves[edge]))
            assert 0 < peak < len(curves[edge]) - 1
            assert np.all(diffs[:peak] > 0)
            assert np.all(diffs[peak:] < 0)

    def test_solves_do_not_grow_with_samples(self, solve_counter):
        counts = []
        for step in (1.0, 0.25):
            before = solve_counter.solves
            run_nonuniqueness_sweep(ExperimentConfig(k=2, sigma_step=step))
            counts.append(solve_counter.solves - before)
        assert counts[0] == counts[1] > 0

    def test_default_study_solves_no_sample_on_its_own(self, stiffness3x4, solve_counter):
        # Each pixel's sweep solves B_RR for the one excitation and the |S| columns
        # of B_RS, and nothing more: every default sample is served by its pencil.
        result = run_nonuniqueness_sweep(ExperimentConfig())
        assert len(result.rows) == 9 * 300
        assert solve_counter.solves == sum(1 + np.count_nonzero(dofs >= 0) for dofs in stiffness3x4.dofs)

    def test_deterministic_output(self, tmp_path):
        # Byte-identical across reruns, including when the destination
        # path differs (the config comment omits the output path).
        paths = []
        for name in ("a.csv", "b.csv"):
            cfg = ExperimentConfig(k=1, sigma_step=0.5, out=str(tmp_path / name))
            out = tmp_path / name
            write_csv(run_nonuniqueness_sweep(cfg), out)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "sweep.csv"
        write_csv(run_nonuniqueness_sweep(ExperimentConfig(k=1, sigma_step=1.0)), out)
        header, rows = read_rows(out)
        assert header == ["pixel", "sigma_i", "F_value"]
        assert len(rows) == 27
        # 17-significant-digit float formatting round-trips exactly.
        value = rows[0][2]
        assert float(value) == float(format(float(value), ".17g"))


class TestResidualLandscape:
    def test_grid_and_truth(self):
        cfg = ExperimentConfig(k=2, landscape_step=0.1, landscape_max=0.6)
        result = run_residual_landscape(cfg)
        assert result.header == ["sigma4", "sigma6", "R"]
        assert len(result.rows) == 36
        at_truth = [r for r in result.rows if r[0] == 0.5 and r[1] == 0.5]
        assert len(at_truth) == 1
        assert at_truth[0][2] == 0.0

    def test_truth_reads_exactly_zero_at_k4(self):
        # The truth is its own sample and shares its line with the grid's
        # (0.5, 0.5), in another place: both must give bit-identical values.
        result = run_residual_landscape(ExperimentConfig(k=4, landscape_step=0.02, landscape_max=0.6))
        assert len(result.rows) == 900
        at_truth = [r for r in result.rows if r[0] == 0.5 and r[1] == 0.5]
        assert len(at_truth) == 1
        assert at_truth[0][2] == 0.0

    def test_memory_peak_at_the_defaults(self):
        # 300 x 300 points: the result's rows are most of the peak, which read
        # 21.02 MB with one line of the sweep at a time; batches must not raise it.
        run_residual_landscape(ExperimentConfig(k=2, landscape_step=0.1, landscape_max=0.6))  # warm, untraced
        tracemalloc.start()
        try:
            result = run_residual_landscape(ExperimentConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.rows) == 90_000
        assert peak <= 21.05e6

    def test_solves_do_not_grow_with_points(self, solve_counter):
        counts = []
        for step in (0.1, 0.05):
            before = solve_counter.solves
            run_residual_landscape(ExperimentConfig(k=2, landscape_step=step, landscape_max=0.6))
            counts.append(solve_counter.solves - before)
        assert counts[0] == counts[1] > 0

    def test_requires_3x3(self):
        with pytest.raises(ValueError):
            run_residual_landscape(ExperimentConfig(nx=4))

    def test_diagonal_has_second_minimum(self):
        cfg = ExperimentConfig(k=2, landscape_step=0.002, landscape_max=0.02)
        # The spurious minimum sits near the bottom of the range; sample
        # the diagonal only, via the full grid of a clipped range.
        result = run_residual_landscape(cfg)
        diag = [r for r in result.rows if r[0] == r[1]]
        values = np.array([r[2] for r in diag])
        interior = [
            i
            for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] < values[i + 1]
        ]
        assert interior, "expected a local minimum on the clipped diagonal"


class TestStabilityStudy:
    def test_rows_and_growth(self):
        cfg = ExperimentConfig(nx_min=2, nx_max=5, k=2)
        result = run_stability_study(cfg)
        assert result.header == ["nx", "n", "m", "cond"]
        assert [r[0] for r in result.rows] == [2, 3, 4, 5]
        assert [r[2] for r in result.rows] == [4, 8, 12, 16]
        conds = [r[3] for r in result.rows]
        assert all(b > a for a, b in zip(conds, conds[1:]))

    def test_every_rung_uses_the_configured_k(self):
        # No hidden coarser mesh from nx=10 on: the default run equals k=4.
        default = run_stability_study(ExperimentConfig(nx_min=9, nx_max=10))
        explicit = run_stability_study(ExperimentConfig(nx_min=9, nx_max=10, k=4))
        assert default.rows == explicit.rows
        # The growth ratio across nx=9 -> 10 stays in line with its neighbours.
        assert default.rows[1][3] / default.rows[0][3] > 3.0

    def test_only_rank_deficiency_reads_as_infinite(self, monkeypatch):
        def broken(jac):
            raise ValueError("not a rank problem")

        monkeypatch.setattr(experiments, "condition_number", broken)
        with pytest.raises(ValueError, match="not a rank problem"):
            run_stability_study(ExperimentConfig(nx_min=2, nx_max=2, k=1))

    def test_a_rung_contracts_the_orbits_first_pixels_only(self, monkeypatch):
        # nx = 12: 42 pixel orbits of the grid's four symmetries, of 144 pixels.
        contracted, contract = [], forward._pixel_quadratic_forms
        monkeypatch.setattr(forward, "_pixel_quadratic_forms",
                            lambda stiffness, sigma, lam, pixels, out: contracted.extend(pixels)
                            or contract(stiffness, sigma, lam, pixels, out))
        run_stability_study(ExperimentConfig(nx_min=12, nx_max=12, k=2))
        assert len(contracted) == 42 and len(set(contracted)) == 42

    def test_memory_peak_of_a_rung(self):
        # nx = 12, k = 2: 5.12 MB when the full (144, 44, 44) stack was formed and
        # scanned (2.23 MB); the orbits' 42 slices are 0.65 MB.
        run_stability_study(ExperimentConfig(nx_min=3, nx_max=3, k=2))  # warm, untraced
        tracemalloc.start()
        try:
            run_stability_study(ExperimentConfig(nx_min=12, nx_max=12, k=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6

    def test_jacobian_shape_reported(self, stiffness3x4, loads3x4):
        from pixelinv.forward import forward_matrix

        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        assert jac.flattened().shape == (64, 9)


class TestPropertySuite:
    def test_all_checks_pass(self, suite_report):
        assert suite_report["all_passed"]
        assert [c["name"] for c in suite_report["checks"]] == list(CHECKS)
        for check in suite_report["checks"]:
            assert (check["tolerance"], check["comparison"]) == CHECKS[check["name"]]

    def test_report_is_json_ready(self, suite_report):
        encoded = json.dumps(suite_report)
        assert json.loads(encoded)["all_passed"]

    def test_corrupted_pixel_matrix_detected(self, monkeypatch):
        # B_4 off by 1e-6 in one stored entry must fail the identity check.
        def corrupted(mesh, grid=None):
            stiffness = assemble_pixel_matrices(mesh, grid)
            C = stiffness.C.tocsc()
            C.data[C.indptr[4]] += 1e-6
            return dataclasses.replace(stiffness, C=C.tocsr())

        monkeypatch.setattr(experiments, "assemble_pixel_matrices", corrupted)
        report = run_property_suite(ExperimentConfig())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["difference_identity"]["passed"]
        assert not report["all_passed"]

    def test_tightened_tolerance_flagged(self, monkeypatch):
        # One "le" and one "gt" check, each failing only under a tightened
        # entry of CHECKS, which the report reads directly.
        monkeypatch.setitem(CHECKS, "difference_identity", (1e-18, "le"))
        monkeypatch.setitem(CHECKS, "positive_definite_at_ones", (1e10, "gt"))
        report = run_property_suite(ExperimentConfig())
        by_name = {c["name"]: c for c in report["checks"]}
        for name, tolerance in (("difference_identity", 1e-18), ("positive_definite_at_ones", 1e10)):
            check = by_name[name]
            assert not check["passed"]
            assert check["tolerance"] == tolerance
        assert by_name["jacobian_fd"]["passed"]
        assert not report["all_passed"]


def test_write_csv_comment_records_config(tmp_path):
    cfg = ExperimentConfig(k=1, sigma_step=1.0, seed=7)
    out = tmp_path / "out.csv"
    write_csv(run_nonuniqueness_sweep(cfg), out)
    first = out.read_text(encoding="utf-8").split("\n")[0]
    assert first.startswith("# config:")
    assert "seed=7" in first
    assert "sigma_step=1.0" in first


def test_write_csv_matches_per_cell_formatting(tmp_path):
    # One format per row gives the bytes of formatting each cell on its own:
    # integers via str(int(v)), everything else via format(float(v), ".17g").
    rows = [
        (1, np.int64(4), np.float64(0.1), 1.0 / 3.0),
        (np.int32(-7), 2**40, np.float64(1e-300), np.inf),
        (0, np.int64(0), np.float32(0.3), 784049.61433256767),
    ]
    result = experiments.ExperimentResult(header=["a", "b", "c", "cond"], rows=rows, config=ExperimentConfig())
    out = tmp_path / "cells.csv"
    write_csv(result, out)

    def cell(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")

    expected = ["# " + result.config.comment(), "a,b,c,cond"] + [",".join(cell(v) for v in row) for row in rows]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")

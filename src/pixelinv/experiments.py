"""Batch experiment drivers emitting machine-readable plot data.

Three studies ship with the package:

* ``nonuniqueness`` - one excitation/measurement pair on a 3x3 grid,
  sweeping each pixel coefficient in turn; shows that a single scalar
  measurement responds non-monotonically to some pixels.
* ``landscape`` - data misfit of a two-measurement layout over two pixel
  coefficients; shows a spurious local minimum far from the truth.
* ``stability`` - condition number of the flattened Jacobian at the
  all-ones coefficient as the grid is refined; quantifies how quickly the
  inversion becomes unstable.

A fourth driver, ``properties``, runs the full battery of structural
checks (assembly identities, Jacobian exactness, semidefinite-order
monotonicity/convexity, refinement ordering, solve budget) and reports
JSON. CSV output is UTF-8 with a ``# config:`` comment line, a header
row, and floats printed with 17 significant digits. Every study runs on
one OpenBLAS thread (:func:`_experiment_setup`), so its output is fixed by
its configuration and seed, whatever thread count its caller runs with.
"""

from __future__ import annotations

import ctypes
import dataclasses
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import _flapack

from . import linsolve
from .assembly import assemble_global, assemble_load, assemble_pixel_matrices, global_matrix
from .analysis import condition_number, loewner_min_eig
from .forward import (
    directional_derivative,
    forward_matrix,
    forward_pair_sweep,
    forward_pair_values,  # noqa: F401  (not called here; benchmark/spans.py traces this binding)
    true_reference,
)
from .mesh import PixelGrid, _check_integer, build_mesh, standard_disk_layout

__all__ = ["ExperimentConfig", "ExperimentResult", "load_config", "write_csv", "run_nonuniqueness_sweep",
           "run_residual_landscape", "run_stability_study", "run_property_suite", "CHECKS"]

# Most samples per sweep; a landscape grid counts every point of its square.
_MAX_SWEEP_POINTS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the experiment drivers; every field holds the value the
    studies run with.

    ``k`` is the number of mesh elements per pixel side in every study and
    at every stability rung, and ``radius_fraction`` the disk radius in
    pixel widths. The refinement cap (:data:`linsolve.REFINE_STEPS`) and
    the property checks' tolerances (:data:`CHECKS`) are fixed, not
    settings. A config is checked when it is built, whether by the
    constructor, :func:`load_config` or ``dataclasses.replace``, and cannot
    change afterwards.
    """

    experiment: str = ""
    nx: int = 3
    k: int = 4
    radius_fraction: float = 0.25
    sigma_step: float = 0.01
    sigma_max: float = 3.0
    landscape_step: float = 0.002
    landscape_max: float = 0.6
    nx_min: int = 2
    nx_max: int = 15
    tol: float = linsolve.DEFAULT_TOL
    seed: int = 1234
    out: str = ""

    def comment(self) -> str:
        # The output path does not influence the data; leaving it out keeps
        # reruns byte-identical wherever they are written.
        return "config: " + " ".join(
            f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self) if f.name != "out"
        )

    def __post_init__(self) -> None:
        """Reject grid sizes, disk radii, sweep steps, ranges, tolerances and
        seeds no study can run with."""
        for name, least in (("nx", 2), ("k", 1), ("nx_min", 2), ("nx_max", 2), ("seed", 0)):
            _check_integer(name, getattr(self, name), least)
        for name in ("radius_fraction", "sigma_step", "sigma_max", "landscape_step", "landscape_max", "tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if name != "radius_fraction" and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.nx_min > self.nx_max:
            raise ValueError(
                f"nx_min={self.nx_min} is larger than nx_max={self.nx_max}, "
                "so the stability study would have no rows"
            )
        if not 0.0 < self.radius_fraction < 0.5:
            raise ValueError(f"radius_fraction must be in (0, 0.5), got {self.radius_fraction}")
        if self.experiment == "landscape" and self.nx != 3:
            raise ValueError(f"nx must be 3 for the landscape study (its 3x3 grid), got {self.nx}")
        for step_name, stop_name in (("sigma_step", "sigma_max"), ("landscape_step", "landscape_max")):
            step, stop = getattr(self, step_name), getattr(self, stop_name)
            if step > stop:
                raise ValueError(
                    f"{step_name}={step} is larger than {stop_name}={stop}, "
                    "so the sweep would have no points"
                )
            limit = math.isqrt(_MAX_SWEEP_POINTS) if step_name == "landscape_step" else _MAX_SWEEP_POINTS
            if stop / step > limit:
                raise ValueError(
                    f"{step_name}={step} asks for {stop / step:.3g} sweep points per axis up to "
                    f"{stop_name}={stop}; at most {limit} per axis are allowed"
                )


# Parser of each config field's value; the annotations are strings here.
_CONFIG_PARSERS = {
    f.name: {"int": int, "float": float}.get(f.type, str) for f in dataclasses.fields(ExperimentConfig)
}


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse a flat ``key=value`` config file (``#`` starts a comment line) and
    build the config from its values, with ``overrides`` in their place."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](value.strip())
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: bad value for config key {key!r}: {err}") from err
    return ExperimentConfig(**{**values, **overrides})


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Tabular experiment output plus the configuration that produced it."""

    header: list
    rows: list
    config: ExperimentConfig


def write_csv(result: ExperimentResult, path) -> None:
    """Write rows as UTF-8 CSV with a config comment and a header line.

    A column prints as an integer if its first-row cell is a Python or
    numpy integer, otherwise with 17 significant digits (enough to round
    trip a double). One ``%`` format per row does all of its cells.
    """
    rows = result.rows
    fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.17g" for v in rows[0]) + "\n" if rows else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + result.config.comment() + "\n")
        fh.write(",".join(result.header) + "\n")
        fh.writelines(fmt % tuple(row) for row in rows)


def _sweep_values(step: float, stop: float) -> np.ndarray:
    """``step, 2*step, ...`` up to ``stop``; rounding absorbs the last
    division's error (3.0/0.01 = 299.99...) but never passes ``stop``."""
    count = int(round(stop / step))
    if count * step > stop * (1.0 + 1e-9):
        count -= 1
    return (np.arange(count) + 1) * step


# The thread-count setter of numpy's OpenBLAS (``@``, ``np.linalg``) and of scipy's (LAPACK). It sets the count
# of the whole process, not of the calling thread alone, and returns the count it replaces; so ``_PINNED`` is held
# from the pin to the restore, and studies on concurrent threads take turns, each restoring the counts it found.
_SET_THREADS = [ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int)(("openblas_set_num_threads_local", ctypes.CDLL(path)))
                for path in (np._core._multiarray_umath.__file__, _flapack.__file__)]
_PINNED = threading.Lock()


@contextmanager
def _experiment_setup(config: ExperimentConfig, nx: int):
    """A study's set-up at ``nx``: grid, mesh, disks, pixel stiffness family and loads. The set-up and the
    study inside the ``with`` run on one thread in both OpenBLAS copies, so their bits do not depend on the
    caller's thread count, and the caller's counts come back when the ``with`` ends, by an exception too."""
    with _PINNED:
        previous = [set_threads(1) for set_threads in _SET_THREADS]
        try:
            grid = PixelGrid(nx)
            mesh = build_mesh(grid, config.k)
            disks = standard_disk_layout(mesh, config.radius_fraction)
            yield grid, mesh, disks, assemble_pixel_matrices(mesh, grid), [assemble_load(mesh, d) for d in disks]
        finally:
            for set_threads, count in zip(_SET_THREADS, previous):
                set_threads(count)


def run_nonuniqueness_sweep(config: ExperimentConfig) -> ExperimentResult:
    """Single measurement against each pixel coefficient in turn.

    Excites the disk in the lower-left boundary pixel and measures in the
    top-right one. For every pixel the coefficient runs through
    ``sigma_step .. sigma_max`` (all other pixels at 1), one CSV row
    ``pixel, sigma_i, F_value`` per sample; pixel ids are 1-based
    (lower-left pixel is 1, row-major upward). Each pixel's sweep is one
    :func:`forward_pair_sweep` call: one factorization serves all its
    samples.
    """
    with _experiment_setup(config, config.nx) as (_, _, _, stiffness, loads):
        pairs = [(loads[0], loads[-1])]
        values = _sweep_values(config.sigma_step, config.sigma_max)
        rows = []
        for pixel in range(stiffness.n):
            F = forward_pair_sweep(stiffness, np.ones(stiffness.n), [pixel], values[:, None], pairs, tol=config.tol)
            rows.extend((pixel + 1, s, value) for s, value in zip(values, F[:, 0]))
        return ExperimentResult(header=["pixel", "sigma_i", "F_value"], rows=rows, config=config)


def run_residual_landscape(config: ExperimentConfig) -> ExperimentResult:
    """Misfit over two pixel coefficients for a two-measurement layout.

    Measurements are (excite lower-left, measure top-middle) and (excite
    lower-left, measure top-right); the synthetic truth has 0.5 in the
    mid-left and mid-right pixels. Both swept coefficients run through
    ``landscape_step .. landscape_max`` on a square grid (the diagonal of
    which is the equal-coefficients slice). Rows are ``sigma4, sigma6, R``
    with the 1-based pixel naming of the 3x3 grid. The whole grid and the
    truth are one :func:`forward_pair_sweep` call: one factorization serves
    every point, and the truth's row reads exactly 0.
    """
    # Checked as a landscape run, however the config is tagged; the CSV keeps the caller's tag.
    dataclasses.replace(config, experiment="landscape")
    with _experiment_setup(config, 3) as (_, _, _, stiffness, loads):
        pairs = [(loads[0], loads[6]), (loads[0], loads[7])]
        values = _sweep_values(config.landscape_step, config.landscape_max)
        a, b = np.meshgrid(values, values, indexing="ij")
        points = np.column_stack([a.ravel(), b.ravel()])
        # The truth, 0.5 in both swept pixels, is the last sample.
        samples = np.vstack([points, [0.5, 0.5]])
        swept = forward_pair_sweep(stiffness, np.ones(9), [3, 5], samples, pairs, tol=config.tol)
        misfit = swept[:-1] - swept[-1]
        R = (misfit * misfit).sum(axis=1)
        rows = list(zip(points[:, 0], points[:, 1], R))
        return ExperimentResult(header=["sigma4", "sigma6", "R"], rows=rows, config=config)


def run_stability_study(config: ExperimentConfig) -> ExperimentResult:
    """Condition number of the flattened Jacobian at the all-ones coefficient.

    Every grid size uses the mesh with ``config.k`` elements per pixel
    side and the full symmetric boundary-disk layout, so the flattened
    Jacobian has ``(4*nx-4)^2`` rows and ``nx^2`` columns, in four blocks by
    the grid's symmetries (the loads move with their boundary pixels), which
    ``forward_matrix`` finds exactly on these inputs: its stack carries their
    group and holds one pixel per orbit. Rank-deficient Jacobians report an
    infinite condition number in their row instead of aborting the sweep.
    """
    rows = []
    for nx in range(config.nx_min, config.nx_max + 1):
        with _experiment_setup(config, nx) as (_, _, _, stiffness, loads):
            _, jac = forward_matrix(stiffness, np.ones(stiffness.n), loads, tol=config.tol)
            report = condition_number(jac)
            rows.append((nx, nx * nx, len(loads), report.condition))
    return ExperimentResult(header=["nx", "n", "m", "cond"], rows=rows, config=config)


# ---------------------------------------------------------------------------
# property suite

# Built-in tolerance and comparison sense of each property check, in report
# order: "le" passes when measured <= tolerance, "ge" when measured >=
# -tolerance and "gt" when measured > tolerance.
CHECKS = {
    "pixel_sum_identity": (1e-14, "le"),
    "difference_identity": (1e-14, "le"),
    "pixel_psd": (1e-12, "ge"),
    "coercivity_ordering": (1e-12, "ge"),
    "quadrature_oracle": (1e-12, "le"),
    "solver_oracle": (1e-8, "le"),
    "solve_symmetry": (1e-8, "le"),
    "jacobian_fd": (1e-5, "le"),
    "matrix_symmetry": (1e-10, "le"),
    "matrix_psd": (1e-10, "ge"),
    "positive_definite_at_ones": (0.0, "gt"),
    "solve_economy": (0.0, "le"),
    "directional_nsd": (1e-10, "le"),
    "monotonicity": (1e-9, "ge"),
    "convexity": (1e-9, "ge"),
    "segment_convexity": (1e-9, "ge"),
    "refinement_ordering": (1e-9, "ge"),
    "refinement_diagonal": (1e-12, "ge"),
    "refinement_cauchy": (0.0, "le"),
}

_COMPARISONS = {
    "le": lambda measured, tolerance: measured <= tolerance,
    "ge": lambda measured, tolerance: measured >= -tolerance,
    "gt": lambda measured, tolerance: measured > tolerance,
}


def _fd_jacobian(stiffness, sigma, loads, step, tol):
    """Central differences of the measurement matrix in each pixel's coefficient, at ``sigma +- step e_i``."""
    F = np.array([forward_matrix(stiffness, sigma + d * e, loads, tol=tol)[0].values
                  for e in np.eye(stiffness.n) for d in (step, -step)])
    return (F[0::2] - F[1::2]) / (2.0 * step)


def run_property_suite(config: ExperimentConfig) -> dict:
    """Run every structural check and return a JSON-ready report; ``ValueError`` if the loads are dependent (k=1)."""
    rng = np.random.default_rng(config.seed)
    nx, k, tol = config.nx, config.k, config.tol
    with _experiment_setup(config, nx) as (grid, mesh, disks, stiffness, loads):
        n, N, m = stiffness.n, stiffness.N, len(loads)
        rank = np.linalg.matrix_rank(np.array([ld.y for ld in loads]))
        if rank < m:  # F = Y B^-1 Y^T has the loads' rank, so it cannot be definite
            raise ValueError(f"the {m} standard loads at nx={nx}, k={k} have rank {rank}: F cannot be definite")

        checks = []

        def record(name, measured):
            tolerance, sense = CHECKS[name]
            checks.append({
                "name": name,
                "passed": bool(_COMPARISONS[sense](measured, tolerance)),
                "measured": float(measured),
                "tolerance": float(tolerance),
                "comparison": sense,
            })

        ones = np.ones(n)

        # Assembly identities against the direct one-pass assembler.
        B_ones = assemble_global(mesh, grid, ones)
        B_pixels = [stiffness.pixel_matrix(i) for i in range(n)]
        record("pixel_sum_identity", float(abs(sum(B_pixels) - B_ones).max()))

        worst = 0.0
        for i in range(n):
            diff = assemble_global(mesh, grid, ones + np.eye(n)[i]) - B_ones
            worst = max(worst, float(abs(B_pixels[i] - diff).max()))
        record("difference_identity", worst)

        worst = np.inf
        for Bi in B_pixels:
            for _ in range(100):
                v = rng.standard_normal(N)
                worst = min(worst, float(v @ (Bi @ v)))
        record("pixel_psd", worst)

        worst = np.inf
        for _ in range(50):
            v = rng.standard_normal(N)
            s = rng.uniform(0.5, 2.0, n)
            quad_ones = float(v @ (B_ones @ v))
            quad = float(v @ (global_matrix(stiffness, s) @ v))
            worst = min(worst, quad - s.min() * quad_ones, s.max() * quad_ones - quad)
        record("coercivity_ordering", worst)

        # Small-mesh quadrature oracle: midpoint-rule integration of hat
        # gradients fitted per element, independent of the assembly formulas.
        record("quadrature_oracle", _quadrature_deviation())

        worst = 0.0
        for _ in range(5):
            G = rng.standard_normal((20, 20))
            A = G @ G.T + 20.0 * np.eye(20)
            b = rng.standard_normal(20)
            x = linsolve.solve_spd(A, b, tol=1e-12).solution
            worst = max(worst, float(np.linalg.norm(x - np.linalg.solve(A, b))))
        record("solver_oracle", worst)

        B = global_matrix(stiffness, ones)
        y = loads[0].y
        z = loads[-1].y
        sy = linsolve.solve_spd(B, y, tol=tol).solution
        sz = linsolve.solve_spd(B, z, tol=tol).solution
        lhs, rhs = float(sy @ z), float(y @ sz)
        record("solve_symmetry", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))

        # Exact Jacobian against central finite differences.
        sigmas = [ones] + [rng.uniform(0.5, 2.0, n) for _ in range(5)]
        worst = 0.0
        for s in sigmas:
            _, jac = forward_matrix(stiffness, s, loads, tol=tol)
            fd = _fd_jacobian(stiffness, s, loads, 1e-5, tol)
            err = np.abs(fd - jac.slices) / np.maximum(1.0, np.abs(jac.slices))
            worst = max(worst, float(err.max()))
        record("jacobian_fd", worst)

        s = rng.uniform(0.5, 2.0, n)
        F, jac = forward_matrix(stiffness, s, loads, tol=tol)
        record("matrix_symmetry", float(np.max(np.abs(F.values - F.values.T))))
        record("matrix_psd", loewner_min_eig(F.values))
        F1, jac1 = forward_matrix(stiffness, ones, loads, tol=tol)
        record("positive_definite_at_ones", loewner_min_eig(F1.values))
        record("solve_economy", abs(F1.solves_used - m))

        tau = rng.uniform(0.0, 1.0, n)
        D = directional_derivative(jac1, tau)
        record("directional_nsd", -loewner_min_eig(-0.5 * (D + D.T)))

        worst = np.inf
        for _ in range(20):
            s1 = rng.uniform(0.5, 2.0, n)
            s2 = rng.uniform(s1, 2.0)
            Fa, _ = forward_matrix(stiffness, s1, loads, tol=tol)
            Fb, _ = forward_matrix(stiffness, s2, loads, tol=tol)
            worst = min(worst, loewner_min_eig(Fa.values - Fb.values))
        record("monotonicity", worst)

        worst = np.inf
        worst_segment = np.inf
        for _ in range(20):
            s0 = rng.uniform(0.5, 2.0, n)
            s1 = rng.uniform(0.5, 2.0, n)
            F0, jac0 = forward_matrix(stiffness, s0, loads, tol=tol)
            Fs, _ = forward_matrix(stiffness, s1, loads, tol=tol)
            linearized = directional_derivative(jac0, s1 - s0)
            worst = min(worst, loewner_min_eig(Fs.values - F0.values - linearized))
            for t in (0.25, 0.5, 0.75):
                Ft, _ = forward_matrix(stiffness, (1 - t) * s0 + t * s1, loads, tol=tol)
                gap = (1 - t) * F0.values + t * Fs.values - Ft.values
                worst_segment = min(worst_segment, loewner_min_eig(gap))
        record("convexity", worst)
        record("segment_convexity", worst_segment)

        # Nested refinement: the measurement matrix grows in the semidefinite
        # order, diagonals are non-decreasing, and level gaps shrink.
        s = rng.uniform(0.5, 2.0, n)
        F_k, F_2k, F_4k = (true_reference(grid, disks, s, k, level, tol=tol).values for level in (k, 2 * k, 4 * k))
        coarse, fine = F_2k - F_k, F_4k - F_2k  # the two level steps
        record("refinement_ordering", min(loewner_min_eig(coarse), loewner_min_eig(fine)))
        record("refinement_diagonal", float(min(np.diag(coarse).min(), np.diag(fine).min())))
        record("refinement_cauchy", float(np.linalg.norm(fine)) - float(np.linalg.norm(coarse)))

        return {
            "all_passed": all(c["passed"] for c in checks),
            "checks": checks,
            "config": {name: getattr(config, name) for name in ("nx", "k", "radius_fraction", "tol", "seed")},
        }


def _quadrature_deviation() -> float:
    """Max deviation of the assembled all-ones matrix from a midpoint-rule
    quadrature of fitted hat gradients on the smallest two-pixel mesh."""
    grid = PixelGrid(2)
    mesh = build_mesh(grid, 1)
    B = assemble_global(mesh, grid, np.ones(grid.n)).toarray()
    dense = np.zeros((mesh.n_free + 1, mesh.n_free + 1))  # boundary vertices (-1) add into the last row
    for tri, area in zip(mesh.triangles, mesh.areas()):
        # Fit each hat as an affine function a + b*x + c*y through its nodal
        # values; the gradient (b, c) is constant on the element.
        grads = np.linalg.solve(np.column_stack([np.ones(3), mesh.vertices[tri]]), np.eye(3))[1:]
        f = mesh.free_index[tri]
        dense[np.ix_(f, f)] += area * (grads.T @ grads)
    return float(np.max(np.abs(B - dense[:-1, :-1])))

"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion alongside the measured values.
"""

import time

import numpy as np
import pytest

from pixelinv import linsolve
from pixelinv.analysis import loewner_min_eig, residual
from pixelinv.assembly import assemble_global, assemble_load, assemble_pixel_matrices
from pixelinv.experiments import (
    ExperimentConfig,
    run_nonuniqueness_sweep,
    run_stability_study,
)
from pixelinv.forward import (
    directional_derivative,
    forward_matrix,
    forward_pair_values,
    true_reference,
)
from pixelinv.mesh import PixelGrid, build_mesh, standard_disk_layout

TRUTH = np.array([1, 1, 1, 0.5, 1, 0.5, 1, 1, 1])


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def setup3x4():
    grid = PixelGrid(3)
    mesh = build_mesh(grid, 4)
    disks = standard_disk_layout(mesh, 0.25)
    stiffness = assemble_pixel_matrices(mesh, grid)
    loads = [assemble_load(mesh, d) for d in disks]
    return grid, mesh, disks, stiffness, loads


def max_abs(sparse_matrix):
    coo = sparse_matrix.tocoo()
    return float(np.max(np.abs(coo.data))) if coo.nnz else 0.0


def test_criterion_01_stiffness_identities(setup3x4):
    grid, mesh, _, stiffness, _ = setup3x4
    start = time.monotonic()
    ones = np.ones(9)
    base = assemble_global(mesh, grid, ones)
    worst_diff = 0.0
    for i in range(9):
        bumped = ones.copy()
        bumped[i] += 1.0
        diff = assemble_global(mesh, grid, bumped) - base
        worst_diff = max(worst_diff, max_abs(stiffness.pixel_matrix(i) - diff))
    total = stiffness.pixel_matrix(0)
    for i in range(1, 9):
        total = total + stiffness.pixel_matrix(i)
    sum_dev = max_abs(total - base)
    elapsed = time.monotonic() - start
    ok = worst_diff <= 1e-14 and sum_dev <= 1e-14 and elapsed < 1.0
    report(
        1,
        "stiffness identities",
        ok,
        f"difference dev {worst_diff:.2e} <= 1e-14, sum dev {sum_dev:.2e} <= 1e-14, "
        f"{elapsed:.2f}s < 1s",
    )


def test_criterion_02_jacobian_exactness(setup3x4):
    _, _, _, stiffness, loads = setup3x4
    start = time.monotonic()
    rng = np.random.default_rng(42)
    step = 1e-5
    worst = 0.0
    sigmas = [np.ones(9)] + [rng.uniform(0.5, 2.0, 9) for _ in range(5)]
    for sigma in sigmas:
        _, jac = forward_matrix(stiffness, sigma, loads)
        assert jac.flattened().shape == (64, 9)
        for i in range(9):
            plus, minus = sigma.copy(), sigma.copy()
            plus[i] += step
            minus[i] -= step
            Fp, _ = forward_matrix(stiffness, plus, loads)
            Fm, _ = forward_matrix(stiffness, minus, loads)
            fd = (Fp.values - Fm.values) / (2 * step)
            err = np.abs(fd - jac.slices[i]) / np.maximum(1.0, np.abs(jac.slices[i]))
            worst = max(worst, float(err.max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report(
        2,
        "Jacobian exactness",
        ok,
        f"max rel FD deviation {worst:.2e} <= 1e-5 over 6 sigmas, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_solve_economy(setup3x4, solve_counter):
    _, _, _, stiffness, loads = setup3x4
    F, _ = forward_matrix(stiffness, np.ones(9), loads)
    used = solve_counter.solves
    ok = used == 8 and F.solves_used == 8
    report(3, "solve economy", ok, f"{used} solves for m=8 measurements")


def test_criterion_04_symmetry_and_psd(setup3x4):
    _, _, _, stiffness, loads = setup3x4
    rng = np.random.default_rng(4)
    sigma = rng.uniform(0.5, 2.0, 9)
    F, _ = forward_matrix(stiffness, sigma, loads)
    asym = float(np.max(np.abs(F.values - F.values.T)))
    min_eig = loewner_min_eig(F.values)
    F1, _ = forward_matrix(stiffness, np.ones(9), loads)
    min_eig_ones = loewner_min_eig(F1.values)
    ok = asym <= 1e-10 and min_eig >= -1e-10 and min_eig_ones > 0.0
    report(
        4,
        "measurement matrix symmetric PSD",
        ok,
        f"asymmetry {asym:.2e} <= 1e-10, min eig {min_eig:.2e} >= -1e-10, "
        f"min eig at ones {min_eig_ones:.2e} > 0",
    )


def test_criterion_05_loewner_monotonicity(setup3x4):
    _, _, _, stiffness, loads = setup3x4
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(20):
        lo = rng.uniform(0.5, 2.0, 9)
        hi = rng.uniform(lo, 2.0)
        F_lo, _ = forward_matrix(stiffness, lo, loads)
        F_hi, _ = forward_matrix(stiffness, hi, loads)
        worst = min(worst, loewner_min_eig(F_lo.values - F_hi.values))
    ok = worst >= -1e-9
    report(
        5,
        "monotone non-increasing",
        ok,
        f"min eig of F(lo)-F(hi) over 20 ordered pairs: {worst:.2e} >= -1e-9",
    )


def test_criterion_06_convexity(setup3x4):
    _, _, _, stiffness, loads = setup3x4
    rng = np.random.default_rng(6)
    worst_lin = np.inf
    worst_seg = np.inf
    for _ in range(20):
        s0 = rng.uniform(0.5, 2.0, 9)
        s1 = rng.uniform(0.5, 2.0, 9)
        F0, jac0 = forward_matrix(stiffness, s0, loads)
        F1, _ = forward_matrix(stiffness, s1, loads)
        gap = F1.values - F0.values - directional_derivative(jac0, s1 - s0)
        worst_lin = min(worst_lin, loewner_min_eig(0.5 * (gap + gap.T)))
        for t in (0.25, 0.5, 0.75):
            Ft, _ = forward_matrix(stiffness, (1 - t) * s0 + t * s1, loads)
            seg = (1 - t) * F0.values + t * F1.values - Ft.values
            worst_seg = min(worst_seg, loewner_min_eig(0.5 * (seg + seg.T)))
    ok = worst_lin >= -1e-9 and worst_seg >= -1e-9
    report(
        6,
        "convexity",
        ok,
        f"linearization bound {worst_lin:.2e} >= -1e-9, "
        f"segment bound {worst_seg:.2e} >= -1e-9 over 20 pairs",
    )


def test_criterion_07_refinement_ordering():
    grid = PixelGrid(3)
    rng = np.random.default_rng(7)
    sigma = rng.uniform(0.5, 2.0, 9)
    base_k = 2
    mesh = build_mesh(grid, base_k)
    disks = standard_disk_layout(mesh, 0.25)
    levels = {
        k: true_reference(grid, disks, sigma, base_k, k).values
        for k in (2, 4, 8)
    }
    step_2_to_4 = levels[4] - levels[2]
    step_4_to_8 = levels[8] - levels[4]
    eig_24 = loewner_min_eig(0.5 * (step_2_to_4 + step_2_to_4.T))
    eig_48 = loewner_min_eig(0.5 * (step_4_to_8 + step_4_to_8.T))
    diag_min = min(float(np.diag(step_2_to_4).min()), float(np.diag(step_4_to_8).min()))
    cauchy = float(np.linalg.norm(step_4_to_8)) <= float(np.linalg.norm(step_2_to_4))
    ok = eig_24 >= -1e-9 and eig_48 >= -1e-9 and diag_min >= -1e-12 and cauchy
    report(
        7,
        "refinement ordering",
        ok,
        f"min eigs {eig_24:.2e}, {eig_48:.2e} >= -1e-9; diagonal steps >= {diag_min:.2e}; "
        f"gaps shrink: {cauchy}",
    )


def test_criterion_08_sweep_shapes():
    result = run_nonuniqueness_sweep(ExperimentConfig())
    rows = np.array(result.rows, dtype=float)
    curves = {int(p): rows[rows[:, 0] == p][:, 2] for p in range(1, 10)}
    corners_dec = all(np.all(np.diff(curves[p]) < 0) for p in (1, 3, 7, 9))
    middle_inc = bool(np.all(np.diff(curves[5]) > 0))
    edges_peak = True
    for p in (2, 4, 6, 8):
        diffs = np.diff(curves[p])
        peak = int(np.argmax(curves[p]))
        edges_peak &= 0 < peak < len(curves[p]) - 1
        edges_peak &= bool(np.all(diffs[:peak] > 0) and np.all(diffs[peak:] < 0))
    ok = corners_dec and middle_inc and edges_peak
    report(
        8,
        "sweep shapes",
        ok,
        f"corners decreasing: {corners_dec}, middle increasing: {middle_inc}, "
        f"edge pixels peak inside the range: {edges_peak}",
    )


def test_criterion_09_landscape_minimum(setup3x4):
    from pixelinv.analysis import ResidualProblem

    _, _, _, stiffness, loads = setup3x4
    pairs = [(loads[0], loads[6]), (loads[0], loads[7])]
    data = forward_pair_values(stiffness, TRUTH, pairs)
    problem = ResidualProblem(stiffness=stiffness, pairs=pairs, data=data)
    at_truth, _ = residual(problem, TRUTH)

    values = (np.arange(300) + 1) * 0.002
    R = np.empty(300)
    for idx, v in enumerate(values):
        sigma = np.ones(9)
        sigma[3] = v
        sigma[5] = v
        misfit = forward_pair_values(stiffness, sigma, pairs) - data
        R[idx] = misfit @ misfit
    spurious = [
        i
        for i in range(1, 299)
        if R[i] < R[i - 1] and R[i] < R[i + 1] and abs(values[i] - 0.5) > 0.05
    ]
    ok = at_truth <= 1e-20 and bool(spurious)
    detail = f"R at truth {at_truth:.2e} <= 1e-20"
    if spurious:
        i = spurious[0]
        detail += f"; spurious diagonal minimum at sigma={values[i]:.3f} (R {R[i]:.2e})"
    else:
        detail += "; no spurious diagonal minimum found"
    report(9, "residual landscape", ok, detail)


def test_criterion_10_condition_growth():
    start = time.monotonic()
    result = run_stability_study(ExperimentConfig(nx_min=2, nx_max=8, k=2))
    elapsed = time.monotonic() - start

    conds = {row[0]: row[3] for row in result.rows}
    increasing = all(conds[nx] < conds[nx + 1] for nx in range(2, 5))

    grid = PixelGrid(3)
    mesh = build_mesh(grid, 2)
    disks = standard_disk_layout(mesh, 0.25)
    stiffness = assemble_pixel_matrices(mesh, grid)
    loads = [assemble_load(mesh, d) for d in disks]
    _, jac = forward_matrix(stiffness, np.ones(9), loads)
    shape_ok = jac.flattened().shape == (64, 9)

    ns = np.array([row[1] for row in result.rows], dtype=float)
    log_cond = np.log([row[3] for row in result.rows])
    design = np.column_stack([ns, np.ones_like(ns)])
    coeffs, *_ = np.linalg.lstsq(design, log_cond, rcond=None)
    fitted = design @ coeffs
    r_squared = 1.0 - np.sum((log_cond - fitted) ** 2) / np.sum(
        (log_cond - log_cond.mean()) ** 2
    )

    ok = increasing and shape_ok and r_squared >= 0.9 and elapsed < 300.0
    report(
        10,
        "condition number growth",
        ok,
        f"strictly increasing nx=2..5: {increasing}, 64x9 Jacobian: {shape_ok}, "
        f"log-fit R^2 {r_squared:.3f} >= 0.9, {elapsed:.1f}s < 300s",
    )


def test_criterion_11_oracle_equivalence():
    # Assembled matrix vs midpoint-rule quadrature of fitted hat gradients.
    grid = PixelGrid(2)
    mesh = build_mesh(grid, 1)
    assembled = assemble_global(mesh, grid, np.ones(4)).toarray()
    N = mesh.n_free
    quad = np.zeros((N, N))
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        coords = mesh.vertices[tri]
        vander = np.column_stack([np.ones(3), coords])
        grads = [np.linalg.solve(vander, np.eye(3)[a])[1:] for a in range(3)]
        f = mesh.free_index[tri]
        for a in range(3):
            for b in range(3):
                if f[a] >= 0 and f[b] >= 0:
                    quad[f[a], f[b]] += mesh.areas()[t] * float(grads[a] @ grads[b])
    assembly_dev = float(np.max(np.abs(assembled - quad)))

    rng = np.random.default_rng(11)
    solver_dev = 0.0
    for _ in range(5):
        G = rng.standard_normal((20, 20))
        A = G @ G.T + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x = linsolve.solve_spd(A, b, tol=1e-12).solution
        solver_dev = max(solver_dev, float(np.linalg.norm(x - np.linalg.solve(A, b))))

    ok = assembly_dev <= 1e-12 and solver_dev <= 1e-8
    report(
        11,
        "oracle equivalence",
        ok,
        f"assembly vs quadrature {assembly_dev:.2e} <= 1e-12, "
        f"solver vs dense factorization {solver_dev:.2e} <= 1e-8",
    )

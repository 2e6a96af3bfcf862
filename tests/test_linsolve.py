import numpy as np
import pytest
import scipy.sparse as sp

from pixelinv import linsolve
from pixelinv.assembly import assemble_pixel_matrices, global_matrix
from pixelinv.linsolve import SolverError, solve_multi, solve_spd
from pixelinv.mesh import PixelGrid, build_mesh


def random_spd(rng, n, shift=1.0):
    G = rng.standard_normal((n, n))
    return sp.csr_matrix(G @ G.T + shift * n * np.eye(n))


def test_zero_rhs_returns_zero():
    A = sp.identity(5, format="csr")
    report = solve_spd(A, np.zeros(5))
    assert report.iterations == 0
    assert report.residual_norm == 0.0
    assert not report.solution.any()


def test_one_by_one_system():
    # The coarsest mesh with one unknown assembles to the 1x1 matrix [4].
    grid = PixelGrid(2)
    stiffness = assemble_pixel_matrices(build_mesh(grid, 1), grid)
    B = global_matrix(stiffness, np.ones(4))
    report = solve_spd(B, np.array([1.0]))
    assert report.solution[0] == pytest.approx(0.25, abs=1e-14)


def test_matches_dense_factorization_oracle(rng):
    for _ in range(5):
        A = random_spd(rng, 20)
        b = rng.standard_normal(20)
        x = solve_spd(A, b, tol=1e-12).solution
        oracle = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - oracle) <= 1e-8


def test_residual_meets_tolerance(rng):
    A = random_spd(rng, 40)
    b = rng.standard_normal(40)
    report = solve_spd(A, b, tol=1e-10)
    assert report.residual_norm <= 1e-10
    assert np.linalg.norm(A @ report.solution - b) / np.linalg.norm(b) <= 1e-10


def test_nonconvergence_carries_residual(rng, monkeypatch):
    monkeypatch.setattr(linsolve, "REFINE_STEPS", 1)
    A = random_spd(rng, 40, shift=1e-4)
    b = rng.standard_normal(40)
    with pytest.raises(SolverError) as err:
        solve_spd(A, b, tol=1e-14)
    assert err.value.iterations == 1
    assert 0.0 < err.value.residual_norm


def test_rejects_bad_tolerance():
    A = sp.identity(3, format="csr")
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            solve_spd(A, np.ones(3), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            solve_multi(A, [np.ones(3)], tol=tol)


def test_singular_matrix_is_solver_error():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError, match="singular") as err:
        solve_spd(A, np.array([1.0, 2.0]))
    assert not np.isfinite(err.value.residual_norm)
    with pytest.raises(SolverError, match="singular") as err:
        solve_multi(A, [np.array([1.0, 2.0]), np.array([0.0, 1.0])])
    assert not np.isfinite(err.value.residual_norm)


def test_solve_is_symmetric_bilinear(rng):
    # (B^-1 y) . z agrees with y . (B^-1 z); the measurement-matrix
    # symmetry rests on this.
    A = random_spd(rng, 30)
    for _ in range(5):
        y = rng.standard_normal(30)
        z = rng.standard_normal(30)
        lhs = solve_spd(A, y, tol=1e-12).solution @ z
        rhs = y @ solve_spd(A, z, tol=1e-12).solution
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) <= 1e-8


class TestSolveMulti:
    def test_identical_rhs_identical_solutions(self, rng):
        A = random_spd(rng, 15)
        b = rng.standard_normal(15)
        reports = solve_multi(A, [b, b, b])
        assert np.array_equal(reports[0].solution, reports[1].solution)
        assert np.array_equal(reports[0].solution, reports[2].solution)

    def test_matches_independent_solves(self, rng):
        A = random_spd(rng, 15)
        rhs = [rng.standard_normal(15) for _ in range(4)]
        multi = solve_multi(A, rhs)
        for b, rep in zip(rhs, multi):
            single = solve_spd(A, b)
            assert np.array_equal(rep.solution, single.solution)
            assert rep.iterations == single.iterations

    def test_disk_loads_all_converge(self, stiffness3x4, loads3x4):
        B = global_matrix(stiffness3x4, np.ones(9))
        reports = solve_multi(B, [ld.y for ld in loads3x4], tol=1e-10)
        assert len(reports) == 8
        assert all(rep.residual_norm <= 1e-10 for rep in reports)

    def test_failure_identifies_rhs(self, rng, monkeypatch):
        monkeypatch.setattr(linsolve, "REFINE_STEPS", 1)
        A = random_spd(rng, 20, shift=1e-4)
        rhs = [np.zeros(20), rng.standard_normal(20)]
        with pytest.raises(SolverError, match="2 of 2"):
            solve_multi(A, rhs, tol=1e-14)


def test_solve_counter_increments(rng, solve_counter):
    A = random_spd(rng, 10)
    b = rng.standard_normal(10)
    linsolve.solve_spd(A, b)
    linsolve.solve_multi(A, [b, b])
    assert solve_counter.solves == 3

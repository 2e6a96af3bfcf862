import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from pixelinv import linsolve
from pixelinv.assembly import assemble_pixel_matrices, global_matrix
from pixelinv.linsolve import SolverError, solve_multi, solve_spd
from pixelinv.mesh import PixelGrid, build_mesh


def random_spd(rng, n, shift=1.0):
    G = rng.standard_normal((n, n))
    return sp.csr_matrix(G @ G.T + shift * n * np.eye(n))


def route_substitutions(monkeypatch, through):
    """Send every back-substitution ``substitute(X)`` the solver makes through ``through(substitute, X)``."""
    band_solver = linsolve._band_solver
    monkeypatch.setattr(linsolve, "_band_solver", lambda band: functools.partial(through, band_solver(band)))


def loaded_columns(X) -> int:
    """The columns of a panel that carry a right-hand side rather than zero padding."""
    return int(X.any(axis=0).sum())


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


def test_residual_of_a_load_beyond_the_square_root_of_the_double_range(stiffness3x4, loads3x4):
    # A load scaled by 2**530 has entries whose squares overflow. The scaling
    # is exact, so its relative residual must be the unscaled one, not the 0.0
    # of an infinite ||y||.
    B = global_matrix(stiffness3x4, np.ones(9))
    y = loads3x4[0].y
    plain, scaled = solve_multi(B, [y, y * 2.0**530])
    assert scaled.residual_norm == plain.residual_norm > 0.0
    assert np.array_equal(scaled.solution, plain.solution * 2.0**530)


def test_norms_neither_overflow_nor_underflow(rng):
    # Columns whose squares overflow or underflow, one with an inf, a zero
    # and a NaN one, and ordinary ones; along the first axis of a stack too.
    A = np.array([[1e200, 1e-200, np.inf, 0.0, np.nan, 3.0],
                  [-1e200, 1e-200, 1.0, 0.0, 1.0, 4.0]])
    norms = linsolve._norms(A)
    assert norms[:2] == pytest.approx([np.sqrt(2) * 1e200, np.sqrt(2) * 1e-200], rel=1e-15)
    assert norms[2] == np.inf and norms[3] == 0.0 and np.isnan(norms[4]) and norms[5] == 5.0
    stack = rng.standard_normal((7, 3, 2))
    assert np.allclose(linsolve._norms(stack), np.linalg.norm(stack, axis=0), rtol=1e-15, atol=0.0)
    assert np.allclose(linsolve._norms(stack * 1e200), np.linalg.norm(stack, axis=0) * 1e200, rtol=1e-15, atol=0.0)


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


@pytest.mark.parametrize("entry", ["spd", "multi"])
def test_non_finite_rhs_rejected_before_factoring(entry):
    A = sp.csr_matrix((3, 3))  # not definite: factoring first would raise SolverError
    bad = np.array([np.inf, 0.0, 0.0])
    with pytest.raises(ValueError, match="right-hand side 1 of 1 is not finite"):
        solve_spd(A, bad) if entry == "spd" else solve_multi(A, [bad])
    if entry == "multi":
        with pytest.raises(ValueError, match="right-hand side 2 of 2 is not finite"):
            solve_multi(A, [np.ones(3), np.r_[0.0, np.nan, 0.0]])


@pytest.mark.parametrize("entry", ["spd", "multi"])
def test_non_square_matrix_rejected(entry):
    A = sp.csr_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        solve_spd(A, np.ones(2)) if entry == "spd" else solve_multi(A, [np.ones(2)])


@pytest.mark.parametrize("kind", ["slightly asymmetric", "asymmetric", "lower triangle", "indefinite"])
def test_asymmetric_or_indefinite_never_wrong(rng, kind):
    # Only the upper band is factored. Whatever the rest of the matrix holds,
    # a returned solution meets tol against the full matrix, or the solve raises.
    n = 20
    spd = random_spd(rng, n).toarray()
    lower = np.tril(rng.standard_normal((n, n)), -1)
    A = {
        "slightly asymmetric": spd + 1e-3 * lower,
        "asymmetric": spd + 5.0 * lower,
        "lower triangle": np.tril(spd),
        "indefinite": spd - 3.0 * n * np.eye(n),
    }[kind]
    rhs = [rng.standard_normal(n) for _ in range(3)]
    try:
        reports = solve_multi(sp.csr_matrix(A), rhs, tol=1e-10)
    except SolverError:
        return
    for b, rep in zip(rhs, reports):
        assert np.linalg.norm(A @ rep.solution - b) / np.linalg.norm(b) <= 1e-10


class TestSolveMulti:
    def test_identical_rhs_identical_solutions(self, rng):
        A = random_spd(rng, 15)
        b = rng.standard_normal(15)
        reports = solve_multi(A, [b, b, b])
        assert np.array_equal(reports[0].solution, reports[1].solution)
        assert np.array_equal(reports[0].solution, reports[2].solution)

    def test_matches_independent_solves(self, rng, count=4):
        A = random_spd(rng, 15)
        rhs = [rng.standard_normal(15) for _ in range(count)]
        multi = solve_multi(A, rhs)
        for b, rep in zip(rhs, multi):
            single = solve_spd(A, b)
            assert np.array_equal(rep.solution, single.solution)
            assert rep.iterations == single.iterations

    @pytest.mark.parametrize("count", [1, 55, 56, 57, 113])  # either side of a panel edge
    def test_matches_independent_solves_across_panel_edges(self, rng, count):
        self.test_matches_independent_solves(rng, count)

    def test_disk_loads_all_converge(self, stiffness3x4, loads3x4):
        B = global_matrix(stiffness3x4, np.ones(9))
        reports = solve_multi(B, [ld.y for ld in loads3x4], tol=1e-10)
        assert len(reports) == 8
        assert all(rep.residual_norm <= 1e-10 for rep in reports)

    def test_one_back_substitution_for_all_loads(self, stiffness3x4, loads3x4, monkeypatch):
        calls = []

        def counted(substitute, X):
            calls.append((X.shape[0], loaded_columns(X)))
            return substitute(X)

        route_substitutions(monkeypatch, counted)
        B = global_matrix(stiffness3x4, np.ones(9))
        reports = solve_multi(B, [ld.y for ld in loads3x4])
        assert [rep.iterations for rep in reports] == [0] * 8
        assert calls == [(B.shape[0], 8)]

    def test_only_the_missing_column_is_refined(self, rng, monkeypatch):
        A = random_spd(rng, 30)
        rhs = [rng.standard_normal(30) for _ in range(4)]
        clean = solve_multi(A, rhs[:1] + rhs[2:])
        calls = []

        def spoil_column_2(substitute, b):
            width = loaded_columns(b)
            x = substitute(b)
            if not calls:  # the first back-substitution: column 2 misses tol
                x[:, 1] *= 1.0 + 1e-6
            calls.append(width)
            return x

        route_substitutions(monkeypatch, spoil_column_2)
        reports = solve_multi(A, rhs)
        assert calls[0] == 4 and all(width == 1 for width in calls[1:])
        assert [rep.iterations > 0 for rep in reports] == [False, True, False, False]
        assert reports[1].residual_norm <= linsolve.DEFAULT_TOL
        for rep, ref in zip(reports[:1] + reports[2:], clean):
            assert np.array_equal(rep.solution, ref.solution)

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


class TestFactorKeyword:
    def test_solutions_are_refined_in_the_factors_array(self, rng):
        # An inexact factor: the solutions still meet tol against the matrix,
        # and they are columns of the block the factor filled first.
        A = random_spd(rng, 25)
        inverse = np.linalg.inv(A.toarray()) * (1.0 + 1e-4)
        blocks = []

        def factor(R, out):
            out[:-1] = inverse @ R
            blocks.append(out.base)

        rhs = [rng.standard_normal(25) for _ in range(3)]
        reports = solve_multi(A, rhs, tol=1e-12, factor=factor)
        assert len(blocks) > 1 and all(rep.iterations > 0 for rep in reports)
        for b, rep in zip(rhs, reports):
            assert np.linalg.norm(A @ rep.solution - b) / np.linalg.norm(b) <= 1e-12
            assert rep.solution.base is blocks[0]

    @pytest.mark.parametrize("count", [1, 55, 56, 57, 113])  # either side of a panel edge
    def test_factor_sees_zero_padded_panels_above_a_zero_row(self, rng, count):
        A, width = random_spd(rng, 12), linsolve._PANEL
        inverse = np.linalg.inv(A.toarray())
        rhs = rng.standard_normal((count, 12))
        panels = []

        def spy(R, out):
            assert R.shape == (12, width) and out.shape == (13, width) and not out[-1].any()
            panels.append(R.copy())
            out[:-1] = inverse @ R

        reports = solve_multi(A, rhs, factor=spy)
        starts = range(0, count, width)
        for start, R in zip(starts, panels):  # the first solve's panels: the loads, then zero columns
            loads = rhs[start:start + width].T
            assert np.array_equal(R[:, :loads.shape[1]], loads) and not R[:, loads.shape[1]:].any()
        block = reports[0].solution.base
        assert block.shape == (13, len(starts) * width) and not block[-1].any()
        assert all(np.shares_memory(rep.solution, block) for rep in reports)
        assert not solve_multi(A, rhs)[0].solution.base[-1].any()  # the band solver's block too

    def test_useless_factor_raises(self, rng):
        A = random_spd(rng, 10)
        with pytest.raises(SolverError, match="right-hand side 1 of 2") as err:
            solve_multi(A, [rng.standard_normal(10), np.zeros(10)], factor=lambda R, out: out.fill(0.0))
        assert err.value.residual_norm == 1.0


class TestBlockSubstitution:
    @staticmethod
    def band(rng, n, kd):
        """The upper band, in Fortran order, of a random SPD matrix of order ``n`` and bandwidth ``kd``."""
        A = np.zeros((n, n))
        for d in range(min(kd, n - 1) + 1):
            A += np.diag(rng.standard_normal(n - d), d)
        A = A + A.T + (4.0 * kd + 8.0) * np.eye(n)  # diagonally dominant
        band = np.zeros((kd + 1, n), order="F")
        for d in range(min(kd, n - 1) + 1):
            band[kd - d, d:] = np.diagonal(A, d)
        return band

    @pytest.mark.parametrize("n, kd, columns", [
        (30, 0, 3),  # diagonal: blocks of one unknown
        (5, 12, 3),  # fewer unknowns than one block row
        (100, 21, 4),  # 100 is not a multiple of the block rows (21)
        (250, 105, 5),  # three block rows (35) per bandwidth, 250 not a multiple
        (1, 0, 2),
        (1, 4, 2),
        (40, 7, 0),  # an empty block
    ])
    def test_matches_dpbtrs(self, rng, n, kd, columns):
        band = self.band(rng, n, kd)
        cholesky, info = dpbtrf(band)  # a copy: the band is left for the solver
        assert info == 0
        X = rng.standard_normal((n, columns))
        expected = dpbtrs(cholesky, X)[0] if X.size else X.copy()
        solved = linsolve._band_solver(band)(X.copy())
        assert solved.shape == X.shape
        assert np.max(np.abs(solved - expected), initial=0.0) <= 1e-13 * np.max(np.abs(expected), initial=0.0)

    def test_the_factor_is_not_kept(self, rng):
        # dpbtrf factors the band in place; the block rows live in one padded copy, so that factor is not held.
        band = self.band(rng, 60, 9)
        substitute = linsolve._band_solver(band)
        before = substitute(np.eye(60))
        band[...] = np.nan
        assert np.array_equal(substitute(np.eye(60)), before)

    def test_a_band_that_is_not_positive_definite_is_refused(self, rng):
        band = self.band(rng, 30, 4)
        band[-1, 17] = -1.0  # a negative diagonal entry
        with pytest.raises(SolverError, match="leading minor of order 18 is not positive definite") as err:
            linsolve._band_solver(band)
        assert err.value.residual_norm == math.inf and err.value.iterations == 0


def coo_upper_band(matrix) -> np.ndarray:
    """The upper band in LAPACK band storage by the COO formula ``_upper_band`` used before it read CSR arrays:
    the oracle for its bits."""
    coo = sp.coo_array(matrix)
    upper = coo.row <= coo.col
    row, col = coo.row[upper], coo.col[upper]
    b, n = int((col - row).max(initial=0)), matrix.shape[0]
    band = np.bincount(b + row + b * col, weights=coo.data[upper], minlength=(b + 1) * n)
    return band.reshape(n, b + 1).T


class TestUpperBand:
    """The band is read from CSR arrays as stored, any other input converted to CSR first, with the bits of the
    COO formula it replaced."""

    @staticmethod
    def matrix(kind):
        grid = PixelGrid(4)
        sigma = np.random.default_rng(7).uniform(0.5, 2.0, grid.n)
        B = global_matrix(assemble_pixel_matrices(build_mesh(grid, 2), grid), sigma)
        rows = np.split(np.arange(B.nnz), B.indptr[1:-1])
        if kind == "duplicates":  # each row's entries twice, split 0.3 / 0.7
            order = np.concatenate([np.tile(r, 2) for r in rows])
            scale = np.concatenate([np.repeat([0.3, 0.7], r.size) for r in rows])
            return sp.csr_matrix((B.data[order] * scale, B.indices[order], 2 * B.indptr), shape=B.shape)
        if kind == "unsorted":  # each row's entries in descending column order
            order = np.concatenate([r[::-1] for r in rows])
            return sp.csr_matrix((B.data[order], B.indices[order], B.indptr), shape=B.shape)
        return {"canonical": B, "csc": B.tocsc(), "coo": B.tocoo(), "dense": B.toarray(),
                "1x1": sp.csr_matrix(np.array([[4.0]]))}[kind]

    @pytest.mark.parametrize("kind", ["canonical", "duplicates", "unsorted", "csc", "coo", "dense", "1x1"])
    def test_bits_of_the_coo_formula(self, kind):
        matrix = self.matrix(kind)
        if kind in ("duplicates", "unsorted"):
            assert not matrix.has_canonical_format
        band = linsolve._upper_band(matrix)
        assert np.array_equal(band, coo_upper_band(matrix))
        if kind in ("unsorted", "csc", "coo"):  # the same entries, stored otherwise
            assert np.array_equal(band, linsolve._upper_band(self.matrix("canonical")))

    @pytest.mark.parametrize("form", [sp.csr_matrix, sp.csr_array, sp.csc_matrix, sp.coo_array, np.asarray])
    def test_solve_spd_takes_sparse_or_dense(self, rng, form):
        A = random_spd(rng, 12).toarray()
        b = rng.standard_normal(12)
        x = solve_spd(form(A), b, tol=1e-12).solution
        assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-12 * np.linalg.norm(x)

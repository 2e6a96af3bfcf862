import dataclasses
import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from pixelinv import analysis, forward, linsolve
from pixelinv.assembly import (
    Condensation,
    LoadVector,
    assemble_global,
    assemble_load,
    assemble_pixel_matrices,
    element_stiffness,
    global_matrix,
)
from pixelinv.forward import (
    JacobianStack,
    _pencil_data,
    _pencil_eigh,
    directional_derivative,
    forward_matrix,
    forward_pair_sweep,
    forward_pair_values,
    forward_pairs,
    true_reference,
)
from pixelinv.linsolve import SolveReport, SolverError, solve_multi
from pixelinv.mesh import PixelGrid, build_mesh, lattice_symmetries, standard_disk_layout

TRUTH = np.array([1, 1, 1, 0.5, 1, 0.5, 1, 1, 1])
EXTREMES = [1e-300, 1e-200, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e200, 1e300]


def single(stiffness, sigma, y_l, y_r):
    """Value and gradient of one measurement: ``forward_pairs`` with one pair."""
    values, jac = forward_pairs(stiffness, sigma, [(y_l, y_r)])
    return values[0], jac[0]


def fd_matrix_jacobian(stiffness, sigma, loads, step=1e-5):
    """Central finite differences of the measurement matrix, entrywise."""
    n = stiffness.n
    slices = []
    for i in range(n):
        plus = np.array(sigma, dtype=float)
        minus = plus.copy()
        plus[i] += step
        minus[i] -= step
        Fp, _ = forward_matrix(stiffness, plus, loads)
        Fm, _ = forward_matrix(stiffness, minus, loads)
        slices.append((Fp.values - Fm.values) / (2 * step))
    return np.array(slices)


class TestExtremeScale:
    def test_huge_sigma_scales_exactly(self, stiffness3x4, loads3x4):
        # F(c * 1) = F(1) / c holds exactly in exact arithmetic; the Jacobian
        # (of order 1/c^2) underflows to zero but stays finite.
        c = 1e300
        F1, _ = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        Fc, jac = forward_matrix(stiffness3x4, c * np.ones(9), loads3x4)
        assert np.all(np.isfinite(Fc.values)) and np.all(np.isfinite(jac.slices))
        assert np.max(np.abs(c * Fc.values - F1.values)) <= 1e-12 * np.max(np.abs(F1.values))

    def test_overflowing_matrix_is_input_error(self, stiffness3x4, loads3x4):
        # sigma[4] = 1e308 is finite, but B_sigma's entries around pixel 4
        # overflow; the error names the coefficient, not a failed solve.
        sigma = np.ones(9)
        sigma[4] = 1e308
        with pytest.raises(ValueError, match="overflows at the largest coefficient 1e\\+308"):
            forward_matrix(stiffness3x4, sigma, loads3x4)
        with pytest.raises(ValueError, match="overflows at the largest coefficient 1e\\+308"):
            forward_pairs(stiffness3x4, sigma, [(loads3x4[0], loads3x4[6])])

    @pytest.mark.parametrize("c", [1e-160, 1e-300])
    def test_tiny_sigma_overflow_raises(self, stiffness3x4, loads3x4, c):
        sigma = c * np.ones(9)
        pair = (loads3x4[0], loads3x4[7])
        with pytest.raises(FloatingPointError, match="non-finite"):
            forward_matrix(stiffness3x4, sigma, loads3x4)
        with pytest.raises(FloatingPointError, match="non-finite"):
            forward_pairs(stiffness3x4, sigma, [pair])
        with pytest.raises(FloatingPointError, match="non-finite"):
            forward_pairs(stiffness3x4, sigma, [(loads3x4[0], loads3x4[0])])

    def test_subnormal_sigma_is_solver_error(self, stiffness3x4, loads3x4):
        # At 1e-320 the lift divides by a subnormal coefficient and overflows;
        # the residual check refuses the solution, with no numpy warning first.
        sigma = 1e-320 * np.ones(9)
        with pytest.raises(SolverError, match="missed tolerance"):
            forward_matrix(stiffness3x4, sigma, loads3x4)
        with pytest.raises(SolverError, match="missed tolerance"):
            forward_pairs(stiffness3x4, sigma, [(loads3x4[0], loads3x4[7])])

    def test_tiny_background_sweep_is_solver_error(self, stiffness3x4, loads3x4):
        # At a background of 1e-300 the solutions of B_RR leave the double
        # range; the set-up solve's residual check refuses them.
        with pytest.raises(SolverError, match="missed tolerance"):
            forward_pair_sweep(stiffness3x4, np.full(9, 1e-300), [4], np.array([[1e-300], [1.0]]),
                               [(loads3x4[0], loads3x4[6])])


class TestForwardSingle:
    """One measurement value and its gradient: one pair through forward_pairs."""

    def test_same_functional_is_nonnegative(self, stiffness3x4, loads3x4):
        value, _ = single(stiffness3x4, np.ones(9), loads3x4[0], loads3x4[0])
        assert value > 0.0

    def test_homogeneity_in_sigma(self, stiffness3x4, loads3x4):
        # With no coefficient-independent part, scaling sigma by c scales
        # the value by 1/c and the gradient by 1/c^2.
        sigma = np.ones(9)
        v1, g1 = single(stiffness3x4, sigma, loads3x4[0], loads3x4[7])
        v2, g2 = single(stiffness3x4, 2.0 * sigma, loads3x4[0], loads3x4[7])
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-9)
        assert np.allclose(g2, g1 / 4.0, rtol=1e-8, atol=1e-18)

    def test_gradient_matches_finite_differences(self, stiffness3x4, loads3x4):
        sigma = np.ones(9)
        y_l, y_r = loads3x4[0], loads3x4[7]
        _, grad = single(stiffness3x4, sigma, y_l, y_r)
        step = 1e-5
        for i in range(9):
            plus, minus = sigma.copy(), sigma.copy()
            plus[i] += step
            minus[i] -= step
            vp, _ = single(stiffness3x4, plus, y_l, y_r)
            vm, _ = single(stiffness3x4, minus, y_l, y_r)
            fd = (vp - vm) / (2 * step)
            assert abs(fd - grad[i]) / max(1.0, abs(grad[i])) <= 1e-5

    def test_solves_each_distinct_load_once(self, stiffness3x4, loads3x4, solve_counter):
        single(stiffness3x4, np.ones(9), loads3x4[0], loads3x4[0])
        assert solve_counter.solves == 1
        single(stiffness3x4, np.ones(9), loads3x4[0], loads3x4[7])
        assert solve_counter.solves == 1 + 2

    def test_rejects_nonpositive_sigma(self, stiffness3x4, loads3x4):
        bad = np.ones(9)
        bad[0] = 0.0
        with pytest.raises(ValueError):
            single(stiffness3x4, bad, loads3x4[0], loads3x4[1])


class TestForwardMatrix:
    def test_single_load_reduces_to_single_pair(self, stiffness3x4, loads3x4):
        sigma = np.full(9, 1.3)
        F, jac = forward_matrix(stiffness3x4, sigma, loads3x4[:1])
        value, grad = single(stiffness3x4, sigma, loads3x4[0], loads3x4[0])
        assert F.values[0, 0] == pytest.approx(value, rel=1e-12)
        assert np.allclose(jac.slices[:, 0, 0], grad, rtol=1e-12)

    def test_symmetry_for_random_sigma(self, stiffness3x4, loads3x4, rng):
        for _ in range(3):
            sigma = rng.uniform(0.5, 2.0, 9)
            F, _ = forward_matrix(stiffness3x4, sigma, loads3x4)
            assert np.max(np.abs(F.values - F.values.T)) <= 1e-10

    def test_positive_definite_at_ones(self, stiffness3x4, loads3x4):
        F, _ = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        assert np.min(np.linalg.eigvalsh(0.5 * (F.values + F.values.T))) > 0.0

    def test_solve_economy(self, stiffness3x4, loads3x4, solve_counter):
        F, _ = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        assert solve_counter.solves == 8
        assert F.solves_used == 8

    def test_jacobian_matches_finite_differences(self, stiffness3x4, loads3x4, rng):
        sigmas = [np.ones(9)] + [rng.uniform(0.5, 2.0, 9) for _ in range(2)]
        for sigma in sigmas:
            _, jac = forward_matrix(stiffness3x4, sigma, loads3x4)
            fd = fd_matrix_jacobian(stiffness3x4, sigma, loads3x4)
            err = np.abs(fd - jac.slices) / np.maximum(1.0, np.abs(jac.slices))
            assert err.max() <= 1e-5

    def test_jacobian_slices_symmetric(self, stiffness3x4, loads3x4):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        sym_dev = np.abs(jac.slices - jac.slices.transpose(0, 2, 1)).max()
        assert sym_dev <= 1e-12

    def test_flattened_layout_row_major(self, stiffness3x4, loads3x4):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        flat = jac.flattened()
        m = jac.m
        assert flat.shape == (m * m, 9)
        j, k, i = 3, 5, 2
        assert flat[j * m + k, i] == jac.slices[i, j, k]

    def test_empty_loads_rejected(self, stiffness3x4):
        with pytest.raises(ValueError, match="at least one load"):
            forward_matrix(stiffness3x4, np.ones(9), [])
        with pytest.raises(ValueError, match="at least one load"):
            forward_pairs(stiffness3x4, np.ones(9), [])
        with pytest.raises(ValueError, match="at least one load"):
            forward_pair_values(stiffness3x4, np.ones(9), [])


class TestLoewnerStructure:
    def test_directional_derivative_trivial(self, stiffness3x4, loads3x4):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        assert not directional_derivative(jac, np.zeros(9)).any()
        e3 = np.zeros(9)
        e3[3] = 1.0
        assert np.array_equal(directional_derivative(jac, e3), jac.slices[3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_directional_derivative_refuses_a_non_finite_direction(self, stiffness3x4, loads3x4, bad):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        tau = np.ones(9)
        tau[4] = bad
        with pytest.raises(ValueError, match="^direction must be finite"):
            directional_derivative(jac, tau)

    def test_directional_derivative_nsd_for_nonnegative_tau(
        self, stiffness3x4, loads3x4, rng
    ):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        for _ in range(5):
            tau = rng.uniform(0.0, 1.0, 9)
            D = directional_derivative(jac, tau)
            assert np.max(np.linalg.eigvalsh(0.5 * (D + D.T))) <= 1e-10

    def test_monotone_nonincreasing(self, stiffness3x4, loads3x4, rng):
        for _ in range(10):
            lo = rng.uniform(0.5, 2.0, 9)
            hi = rng.uniform(lo, 2.0)
            F_lo, _ = forward_matrix(stiffness3x4, lo, loads3x4)
            F_hi, _ = forward_matrix(stiffness3x4, hi, loads3x4)
            gap = 0.5 * (F_lo.values + F_lo.values.T - F_hi.values - F_hi.values.T)
            assert np.min(np.linalg.eigvalsh(gap)) >= -1e-9

    def test_convexity_linearization_bound(self, stiffness3x4, loads3x4, rng):
        for _ in range(10):
            s0 = rng.uniform(0.5, 2.0, 9)
            s1 = rng.uniform(0.5, 2.0, 9)
            F0, jac0 = forward_matrix(stiffness3x4, s0, loads3x4)
            F1, _ = forward_matrix(stiffness3x4, s1, loads3x4)
            gap = F1.values - F0.values - directional_derivative(jac0, s1 - s0)
            assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -1e-9

    def test_segment_convexity(self, stiffness3x4, loads3x4, rng):
        s0 = rng.uniform(0.5, 2.0, 9)
        s1 = rng.uniform(0.5, 2.0, 9)
        F0, _ = forward_matrix(stiffness3x4, s0, loads3x4)
        F1, _ = forward_matrix(stiffness3x4, s1, loads3x4)
        for t in (0.25, 0.5, 0.75):
            Ft, _ = forward_matrix(stiffness3x4, (1 - t) * s0 + t * s1, loads3x4)
            gap = (1 - t) * F0.values + t * F1.values - Ft.values
            assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -1e-9


class TestForwardPairs:
    def test_values_match_single_pairs(self, stiffness3x4, loads3x4):
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        sigma = TRUTH
        values, jac = forward_pairs(stiffness3x4, sigma, pairs)
        for q, (y_l, y_r) in enumerate(pairs):
            value, grad = single(stiffness3x4, sigma, y_l, y_r)
            assert values[q] == pytest.approx(value, rel=1e-12)
            assert np.allclose(jac[q], grad, rtol=1e-10, atol=1e-18)

    def test_pair_values_only_path(self, stiffness3x4, loads3x4, solve_counter):
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        values = forward_pair_values(stiffness3x4, TRUTH, pairs)
        assert solve_counter.solves == 1  # one distinct excitation
        full, _ = forward_pairs(stiffness3x4, TRUTH, pairs)
        assert np.array_equal(values, full)
        for nx, k in [(2, 1), (4, 3), (9, 4)]:
            stiffness, loads = problem(nx, k)
            sigma = np.ones(stiffness.n)
            sigma[0], sigma[-1] = 1e-2, 1e2
            pairs = [(loads[0], loads[-1]), (loads[1], loads[-2]), (loads[1], loads[0])]
            solve_counter.solves = 0
            values = forward_pair_values(stiffness, sigma, pairs)
            assert solve_counter.solves == 2
            assert np.array_equal(values, forward_pairs(stiffness, sigma, pairs)[0])

    @pytest.mark.parametrize("nx, k", [(3, 4), (4, 3), (9, 4)])
    def test_pair_values_equal_forward_pairs_to_the_bit(self, nx, k):
        # forward_pairs also solves the measurement loads, so its block has more
        # columns; the skeleton factor solves in fixed-width panels, so no
        # column's bits depend on how many others there are.
        stiffness, loads = problem(nx, k)
        rng = np.random.default_rng(nx * 10 + k)
        for _ in range(200):
            sigma = 10.0 ** rng.uniform(-2.0, 2.0, stiffness.n)
            pairs = [(loads[i], loads[j]) for i, j in rng.integers(len(loads), size=(rng.integers(1, 6), 2))]
            assert np.array_equal(forward_pair_values(stiffness, sigma, pairs), forward_pairs(stiffness, sigma, pairs)[0])

    @pytest.mark.parametrize("nx, k", [(3, 4), (8, 4), (12, 2)])
    def test_all_pairs_are_the_symmetric_layout(self, nx, k):
        # A symmetric layout written as pairs: the values are forward_matrix's and the
        # Jacobian rows its flattened slices, both to the bit.
        stiffness, loads = problem(nx, k)
        sigma = np.random.default_rng(nx).uniform(0.5, 2.0, stiffness.n)
        F, jac = forward_matrix(stiffness, sigma, loads)
        values, rows = forward_pairs(stiffness, sigma, [(y_l, y_r) for y_l in loads for y_r in loads])
        assert np.array_equal(values, F.values.ravel())
        assert np.array_equal(rows, jac.flattened())

    def test_memory_peak_of_all_pairs(self):
        # All 784 pairs of the 28 loads at nx=8, k=4. Gathering an N x p copy of
        # the solutions and another of the measurement loads peaked at 9.9 times
        # forward_matrix's peak; one product with the distinct loads stays near it.
        stiffness, loads = problem(8, 4)
        sigma = np.random.default_rng(8).uniform(0.5, 2.0, stiffness.n)
        pairs = [(y_l, y_r) for y_l in loads for y_r in loads]
        forward_matrix(stiffness, sigma, loads)  # builds the cached condensation
        peaks = []
        for call in (lambda: forward_matrix(stiffness, sigma, loads), lambda: forward_pairs(stiffness, sigma, pairs)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]


@functools.lru_cache(maxsize=None)
def problem(nx, k):
    """Pixel family and standard loads of an ``nx x nx`` grid at mesh parameter ``k``."""
    grid = PixelGrid(nx)
    mesh = build_mesh(grid, k)
    loads = [assemble_load(mesh, d) for d in standard_disk_layout(mesh, 0.25)]
    return assemble_pixel_matrices(mesh, grid), loads


def per_point(stiffness, sigma, pixels, samples, pairs):
    """The sweep evaluated the slow way: one full solve per sample.

    ``B`` is assembled and each dense solve refined in long double, so the
    reference is exact to double precision where long double is wider
    (x86-64). In double precision alone, at a coefficient contrast of 1e4,
    both steps are off by about 1e-12 of a value, the whole of the bound
    the sweep is held to: with sigma = 0.01 and 100 on pixel 4, nx=3, the
    rounding of ``C @ sigma`` moves a value by 0.9e-12 (k=3) and a direct
    solve of the rounded matrix is off by another 1.1e-12 (k=2).
    """
    C = stiffness.C.toarray().astype(np.longdouble)
    entries = np.repeat(np.arange(stiffness.N), np.diff(stiffness.pattern.indptr)), stiffness.pattern.indices
    Y_l = np.column_stack([y_l.y for y_l, _ in pairs])
    Y_r = np.column_stack([y_r.y for _, y_r in pairs]).astype(np.longdouble)
    rows = []
    for sample in samples:
        point = np.array(sigma, dtype=float)
        point[list(pixels)] = sample
        B = np.zeros((stiffness.N, stiffness.N), dtype=np.longdouble)
        B[entries] = C @ point
        X = np.linalg.solve(B.astype(float), Y_l)
        for _ in range(2):
            X += np.linalg.solve(B.astype(float), (Y_l - B @ X).astype(float))
        rows.append((X * Y_r).sum(axis=0).astype(float))
    return np.array(rows)


def assert_sweep_matches(stiffness, sigma, pixels, samples, pairs):
    swept = forward_pair_sweep(stiffness, sigma, pixels, samples, pairs)
    expected = per_point(stiffness, sigma, pixels, samples, pairs)
    assert swept.shape == expected.shape == (len(samples), len(pairs))
    assert np.max(np.abs(swept - expected)) <= 1e-12 * np.max(np.abs(expected))


@st.composite
def sweeps(draw):
    nx, k = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    stiffness, loads = problem(nx, k)
    log_coefficient = st.floats(-2.0, 2.0)
    sigma = 10.0 ** draw(arrays(float, stiffness.n, elements=log_coefficient))
    pixels = draw(st.lists(st.integers(0, stiffness.n - 1), unique=True, min_size=1, max_size=stiffness.n))
    count = draw(st.integers(1, 6))
    samples = 10.0 ** draw(arrays(float, (count, len(pixels)), elements=log_coefficient))
    load = st.integers(0, len(loads) - 1)
    pairs = [(loads[i], loads[j]) for i, j in draw(st.lists(st.tuples(load, load), min_size=1, max_size=3))]
    return stiffness, sigma, pixels, samples, pairs


def assert_reported_residual_is_direct(stiffness, sigma, pixels, samples, pairs):
    """Spoil the B_RR solutions and the decomposition, so that the samples'
    solutions have residuals in the rows of both R and S, and let the
    samples' own solves fail; the residual the sweep reports must be
    ||B_sample lam - y|| / ||y|| of the solution it formed for the sample
    it names."""
    samples = samples.copy()
    samples[:, :-1] = samples[0, :-1]  # one line
    excitations = list({id(y_l): y_l for y_l, _ in pairs}.values())
    e = len(excitations)
    spoiled = {}

    def spoiled_multi(matrix, rhs_list, **kwargs):
        reports = solve_multi(matrix, rhs_list, **kwargs)
        factors = [1.0 + 1e-2] * e + [1.0 + 1e-7] * (len(reports) - e)
        spoiled["solutions"] = [rep.solution * f for rep, f in zip(reports, factors)]
        return [SolveReport(x, rep.iterations, rep.residual_norm) for x, rep in zip(spoiled["solutions"], reports)]

    def spoiled_eigh(*args, **kwargs):
        mu, V = _pencil_eigh(*args, **kwargs)
        spoiled["eigh"] = mu, V * (1.0 + 1e-3)
        return spoiled["eigh"]

    def failed_own_solve(*args, **kwargs):
        raise SolverError("own solve failed", residual_norm=1.0, iterations=0)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsolve, "solve_multi", spoiled_multi)
        mp.setattr(forward, "_pencil_eigh", spoiled_eigh)
        mp.setattr(forward, "forward_pair_values", failed_own_solve)
        with pytest.raises(SolverError, match=r"sweep sample \d+ of") as err:
            forward_pair_sweep(stiffness, sigma, pixels, samples, pairs, tol=1e-6)
    assert str(err.value.__cause__) == "own solve failed"  # the own solve's error is chained
    j = int(re.search(r"sweep sample (\d+) of", str(err.value)).group(1)) - 1

    dofs = stiffness.dofs[pixels]
    S = np.unique(dofs[dofs >= 0])
    R = np.setdiff1d(np.arange(stiffness.N), S)
    solved = np.array(spoiled["solutions"]).reshape(e + S.size, R.size).T
    U, W = solved[:, :e], solved[:, e:]
    point = np.array(sigma)
    point[pixels] = samples[j]
    B = global_matrix(stiffness, point)
    Y = np.column_stack([y_l.y for y_l in excitations])
    # The line's pencil is decomposed at rho; t is the shift from rho.
    t = samples[j, -1] - np.sqrt(samples[:, -1].min() * samples[:, -1].max())
    mu, V = spoiled["eigh"]
    reduced, load_S = B[S][:, S].toarray() - B[S][:, R] @ W, Y[S] - B[S][:, R] @ U

    def from_pencil(rhs):
        return V @ ((V.T @ rhs) / (1.0 + t * mu)[:, None])

    lam = np.zeros((stiffness.N, e))
    lam[S] = from_pencil(load_S)
    lam[S] += from_pencil(load_S - reduced @ lam[S])  # the one correction against M + t K_q
    lam[R] = U - W @ lam[S]
    direct = np.linalg.norm(Y - B @ lam, axis=0) / np.linalg.norm(Y, axis=0)
    assert err.value.residual_norm == pytest.approx(direct.max(), rel=1e-9)


class TestForwardPairSweep:
    @settings(max_examples=60, deadline=None)
    @given(sweep=sweeps())
    def test_matches_one_solve_per_point(self, sweep):
        assert_sweep_matches(*sweep)

    def test_no_remaining_unknowns(self, rng):
        # nx=2, k=1 has one unknown, on every pixel: R is empty.
        stiffness, _ = problem(2, 1)
        assert stiffness.N == 1
        load = LoadVector(y=np.ones(1), disk=None)
        samples = rng.uniform(0.1, 2.0, (5, 2))
        assert_sweep_matches(stiffness, np.ones(4), [0, 2], samples, [(load, load)])

    def test_every_pixel_swept(self, stiffness3x4, loads3x4, rng):
        pairs = [(loads3x4[0], loads3x4[7]), (loads3x4[2], loads3x4[2])]
        samples = rng.uniform(0.1, 3.0, (4, 9))
        assert_sweep_matches(stiffness3x4, np.ones(9), list(range(9)), samples, pairs)

    @pytest.mark.parametrize("lines", ["one_line", "separate_lines"])
    def test_values_do_not_depend_on_place(self, stiffness3x4, loads3x4, rng, lines):
        # The same sample placed first and last: in a sweep that is one line,
        # and in one whose samples each start a line of their own (the two
        # copies then form one line between all the others).
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        samples = rng.uniform(0.05, 1.0, (40, 2))
        if lines == "one_line":
            samples[:, 0] = samples[0, 0]
        samples[-1] = samples[0]
        assert_sweep_matches(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert np.array_equal(swept[0], swept[-1])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_high_coefficient_island(self, k):
        # Pixel 4 swept to 100 in a background of 0.01 (contrast 1e4): lam_S
        # is nearly constant on it, and a float64 direct solve reads values
        # off by up to 1e-12. The sweep must get each pair's values right to
        # 1e-13 of their size.
        stiffness, loads = problem(3, k)
        pairs = [(y_l, y_r) for y_l in loads for y_r in loads]
        samples = np.array([[100.0], [1.0], [0.01]])
        swept = forward_pair_sweep(stiffness, np.full(9, 0.01), [4], samples, pairs)
        expected = per_point(stiffness, np.full(9, 0.01), [4], samples, pairs)
        assert np.all(np.abs(swept - expected) <= 1e-13 * np.abs(expected).max(axis=0))

    @pytest.mark.parametrize("a, b", [(1, 6), (5, 1), (3, 7)])
    def test_one_eigendecomposition_per_line(self, stiffness3x4, loads3x4, solve_counter, monkeypatch, a, b):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return _pencil_eigh(*args, **kwargs)

        monkeypatch.setattr(forward, "_pencil_eigh", counted)
        heads, lasts = np.meshgrid(np.linspace(0.2, 2.0, a), np.linspace(0.3, 1.5, b), indexing="ij")
        samples = np.column_stack([heads.ravel(), lasts.ravel()])
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7])]
        forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert calls == [(40, 40)] * a  # one per distinct head, not one per sample
        assert solve_counter.solves == 2 + 40

    def test_long_lines_in_pieces(self, stiffness3x4, loads3x4, monkeypatch):
        # A line longer than _LINE_PIECE samples is decomposed once per piece,
        # so the arrays a sweep holds do not grow with its length.
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _pencil_eigh(*args, **kwargs)

        monkeypatch.setattr(forward, "_pencil_eigh", counted)
        monkeypatch.setattr(forward, "_LINE_PIECE", 8)
        samples, pairs = np.linspace(0.05, 3.0, 20)[:, None], [(loads3x4[0], loads3x4[7])]
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [4], samples, pairs)
        assert len(calls) == 3  # pieces of 8, 8 and 4 samples
        expected = per_point(stiffness3x4, np.ones(9), [4], samples, pairs)
        assert np.max(np.abs(swept - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=40, deadline=None)
    @given(sweep=sweeps())
    def test_setup_residual_is_the_direct_one(self, sweep):
        assert_reported_residual_is_direct(*sweep)

    @pytest.mark.parametrize(
        "nx, k, pixels, excitations",
        [(3, 4, [3, 5], [0, 1]), (3, 4, [4], [0, 1, 2]), (3, 2, [0, 1, 3, 4], [0, 5]), (2, 2, [0, 3], [0, 1, 2]),
         (2, 2, [0, 1, 2, 3], [1, 3])],
        ids=["apart", "interior", "block", "few-remaining", "none-remaining"],
    )
    def test_setup_residual_with_several_excitations(self, nx, k, pixels, excitations):
        # The rows R enter the residual through one QR of E_W and e_U together,
        # whose last columns hold each excitation's part of e_U; with two or more
        # excitations, and with fewer unknowns left in R than swept (or none),
        # the reported residual is still the direct one.
        stiffness, loads = problem(nx, k)
        pairs = [(loads[i], loads[j]) for i in excitations for j in (-1, -2)]
        samples = np.column_stack([np.full((5, len(pixels) - 1), 0.7), np.linspace(0.2, 3.0, 5)])
        sigma = np.linspace(0.5, 2.0, stiffness.n)
        assert_reported_residual_is_direct(stiffness, sigma, pixels, samples, pairs)

    @pytest.mark.parametrize("nx, k, pixels, remaining", [(2, 2, [0, 3], 2), (3, 2, [0, 1, 3, 4], 9),
                                                          (2, 2, [0, 1, 2, 3], 0)])
    def test_few_or_no_remaining_unknowns(self, rng, nx, k, pixels, remaining):
        # Fewer unknowns left in R than swept in S, or none, with two distinct
        # excitations: the QR of the rows R has fewer rows than |S| + e (none at
        # all), and the sweep still gives the values of one solve per sample.
        stiffness, loads = problem(nx, k)
        dofs = stiffness.dofs[pixels]
        assert stiffness.N - np.unique(dofs[dofs >= 0]).size == remaining
        pairs = [(loads[0], loads[1]), (loads[2], loads[1]), (loads[0], loads[2])]
        samples = rng.uniform(0.1, 3.0, (12, len(pixels)))
        samples[6:, :-1] = samples[5, :-1]  # a line of seven samples among single ones
        assert_sweep_matches(stiffness, np.linspace(0.5, 2.0, stiffness.n), pixels, samples, pairs)

    @pytest.mark.parametrize("spoil", ["solves", "decomposition"])
    def test_spoiled_set_up_samples_are_solved_again(self, stiffness3x4, loads3x4, monkeypatch, spoil):
        # Set-up quantities off by 1e-6 show in the residual; every sample then
        # misses tol and is solved again on its own, which brings its values
        # to the direct ones.
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7])]
        samples = np.linspace(0.1, 3.0, 40).reshape(20, 2)
        expected = per_point(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        calls = []
        factor = 1.0 + 1e-6

        def counted_multi(*args, **kwargs):
            reports = solve_multi(*args, **kwargs)
            if spoil == "solves" and not calls:  # the set-up solve only
                reports = [SolveReport(rep.solution * factor, rep.iterations, rep.residual_norm) for rep in reports]
            calls.append(1)
            return reports

        def spoiled_eigh(*args, **kwargs):
            mu, V = _pencil_eigh(*args, **kwargs)
            return mu, V * factor

        monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
        if spoil == "decomposition":
            monkeypatch.setattr(forward, "_pencil_eigh", spoiled_eigh)
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs, tol=1e-13)
        assert len(calls) == 1 + 20  # the set-up solve and one own solve per sample
        assert np.max(np.abs(swept - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_bad_sample_rejected(self, stiffness3x4, loads3x4, bad):
        samples = np.full((3, 1), 0.5)
        samples[1, 0] = bad
        with pytest.raises(ValueError, match="finite and > 0"):
            forward_pair_sweep(stiffness3x4, np.ones(9), [4], samples, [(loads3x4[0], loads3x4[7])])

    @pytest.mark.parametrize(
        "pixels, shape, message",
        [
            ([4, 4], (2, 2), "distinct"),
            ([9], (2, 1), "distinct"),
            ([-1], (2, 1), "distinct"),
            ([4], (2, 2), "shape"),
            ([4.7], (2, 1), "distinct"),  # not truncated to pixel 4
            ([True], (2, 1), "distinct"),  # not pixel 1
            (np.array([4.0]), (2, 1), "distinct"),
            ([], (2, 0), "one or more"),
        ],
    )
    def test_bad_pixels_or_sample_shape_rejected(self, stiffness3x4, loads3x4, pixels, shape, message):
        with pytest.raises(ValueError, match=message):
            forward_pair_sweep(stiffness3x4, np.ones(9), pixels, np.ones(shape), [(loads3x4[0], loads3x4[7])])

    @pytest.mark.parametrize("nx, k, refine_steps", [(2, 1, 0), (3, 4, None), (3, 4, 0)])
    def test_missed_tolerance_raises(self, nx, k, refine_steps, monkeypatch):
        # With nx=2, k=1 the B_RR solves are empty, so the sweep's own residual
        # check is what sends the first sample to its own 1 x 1 solve; without
        # refinement that misses 1e-300 too, and the sweep names the sample. At
        # nx=3, k=4 the set-up solve of B_RR misses it first, refined or not.
        if refine_steps is not None:
            monkeypatch.setattr(linsolve, "REFINE_STEPS", refine_steps)
        own = []

        def counted_own(*args, **kwargs):
            own.append(1)
            return forward_pair_values(*args, **kwargs)

        monkeypatch.setattr(forward, "forward_pair_values", counted_own)
        stiffness, loads = problem(nx, k)
        samples = np.linspace(0.1, 3.0, 40).reshape(20, 2)
        pairs = [(loads[0], loads[1])]
        named = re.escape(f"sweep sample 1 of 20 (coefficients {samples[0].tolist()} on pixels [0, 2]) missed")
        with pytest.raises(SolverError, match=named if nx == 2 else "direct solve missed tolerance"):
            forward_pair_sweep(stiffness, np.ones(stiffness.n), [0, 2], samples, pairs, tol=1e-300)
        assert len(own) == (1 if nx == 2 else 0)

    @pytest.mark.parametrize("value", EXTREMES)
    def test_extreme_samples_match_forward_pairs(self, stiffness3x4, loads3x4, value):
        # Pixel 3 at `value` and pixel 5 at each extreme, one single-sample
        # sweep each. The line's shift rho is the geometric mean of its extreme
        # samples; formed as sqrt(min * max) it under- or overflowed at equal
        # values. Where they differ by a factor of 1e100 or more the sweep's own
        # residual misses tol, and the sample is solved again on its own.
        pairs = [(loads3x4[0], loads3x4[6])]
        for other in EXTREMES:
            sigma = np.ones(9)
            sigma[[3, 5]] = value, other
            swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], np.array([[value, other]]), pairs)
            expected, _ = forward_pairs(stiffness3x4, sigma, pairs)
            assert np.max(np.abs(swept[0] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_extreme_grid_in_one_sweep(self, stiffness3x4, loads3x4):
        # All 81 samples in one sweep: lines whose last pixel spans 600 decades
        # send most samples to their own solves, with no numpy warning on the way.
        pairs = [(loads3x4[0], loads3x4[6])]
        heads, lasts = np.meshgrid(EXTREMES, EXTREMES, indexing="ij")
        samples = np.column_stack([heads.ravel(), lasts.ravel()])
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        for row, sample in zip(swept, samples):
            sigma = np.ones(9)
            sigma[[3, 5]] = sample
            expected, _ = forward_pairs(stiffness3x4, sigma, pairs)
            assert np.max(np.abs(row - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "samples, own_solves, error, message",
        [
            ([1e20], 1, SolverError,
             r"sweep sample 1 of 1 \(coefficients \[1e\+20\] on pixels \[4\]\) lies on a pencil that could not be"),
            ([1.0, 1e100], 2, SolverError,
             r"sweep sample 2 of 2 \(coefficients \[1e\+100\] on pixels \[4\]\) lies on a pencil that could not be"),
            ([1e308], 1, ValueError, r"B_sigma overflows at the largest coefficient 1e\+308"),
        ],
        ids=["1e+20", "1-1e+100", "1e+308"],
    )
    def test_undecomposable_pencil_is_solved_on_its_own(self, stiffness3x4, loads3x4, monkeypatch, samples,
                                                        own_solves, error, message):
        # At contrast 1e20 (and on the line from 1 to 1e100) the pencil is not
        # definite in double precision (LAPACK's LinAlgError); at 1e308 it
        # overflows (the non-finite ValueError). Either way each sample of the
        # line is solved on its own: the sweep names the first whose own solve
        # fails, and passes global_matrix's overflow error on unchanged.
        failed, own = [], []

        def recorded_eigh(*args, **kwargs):
            try:
                return _pencil_eigh(*args, **kwargs)
            except (np.linalg.LinAlgError, ValueError):
                failed.append(1)
                raise

        def counted_own(*args, **kwargs):
            own.append(1)
            return forward_pair_values(*args, **kwargs)

        monkeypatch.setattr(forward, "_pencil_eigh", recorded_eigh)
        monkeypatch.setattr(forward, "forward_pair_values", counted_own)
        with pytest.raises(error, match=message) as err:
            forward_pair_sweep(stiffness3x4, np.ones(9), [4], np.array(samples)[:, None], [(loads3x4[0], loads3x4[6])])
        assert failed == [1] and len(own) == own_solves
        if error is SolverError:
            assert np.isnan(err.value.residual_norm)  # the pencil gave the sample no residual

    def test_non_finite_residual_is_not_refined(self, stiffness3x4, loads3x4, monkeypatch):
        # A NaN residual cannot be refined away: each such sample is solved
        # again on its own, and no solve is handed NaN right-hand sides.
        calls = []

        def counted_multi(matrix, rhs_list, **kwargs):
            calls.append(bool(np.isfinite(rhs_list).all()))
            return solve_multi(matrix, rhs_list, **kwargs)

        def nan_eigh(*args, **kwargs):
            mu, V = _pencil_eigh(*args, **kwargs)
            V[:, 0] = np.nan
            return mu, V

        monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
        monkeypatch.setattr(forward, "_pencil_eigh", nan_eigh)
        samples, pairs = np.linspace(0.5, 2.0, 6).reshape(3, 2), [(loads3x4[0], loads3x4[6])]
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert calls == [True] * (1 + 3)  # the set-up solve and one own solve per sample
        expected = per_point(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert np.max(np.abs(swept - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_non_finite_value_is_named(self, stiffness3x4, loads3x4, monkeypatch):
        # Loads scaled by 1e150 and 1e170: every residual meets tol, but the
        # values overflow, so each sample goes to its own solve. There the
        # overflow is refused as it is by the forward maps; an own solve that
        # fails as a SolverError is reported with the reason the sample went.
        y_l, y_r = (LoadVector(y=ld.y * c, disk=ld.disk) for ld, c in ((loads3x4[0], 1e150), (loads3x4[6], 1e170)))
        samples = np.array([[0.5], [2.0]])
        with pytest.raises(FloatingPointError, match="non-finite entries"):
            forward_pair_sweep(stiffness3x4, np.ones(9), [4], samples, [(y_l, y_r)])

        def failed_own(*args, **kwargs):
            raise SolverError("own solve failed", residual_norm=np.nan, iterations=0)

        monkeypatch.setattr(forward, "forward_pair_values", failed_own)
        named = re.escape("sweep sample 1 of 2 (coefficients [0.5] on pixels [4]) has a value that is not finite")
        with pytest.raises(SolverError, match=named) as err:
            forward_pair_sweep(stiffness3x4, np.ones(9), [4], samples, [(y_l, y_r)])
        assert err.value.residual_norm <= linsolve.DEFAULT_TOL

    @pytest.mark.parametrize("pixels", [[4], [3, 5]])
    def test_empty_sweep(self, stiffness3x4, loads3x4, monkeypatch, pixels):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return _pencil_eigh(*args, **kwargs)

        monkeypatch.setattr(forward, "_pencil_eigh", counted)
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7]), (loads3x4[0], loads3x4[7])]
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), pixels, np.empty((0, len(pixels))), pairs)
        assert swept.shape == (0, 3)
        assert calls == []

    def test_values_do_not_depend_on_batches(self, stiffness3x4, loads3x4, monkeypatch):
        # Lines of 1 to 9 samples, a repeated sample and a line in two pieces:
        # every piece in a batch of its own must give the values of the default
        # batches, and both those of one solve per sample.
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7])]
        heads = np.repeat(np.linspace(0.1, 3.0, 9), np.arange(1, 10))
        samples = np.column_stack([heads, np.random.default_rng(4).uniform(0.05, 4.0, heads.size)])
        samples = np.vstack([samples, samples[7]])
        monkeypatch.setattr(forward, "_LINE_PIECE", 6)
        batched = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        monkeypatch.setattr(forward, "_WORKING_BYTES", 0)  # one piece a batch
        alone = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert np.max(np.abs(batched - alone)) <= 1e-14 * np.max(np.abs(alone))
        assert np.array_equal(batched[7], batched[-1])
        expected = per_point(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert np.max(np.abs(batched - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_repeated_samples_are_computed_once(self, stiffness3x4, loads3x4, monkeypatch):
        # Forty copies of two samples on one line, both missing tol: each of the
        # two distinct samples is solved on its own once, and the copies agree
        # to the bit.
        sizes = []

        def counted_multi(matrix, rhs_list, **kwargs):
            sizes.append(len(rhs_list))
            return solve_multi(matrix, rhs_list, **kwargs)

        def spoiled_eigh(*args, **kwargs):
            mu, V = _pencil_eigh(*args, **kwargs)
            return mu, V * (1.0 + 1e-6)

        monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
        monkeypatch.setattr(forward, "_pencil_eigh", spoiled_eigh)
        samples = np.tile([[0.3, 0.7], [0.3, 1.9]], (40, 1))
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, [(loads3x4[0], loads3x4[6])], tol=1e-13)
        assert sizes == [1 + 40, 1, 1]
        assert np.array_equal(swept, np.tile(swept[:2], (40, 1)))

    def test_loads_beyond_the_square_root_of_the_double_range(self, stiffness3x4, loads3x4):
        # An excitation scaled by 2**530 has entries whose squares overflow.
        # The scaling is exact, so the sweep must give the unscaled values
        # times 2**530 to the bit, those of one solve per sample, and no warning.
        plain = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        y_l = LoadVector(y=loads3x4[0].y * 2.0**530, disk=loads3x4[0].disk)
        pairs = [(y_l, y_r) for _, y_r in plain]
        samples = np.linspace(0.1, 3.0, 40).reshape(20, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        assert np.array_equal(swept, 2.0**530 * forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, plain))
        for row, sample in zip(swept, samples):
            sigma = np.ones(9)
            sigma[[3, 5]] = sample
            expected = forward_pair_values(stiffness3x4, sigma, pairs)
            assert np.max(np.abs(row - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_memory_peak_of_a_landscape_sweep(self, stiffness3x4, loads3x4, solve_counter):
        # The benchmark's landscape sweep: a 30 x 30 grid and the truth. Its
        # batches of lines are bounded in bytes, so the peak stays near the
        # 0.4 MB of one line at a time (1.05 MB with batches of six lines).
        # No sample is solved on its own: the set-up's solves are all.
        values = 0.02 * np.arange(1, 31)
        a, b = np.meshgrid(values, values, indexing="ij")
        samples = np.vstack([np.column_stack([a.ravel(), b.ravel()]), [0.5, 0.5]])
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        tracemalloc.start()
        try:
            forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
        assert solve_counter.solves == 1 + 40

    @pytest.mark.parametrize("count", [1, 7, 100])
    def test_solves_do_not_grow_with_samples(self, stiffness3x4, loads3x4, solve_counter, count):
        pixels = [3, 5]
        dofs = stiffness3x4.dofs[pixels]
        swept_unknowns = np.unique(dofs[dofs >= 0]).size
        assert swept_unknowns == 40
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7]), (loads3x4[0], loads3x4[7])]
        forward_pair_sweep(stiffness3x4, np.ones(9), pixels, np.full((count, 2), 0.7), pairs)
        assert solve_counter.solves == 2 + swept_unknowns  # two distinct excitations


class TestPencilEigh:
    """The sweep's decomposition against ``scipy.linalg.eigh(K_q, A)``."""

    @staticmethod
    def pencil(stiffness, pixels, contrast):
        """``B_sigma`` with the swept pixels at ``contrast`` in a background of 1,
        condensed onto their unknowns ``S``; the last pixel's block on ``S``; and
        the unknowns ``Q`` of that pixel."""
        sigma = np.ones(stiffness.n)
        sigma[pixels] = contrast
        B = global_matrix(stiffness, sigma).toarray()
        dofs = stiffness.dofs[pixels]
        S = np.unique(dofs[dofs >= 0])
        R = np.setdiff1d(np.arange(stiffness.N), S)
        A = B[np.ix_(S, S)] - B[np.ix_(S, R)] @ np.linalg.solve(B[np.ix_(R, R)], B[np.ix_(R, S)])
        free = dofs[-1] >= 0
        Q = np.searchsorted(S, dofs[-1, free])
        K_q = np.zeros(A.shape)
        K_q[np.ix_(Q, Q)] = stiffness.block[np.ix_(free, free)]
        return K_q, A, Q

    @pytest.mark.parametrize("contrast", [1.0, 1e4])
    @pytest.mark.parametrize("pixels", [[3, 5], [4], [3, 4]], ids=["apart", "interior", "adjacent"])
    def test_contract_of_eigh(self, stiffness3x4, pixels, contrast):
        # Pixel 4 is interior, so its K_QQ is singular; pixels 3 and 4 share
        # vertices. At contrast 1e4 pixel 4 alone makes A's condition 2.7e5, and
        # eigh's own V^T A V and zero eigenvalue are then off by 0.9e-12 and
        # 5e-12 of the largest: the bound is 1e-12, or the rounding of A's
        # condition where that is larger.
        K_q, A, Q = self.pencil(stiffness3x4, pixels, contrast)
        mu, V = _pencil_eigh(A, *_pencil_data(K_q))
        expected = eigh(K_q, A, eigvals_only=True)
        bound = max(1e-12, np.finfo(float).eps * np.linalg.cond(A))
        assert np.max(np.abs(V.T @ A @ V - np.eye(len(A)))) <= bound
        assert np.max(np.abs(V.T @ K_q @ V - np.diag(mu))) <= 1e-12
        assert np.max(np.abs(np.sort(mu) - expected)) <= bound * expected.max()
        assert np.all(mu[:len(A) - Q.size] == 0.0)

    @pytest.mark.parametrize("spoil, error", [("indefinite", np.linalg.LinAlgError), ("inf", ValueError),
                                              ("nan", ValueError)])
    def test_errors_of_eigh(self, stiffness3x4, spoil, error):
        # The errors the sweep catches to solve a line's samples on their own.
        K_q, A, _ = self.pencil(stiffness3x4, [3, 5], 1.0)
        if spoil == "indefinite":
            A -= np.median(np.linalg.eigvalsh(A)) * np.eye(len(A))
        else:
            A[0, 1] = A[1, 0] = float(spoil)
        for decompose in (lambda: eigh(K_q, A), lambda: _pencil_eigh(A, *_pencil_data(K_q))):
            with pytest.raises(error):
                decompose()


class TestLoadsOfAnotherMesh:
    # Loads of the nx=3, k=2 mesh were scattered into the first of the k=4
    # mesh's 121 unknowns (F[0, 0] read 5.10e-5 for 1.23e-4), or failed with
    # numpy's broadcast or index errors; the nx=4, k=3 mesh has 121 unknowns too.
    @pytest.mark.parametrize("nx, k", [(3, 2), (4, 3)])
    def test_every_map_refuses_them(self, stiffness3x4, loads3x4, nx, k):
        other = problem(nx, k)[1]
        both = re.escape(f"(nx, k) = {(nx, k)} used with the stiffness set of the mesh (3, 4)")
        calls = [
            lambda: forward_matrix(stiffness3x4, np.ones(9), other[:2]),
            lambda: forward_pairs(stiffness3x4, np.ones(9), [(other[0], other[1])]),
            lambda: forward_pair_values(stiffness3x4, np.ones(9), [(other[0], other[1])]),
            lambda: forward_pair_values(stiffness3x4, np.ones(9), [(loads3x4[0], other[1])]),  # a measurement
            lambda: forward_pair_sweep(stiffness3x4, np.ones(9), [4], np.ones((2, 1)), [(loads3x4[0], other[1])]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=both):
                call()

    def test_load_without_disk_is_checked_for_length(self, stiffness3x4):
        with pytest.raises(ValueError, match="load of 25 entries .* 121 unknowns"):
            forward_matrix(stiffness3x4, np.ones(9), [LoadVector(y=np.ones(25), disk=None)])

    @pytest.mark.parametrize("k_max", [4, 8])
    def test_true_reference_refuses_them(self, grid3, disks3x4, k_max):
        # The mesh is the first disk's own, so disks of two meshes, or none, are refused.
        disks = standard_disk_layout(build_mesh(grid3, 2), 0.25)
        with pytest.raises(ValueError, match=re.escape("disk of the mesh (nx, k) = (3, 4) used on the mesh (3, 2)")):
            true_reference(disks + disks3x4, np.ones(9), k_max)
        with pytest.raises(ValueError, match=re.escape("disk of the mesh (nx, k) = (3, 2) used on the mesh (3, 4)")):
            true_reference(disks3x4 + disks, np.ones(9), k_max)
        with pytest.raises(ValueError, match="need at least one disk"):
            true_reference([], np.ones(9), k_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_load_that_is_not_finite_is_named(self, bad):
        # A NaN measurement load was blamed on sigma ("the coefficient scale is outside
        # double-precision range") by the pair values and the sweep; forward_pairs named
        # the distinct right-hand side. Loads are counted pair by pair, the excitation first.
        stiffness, loads = problem(3, 2)
        y = np.zeros(stiffness.N)
        y[5] = bad
        spoiled = LoadVector(y=y, disk=None)
        pairs = [(loads[0], loads[1]), (loads[0], spoiled)]  # the same excitation twice: the spoiled load is the 4th
        calls = [
            lambda: forward_pair_values(stiffness, np.ones(9), pairs),
            lambda: forward_pairs(stiffness, np.ones(9), pairs),
            lambda: forward_pair_sweep(stiffness, np.ones(9), [4], np.ones((2, 1)), pairs),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape("load 4 of 4 has an entry that is not finite")):
                call()
        with pytest.raises(ValueError, match=re.escape("load 2 of 3 has an entry that is not finite")):
            forward_matrix(stiffness, np.ones(9), [loads[0], spoiled, loads[1]])
        nan = LoadVector(y=np.full(stiffness.N, np.nan), disk=None)
        with pytest.raises(ValueError, match=re.escape("load 2 of 2 has an entry that is not finite")):
            forward_pair_values(stiffness, np.ones(9), [(loads[0], nan)])


class TestTrueReference:
    def test_same_level_is_identical(self, grid3, stiffness3x4, disks3x4, loads3x4):
        sigma = np.full(9, 1.1)
        F, _ = forward_matrix(stiffness3x4, sigma, loads3x4)
        ref = true_reference(disks3x4, sigma, 4)
        assert np.array_equal(ref.values, F.values)

    def test_rejects_bad_refinement_target(self, grid3, disks3x4):
        with pytest.raises(ValueError):
            true_reference(disks3x4, np.ones(9), 12)
        with pytest.raises(ValueError):
            true_reference(disks3x4, np.ones(9), 2)

    @pytest.mark.parametrize("k_max", [4.0, 8.0, True, "4"], ids=repr)
    def test_k_max_must_be_an_integer(self, grid3, k_max):
        # 4.0 and 8.0 once reached ``ratio & (ratio - 1)`` and raised a TypeError there.
        disks = standard_disk_layout(build_mesh(grid3, 2), 0.25)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            true_reference(disks, np.ones(9), k_max)

    def test_refinement_ordering_and_cauchy(self, grid3, rng):
        # Finer nested spaces can only increase the measurement matrix in
        # the semidefinite order, and successive gaps shrink.
        k = 2
        mesh = build_mesh(grid3, k)
        disks = standard_disk_layout(mesh, 0.25)
        sigma = rng.uniform(0.5, 2.0, 9)
        levels = {
            kk: true_reference(disks, sigma, kk).values
            for kk in (k, 2 * k, 4 * k)
        }
        step1 = levels[2 * k] - levels[k]
        step2 = levels[4 * k] - levels[2 * k]
        assert np.min(np.linalg.eigvalsh(0.5 * (step1 + step1.T))) >= -1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (step2 + step2.T))) >= -1e-9
        assert np.all(np.diag(step1) >= -1e-12)
        assert np.all(np.diag(step2) >= -1e-12)
        assert np.linalg.norm(step2) <= np.linalg.norm(step1)


def oracle_forward(nx, k, sigma):
    """F and J the independent way: ``B_sigma`` element by element
    (``assemble_global``), a sparse LU solve refined twice against it in
    long double, and slice ``i`` summed over pixel ``i``'s element matrices."""
    grid = PixelGrid(nx)
    mesh = build_mesh(grid, k)
    loads = [assemble_load(mesh, d) for d in standard_disk_layout(mesh, 0.25)]
    B = assemble_global(mesh, grid, sigma)
    Y = np.column_stack([ld.y for ld in loads])
    lu = splu(B.tocsc())
    lam = lu.solve(Y)
    for _ in range(2):
        lam += lu.solve((Y - B.astype(np.longdouble) @ lam.astype(np.longdouble)).astype(float))
    on_vertices = np.zeros((mesh.n_vertices, len(loads)))
    on_vertices[mesh.free_index >= 0] = lam
    L = on_vertices[mesh.triangles]
    K = np.array([element_stiffness(mesh.vertices[t]) for t in mesh.triangles])
    J = [-np.einsum("tam,tab,tbl->ml", L[e], K[e], L[e]) for e in (mesh.element_pixel == i for i in range(grid.n))]
    return lam.T @ Y, np.array(J)


def oracle_sigma(nx, k, contrast):
    """The coefficients of :class:`TestCondensedPath`: random, with the centre pixel at ``contrast`` if given."""
    sigma = np.random.default_rng(nx * 10 + k).uniform(0.5, 2.0, nx * nx)
    if contrast:
        sigma[(nx // 2) * nx + nx // 2] = contrast
    return sigma


class TestCondensedPath:
    """The forward maps solve through the skeleton factor of B_sigma at k >= 3, where a pixel has at least four
    interior unknowns, and through B_sigma's own band factor below; the skeleton factor is checked at every k."""

    @pytest.mark.parametrize("contrast", [None, 1e4])
    @pytest.mark.parametrize("nx, k", [(3, 1), (3, 4), (9, 4), (15, 2), (4, 8)])
    def test_matches_the_independent_oracle(self, nx, k, contrast, solve_counter):
        # At a contrast of 1e4 the two routes differ by up to 8e-13 (nx=4,
        # k=8): the rounding of B_sigma alone moves values by about 1e-12.
        stiffness, loads = problem(nx, k)
        sigma = oracle_sigma(nx, k, contrast)
        F, jac = forward_matrix(stiffness, sigma, loads)
        assert solve_counter.solves == F.solves_used == len(loads)
        F_oracle, J_oracle = oracle_forward(nx, k, sigma)
        assert np.max(np.abs(F.values - F_oracle)) <= 1e-12 * np.max(np.abs(F_oracle))
        assert np.max(np.abs(jac.slices - J_oracle)) <= 1e-12 * np.max(np.abs(J_oracle))
        assert np.max(np.abs(directional_derivative(jac, sigma) + F.values)) <= 1e-12 * np.max(np.abs(F.values))

    @pytest.mark.parametrize("contrast", [None, 1e4])
    @pytest.mark.parametrize("nx, k", [(3, 1), (15, 2)])
    def test_skeleton_factor_matches_the_oracle_below_k3(self, nx, k, contrast):
        # The forward maps factor B_sigma itself here; the skeleton factor,
        # handed to solve_multi directly, must still give F and J.
        grid = PixelGrid(nx)
        stiffness, loads = assemble_pixel_matrices(build_mesh(grid, k), grid), problem(nx, k)[1]
        sigma = oracle_sigma(nx, k, contrast)
        factor = stiffness.condensation.factor(sigma)
        reports = solve_multi(global_matrix(stiffness, sigma), [ld.y for ld in loads], factor=factor)
        lam = reports[0].solution.base[:, :len(loads)]  # above the block's zero row
        F = lam[:-1].T @ np.column_stack([ld.y for ld in loads])
        J = forward._pixel_quadratic_forms(stiffness, sigma, lam, np.arange(stiffness.n),
                                           np.empty((stiffness.n,) + F.shape))
        F_oracle, J_oracle = oracle_forward(nx, k, sigma)
        assert np.max(np.abs(F - F_oracle)) <= 1e-12 * np.max(np.abs(F_oracle))
        assert np.max(np.abs(J - J_oracle)) <= 1e-12 * np.max(np.abs(J_oracle))

    @pytest.mark.parametrize("spoil", ["scaled", "halved", "zero", "noise", "nan"])
    def test_spoiled_factor_is_refined_or_refused(self, stiffness3x4, loads3x4, monkeypatch, spoil):
        # The residual is always that of the full B_sigma: a wrong factor costs
        # refinement steps or raises SolverError, and never returns a wrong value.
        sigma = np.random.default_rng(5).uniform(0.5, 2.0, 9)
        F_clean, jac_clean = forward_matrix(stiffness3x4, sigma, loads3x4, tol=1e-12)
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[2], loads3x4[2])]
        values_clean, rows_clean = forward_pairs(stiffness3x4, sigma, pairs, tol=1e-12)
        condensed_factor, steps = Condensation.factor, []

        def spoiled_factor(*args):
            solve = condensed_factor(*args)

            def spoiled(R, out):
                solve(R, out)
                X = out[:-1]  # never the block's zero row
                if spoil == "scaled":
                    X *= 1.0 + 1e-6
                elif spoil == "halved":
                    X *= 0.5
                elif spoil == "noise":
                    X += np.random.default_rng(0).standard_normal(X.shape)
                else:
                    X[...] = 0.0 if spoil == "zero" else np.nan

            return spoiled

        def counted_multi(*args, **kwargs):
            reports = solve_multi(*args, **kwargs)
            steps.extend(rep.iterations for rep in reports)
            return reports

        monkeypatch.setattr(Condensation, "factor", spoiled_factor)
        monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
        if spoil != "scaled":
            with pytest.raises(SolverError, match="missed tolerance"):
                forward_matrix(stiffness3x4, sigma, loads3x4, tol=1e-12)
            with pytest.raises(SolverError, match="missed tolerance"):
                forward_pairs(stiffness3x4, sigma, pairs, tol=1e-12)
            return
        F, jac = forward_matrix(stiffness3x4, sigma, loads3x4, tol=1e-12)
        assert F.solves_used == len(loads3x4) + sum(steps)  # each refinement step is one more back-substitution
        values, rows = forward_pairs(stiffness3x4, sigma, pairs, tol=1e-12)
        assert min(steps) >= 1
        assert np.max(np.abs(F.values - F_clean.values)) <= 1e-11 * np.max(np.abs(F_clean.values))
        assert np.max(np.abs(jac.slices - jac_clean.slices)) <= 1e-11 * np.max(np.abs(jac_clean.slices))
        assert np.max(np.abs(values - values_clean)) <= 1e-11 * np.max(np.abs(values_clean))
        assert np.max(np.abs(rows - rows_clean)) <= 1e-11 * np.max(np.abs(rows_clean))

    def test_columns_do_not_depend_on_the_column_count(self, stiffness3x4):
        # Every prefix of a block of 2 W + 1 right-hand sides (W the panel
        # width) is solved through the skeleton factor to the bit as in the
        # whole block.
        sigma = np.random.default_rng(3).uniform(0.5, 2.0, stiffness3x4.n)
        B, factor = global_matrix(stiffness3x4, sigma), stiffness3x4.condensation.factor(sigma)
        R = np.random.default_rng(4).standard_normal((2 * linsolve._PANEL + 1, stiffness3x4.N))
        wide = [rep.solution for rep in solve_multi(B, R, factor=factor)]
        for columns in range(1, R.shape[0] + 1):
            reports = solve_multi(B, R[:columns], factor=factor)
            assert all(np.array_equal(rep.solution, x) for rep, x in zip(reports, wide))

    def test_memory_peak_of_one_call(self):
        # One forward_matrix call at nx=15, k=4 (N=3481, m=56, n=225) returns
        # 5.67 MB, the Jacobian stack nearly all of it. It used to peak at
        # 12.3 MB, with a gathered copy of every pixel's solutions, their
        # product with the block and a negated copy of the stack; now the
        # stack is filled a chunk of pixels at a time.
        stiffness, loads = problem(15, 4)
        sigma = np.random.default_rng(7).uniform(0.5, 2.0, stiffness.n)
        forward_matrix(stiffness, sigma, loads)  # builds the cached condensation
        tracemalloc.start()
        try:
            F, jac = forward_matrix(stiffness, sigma, loads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert jac.slices.nbytes + F.values.nbytes <= 5.7e6
        assert peak <= 8.5e6


def layout_group(nx, order=None):
    """The group of the standard layout at ``sigma = 1`` (its loads in ``order`` if given): the lattice maps of the
    pixels, the loads following their boundary pixels. Element ``i`` composes the generators of the bits of ``i``."""
    grid = PixelGrid(nx)
    boundary = np.array(grid.boundary_pixels())
    order = np.arange(boundary.size) if order is None else np.asarray(order)
    at = np.argsort(order)  # where each load of the layout's own order went
    return np.array([np.concatenate([p, grid.n + at[np.searchsorted(boundary, p[boundary])][order]])
                     for p in lattice_symmetries(nx)])


def full_contraction(stiffness, lam):
    """Every pixel's slice by the contraction loop as it read before pixel subsets: the reference for bits."""
    s, m = stiffness.block.shape[0], lam.shape[1]
    step = max(1, forward._WORKING_BYTES // (8 * s * m))
    out = np.empty((stiffness.n, m, m))
    for start in range(0, stiffness.n, step):
        L = lam[stiffness.dofs[start:start + step].T]
        BL = (-stiffness.block @ L.reshape(s, -1)).reshape(L.shape)
        np.matmul(L.transpose(1, 2, 0), BL.transpose(1, 0, 2), out=out[start:start + step])
    return out


class TestOrbitStack:
    """A stack stored one pixel per orbit of the group it carries."""

    @pytest.mark.parametrize("shape", [(3, 4, 5), (3, 2, 2, 1), (4,), (2, 3), ()], ids=str)
    def test_only_an_n_m_m_stack_is_accepted(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"(n, m, m) stack, got shape {shape}")):
            JacobianStack(np.random.default_rng(0).random(shape))

    def test_slices_must_match_the_orbits_of_the_group(self):
        stiffness, loads = problem(4, 1)
        _, jac = forward_matrix(stiffness, np.ones(16), loads)
        with pytest.raises(ValueError, match="16 slices given for the 6 pixel orbits"):
            JacobianStack(np.zeros((16, 12, 12)), group=jac.group)

    @pytest.mark.parametrize("nx, k", [(3, 4), (15, 4)])
    def test_without_symmetries_every_pixel_is_contracted_as_before(self, nx, k):
        # Bit for bit: the stack against the loop that contracted all pixels, and
        # the packed condition number against the SVD of the packed matrix itself.
        stiffness, loads = problem(nx, k)
        sigma = np.random.default_rng(nx).uniform(0.5, 2.0, stiffness.n)
        F, jac = forward_matrix(stiffness, sigma, loads)
        lam = forward._solve(stiffness, sigma, loads, linsolve.DEFAULT_TOL)[0]
        assert jac.slices is jac.orbit_slices and np.array_equal(jac.orbits, np.arange(stiffness.n))
        assert jac.slices.tobytes() == full_contraction(stiffness, lam).tobytes()
        a, b = np.triu_indices(len(loads))
        packed = jac.slices.reshape(stiffness.n, -1)[:, a * len(loads) + b] * np.where(a == b, 1.0, np.sqrt(2.0))
        assert analysis.condition_number(jac).singular_values.tobytes() == analysis.singular_values(packed.T).tobytes()

    @pytest.mark.parametrize("nx, k", [(12, 2), (5, 4)])
    def test_orbit_stack_is_the_full_stack(self, nx, k):
        # Against the full contraction, forward_pairs' rows over all m*m pairs: F to
        # rounding; the orbits' first pixels as the full contraction has them; every
        # slice gathered from those agrees with it.
        stiffness, loads = problem(nx, k)
        values, rows = forward_pairs(stiffness, np.ones(stiffness.n), [(a, b) for a in loads for b in loads])
        full = JacobianStack(np.ascontiguousarray(rows.T).reshape(stiffness.n, len(loads), len(loads)))
        F, jac = forward_matrix(stiffness, np.ones(stiffness.n), loads)
        assert np.array_equal(jac.group, layout_group(nx))
        assert np.max(np.abs(F.values.ravel() - values)) <= 1e-14 * np.abs(values).max()
        assert jac.orbits.size == (nx * nx + 2 * nx + nx % 2) // 4  # Burnside: the mean of the fixed pixels
        scale = np.abs(full.slices).max()
        assert np.max(np.abs(jac.orbit_slices - full.slices[jac.orbits])) <= 1e-17 * scale
        assert np.max(np.abs(jac.slices - full.slices)) <= 1e-14 * scale
        assert np.max(np.abs(jac.flattened() - full.flattened())) <= 1e-14 * scale
        tau = np.random.default_rng(2).random(stiffness.n)
        assert np.max(np.abs(directional_derivative(jac, tau) - directional_derivative(full, tau))) <= 1e-13 * scale


class TestSymmetryGroup:
    """The group ``forward_matrix`` finds on its inputs, and the groups a stack accepts."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_the_standard_layout_at_sigma_one_has_the_four_group_in_any_order(self, k):
        # Each load goes onto the load of its image pixel, wherever the caller put it.
        for nx in range(2, 13):
            stiffness, loads = problem(nx, k)
            m = len(loads)
            distinct = len({ld.y.tobytes() for ld in loads}) == m  # nx = 2, k = 1: four equal loads
            Y = np.array([ld.y for ld in loads])
            for order in [range(m), [1, 0, *range(2, m)], range(m)[::-1], np.random.default_rng(nx).permutation(m)]:
                group = forward._symmetry_group(stiffness, np.ones(stiffness.n), Y[list(order)])
                expected = layout_group(nx, list(order))
                assert np.array_equal(group[:, :stiffness.n], expected[:, :stiffness.n])
                for t, w, e in zip(group[:, stiffness.n:] - stiffness.n, lattice_symmetries(nx * k - 1), expected):
                    assert np.array_equal(Y[order][t], Y[order][:, w])  # each load onto its image, bitwise
                    assert not distinct or np.array_equal(t + stiffness.n, e[stiffness.n:])

    @pytest.mark.parametrize("k, value", [(4, 1.0 + 1e-3), (2, 1.0 + 1e-10), (2, np.nextafter(1.0, 2.0))])
    def test_a_coefficient_no_symmetry_fixes_gets_the_identity(self, k, value):
        # Pixel 1 of the 4x4 grid lies on no diagonal, and the half-turn moves every
        # pixel. Invariance is checked on sigma itself, so no miss is small enough.
        stiffness, loads = problem(4, k)
        sigma = np.ones(16)
        sigma[1] = value
        _, jac = forward_matrix(stiffness, sigma, loads)
        rows = forward_pairs(stiffness, sigma, [(a, b) for a in loads for b in loads])[1]
        assert jac.group.tolist() == [list(range(16 + len(loads)))] and np.array_equal(jac.flattened(), rows)

    @pytest.mark.parametrize("kept", ["reflection", "half-turn", "product"])
    def test_a_coefficient_one_symmetry_fixes_gets_that_one(self, kept):
        # sigma constant on the orbits of one lattice map: the group of that map alone,
        # whose blocks hold the spectrum of the full contraction.
        stiffness, loads = problem(5, 2)
        i = ["reflection", "half-turn", "product"].index(kept) + 1
        p = lattice_symmetries(5)[i]
        sigma = np.random.default_rng(i).uniform(0.5, 2.0, 25)
        sigma = np.maximum(sigma, sigma[p])
        _, jac = forward_matrix(stiffness, sigma, loads)
        assert np.array_equal(jac.group, layout_group(5)[[0, i]])
        rows = forward_pairs(stiffness, sigma, [(a, b) for a in loads for b in loads])[1]
        packed = analysis.condition_number(rows).singular_values
        assert np.max(np.abs(analysis.condition_number(jac).singular_values - packed) / packed) <= 1e-12

    @pytest.mark.parametrize("turn", ["quarter-turn", "mirror"])
    def test_a_coefficient_a_quarter_turn_or_a_mirror_keeps_gets_the_half_turn(self, turn):
        # The quarter-turn and the reflection about x = 1/2 flip the triangles'
        # diagonals: never in the group. A sigma the quarter-turn keeps is kept by
        # its square, the half-turn; one the mirror and the half-turn keep, by the half-turn.
        stiffness, loads = problem(6, 4)
        iy, ix = np.divmod(np.arange(36), 6)
        half_turn = lattice_symmetries(6)[2]
        q = ix * 6 + (5 - iy) if turn == "quarter-turn" else iy * 6 + (5 - ix)
        sigma = np.random.default_rng(6).uniform(0.5, 2.0, 36)
        for _ in range(3):  # the largest value of each orbit
            for r in [q] if turn == "quarter-turn" else [q, half_turn]:
                sigma = np.maximum(sigma, sigma[r])
        assert np.array_equal(sigma[q], sigma) and not np.array_equal(sigma[lattice_symmetries(6)[1]], sigma)
        _, jac = forward_matrix(stiffness, sigma, loads)
        assert np.array_equal(jac.group, layout_group(6)[[0, 2]])

    @pytest.mark.parametrize("field", ["dofs", "block"])
    def test_a_stiffness_set_the_symmetries_move_gets_the_identity(self, field):
        # Two vertices of every pixel swapped in its unknowns, or a block entry moved
        # off the pixel's reflection: B_i is no longer mapped onto B_p(i).
        stiffness, loads = problem(4, 2)
        value = getattr(stiffness, field).copy()
        value[..., [0, 1]] = value[..., [1, 0]]
        spoiled = dataclasses.replace(stiffness, **{field: value})
        Y = np.array([ld.y for ld in loads])
        assert len(forward._symmetry_group(stiffness, np.ones(16), Y)) == 4
        assert forward._symmetry_group(spoiled, np.ones(16), Y).tolist() == [list(range(16 + len(loads)))]

    @pytest.mark.parametrize("bad", ["last the identity", "second repeated", "three rows", "identity not first",
                                     "a quarter-turn", "a quarter-turn and its square", "float", "bool",
                                     "pixels onto loads", "five rows", "no rows"])
    def test_a_group_that_is_not_one_is_refused(self, bad):
        # nx = 4, k = 2 at sigma = 1: the layout's group and its orbits' slices of the full
        # contraction give the condition number 12.2663. With the last element replaced by
        # the identity they once gave 33.51; with the second repeated as the third, infinity.
        stiffness, loads = problem(4, 2)
        group = layout_group(4)
        rows = forward_pairs(stiffness, np.ones(16), [(a, b) for a in loads for b in loads])[1]
        full = np.ascontiguousarray(rows.T).reshape(16, 12, 12)
        slices = full[np.unique(group[:, :16].min(axis=0))]
        assert analysis.condition_number(JacobianStack(slices, group=group)).condition == pytest.approx(12.2663, rel=1e-5)
        e, g1, g2, g3 = group
        quarter = np.concatenate([np.arange(16).reshape(4, 4).T[:, ::-1].ravel(), 16 + np.roll(np.arange(12), 3)])
        given = {"last the identity": [e, g1, g2, e], "second repeated": [e, g1, g1, g3], "three rows": [e, g1, g2],
                 "identity not first": [g1, e], "a quarter-turn": [e, quarter],
                 "a quarter-turn and its square": [e, quarter, quarter[quarter], g3], "float": group + 0.0,
                 "bool": group.astype(bool), "pixels onto loads": [e, e[::-1]], "five rows": [e, g1, g2, g3, e],
                 "no rows": np.zeros((0, 28), dtype=int)}[bad]
        with pytest.raises(ValueError, match="a group must be the identity"):
            JacobianStack(slices, group=np.array(given))

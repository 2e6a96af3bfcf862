import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh

from pixelinv import forward, linsolve
from pixelinv.assembly import LoadVector, assemble_load, assemble_pixel_matrices, global_matrix
from pixelinv.forward import (
    directional_derivative,
    forward_matrix,
    forward_pair_sweep,
    forward_pair_values,
    forward_pairs,
    true_reference,
)
from pixelinv.linsolve import SolveReport, SolverError, solve_multi
from pixelinv.mesh import PixelGrid, build_mesh, standard_disk_layout

TRUTH = np.array([1, 1, 1, 0.5, 1, 0.5, 1, 1, 1])


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

    @pytest.mark.parametrize("c", [1e-160, 1e-300])
    def test_tiny_sigma_overflow_raises(self, stiffness3x4, loads3x4, c):
        sigma = c * np.ones(9)
        pair = (loads3x4[0], loads3x4[7])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                forward_matrix(stiffness3x4, sigma, loads3x4)
            with pytest.raises(FloatingPointError, match="non-finite"):
                forward_pairs(stiffness3x4, sigma, [pair])
            with pytest.raises(FloatingPointError, match="non-finite"):
                forward_pairs(stiffness3x4, sigma, [(loads3x4[0], loads3x4[0])])


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
        assert np.allclose(values, full, rtol=1e-12)


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
    pixels = draw(st.lists(st.integers(0, stiffness.n - 1), unique=True, max_size=stiffness.n))
    count = draw(st.integers(1, 6))
    samples = 10.0 ** draw(arrays(float, (count, len(pixels)), elements=log_coefficient))
    load = st.integers(0, len(loads) - 1)
    pairs = [(loads[i], loads[j]) for i, j in draw(st.lists(st.tuples(load, load), min_size=1, max_size=3))]
    return stiffness, sigma, pixels, samples, pairs


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

    def test_no_pixel_swept(self, stiffness3x4, loads3x4, rng):
        sigma = rng.uniform(0.5, 2.0, 9)
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        swept = forward_pair_sweep(stiffness3x4, sigma, [], np.empty((3, 0)), pairs)
        direct = forward_pairs(stiffness3x4, sigma, pairs)[0]
        assert swept.shape == (3, 2)
        assert np.max(np.abs(swept - direct)) <= 1e-12 * np.max(np.abs(direct))

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
            return eigh(*args, **kwargs)

        monkeypatch.setattr(forward, "eigh", counted)
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
            return eigh(*args, **kwargs)

        monkeypatch.setattr(forward, "eigh", counted)
        monkeypatch.setattr(forward, "_LINE_PIECE", 8)
        samples, pairs = np.linspace(0.05, 3.0, 20)[:, None], [(loads3x4[0], loads3x4[7])]
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [4], samples, pairs)
        assert len(calls) == 3  # pieces of 8, 8 and 4 samples
        expected = per_point(stiffness3x4, np.ones(9), [4], samples, pairs)
        assert np.max(np.abs(swept - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=40, deadline=None)
    @given(sweep=sweeps())
    def test_setup_residual_is_the_direct_one(self, sweep):
        # Spoil the B_RR solutions and the decomposition, so that the samples'
        # solutions have residuals in the rows of both R and S; the residual
        # the sweep reports must be ||B_sample lam - y|| / ||y|| of the solution
        # it formed for the sample it names.
        stiffness, sigma, pixels, samples, pairs = sweep
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
            mu, V = eigh(*args, **kwargs)
            spoiled["eigh"] = mu, V * (1.0 + 1e-3)
            return spoiled["eigh"]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linsolve, "solve_multi", spoiled_multi)
            mp.setattr(forward, "eigh", spoiled_eigh)
            mp.setattr(linsolve, "REFINE_STEPS", 0)
            with pytest.raises(SolverError, match=r"sweep sample \d+ of") as err:
                forward_pair_sweep(stiffness, sigma, pixels, samples, pairs, tol=1e-6)
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
        t = 0.0
        if pixels:  # the line's pencil is decomposed at rho; t is the shift from rho
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

    @pytest.mark.parametrize("spoil", ["solves", "decomposition"])
    def test_refinement_recovers_spoiled_set_up(self, stiffness3x4, loads3x4, monkeypatch, spoil):
        # Set-up quantities off by 1e-6 show in the residual; refinement steps
        # then bring every sample to tol and its values to the direct ones.
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7])]
        samples = np.linspace(0.1, 3.0, 40).reshape(20, 2)
        expected = per_point(stiffness3x4, np.ones(9), [3, 5], samples, pairs)
        calls = []
        factor = 1.0 + 1e-6

        def counted_multi(*args, **kwargs):
            calls.append(1)
            scale = factor if spoil == "solves" else 1.0
            return [SolveReport(rep.solution * scale, rep.iterations, rep.residual_norm)
                    for rep in solve_multi(*args, **kwargs)]

        def spoiled_eigh(*args, **kwargs):
            mu, V = eigh(*args, **kwargs)
            return mu, V * factor

        monkeypatch.setattr(linsolve, "solve_multi", counted_multi)
        if spoil == "decomposition":
            monkeypatch.setattr(forward, "eigh", spoiled_eigh)
        swept = forward_pair_sweep(stiffness3x4, np.ones(9), [3, 5], samples, pairs, tol=1e-13)
        assert len(calls) > 1  # the set-up solve and at least one refinement step
        assert np.max(np.abs(swept - expected)) <= 1e-10 * np.max(np.abs(expected))

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
        ],
    )
    def test_bad_pixels_or_sample_shape_rejected(self, stiffness3x4, loads3x4, pixels, shape, message):
        with pytest.raises(ValueError, match=message):
            forward_pair_sweep(stiffness3x4, np.ones(9), pixels, np.ones(shape), [(loads3x4[0], loads3x4[7])])

    @pytest.mark.parametrize("refine_steps", [None, 0])
    @pytest.mark.parametrize("nx, k", [(2, 1), (3, 4)])
    def test_missed_tolerance_raises(self, nx, k, refine_steps, monkeypatch):
        # With nx=2, k=1 the B_RR solves are empty, so the sweep's own
        # residual check is what refuses the samples; None keeps the cap.
        if refine_steps is not None:
            monkeypatch.setattr(linsolve, "REFINE_STEPS", refine_steps)
        stiffness, loads = problem(nx, k)
        samples = np.linspace(0.1, 3.0, 40).reshape(20, 2)
        pairs = [(loads[0], loads[1])]
        with pytest.raises(SolverError, match="missed tolerance"):
            forward_pair_sweep(stiffness, np.ones(stiffness.n), [0, 2], samples, pairs, tol=1e-300)

    @pytest.mark.parametrize("count", [1, 7, 100])
    def test_solves_do_not_grow_with_samples(self, stiffness3x4, loads3x4, solve_counter, count):
        pixels = [3, 5]
        dofs = stiffness3x4.dofs[pixels]
        swept_unknowns = np.unique(dofs[dofs >= 0]).size
        assert swept_unknowns == 40
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[1], loads3x4[7]), (loads3x4[0], loads3x4[7])]
        forward_pair_sweep(stiffness3x4, np.ones(9), pixels, np.full((count, 2), 0.7), pairs)
        assert solve_counter.solves == 2 + swept_unknowns  # two distinct excitations


class TestTrueReference:
    def test_same_level_is_identical(self, grid3, stiffness3x4, disks3x4, loads3x4):
        sigma = np.full(9, 1.1)
        F, _ = forward_matrix(stiffness3x4, sigma, loads3x4)
        ref = true_reference(grid3, disks3x4, sigma, 4, 4)
        assert np.array_equal(ref.values, F.values)

    def test_rejects_bad_refinement_target(self, grid3, disks3x4):
        with pytest.raises(ValueError):
            true_reference(grid3, disks3x4, np.ones(9), 4, 12)
        with pytest.raises(ValueError):
            true_reference(grid3, disks3x4, np.ones(9), 4, 2)

    def test_refinement_ordering_and_cauchy(self, grid3, rng):
        # Finer nested spaces can only increase the measurement matrix in
        # the semidefinite order, and successive gaps shrink.
        k = 2
        mesh = build_mesh(grid3, k)
        disks = standard_disk_layout(mesh, 0.25)
        sigma = rng.uniform(0.5, 2.0, 9)
        levels = {
            kk: true_reference(grid3, disks, sigma, k, kk).values
            for kk in (k, 2 * k, 4 * k)
        }
        step1 = levels[2 * k] - levels[k]
        step2 = levels[4 * k] - levels[2 * k]
        assert np.min(np.linalg.eigvalsh(0.5 * (step1 + step1.T))) >= -1e-9
        assert np.min(np.linalg.eigvalsh(0.5 * (step2 + step2.T))) >= -1e-9
        assert np.all(np.diag(step1) >= -1e-12)
        assert np.all(np.diag(step2) >= -1e-12)
        assert np.linalg.norm(step2) <= np.linalg.norm(step1)

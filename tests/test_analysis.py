import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from pixelinv import analysis
from pixelinv.analysis import (
    ResidualProblem,
    condition_number,
    loewner_min_eig,
    reconstruct_lm,
    residual,
    singular_values,
)
from pixelinv.assembly import assemble_load, assemble_pixel_matrices
from pixelinv.experiments import ExperimentConfig, run_stability_study
from pixelinv.forward import JacobianStack, forward_matrix, forward_pair_values, forward_pairs
from pixelinv.mesh import PixelGrid, build_mesh, lattice_symmetries, standard_disk_layout

TRUTH = np.array([1, 1, 1, 0.5, 1, 0.5, 1, 1, 1])


def symmetric_problem(stiffness, loads):
    """The residual problem of a symmetric layout, all ``m*m`` pairs, with data at the truth."""
    pairs = [(y_l, y_r) for y_l in loads for y_r in loads]
    return ResidualProblem(stiffness=stiffness, pairs=pairs, data=forward_pair_values(stiffness, TRUTH, pairs))


class TestSymmetricEigenvalues:
    def test_trivial_matrices(self):
        assert loewner_min_eig(np.zeros((3, 3))) == 0.0
        assert loewner_min_eig(np.diag([1.0, -2.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_gram_matrices_psd(self, rng):
        for _ in range(10):
            G = rng.standard_normal((8, 8))
            assert loewner_min_eig(G.T @ G) >= -1e-12

    def test_matches_lapack_oracle(self, rng):
        # Q diag(lam) Q^T has the chosen spectrum by construction.
        for m in (2, 5, 12, 30):
            lam = rng.standard_normal(m)
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            A = Q @ np.diag(lam) @ Q.T
            assert loewner_min_eig(A) == pytest.approx(lam.min(), abs=1e-13 * np.abs(lam).max())

    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            loewner_min_eig(A)

    def test_asymmetry_is_relative_to_the_largest_entry(self):
        # 10 % asymmetric with every entry below 1: rejected, not symmetrized.
        with pytest.raises(ValueError, match="not symmetric"):
            loewner_min_eig(np.array([[1e-9, 1e-10], [0.0, 1e-9]]))
        tiny = np.array([[2e-12, 1e-12], [1e-12, 2e-12]])
        assert loewner_min_eig(tiny) == pytest.approx(1e-12, rel=1e-12)
        assert loewner_min_eig(np.zeros((0, 0))) == 0.0
        assert loewner_min_eig(np.zeros((3, 3))) == 0.0

    def test_accuracy_scales_with_norm(self, rng):
        # Singular values spread over six decades, scaled up by 1e6: the
        # error stays a small multiple of eps times the largest one.
        s = 1e6 * np.logspace(0, -6, 10)
        U, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        V, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        A = U @ np.diag(s) @ V.T
        assert np.max(np.abs(singular_values(A) - s)) <= 1e-13 * s[0]
        # Eigenvalues -s_i / 2 and +s_i / 2 of the same scale.
        lam = np.concatenate([-0.5 * s, 0.5 * s])
        Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        B = Q @ np.diag(lam) @ Q.T
        assert loewner_min_eig(B) == pytest.approx(lam.min(), abs=1e-13 * s[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        A = np.eye(3)
        A[1, 2] = A[2, 1] = bad
        for kernel in (loewner_min_eig, singular_values, condition_number):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kernel(A)


def jacobi_singular_values(A):
    """Singular values of a matrix with at least as many rows as columns, by
    LAPACK's preconditioned one-sided Jacobi SVD (``dgejsv``, ``JOBA='C'``,
    Drmac and Veselic 2008): the kernel ``singular_values`` used before the
    QR SVD, kept as its oracle. It is relatively accurate on graded columns."""
    sva, _, _, work, _, info = lapack.dgejsv(A, joba=0, jobu=3, jobv=3, jobp=0)
    assert info == 0
    return sva * (work[1] / work[0])


class TestSingularValues:
    def test_matches_gram_eigen_oracle(self, rng):
        # Dense eigen-decomposition of J^T J as the independent route.
        for _ in range(10):
            J = rng.standard_normal((20, 5))
            mine = singular_values(J)
            oracle = np.sqrt(np.maximum(np.linalg.eigvalsh(J.T @ J), 0.0))[::-1]
            assert np.max(np.abs(mine - oracle)) <= 1e-8

    def test_sorted_nonnegative(self, rng):
        s = singular_values(rng.standard_normal((15, 6)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_orthogonal_columns_exact(self):
        Q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((12, 4)))
        s = singular_values(Q)
        assert np.max(np.abs(s - 1.0)) <= 1e-12

    def test_graded_columns_keep_small_values(self, rng):
        # Orthonormal columns scaled by s have singular values s; the pivoted
        # QR followed by the SVD of R^T returns each to a few eps relative to
        # itself (Demmel et al. 1999), where an absolute accuracy of
        # n * eps * ||A|| would lose 1e-20 entirely.
        Q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        s = np.array([1.0, 1e-5, 1e-12, 1e-20])
        assert np.max(np.abs(singular_values(Q * s) - s) / s) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), extra=st.integers(0, 12))
    def test_graded_columns_match_jacobi_oracle(self, seed, n, extra):
        # A = B D, cond(B) <= 100, D over 20 decades, rows permuted: both
        # methods promise each value to about cond(B) * eps relative to
        # itself. np.linalg.svd (dgesdd) misses the small ones by orders.
        rng = np.random.default_rng(seed)
        m = n + extra
        U, _ = np.linalg.qr(rng.standard_normal((m, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        B = (U * rng.uniform(1.0, 100.0, n)) @ V.T
        A = (B * 10.0 ** rng.uniform(-10.0, 10.0, n))[rng.permutation(m)]
        oracle = jacobi_singular_values(A)
        assert np.max(np.abs(singular_values(A) - oracle) / oracle) <= 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_packed_stability_jacobians_match_jacobi_oracle(self, k, monkeypatch):
        # The packed rows of the stability study's Jacobian at sigma = 1, nx = 2..12,
        # from the full contraction (the study itself hands the kernel its blocks).
        packed = []
        kernel = analysis.singular_values

        def recorded(J):
            packed.append(J)
            return kernel(J)

        monkeypatch.setattr(analysis, "singular_values", recorded)
        worst = 0.0
        for nx in range(2, 13):
            s = condition_number(full_jacobian(nx, k)).singular_values
            oracle = jacobi_singular_values(packed[-1])
            worst = max(worst, np.max(np.abs(s - oracle) / oracle))
        assert len(packed) == 11 and worst <= 1e-12

    def test_input_unchanged(self, rng):
        for A in (rng.standard_normal((9, 4)), np.asfortranarray(rng.standard_normal((9, 4))),
                  rng.standard_normal((4, 9))):
            before = A.copy()
            singular_values(A)
            assert np.array_equal(A, before)

    def test_wide_input(self, rng):
        s = np.array([3.0, 2.0, 0.5])
        U, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        got = singular_values(U @ np.diag(s) @ V.T)
        assert got.shape == (3,)
        assert np.max(np.abs(got - s)) <= 1e-14 * s[0]


class TestConditionNumber:
    def test_orthogonal_columns_condition_one(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        report = condition_number(Q)
        assert report.condition == pytest.approx(1.0, abs=1e-10)
        assert not report.rank_deficient

    def test_row_permutation_invariance(self, rng):
        J = rng.standard_normal((30, 7))
        base = condition_number(J)
        perm = condition_number(J[rng.permutation(30)])
        assert perm.condition == pytest.approx(base.condition, rel=1e-10)

    def test_accepts_jacobian_stack(self, stiffness3x4, loads3x4):
        _, jac = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        report = condition_number(jac)
        flat = condition_number(jac.flattened())
        assert report.condition == pytest.approx(flat.condition, rel=1e-12)
        assert report.singular_values.size == 9

    @pytest.mark.parametrize("nx", [10, 12])
    def test_stack_matches_full_svd(self, nx):
        # The stack's spectrum comes from its packed distinct rows; the
        # reference is LAPACK's SVD of all m*m rows.
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, 2)
        loads = [assemble_load(mesh, d) for d in standard_disk_layout(mesh, 0.25)]
        _, jac = forward_matrix(assemble_pixel_matrices(mesh, grid), np.ones(grid.n), loads, tol=1e-10)
        s = np.linalg.svd(jac.flattened(), compute_uv=False)
        report = condition_number(jac)
        assert report.singular_values.size == grid.n
        assert np.max(np.abs(report.singular_values - s)) <= 1e-10 * s[0]
        assert report.condition == pytest.approx(s[0] / s[-1], rel=1e-10)

    def test_asymmetric_stack_rejected(self, rng):
        slices = rng.standard_normal((4, 5, 5))
        with pytest.raises(ValueError, match="not symmetric"):
            condition_number(JacobianStack(slices))
        # Symmetrized, the same stack is accepted and matches its flattening.
        sym = JacobianStack(slices + slices.transpose(0, 2, 1))
        assert condition_number(sym).condition == pytest.approx(
            condition_number(sym.flattened()).condition, rel=1e-12
        )

    def test_stack_with_fewer_distinct_rows_than_columns(self, rng):
        # m=3 gives 9 rows but 6 distinct ones, so 7 columns have rank <= 6:
        # still 7 singular values, flagged deficient.
        slices = rng.standard_normal((7, 3, 3))
        report = condition_number(JacobianStack(slices + slices.transpose(0, 2, 1)))
        assert report.singular_values.size == 7
        assert report.rank_deficient
        assert report.condition == np.inf

    def test_zero_singular_value_flagged(self):
        # An exactly zero singular value is flagged like a tiny one.
        J = np.ones((6, 3))
        J[:, 2] = 0.0
        report = condition_number(J)
        assert report.rank_deficient
        assert report.condition == np.inf

    def test_duplicate_columns_flagged(self, rng):
        J = rng.standard_normal((12, 4))
        J[:, 3] = J[:, 1]
        report = condition_number(J)
        assert report.rank_deficient
        assert report.condition == np.inf
        assert report.singular_values[-1] <= 1e-14 * report.singular_values[0]

    def test_near_deficiency_flagged(self, rng):
        U, _ = np.linalg.qr(rng.standard_normal((10, 2)))
        V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        J = U @ np.diag([1.0, 5e-15]) @ V.T
        report = condition_number(J)
        assert report.rank_deficient
        assert report.condition == np.inf
        assert report.singular_values[-1] > 0.0

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(ValueError):
            condition_number(rng.standard_normal((3, 5)))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_matrix_without_columns_rejected(self, shape):
        with pytest.raises(ValueError, match="one or more columns"):
            condition_number(np.zeros(shape))


def stability_inputs(nx, k, order=None):
    """The stability study's stiffness set and loads at ``nx, k``, the loads in ``order`` if given."""
    grid = PixelGrid(nx)
    mesh = build_mesh(grid, k)
    loads = [assemble_load(mesh, d) for d in standard_disk_layout(mesh, 0.25)]
    return assemble_pixel_matrices(mesh, grid), loads if order is None else [loads[i] for i in order]


def stability_jacobian(nx, k, sigma=None, order=None):
    """``forward_matrix``'s stack at the stability study's inputs (at sigma = 1 unless given), and its group."""
    stiffness, loads = stability_inputs(nx, k, order)
    return forward_matrix(stiffness, np.ones(stiffness.n) if sigma is None else sigma, loads, tol=1e-10)[1]


def full_jacobian(nx, k, sigma=None, order=None):
    """The same Jacobian as an ungrouped stack, from the independent full contraction: ``forward_pairs``' rows
    over all ``m*m`` pairs."""
    stiffness, loads = stability_inputs(nx, k, order)
    sigma = np.ones(stiffness.n) if sigma is None else sigma
    rows = forward_pairs(stiffness, sigma, [(a, b) for a in loads for b in loads], tol=1e-10)[1]
    return JacobianStack(np.ascontiguousarray(rows.T).reshape(stiffness.n, len(loads), len(loads)))


def invariant_stack(rng, nx, symmetries, m):
    """A random stack with symmetric slices, averaged over the group the two ``symmetries`` generate,
    and the same stack stored one pixel per orbit of that group."""
    (p1, t1), (p2, t2) = symmetries
    slices = rng.standard_normal((nx * nx, m, m))
    slices += slices.transpose(0, 2, 1)
    group = [(np.arange(nx * nx), np.arange(m)), (p1, t1), (p2, t2), (p1[p2], t1[t2])]
    # slices[p[i]][t[a], t[b]] == slices[i][a, b] for every element (p, t) of the group.
    full = JacobianStack(sum(slices[p][:, t][:, :, t] for p, t in group) / 4.0)
    group = np.array([np.concatenate([p, t + nx * nx]) for p, t in group])  # element i: the generators of i's bits
    return full, JacobianStack(full.slices[group[:, :nx * nx].min(axis=0) == np.arange(nx * nx)], group=group)


class TestSymmetryBlocks:
    @pytest.mark.parametrize("k", [2, 4])
    def test_blocks_match_the_jacobi_oracle_and_the_packed_matrix(self, k, monkeypatch):
        # Each block's values against dgejsv on that block, and their union
        # against the full contraction's packed matrix, nx = 2..12.
        blocks = []
        kernel = analysis.singular_values

        def recorded(J):
            blocks.append(J)
            return kernel(J)

        monkeypatch.setattr(analysis, "singular_values", recorded)
        worst_block = worst_union = 0.0
        for nx in range(2, 13):
            jac = stability_jacobian(nx, k)
            del blocks[:]
            report = condition_number(jac)
            assert len(jac.group) == 4 and len(blocks) == 4 and sum(B.shape[1] for B in blocks) == nx * nx
            for B in blocks:
                if B.shape[1]:
                    oracle = jacobi_singular_values(B)
                    worst_block = max(worst_block, np.max(np.abs(kernel(B) - oracle) / oracle))
            packed = condition_number(full_jacobian(nx, k)).singular_values
            worst_union = max(worst_union, np.max(np.abs(report.singular_values - packed) / packed))
            assert report.condition == pytest.approx(packed[0] / packed[-1], rel=1e-12)
        assert worst_block <= 1e-12 and worst_union <= 1e-12

    def test_stability_rows_match_the_packed_kernel(self):
        for k in (2, 4):
            rows = run_stability_study(ExperimentConfig(nx_min=2, nx_max=12, k=k)).rows
            for nx, _, _, cond in rows:
                packed = condition_number(full_jacobian(nx, k)).condition
                assert cond == pytest.approx(packed, rel=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(nx=st.integers(2, 12), k=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**32 - 1))
    def test_orbit_values_match_the_packed_kernel_off_sigma_one(self, nx, k, seed):
        # A random coefficient constant on each pixel orbit: the blocks from the
        # orbits' first pixels against the packed matrix of the full contraction.
        orbit = np.min(lattice_symmetries(nx), axis=0)  # the first pixel of each pixel's orbit
        sigma = np.random.default_rng(seed).uniform(0.5, 2.0, nx * nx)[orbit]
        orbits = stability_jacobian(nx, k, sigma)
        assert len(orbits.group) == 4
        packed = condition_number(full_jacobian(nx, k, sigma)).singular_values
        null = packed <= 1e-14 * packed[0]  # nx = 2, k = 1 has one unknown: rank one
        error = np.abs(condition_number(orbits).singular_values - packed)
        assert np.all(error <= 1e-12 * np.where(null, packed[0], packed))

    def test_loads_out_of_the_layouts_order_keep_the_group(self):
        # Loads 0 and 1 swapped: the group is found on the loads as given, each
        # load going onto the load of its image pixel, and the spectrum is the
        # full contraction's.
        order = [1, 0] + list(range(2, 12))
        jac = stability_jacobian(4, 2, order=order)
        boundary = np.array(PixelGrid(4).boundary_pixels())
        reflection = np.searchsorted(boundary, lattice_symmetries(4)[1][boundary])  # in the layout's order
        assert len(jac.group) == 4 and np.array_equal(jac.group[1, 16:] - 16, np.argsort(order)[reflection[order]])
        packed = condition_number(full_jacobian(4, 2, order=order)).singular_values
        assert np.max(np.abs(condition_number(jac).singular_values - packed) / packed) <= 1e-12

    def test_loads_in_reverse_order_are_the_half_turns(self):
        # The boundary pixels in reverse are the half-turn's image of the layout,
        # and the half-turn commutes with the other elements, so the reversed
        # loads keep the group too, with the spectrum of the rows it permutes.
        jac = stability_jacobian(4, 2)
        reversed_jac = stability_jacobian(4, 2, order=range(11, -1, -1))
        assert np.array_equal(jac.group[2, 16:] - 16, np.arange(12)[::-1]) and len(reversed_jac.group) == 4
        s = condition_number(jac).singular_values
        assert np.max(np.abs(condition_number(reversed_jac).singular_values - s)) <= 1e-13 * s[0]

    @pytest.mark.parametrize("bad", ["asymmetric", np.nan, np.inf])
    def test_asymmetric_or_non_finite_slices_are_refused(self, bad):
        # Pixel 5 of the 4x4 grid is the first of its orbit, so its slice is stored either way.
        for jac in (stability_jacobian(4, 2), full_jacobian(4, 2)):
            slices = jac.orbit_slices.copy()
            at = np.searchsorted(jac.orbits, 5)
            assert jac.orbits[at] == 5
            if bad == "asymmetric":
                slices[at, 0, 1] += 1e-3 * np.abs(slices).max()
            else:
                slices[at, 0, 1] = slices[at, 1, 0] = bad
            with pytest.raises(ValueError, match="not symmetric|not finite"):
                condition_number(JacobianStack(slices, group=jac.group))

    def test_symmetries_need_a_stack(self, rng):
        # The group is carried by a stack only: a plain matrix takes none.
        jac = stability_jacobian(2, 1)
        with pytest.raises(TypeError):
            condition_number(rng.standard_normal((16, 4)), group=jac.group)
        with pytest.raises(ValueError, match=r"\(n, m, m\) stack"):
            JacobianStack(rng.standard_normal((16, 4)), group=jac.group)

    @pytest.mark.parametrize("nx", [2, 3, 5])
    def test_small_and_odd_grids(self, nx, monkeypatch):
        # At odd nx the centre pixel is its own orbit, in the first block only;
        # at nx = 2 one character gets no pixel at all.
        blocks = []
        kernel = analysis.singular_values
        monkeypatch.setattr(analysis, "singular_values", lambda J: blocks.append(J.shape) or kernel(J))
        jac = stability_jacobian(nx, 4)
        report = condition_number(jac)
        packed = condition_number(full_jacobian(nx, 4))
        assert report.singular_values.size == nx * nx and not report.rank_deficient
        assert np.max(np.abs(report.singular_values - packed.singular_values) / packed.singular_values) <= 1e-12
        columns = [shape[1] for shape in blocks[:4]]
        assert sum(columns) == nx * nx
        if nx == 2:
            assert 0 in columns

    def test_block_with_fewer_rows_than_columns(self, rng):
        # Four loads, swapped in pairs by the two generators: the first block
        # has 5 row orbits for the 6 pixel orbits of the 4x4 grid.
        reflection, half_turn = lattice_symmetries(4)[1:3]
        symmetries = [(reflection, np.array([1, 0, 2, 3])), (half_turn, np.array([0, 1, 3, 2]))]
        full, jac = invariant_stack(rng, 4, symmetries, 4)
        report = condition_number(jac)
        packed = condition_number(full)
        s = report.singular_values
        assert s.size == 16 and report.rank_deficient and report.condition == np.inf
        assert np.count_nonzero(s == 0.0) >= 6 and np.all(np.diff(s) <= 0)
        # The packed matrix has 10 distinct rows: its 10 nonzero values are the blocks'.
        assert np.max(np.abs(s[:10] - packed.singular_values[:10])) <= 1e-12 * s[0]
        assert np.max(np.abs(s[10:])) <= 1e-12 * s[0]
        assert np.max(np.abs(jac.slices - full.slices)) <= 1e-15 * np.abs(full.slices).max()


class TestResidual:
    def make_problem(self, stiffness, loads, layout_kind):
        if layout_kind == "symmetric":
            return symmetric_problem(stiffness, loads)
        pairs = [(loads[0], loads[6]), (loads[0], loads[7])]
        data = forward_pair_values(stiffness, TRUTH, pairs)
        return ResidualProblem(stiffness=stiffness, pairs=pairs, data=data)

    @pytest.mark.parametrize("layout_kind", ["symmetric", "pairs"])
    def test_zero_at_truth(self, stiffness3x4, loads3x4, layout_kind):
        problem = self.make_problem(stiffness3x4, loads3x4, layout_kind)
        value, grad = residual(problem, TRUTH)
        assert value == 0.0
        assert np.linalg.norm(grad) <= 1e-8

    def test_gradient_matches_finite_differences(self, stiffness3x4, loads3x4, rng):
        problem = self.make_problem(stiffness3x4, loads3x4, "symmetric")
        for _ in range(5):
            sigma = rng.uniform(0.5, 2.0, 9)
            value, grad = residual(problem, sigma)
            step = 1e-6
            for i in rng.choice(9, size=3, replace=False):
                plus, minus = sigma.copy(), sigma.copy()
                plus[i] += step
                minus[i] -= step
                vp, _ = residual(problem, plus)
                vm, _ = residual(problem, minus)
                fd = (vp - vm) / (2 * step)
                assert abs(fd - grad[i]) / max(1.0, abs(grad[i])) <= 1e-4

    def test_data_shape_validation(self, stiffness3x4, loads3x4):
        # One value per pair: a symmetric layout's m x m matrix is flattened first.
        pairs = [(y_l, y_r) for y_l in loads3x4 for y_r in loads3x4]
        for shape in [(3,), (65,), (8, 8)]:
            with pytest.raises(ValueError, match="each of the 64 pairs"):
                ResidualProblem(stiffness=stiffness3x4, pairs=pairs, data=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_is_refused(self, stiffness3x4, loads3x4, bad):
        # It once gave a NaN residual, and reconstruct_lm blamed its damping.
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        with pytest.raises(ValueError, match="^data must be finite"):
            ResidualProblem(stiffness=stiffness3x4, pairs=pairs, data=[1.0, bad])


class TestReconstruction:
    def test_start_at_truth_accepts_nothing(self, stiffness3x4, loads3x4):
        problem = symmetric_problem(stiffness3x4, loads3x4)
        sigma, trace = reconstruct_lm(problem, TRUTH)
        accepted = [t for t in trace if t["accepted"]]
        assert len(accepted) == 1  # only the starting record
        assert np.array_equal(sigma, TRUTH)

    def test_recovers_truth_from_ones(self, stiffness3x4, loads3x4):
        problem = symmetric_problem(stiffness3x4, loads3x4)
        sigma, trace = reconstruct_lm(problem, np.ones(9))
        assert np.max(np.abs(sigma - TRUTH)) <= 1e-3
        values = [t["residual"] for t in trace if t["accepted"]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_captured_by_wrong_basin(self, stiffness3x4, loads3x4):
        # Two measurements cannot separate the true coefficient from a
        # second solution valley; starting near it converges to a
        # low-residual point far from the truth.
        pairs = [(loads3x4[0], loads3x4[6]), (loads3x4[0], loads3x4[7])]
        data = forward_pair_values(stiffness3x4, TRUTH, pairs)
        problem = ResidualProblem(stiffness=stiffness3x4, pairs=pairs, data=data)
        start = np.ones(9)
        start[3] = 0.05
        start[5] = 0.05
        sigma, trace = reconstruct_lm(problem, start)
        final = [t for t in trace if t["accepted"]][-1]["residual"]
        assert final <= 1e-18
        assert np.max(np.abs(sigma - TRUTH)) >= 0.3

    def test_rejects_start_below_floor(self, stiffness3x4, loads3x4):
        problem = symmetric_problem(stiffness3x4, loads3x4)
        with pytest.raises(ValueError):
            reconstruct_lm(problem, np.full(9, 1e-7))

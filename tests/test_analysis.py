import numpy as np
import pytest

from pixelinv.analysis import (
    PairLayout,
    ResidualProblem,
    SymmetricLayout,
    condition_number,
    loewner_min_eig,
    reconstruct_lm,
    residual,
    singular_values,
)
from pixelinv.forward import forward_matrix, forward_pair_values

TRUTH = np.array([1, 1, 1, 0.5, 1, 0.5, 1, 1, 1])


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
        # Orthonormal columns scaled by s have singular values s; one-sided
        # Jacobi returns each to a few eps relative to itself, where a
        # cutoff at n * eps * ||A|| would return 0 for 1e-20.
        Q, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        s = np.array([1.0, 1e-5, 1e-12, 1e-20])
        assert np.max(np.abs(singular_values(Q * s) - s) / s) <= 1e-13

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


class TestResidual:
    def make_problem(self, stiffness, loads, layout_kind):
        if layout_kind == "symmetric":
            data, _ = forward_matrix(stiffness, TRUTH, loads)
            return ResidualProblem(
                stiffness=stiffness, layout=SymmetricLayout(loads), data=data.values
            )
        pairs = [(loads[0], loads[6]), (loads[0], loads[7])]
        data = forward_pair_values(stiffness, TRUTH, pairs)
        return ResidualProblem(stiffness=stiffness, layout=PairLayout(pairs), data=data)

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
        with pytest.raises(ValueError):
            ResidualProblem(
                stiffness=stiffness3x4,
                layout=SymmetricLayout(loads3x4),
                data=np.zeros(3),
            )


class TestReconstruction:
    def test_start_at_truth_accepts_nothing(self, stiffness3x4, loads3x4):
        data, _ = forward_matrix(stiffness3x4, TRUTH, loads3x4)
        problem = ResidualProblem(
            stiffness=stiffness3x4, layout=SymmetricLayout(loads3x4), data=data.values
        )
        sigma, trace = reconstruct_lm(problem, TRUTH)
        accepted = [t for t in trace if t["accepted"]]
        assert len(accepted) == 1  # only the starting record
        assert np.array_equal(sigma, TRUTH)

    def test_recovers_truth_from_ones(self, stiffness3x4, loads3x4):
        data, _ = forward_matrix(stiffness3x4, TRUTH, loads3x4)
        problem = ResidualProblem(
            stiffness=stiffness3x4, layout=SymmetricLayout(loads3x4), data=data.values
        )
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
        problem = ResidualProblem(
            stiffness=stiffness3x4, layout=PairLayout(pairs), data=data
        )
        start = np.ones(9)
        start[3] = 0.05
        start[5] = 0.05
        sigma, trace = reconstruct_lm(problem, start)
        final = [t for t in trace if t["accepted"]][-1]["residual"]
        assert final <= 1e-18
        assert np.max(np.abs(sigma - TRUTH)) >= 0.3

    def test_rejects_start_below_floor(self, stiffness3x4, loads3x4):
        data, _ = forward_matrix(stiffness3x4, TRUTH, loads3x4)
        problem = ResidualProblem(
            stiffness=stiffness3x4, layout=SymmetricLayout(loads3x4), data=data.values
        )
        with pytest.raises(ValueError):
            reconstruct_lm(problem, np.full(9, 1e-7))

"""Inverse-problem diagnostics: residuals, reconstruction, spectra.

The routines here quantify how hard the coefficient problem is: the
data-misfit residual and its gradient, a damped Gauss-Newton
(Levenberg-Marquardt) reconstruction loop, the condition number of the
flattened measurement Jacobian, and the smallest eigenvalue used for
Loewner-order checks. Eigenvalues come from LAPACK's symmetric
eigensolver and singular values from its preconditioned one-sided
Jacobi SVD; the tests check both against matrices of known spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from . import linsolve
from .forward import JacobianStack, forward_matrix, forward_pairs

__all__ = [
    "ResidualProblem",
    "SymmetricLayout",
    "PairLayout",
    "SpectralReport",
    "ReconstructionError",
    "residual",
    "reconstruct_lm",
    "condition_number",
    "loewner_min_eig",
    "singular_values",
]

RANK_DEFICIENCY_RATIO = 1e-14


# ---------------------------------------------------------------------------
# measurement layouts and the residual functional


@dataclass(frozen=True, eq=False)
class SymmetricLayout:
    """Same functionals as excitations and measurements; matrix-valued data."""

    loads: list

    def evaluate(self, stiffness, sigma, tol):
        F, jac = forward_matrix(stiffness, sigma, self.loads, tol=tol)
        return F.values.ravel(), jac.flattened()

    def data_shape(self):
        m = len(self.loads)
        return (m, m)


@dataclass(frozen=True, eq=False)
class PairLayout:
    """Explicit (excitation, measurement) pairs; plain vector of data."""

    pairs: list

    def evaluate(self, stiffness, sigma, tol):
        return forward_pairs(stiffness, sigma, self.pairs, tol=tol)

    def data_shape(self):
        return (len(self.pairs),)


@dataclass(frozen=True, eq=False)
class ResidualProblem:
    """Data-misfit problem ``min ||F(sigma) - data||^2`` over positive sigma.

    ``sigma_floor`` bounds the working domain away from zero; the
    reconstruction loop rejects any step crossing it.
    """

    stiffness: object
    layout: object
    data: np.ndarray
    sigma_floor: float = 1e-6
    tol: float = linsolve.DEFAULT_TOL

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != self.layout.data_shape():
            raise ValueError(
                f"data shape {data.shape} does not match layout "
                f"{self.layout.data_shape()}"
            )
        object.__setattr__(self, "data", data)

    def misfit(self, sigma):
        """Residual vector and its Jacobian at ``sigma``."""
        values, jac = self.layout.evaluate(self.stiffness, sigma, self.tol)
        return values - self.data.ravel(), jac


def residual(problem: ResidualProblem, sigma):
    """Squared misfit norm and its coefficient gradient.

    The gradient is the chain rule through the measurement Jacobian:
    twice the inner product of the misfit with each derivative slice.
    """
    r, jac = problem.misfit(sigma)
    return float(r @ r), 2.0 * (jac.T @ r)


class ReconstructionError(RuntimeError):
    """Raised when no acceptable reconstruction step can be found."""


def reconstruct_lm(
    problem: ResidualProblem,
    sigma0,
    max_iter: int = 100,
    lambda0: float = 1e-3,
    gtol: float = 1e-14,
    rtol: float = 1e-28,
    step_tol: float = 1e-12,
):
    """Levenberg-Marquardt minimization of the misfit over positive sigma.

    Damped normal equations with multiplicative ``diag(J^T J)`` scaling;
    the damping shrinks by 3 on accepted steps and doubles on rejected
    ones. Steps that fail to decrease the residual, or that push any
    coefficient to ``sigma_floor`` or below, are rejected. Ten consecutive
    rejections abort.

    Returns
    -------
    (sigma, trace)
        Final iterate and a list of per-step records; the residual values
        of accepted steps are non-increasing.
    """
    sigma = np.asarray(sigma0, dtype=float).copy()
    if np.any(sigma <= problem.sigma_floor):
        raise ValueError("starting point must be above the positivity floor")
    r, jac = problem.misfit(sigma)
    value = float(r @ r)
    damping = lambda0
    trace = [
        {"iteration": 0, "accepted": True, "residual": value, "damping": damping, "step_norm": 0.0}
    ]

    for iteration in range(1, max_iter + 1):
        gradient = 2.0 * (jac.T @ r)
        if value <= rtol or np.linalg.norm(gradient, np.inf) <= gtol:
            break
        JtJ = jac.T @ jac
        diag = np.diag(JtJ).copy()
        diag[diag <= 0] = max(diag.max(), np.finfo(float).tiny)

        rejections = 0
        while True:
            step = np.linalg.solve(JtJ + damping * np.diag(diag), -(jac.T @ r))
            candidate = sigma + step
            ok = bool(np.all(candidate > problem.sigma_floor))
            if ok:
                r_new, jac_new = problem.misfit(candidate)
                value_new = float(r_new @ r_new)
                ok = value_new <= value
            if ok:
                sigma, r, jac, value = candidate, r_new, jac_new, value_new
                damping /= 3.0
            else:
                damping *= 2.0
                rejections += 1
            trace.append(
                {
                    "iteration": iteration,
                    "accepted": ok,
                    "residual": value,
                    "damping": damping,
                    "step_norm": float(np.linalg.norm(step)),
                }
            )
            if ok:
                break
            if rejections >= 10:
                raise ReconstructionError(
                    f"no acceptable step after {rejections} damping increases "
                    f"at iteration {iteration} (residual {value:.3e})"
                )
        if trace[-1]["step_norm"] <= step_tol * (1.0 + float(np.linalg.norm(sigma))):
            break

    return sigma, trace


# ---------------------------------------------------------------------------
# spectral kernels (LAPACK)


def loewner_min_eig(matrix) -> float:
    """Smallest eigenvalue of a (numerically) symmetric matrix.

    The input is symmetrized before the eigensolve; gross asymmetry is
    rejected since comparing matrices in the semidefinite order is only
    meaningful for symmetric ones.
    """
    A = np.asarray_chkfinite(matrix, dtype=float)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 0.0)
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > 1e-9 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(eigs[0]) if eigs.size else 0.0


def singular_values(matrix) -> np.ndarray:
    """The ``min(rows, cols)`` singular values of a matrix, descending.

    LAPACK ``dgejsv``, the preconditioned one-sided Jacobi SVD of Drmac and
    Veselic (SIAM J. Matrix Anal. Appl. 29(4), 2008), on the matrix itself
    (never its Gram matrix), without singular vectors (``JOBU=JOBV='N'``)
    and without perturbing the input (``JOBP='N'``). ``JOBA='C'`` keeps
    small singular values relatively accurate, which matters for
    ill-conditioned Jacobians; the wrapper's default ``'A'`` would set
    those below about ``n * eps * ||A||`` to zero.
    """
    A = np.asarray_chkfinite(matrix, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {A.shape}")
    if A.shape[0] < A.shape[1]:
        A = A.T  # dgejsv needs rows >= cols
    if A.shape[1] == 0:
        return np.zeros(0)
    sva, _, _, work, _, info = lapack.dgejsv(A, joba=0, jobu=3, jobv=3, jobp=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgejsv failed with info={info}")
    return sva * (work[1] / work[0])  # dgejsv sorts them descending


# ---------------------------------------------------------------------------
# condition numbers


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Singular values (descending) and condition number of a Jacobian."""

    singular_values: np.ndarray
    condition: float
    rank_deficient: bool = field(default=False)


def condition_number(jac) -> SpectralReport:
    """Condition number of a flattened measurement Jacobian.

    Accepts a JacobianStack (flattened row-major to ``(m*m, n)``) or any
    finite 2D array with at least as many rows as columns. A smallest
    singular value at or below ``1e-14`` times the largest, zero included,
    marks the report as rank deficient with condition number infinity.
    """
    if isinstance(jac, JacobianStack):
        jac = jac.flattened()
    J = np.asarray_chkfinite(jac, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"expected a 2D Jacobian, got shape {J.shape}")
    rows, cols = J.shape
    if rows < cols:
        raise ValueError(f"Jacobian must have at least {cols} rows, got {rows}")
    s = singular_values(J)
    s_max, s_min = float(s[0]), float(s[-1])
    deficient = s_min <= RANK_DEFICIENCY_RATIO * s_max
    return SpectralReport(
        singular_values=s,
        condition=np.inf if deficient else s_max / s_min,
        rank_deficient=deficient,
    )

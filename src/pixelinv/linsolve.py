"""Direct sparse solver for the SPD systems behind every forward map.

Each matrix is factored once by SuperLU (``scipy.sparse.linalg.splu``)
under the fixed symmetric fill-reducing ordering ``MMD_AT_PLUS_A``, and
every right-hand side is back-substituted against that one factor. The
relative residual ``||B x - y|| / ||y||`` of every solution is checked
before it is returned; one that misses ``tol`` gets iterative-refinement
steps, and one that still misses it raises :class:`SolverError`. SuperLU
runs single-threaded with a fixed ordering, so repeated runs are
bit-identical. Each solved right-hand side yields one
:class:`SolveReport`, so callers count solves from what is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_REFINE_STEPS",
    "SolveReport",
    "SolverError",
    "solve_spd",
    "solve_multi",
]

DEFAULT_TOL = 1e-10
DEFAULT_REFINE_STEPS = 10


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solution plus accuracy record of one SPD solve.

    ``residual_norm`` is the relative two-norm residual
    ``||B x - y|| / ||y||`` of the returned solution and ``iterations``
    the number of iterative-refinement steps it took.
    """

    solution: np.ndarray
    iterations: int
    residual_norm: float


class SolverError(RuntimeError):
    """Raised when a matrix cannot be factored or a solution misses the tolerance."""

    def __init__(self, message, residual_norm, iterations):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


def _factor(matrix, tol):
    """Check the inputs, then factor ``matrix`` once for all right-hand sides."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    try:
        return spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise SolverError(
            f"cannot factor the {matrix.shape[0]}x{matrix.shape[1]} matrix: {err}",
            residual_norm=math.inf,
            iterations=0,
        ) from err


def _solve(lu, matrix, rhs, tol, max_iter) -> SolveReport:
    """Back-substitute ``rhs``, then refine while the residual misses ``tol`` and falls."""
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return SolveReport(solution=np.zeros_like(rhs), iterations=0, residual_norm=0.0)
    if max_iter is None:
        max_iter = DEFAULT_REFINE_STEPS
    x = lu.solve(rhs)
    r = rhs - matrix @ x
    achieved = float(np.linalg.norm(r)) / rhs_norm
    steps = 0
    while achieved > tol and steps < max_iter:
        x_new = x + lu.solve(r)
        r_new = rhs - matrix @ x_new
        achieved_new = float(np.linalg.norm(r_new)) / rhs_norm
        steps += 1
        if not achieved_new < achieved:
            break
        x, r, achieved = x_new, r_new, achieved_new
    if not achieved <= tol:
        raise SolverError(
            f"direct solve missed tolerance {tol} after {steps} refinement steps "
            f"(achieved relative residual {achieved:.3e})",
            residual_norm=achieved,
            iterations=steps,
        )
    return SolveReport(solution=x, iterations=steps, residual_norm=achieved)


def solve_spd(matrix, rhs, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> SolveReport:
    """Solve ``matrix @ x = rhs`` by a sparse LU factorization.

    Parameters
    ----------
    matrix : sparse or dense symmetric positive definite matrix
    rhs : (N,) array
    tol : float
        Relative residual target; must be positive and finite.
    max_iter : int, optional
        Most iterative-refinement steps taken when the first solution
        misses ``tol``; defaults to 10.

    Raises
    ------
    SolverError
        When the matrix is singular (infinite residual) or the solution
        misses ``tol``; carries the achieved residual and refinement steps.
    """
    lu = _factor(matrix, tol)
    return _solve(lu, matrix, rhs, tol, max_iter)


def solve_multi(matrix, rhs_list, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> list[SolveReport]:
    """Solve one SPD system for several right-hand sides.

    The matrix is factored once; each right-hand side is back-substituted
    against that factor and checked on its own. Failures identify the
    offending right-hand side.
    """
    lu = _factor(matrix, tol)
    reports = []
    for j, rhs in enumerate(rhs_list):
        try:
            reports.append(_solve(lu, matrix, rhs, tol, max_iter))
        except SolverError as err:
            raise SolverError(
                f"right-hand side {j + 1} of {len(rhs_list)}: {err}",
                residual_norm=err.residual_norm,
                iterations=err.iterations,
            ) from err
    return reports

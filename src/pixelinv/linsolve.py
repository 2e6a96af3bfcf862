"""Direct band solver for the SPD systems behind every forward map.

Numbered lexicographically, ``B_sigma`` on ``nx x nx`` pixels with ``k``
elements per pixel side has bandwidth ``b = nx*k``. A matrix is factored
once by LAPACK's blocked band Cholesky ``dpbtrf`` on its upper band, read
from its CSR arrays as numbered: ``(b + 1) N`` storage and ``O(N b^2)`` work
(Golub & Van Loan, *Matrix Computations*, 4th ed., 4.3) and back-substituted
by block rows, both in :func:`_band_solver`; the forward maps may hand in another
factor (``StiffnessSet.skeleton_factor``). One loop hands either factor
the right-hand sides in zero-padded panels of :data:`_PANEL` columns, defined
here only, to solve into one block above a zero row. All residuals come from
one product with the full matrix, and
each relative residual ``||B x - y|| / ||y||`` is checked against ``tol`` on
its own. The columns that miss it are refined together, each while its
residual falls, for up to :data:`REFINE_STEPS` steps; one that still
misses it raises :class:`SolverError`, so an asymmetric matrix, a poor
factor or a solution out of the double range (no numpy warning is raised)
gives no wrong answer. Runs are deterministic for a fixed BLAS thread
count. Callers count the :class:`SolveReport` of each right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dtrtri

__all__ = ["DEFAULT_TOL", "REFINE_STEPS", "SolveReport", "SolverError", "solve_spd", "solve_multi"]

DEFAULT_TOL = 1e-10
REFINE_STEPS = 10


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


def _upper_band(matrix) -> np.ndarray:
    """The upper band of ``matrix`` in LAPACK band storage, ``(b + 1, N)``:
    entry ``(i, j)``, ``i <= j``, at ``[b + i - j, j]`` (duplicates summed), read from CSR arrays as stored."""
    csr, n = (matrix if getattr(matrix, "format", None) == "csr" else sp.csr_array(matrix)), matrix.shape[0]
    row = np.repeat(np.arange(n), np.diff(csr.indptr))
    upper = row <= csr.indices
    row, col = row[upper], csr.indices[upper]
    b = int((col - row).max(initial=0))
    band = np.bincount(b + row + b * col, weights=csr.data[upper], minlength=(b + 1) * n)
    return band.reshape(n, b + 1).T


# Columns of the panels :func:`_solve_block` hands a factor, a multiple of 8: every product has one shape whatever the
# number of right-hand sides, so no column's bits depend on the others (OpenBLAS picks its kernel by shape).
_PANEL = 56

# Most unknowns in a block row of :func:`_band_solver`: the bandwidth is cut into equal parts of at most this many
# (35 at bandwidth 105, 30 at 30); a larger block costs dense flops on its inverse, a smaller one more products.
_BLOCK_ROWS = 48


def _band_solver(band):
    """``substitute(X)``, which overwrites an ``(N, c)`` block ``X`` by ``A^-1 X`` and returns it, for the SPD matrix
    ``A`` whose upper band ``(b + 1, N)`` is ``band``, with every step a matrix product.

    ``A = U^T U`` is factored by LAPACK's band Cholesky ``dpbtrf``, overwriting ``band`` when it is in Fortran order;
    a band that is not positive definite raises :class:`SolverError`. ``U`` is cut into block rows of
    ``nb <= kd + 1`` unknowns, at most :data:`_BLOCK_ROWS`. Each column of the band is copied with ``nb - 1`` zeros
    below it, so one strided view reads ``U[i, j]`` for ``-nb < j - i < kd + nb``: a band entry, or a zero outside
    the band. Each diagonal block is inverted once by ``dtrtri`` and written back in its own place, and the coupling
    slabs above and right of it, ``C = U[s - kd:s, s:s + nb]`` and ``D = U[s:s + nb, s + nb:s + nb + kd]``, are
    views. ``U^T Y = X`` is then solved a block row at a time down through ``C``, and ``U X = Y`` up through ``D``
    (Golub & Van Loan, *Matrix Computations*, 4th ed., 4.3 and 4.5). The band itself is not kept.
    """
    cholesky, info = dpbtrf(band, overwrite_ab=1)
    kd, n = cholesky.shape[0] - 1, cholesky.shape[1]
    if info > 0:
        raise SolverError(f"cannot factor the {n}x{n} matrix: leading minor of order {info} is not positive "
                          "definite (singular or indefinite)", residual_norm=math.inf, iterations=0)
    nb = -(-kd // -(-kd // _BLOCK_ROWS)) if kd else 1
    padded = np.empty((n, kd + nb))
    padded[:, :kd + 1], padded[:, kd + 1:] = cholesky.T, 0.0
    step = padded.itemsize
    U = np.ndarray((n, n), buffer=padded.reshape(-1)[kd:], strides=(step, step * (kd + nb - 1)))
    rows = []
    for s in range(0, n, nb):
        a, e = max(0, s - kd), min(s + nb, n)
        T = U[s:e, s:e]
        T[...] = dtrtri(T)[0]  # U_ss^-1 is upper triangular, so it fits where U_ss was
        rows.append((U[a:s, s:e], U[s:e, e:e + kd], T, slice(a, s), slice(s, e), slice(e, e + kd)))

    def substitute(X):
        Z = np.empty((nb, X.shape[1]))
        for C, _, T, above, block, _ in rows:  # U^T Y = X: Y_s = T^T (X_s - C^T Y_above)
            Z_s = Z[:T.shape[0]]
            np.subtract(X[block], np.matmul(C.T, X[above], out=Z_s), out=Z_s)
            np.matmul(T.T, Z_s, out=X[block])
        for _, D, T, _, block, below in reversed(rows):  # U X = Y: X_s = T (Y_s - D X_below)
            Z_s = Z[:T.shape[0]]
            np.subtract(X[block], np.matmul(D, X[below], out=Z_s), out=Z_s)
            np.matmul(T, Z_s, out=X[block])
        return X

    return substitute


def _norms(A) -> np.ndarray:
    """Two-norm along the first axis, each column scaled by a power of two near its largest entry before
    squaring (an inf reads inf); exact, so skipped where the plain norm is finite and at least 1e-100."""
    norms = np.sqrt(np.einsum("i...,i...->...", A, A))
    redo = ~((norms >= 1e-100) & (norms < math.inf))
    if redo.any():
        exponent = np.frexp(np.abs(A[:, redo]).max(axis=0, initial=0.0))[1]
        scaled = np.ldexp(A[:, redo], -exponent)
        norms[redo] = np.ldexp(np.sqrt(np.einsum("ij,ij->j", scaled, scaled)), exponent)
    return norms


def _solve_block(matrix, rhs_list, tol, factor) -> list[SolveReport]:
    """Solve every right-hand side in one block, check each residual against
    ``matrix`` and refine the columns that miss ``tol``."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    m = len(rhs_list)
    Y = np.asarray(rhs_list, dtype=float).reshape(m, n).T
    finite = np.isfinite(Y).all(axis=0)
    if not finite.all():
        raise ValueError(f"right-hand side {np.argmin(finite) + 1} of {m} is not finite")
    if factor is None:
        substitute = _band_solver(_upper_band(matrix))

        def factor(R, out):
            out[:-1] = substitute(R.copy())

    def solve(R):  # factor on R's columns in zero-padded panels: a view of the block above its zero row
        X, c = np.zeros((n + 1, -(-R.shape[1] // _PANEL) * _PANEL)), R.shape[1]
        if c % _PANEL:  # no copy of a block that needs no padding
            R = np.hstack([R, np.zeros((n, X.shape[1] - c))])
        for start in range(0, X.shape[1], _PANEL):
            factor(R[:, start:start + _PANEL], X[:, start:start + _PANEL])
        return X[:-1, :c]

    with np.errstate(all="ignore"):  # a solution that leaves the double range misses tol below
        X = solve(Y)
        R = matrix @ X
        np.subtract(Y, R, out=R)
        y_norm = _norms(Y) + ~Y.any(axis=0)  # a zero load: zero solution, residual 0
        achieved = _norms(R) / y_norm
        steps = np.zeros(m, dtype=np.int64)
        active = np.flatnonzero(achieved > tol)
        for _ in range(REFINE_STEPS):
            if not active.size:
                break
            X_new = X[:, active] + solve(R[:, active])
            R_new = Y[:, active] - matrix @ X_new
            achieved_new = _norms(R_new) / y_norm[active]
            steps[active] += 1
            better = achieved_new < achieved[active]
            kept = active[better]
            X[:, kept], R[:, kept], achieved[kept] = X_new[:, better], R_new[:, better], achieved_new[better]
            active = kept[achieved[kept] > tol]
    missed = np.flatnonzero(~(achieved <= tol))
    if missed.size:
        j = missed[0]
        raise SolverError(f"right-hand side {j + 1} of {m}: direct solve missed tolerance {tol} after {steps[j]} "
                          f"refinement steps (achieved relative residual {achieved[j]:.3e})",
                          residual_norm=float(achieved[j]), iterations=int(steps[j]))
    return [SolveReport(solution=X[:, j], iterations=int(steps[j]), residual_norm=float(achieved[j]))
            for j in range(m)]


def solve_spd(matrix, rhs, tol: float = DEFAULT_TOL) -> SolveReport:
    """Solve ``matrix @ x = rhs`` for an SPD (sparse or dense) ``matrix``.

    Raises ``ValueError`` when ``tol`` is not positive and finite, the
    matrix is not square or ``rhs`` does not fit it or is not finite, and
    :class:`SolverError` when the matrix is not positive definite (infinite
    residual) or the solution misses ``tol``, with the achieved residual
    and refinement steps.
    """
    return _solve_block(matrix, [rhs], tol, None)[0]


def solve_multi(matrix, rhs_list, tol: float = DEFAULT_TOL, *, factor=None) -> list[SolveReport]:
    """:func:`solve_spd` for several right-hand sides, against one factor;
    errors name the right-hand side (``right-hand side j of k``).

    ``factor``, if given, replaces the band Cholesky factor of ``matrix``:
    ``factor(R, out)`` writes an approximation of ``matrix^-1 R`` into
    ``out[:-1]`` for one ``(N, _PANEL)`` panel ``R`` of right-hand sides,
    zero-padded, and leaves ``R`` and ``out``'s last row, the solution
    block's zero row, as they are. The solutions are columns of that block
    (``solution.base``), refined in place. Residuals are still formed with
    ``matrix``, so a poor factor costs refinement steps or raises
    :class:`SolverError`, never a wrong solution.
    """
    return _solve_block(matrix, rhs_list, tol, factor)

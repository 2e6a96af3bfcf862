"""Inverse-problem diagnostics: residuals, reconstruction, spectra.

The routines here quantify how hard the coefficient problem is: the
data-misfit residual over (excitation, measurement) pairs and its
gradient, a damped Gauss-Newton (Levenberg-Marquardt) reconstruction
loop, the condition number of the flattened measurement Jacobian, and
the smallest eigenvalue used for Loewner-order checks. Eigenvalues come
from LAPACK's symmetric eigensolver, singular values from Drmac's (2017)
QR-preconditioned QR SVD, relatively accurate on graded columns (Demmel et
al. 1999); the tests check both against matrices of known spectrum.

The slices of a Jacobian stack are symmetric, so row ``(k, j)`` of the
flattening ``A`` repeats row ``(j, k)``. The SVD runs on the packed
matrix ``P`` of the ``m(m+1)/2`` rows with ``j <= k``, the off-diagonal
ones scaled by ``sqrt(2)``: such a row ``a`` adds ``2 a a^T`` to
``P^T P``, as the pair of equal rows does to ``A^T A``. So
``P^T P = A^T A``, and ``P`` has the singular values of ``A`` from
about half its rows.

A stack carries the group (:class:`~pixelinv.forward.JacobianStack`) of the
:func:`~pixelinv.mesh.lattice_symmetries` that ``forward_matrix`` found to fix
its inputs bitwise: the Klein four-group for a symmetric layout at ``sigma = 1``,
as in the stability study. It holds one slice per pixel orbit. Each character's
orthonormal ``+-1/sqrt(|orbit|)`` combinations of row and pixel orbits split off
a block of ``P`` (Fassler and Stiefel 1992), about a sixteenth of its SVD, read
from those slices alone; the blocks' values agree with ``P``'s to 6e-13 at
nx <= 12 and 1.3e-11 at nx = 15, k = 4. The identity group's one block is ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import hadamard, lapack

from .forward import JacobianStack, forward_pairs

__all__ = ["ResidualProblem", "SpectralReport", "ReconstructionError", "residual", "reconstruct_lm", "condition_number",
           "loewner_min_eig", "singular_values"]

RANK_DEFICIENCY_RATIO = 1e-14
# The working floor on sigma of a reconstruction, and reconstruct_lm's
# iteration cap, first damping and stopping tolerances.
SIGMA_FLOOR = 1e-6
LM_MAX_ITER = 100
LM_LAMBDA0 = 1e-3
LM_GTOL = 1e-14
LM_RTOL = 1e-28
LM_STEP_TOL = 1e-12


# ---------------------------------------------------------------------------
# the residual functional


@dataclass(frozen=True, eq=False)
class ResidualProblem:
    """Data-misfit problem ``min ||F(sigma) - data||^2`` over positive sigma.

    ``F`` is the vector of the values of the (excitation, measurement)
    ``pairs`` (:func:`forward.forward_pairs`) and ``data`` holds one value per
    pair; a symmetric layout of ``m`` functionals lists all ``m*m`` pairs.
    :data:`SIGMA_FLOOR` bounds the working domain away from zero; the
    reconstruction loop rejects any step crossing it.
    """

    stiffness: object
    pairs: list
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (len(self.pairs),):
            raise ValueError(f"data must hold one value for each of the {len(self.pairs)} pairs, "
                             f"got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError(f"data must be finite, got {data.tolist()}")
        object.__setattr__(self, "data", data)

    def misfit(self, sigma):
        """Residual vector and its Jacobian at ``sigma``."""
        values, jac = forward_pairs(self.stiffness, sigma, self.pairs)
        return values - self.data, jac


def residual(problem: ResidualProblem, sigma):
    """Squared misfit norm and its coefficient gradient.

    The gradient is the chain rule through the measurement Jacobian:
    twice the inner product of the misfit with each derivative slice.
    """
    r, jac = problem.misfit(sigma)
    return float(r @ r), 2.0 * (jac.T @ r)


class ReconstructionError(RuntimeError):
    """Raised when no acceptable reconstruction step can be found."""


def reconstruct_lm(problem: ResidualProblem, sigma0):
    """Levenberg-Marquardt minimization of the misfit over positive sigma.

    Damped normal equations with multiplicative ``diag(J^T J)`` scaling;
    the damping shrinks by 3 on accepted steps and doubles on rejected
    ones. Steps that fail to decrease the residual, or that push any
    coefficient to :data:`SIGMA_FLOOR` or below, are rejected. Ten consecutive
    rejections abort.

    Returns
    -------
    (sigma, trace)
        Final iterate and a list of per-step records; the residual values
        of accepted steps are non-increasing.
    """
    sigma = np.asarray(sigma0, dtype=float).copy()
    if np.any(sigma <= SIGMA_FLOOR):
        raise ValueError("starting point must be above the positivity floor")
    r, jac = problem.misfit(sigma)
    value = float(r @ r)
    damping = LM_LAMBDA0
    trace = [{"iteration": 0, "accepted": True, "residual": value, "damping": damping, "step_norm": 0.0}]

    for iteration in range(1, LM_MAX_ITER + 1):
        gradient = 2.0 * (jac.T @ r)
        if value <= LM_RTOL or np.linalg.norm(gradient, np.inf) <= LM_GTOL:
            break
        JtJ = jac.T @ jac
        diag = np.diag(JtJ).copy()
        diag[diag <= 0] = max(diag.max(), np.finfo(float).tiny)

        rejections = 0
        while True:
            step = np.linalg.solve(JtJ + damping * np.diag(diag), -(jac.T @ r))
            candidate = sigma + step
            ok = bool(np.all(candidate > SIGMA_FLOOR))
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
            trace.append({"iteration": iteration, "accepted": ok, "residual": value, "damping": damping,
                          "step_norm": float(np.linalg.norm(step))})
            if ok:
                break
            if rejections >= 10:
                raise ReconstructionError(
                    f"no acceptable step after {rejections} damping increases "
                    f"at iteration {iteration} (residual {value:.3e})"
                )
        if trace[-1]["step_norm"] <= LM_STEP_TOL * (1.0 + float(np.linalg.norm(sigma))):
            break

    return sigma, trace


# ---------------------------------------------------------------------------
# spectral kernels (LAPACK)


def loewner_min_eig(matrix) -> float:
    """Smallest eigenvalue of a (numerically) symmetric matrix.

    The input is symmetrized before the eigensolve; asymmetry above
    ``1e-9`` of the largest entry is rejected, since comparing matrices in
    the semidefinite order is only meaningful for symmetric ones.
    """
    A = np.asarray_chkfinite(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square 2D matrix, got shape {A.shape}")
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    asym = float(np.max(np.abs(A - A.T))) if A.size else 0.0
    if asym > 1e-9 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
    return float(eigs[0]) if eigs.size else 0.0


def singular_values(matrix) -> np.ndarray:
    """The ``min(rows, cols)`` singular values of a matrix, descending.

    Drmac's QR-preconditioned QR SVD (ACM TOMS 44(1), 2017), values only, on
    the matrix itself: ``dgeqp3`` pivots the columns by norm, and ``dgesvd``
    takes the transposed ``n x n`` factor. For ``A = B D`` with ``D`` diagonal,
    each value is accurate to about ``cond(B) * eps`` relative to itself (Demmel
    et al., Linear Algebra Appl. 299, 1999), which ``dgesdd`` does not promise.
    """
    A = np.asarray_chkfinite(matrix, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {A.shape}")
    if A.shape[0] < A.shape[1]:
        A = A.T  # the QR needs rows >= cols
    if A.shape[1] == 0:
        return np.zeros(0)
    lwork = int(lapack.dgeqp3(A, lwork=-1, overwrite_a=True)[3][0])  # blocked; a query reads only A's shape
    R, _, _, _, info = lapack.dgeqp3(A, lwork=lwork)
    _, s, _, info_svd = lapack.dgesvd(np.triu(R[:A.shape[1]]).T, compute_uv=0)
    if info or info_svd:
        raise np.linalg.LinAlgError(f"dgeqp3 or dgesvd failed with info={info}, {info_svd}")
    return s  # dgesvd sorts them descending


# ---------------------------------------------------------------------------
# condition numbers


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Singular values (descending) and condition number of a Jacobian."""

    singular_values: np.ndarray
    condition: float
    rank_deficient: bool = field(default=False)


def _packed(jac: JacobianStack) -> list:
    """The matrices whose values together are a stack's: ``P``, or a block per character of its group."""
    n, m, cols, group = jac.n, jac.m, jac.orbits, jac.group
    pixels, loads, chars = group[:, :n], group[:, n:] - n, hadamard(len(group), dtype=float)  # chars[c, i]: (-1)^|c&i|
    a, b = (loads.take(i, axis=1) for i in np.triu_indices(m))  # take, not [:, i], gives C order: fast reductions
    keys = np.minimum(a, b) * m + np.maximum(a, b)  # the row of P each element maps each row to
    a, b, keys = np.compress(keys[0] == keys.min(0), [a, b, keys], axis=2)  # each row orbit's first row
    flat = jac.orbit_slices.reshape(cols.size, m * m)
    upper = flat.take(a * m + b, axis=1)  # (pixel orbits, elements, row orbits): each as each element maps it
    lower = flat.take(b * m + a, axis=1)  # the twins of upper, compared in place: no further temporary
    with np.errstate(invalid="ignore"):  # inf - inf, refused below
        np.subtract(lower, upper, out=lower)
    scale = max(upper[:, 0].max(initial=0.0), -upper[:, 0].min(initial=0.0))  # max/min rather than abs
    asym = max(lower.max(initial=0.0), -lower.min(initial=0.0))
    if not asym <= 1e-9 * scale < np.inf:  # every entry is in upper or lower, so a NaN or inf fails it
        raise ValueError(f"Jacobian slices are not symmetric or not finite (max asymmetry {asym:.3e})")
    fixes_row, fixes_col = keys == keys[0], pixels[:, cols] == cols
    weight = np.where(a[0] == b[0], 1.0, np.sqrt(2.0)) / np.sqrt(fixes_row.sum(0))
    # The row orbits combined by character, each pixel orbit read at its first pixel; without a group, P.
    folded = np.matmul(chars, upper)  # (pixel orbits, characters, row orbits)
    folded *= weight / np.sqrt(fixes_col.sum(0))[:, None, None]
    blocks = [folded[:, i][np.ix_(c, r)] for i, (c, r) in enumerate(zip(chars @ fixes_col == fixes_col.sum(0),
                                                                            chars @ fixes_row == fixes_row.sum(0)))]
    # Zero rows pad a block with fewer rows than columns: only zero singular values join, as A has them too.
    return [B.T if B.shape[1] >= B.shape[0] else np.vstack([B.T, np.zeros((B.shape[0] - B.shape[1], B.shape[0]))])
            for B in blocks]


def condition_number(jac) -> SpectralReport:
    """Condition number of a flattened measurement Jacobian.

    Accepts a JacobianStack, whose spectrum is that of its ``(m*m, n)``
    flattening but is taken from the packed distinct rows (module notes),
    or any finite 2D array with one or more columns and at least as many
    rows. A smallest singular value at or below ``1e-14`` times the largest,
    zero included, marks the report as rank deficient with condition number
    infinity. A stack's slices more asymmetric than ``1e-9`` of their largest
    entry are refused. A stack's group, if it carries one, splits the values
    into a block per character, read from its stored slices (module notes).
    """
    if isinstance(jac, JacobianStack):
        blocks, rows = _packed(jac), jac.m * jac.m
    else:
        J = np.asarray_chkfinite(jac, dtype=float)
        if J.ndim != 2:
            raise ValueError(f"expected a 2D Jacobian, got shape {J.shape}")
        blocks, rows = [J], J.shape[0]
    cols = sum(B.shape[1] for B in blocks)
    if not 0 < cols <= rows:
        raise ValueError(f"Jacobian needs one or more columns and at least as many rows, got {rows} x {cols}")
    s = np.sort(np.concatenate([singular_values(B) for B in blocks]))[::-1]
    s_max, s_min = float(s[0]), float(s[-1])
    deficient = s_min <= RANK_DEFICIENCY_RATIO * s_max
    return SpectralReport(
        singular_values=s,
        condition=np.inf if deficient else s_max / s_min,
        rank_deficient=deficient,
    )

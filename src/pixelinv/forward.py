"""Forward measurement maps and their exact coefficient Jacobians.

A measurement pairs an excitation functional ``l`` with a measurement
functional ``r``. With load vectors ``y_l``, ``y_r`` and the solution
``lam_l`` of ``B_sigma @ lam_l = y_l``, the measured value is

    ``F(sigma) = lam_l . y_r``

and its derivative with respect to the coefficient of pixel ``i`` is the
quadratic form ``-lam_l . (B_i @ lam_r)`` in the two solutions. For a
symmetric layout (the same functionals used as excitations and as
measurements) the full ``m x m`` matrix and all ``n`` Jacobian slices
follow from just ``m`` linear solves.

Every map below takes one path: ``global_matrix`` validates ``sigma`` and
forms ``B_sigma`` once, ``linsolve.solve_multi`` factors it once and
back-substitutes every load, and all Jacobian entries come from one
batched contraction of the per-pixel blocks with the solutions gathered
onto each pixel's vertices. The number of solves is returned with the
result (``MeasurementMatrix.solves_used``). The resulting matrix map is
symmetric positive semidefinite, monotonically non-increasing and convex
in the Loewner order, and grows pointwise under nested mesh refinement;
these properties are exercised by the test suite.

Pair values along a sweep, where only a few pixel coefficients change
from sample to sample, take a second path (:func:`forward_pair_sweep`).
Every ``B_i`` of a swept pixel lives on the unknowns ``S`` of that pixel's
vertices, so the rest ``R`` of ``B_sigma`` is the same for every sample:
``B_RR`` is factored once, and each sample costs one small dense solve
with the Schur complement ``B_SS - B_SR B_RR^{-1} B_RS`` plus the swept
pixels' blocks (static condensation, the symmetric form of the
Sherman-Morrison-Woodbury update). Every sample's full residual is still
checked against ``tol``. :func:`forward_pair_values` is the sweep with no
swept pixel and one sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .assembly import (
    StiffnessSet,
    assemble_load,
    assemble_pixel_matrices,
    check_sigma,
    global_matrix,
)
from .mesh import PixelGrid, build_mesh, refine, refine_disk

__all__ = [
    "MeasurementMatrix",
    "JacobianStack",
    "check_sigma",
    "forward_matrix",
    "forward_pairs",
    "forward_pair_values",
    "forward_pair_sweep",
    "directional_derivative",
    "true_reference",
]


def _require_finite(sigma, *outputs) -> None:
    """Refuse outputs that left the double-precision range instead of returning them."""
    if not all(np.isfinite(out).all() for out in outputs):
        s = np.asarray(sigma, dtype=float)
        raise FloatingPointError(
            f"F or J has non-finite entries at sigma in [{s.min():.3g}, {s.max():.3g}]; "
            "the coefficient scale is outside double-precision range"
        )


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Matrix of measurements for a symmetric functional layout.

    ``values[j, k]`` is the k-th measurement of the solution excited by
    the j-th functional. ``solves_used`` records how many linear solves
    produced the matrix (one per functional).
    """

    values: np.ndarray
    solves_used: int

    @property
    def m(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class JacobianStack:
    """Per-pixel derivative slices of a measurement matrix.

    ``slices[i]`` is the ``m x m`` derivative of the measurement matrix
    with respect to the i-th pixel coefficient.
    """

    slices: np.ndarray

    @property
    def n(self) -> int:
        return self.slices.shape[0]

    @property
    def m(self) -> int:
        return self.slices.shape[1]

    def flattened(self) -> np.ndarray:
        """Measurements stacked row-major into an ``(m*m, n)`` matrix."""
        n = self.slices.shape[0]
        return self.slices.reshape(n, -1).T


def _pixel_quadratic_forms(stiffness: StiffnessSet, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All values ``left[:, j] . (B_i @ right[:, k])`` as an (n, mj, mk) array.

    Each pixel's block only sees the solution on its own vertices, which
    one gather of ``[x; 0]`` through ``dofs`` picks out (the appended zero
    stands in for the eliminated boundary vertices).
    """
    def local(x):
        return np.vstack([x, np.zeros((1, x.shape[1]))])[stiffness.dofs]

    L = local(left)
    R = L if right is left else local(right)
    return L.transpose(0, 2, 1) @ (stiffness.blocks @ R)


def _solve(stiffness: StiffnessSet, sigma, loads: list, tol, max_iter):
    """Solution columns ``lam_j`` of ``B_sigma @ lam_j = y_j``, one per load,
    all against one factorization, and the number of solves that took."""
    if not loads:
        raise ValueError("need at least one load")
    B = global_matrix(stiffness, sigma)
    reports = linsolve.solve_multi(B, [ld.y for ld in loads], tol=tol, max_iter=max_iter)
    return np.column_stack([rep.solution for rep in reports]), len(reports)


def _distinct(loads: list):
    """The distinct load objects among ``loads``, and the index of each entry
    of ``loads`` among them."""
    distinct = {id(ld): ld for ld in loads}
    column = {key: j for j, key in enumerate(distinct)}
    return list(distinct.values()), np.array([column[id(ld)] for ld in loads], dtype=np.int64)


def _measurement_matrix(stiffness: StiffnessSet, sigma, loads: list, tol, max_iter):
    """Measurement matrix of a symmetric layout, plus the solutions behind it."""
    lam, used = _solve(stiffness, sigma, loads, tol, max_iter)
    values = lam.T @ np.column_stack([ld.y for ld in loads])
    return MeasurementMatrix(values=values, solves_used=used), lam


def forward_matrix(
    stiffness: StiffnessSet,
    sigma,
    loads: list,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
):
    """Measurement matrix and Jacobian stack for a symmetric layout.

    All ``m*m`` matrix entries and all ``n`` Jacobian slices are formed
    from the ``m`` solutions of ``B_sigma @ lam_j = y_j``; ``solves_used``
    of the returned matrix counts them.

    Returns
    -------
    (MeasurementMatrix, JacobianStack)
    """
    F, lam = _measurement_matrix(stiffness, sigma, loads, tol, max_iter)
    slices = -_pixel_quadratic_forms(stiffness, lam, lam)
    _require_finite(sigma, F.values, slices)
    return F, JacobianStack(slices=slices)


def forward_pairs(
    stiffness: StiffnessSet,
    sigma,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
):
    """Values and Jacobian rows for arbitrary (excitation, measurement) pairs.

    ``pairs`` is a list of ``(y_l, y_r)`` LoadVector tuples. Returns a
    vector of the ``p`` values and a ``(p, n)`` Jacobian. Each distinct
    load object is solved once. The Loewner-order structure of symmetric
    layouts does not apply to such plain vectors of measurements.
    """
    distinct, column = _distinct([ld for pair in pairs for ld in pair])
    lam, _ = _solve(stiffness, sigma, distinct, tol, max_iter)
    left, right = column[0::2], column[1::2]
    Y_r = np.column_stack([r.y for _, r in pairs])
    values = np.einsum("ij,ij->j", lam[:, left], Y_r)
    jac = -_pixel_quadratic_forms(stiffness, lam, lam)[:, left, right].T
    _require_finite(sigma, values, jac)
    return values, jac


def forward_pair_values(
    stiffness: StiffnessSet,
    sigma,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
) -> np.ndarray:
    """Values only for (excitation, measurement) pairs; solves excitations only.

    This is :func:`forward_pair_sweep` with no swept pixel and one sample.
    """
    return forward_pair_sweep(stiffness, sigma, [], np.empty((1, 0)), pairs, tol, max_iter)[0]


# Samples per batched dense solve in forward_pair_sweep. It bounds the stack
# of reduced matrices held at once: 32 x |S| x |S| doubles, 0.4 MB for the 40
# swept unknowns of the landscape study.
_SWEEP_BLOCK = 32


def _stacked(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x[b]`` for every matrix of a ``(b, n, e)`` stack, as one product."""
    b, n, e = x.shape
    return (matrix @ x.transpose(1, 0, 2).reshape(n, b * e)).reshape(-1, b, e).transpose(1, 0, 2)


def forward_pair_sweep(
    stiffness: StiffnessSet,
    sigma,
    pixels,
    samples,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
) -> np.ndarray:
    """Pair values along a sweep of a few pixel coefficients.

    Row ``j`` of the returned ``(P, p)`` array holds the ``p`` pair values
    at ``sigma`` with ``sigma[pixels] = samples[j]``, for each of the ``P``
    rows of ``samples``.

    ``S`` are the unknowns on the swept pixels' vertices and ``R`` the
    rest. Only ``B_SS`` depends on the sample, so ``B_RR`` is factored once
    and solved for the distinct excitations and the ``|S|`` columns of
    ``B_RS``: a sweep costs that many solves, whatever ``P`` is. Each
    sample then takes one ``|S| x |S|`` dense solve with the Schur
    complement plus ``sum_j (samples[., j] - sigma[pixels[j]]) K_j``
    (``K_j`` is ``B_j`` on ``S``), solved in batches. Every sample's
    relative residual ``||B_sample lam - y|| / ||y||`` is checked against
    ``tol``; one that misses it gets up to ``max_iter`` refinement steps
    through the same elimination (each solves ``B_RR`` again), and one
    that still misses it raises :class:`linsolve.SolverError` naming the
    sample.

    Raises
    ------
    ValueError
        If ``pixels`` has repeated or out-of-range entries, ``samples`` is
        not ``(P, len(pixels))``, ``pairs`` is empty, or ``sigma`` or a
        sample has an entry that is not finite and strictly positive.
    """
    if not pairs:
        raise ValueError("need at least one load")
    B = global_matrix(stiffness, sigma)
    base = np.asarray(sigma, dtype=float).reshape(-1)
    pixels = np.asarray(pixels, dtype=np.int64).reshape(-1)
    if np.unique(pixels).size != pixels.size or not np.all((pixels >= 0) & (pixels < stiffness.n)):
        raise ValueError(f"pixels must be distinct indices below {stiffness.n}, got {pixels.tolist()}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != pixels.size:
        raise ValueError(f"samples must have shape (P, {pixels.size}), got {samples.shape}")
    check_sigma(samples, samples.size)

    dofs = stiffness.dofs[pixels]
    S = np.unique(dofs[dofs >= 0])
    R = np.setdiff1d(np.arange(stiffness.N), S)
    B_RR, B_RS, B_SR = B[R][:, R], B[R][:, S], B[S][:, R]
    excitations, left = _distinct([y_l for y_l, _ in pairs])
    Y = np.column_stack([ld.y for ld in excitations])
    Y_r = np.column_stack([r.y for _, r in pairs])
    e = Y.shape[1]
    reports = linsolve.solve_multi(
        B_RR, list(Y[R].T) + list(B_RS.T.toarray()), tol=tol, max_iter=max_iter
    )
    solved = np.column_stack([rep.solution for rep in reports])
    U, W = solved[:, :e], solved[:, e:]  # B_RR^{-1} y_R and B_RR^{-1} B_RS
    schur = B[S][:, S].toarray() - B_SR @ W
    load_S = Y[S] - B_SR @ U
    K = np.array([stiffness.pixel_matrix(i)[S][:, S].toarray() for i in pixels])
    K = K.reshape(pixels.size, S.size, S.size)  # also when no pixel is swept
    y_norm = np.linalg.norm(Y, axis=0)
    y_norm[y_norm == 0.0] = 1.0  # a zero load has the zero solution, residual 0
    steps_allowed = linsolve.DEFAULT_REFINE_STEPS if max_iter is None else max_iter

    def eliminate(reduced, condensed, solved_R):
        """Solutions of the samples' systems from their condensed loads."""
        lam_S = np.linalg.solve(reduced, condensed)
        lam = np.empty((reduced.shape[0], stiffness.N, e))
        lam[:, S] = lam_S
        lam[:, R] = solved_R - W @ lam_S
        return lam

    values = np.empty((samples.shape[0], len(pairs)))
    for start in range(0, samples.shape[0], _SWEEP_BLOCK):
        shift = samples[start:start + _SWEEP_BLOCK] - base[pixels]
        # Elementwise, not a BLAS product, so that a sample's result does not
        # depend on its position in the sweep.
        perturbation = np.zeros((shift.shape[0], S.size, S.size))
        for j in range(pixels.size):
            perturbation += shift[:, j, None, None] * K[j]
        reduced = schur + perturbation
        lam = eliminate(reduced, load_S, U)
        steps = 0
        while True:
            residual = Y - _stacked(B, lam)
            residual[:, S] -= perturbation @ lam[:, S]
            achieved = np.linalg.norm(residual, axis=1) / y_norm
            missed = ~np.all(achieved <= tol, axis=1)
            if not missed.any() or steps >= steps_allowed:
                break
            r = residual[missed]
            columns = r[:, R].transpose(0, 2, 1).reshape(r.shape[0] * e, R.size)
            refine = linsolve.solve_multi(B_RR, list(columns), tol=tol, max_iter=max_iter)
            V = np.array([rep.solution for rep in refine]).reshape(r.shape[0], e, R.size).transpose(0, 2, 1)
            lam[missed] += eliminate(reduced[missed], r[:, S] - _stacked(B_SR, V), V)
            steps += 1
        if missed.any():
            j = int(np.flatnonzero(missed)[0])
            worst = float(achieved[j].max())
            raise linsolve.SolverError(
                f"sweep sample {start + j + 1} of {samples.shape[0]} (coefficients "
                f"{samples[start + j].tolist()} on pixels {pixels.tolist()}) missed tolerance "
                f"{tol} after {steps} refinement steps (achieved relative residual {worst:.3e})",
                residual_norm=worst,
                iterations=steps,
            )
        values[start:start + _SWEEP_BLOCK] = (lam[:, :, left] * Y_r).sum(axis=1)
    _require_finite(np.concatenate([base, samples.ravel()]), values)
    return values


def directional_derivative(jac: JacobianStack, tau) -> np.ndarray:
    """Contraction ``sum_i tau_i * slices[i]`` of the Jacobian stack.

    For a symmetric layout and elementwise-nonnegative ``tau`` the result
    is negative semidefinite (raising any coefficient can only lower the
    measurement matrix in the Loewner order).
    """
    t = np.asarray(tau, dtype=float).reshape(-1)
    if t.shape != (jac.n,):
        raise ValueError(f"direction must have {jac.n} entries, got {t.shape}")
    return np.tensordot(t, jac.slices, axes=([0], [0]))


def true_reference(
    grid: PixelGrid,
    disks: list,
    sigma,
    k: int,
    k_max: int,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
) -> MeasurementMatrix:
    """Measurement matrix on a nested refinement, as a reference surrogate.

    ``disks`` must be resolved on the mesh with parameter ``k``; their
    element sets are carried through each halving step so the functionals
    are geometrically identical on every level. ``k_max`` must be ``k``
    times a power of two. With increasing ``k_max`` the returned matrix
    increases in the Loewner order towards the exact-solution measurement
    matrix, which is how refinement studies use it.
    """
    if k_max < k:
        raise ValueError(f"k_max={k_max} must be >= working k={k}")
    ratio = k_max // k
    if k * ratio != k_max or ratio & (ratio - 1):
        raise ValueError(f"k_max={k_max} is not k={k} times a power of two")

    mesh = build_mesh(grid, k)
    carried = list(disks)
    while mesh.k < k_max:
        carried = [refine_disk(d, mesh) for d in carried]
        mesh = refine(mesh)

    stiffness = assemble_pixel_matrices(mesh, grid)
    loads = [assemble_load(mesh, d) for d in carried]
    return _measurement_matrix(stiffness, sigma, loads, tol, max_iter)[0]

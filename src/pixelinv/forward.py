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
from sample to sample, take a second path (:func:`forward_pair_sweep`):
``B_RR`` on the unknowns ``R`` off the swept pixels is factored once and
each sample is condensed onto the rest ``S`` (static condensation).
Samples that differ only in the last swept pixel form a line, along
which the condensed matrix is a symmetric-definite pencil: one ``eigh``
per line serves all its samples (Golub & Van Loan, *Matrix Computations*,
4th ed., 8.7). Every sample's full residual is still checked against
``tol``. :func:`forward_pair_values` is the sweep with no swept pixel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh

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


def _solve(stiffness: StiffnessSet, sigma, loads: list, tol):
    """Solution columns ``lam_j`` of ``B_sigma @ lam_j = y_j``, one per load,
    all against one factorization, and the number of solves that took."""
    if not loads:
        raise ValueError("need at least one load")
    B = global_matrix(stiffness, sigma)
    reports = linsolve.solve_multi(B, [ld.y for ld in loads], tol=tol)
    return np.column_stack([rep.solution for rep in reports]), len(reports)


def _distinct(loads: list):
    """The distinct load objects among ``loads``, and the index of each entry
    of ``loads`` among them."""
    distinct = {id(ld): ld for ld in loads}
    column = {key: j for j, key in enumerate(distinct)}
    return list(distinct.values()), np.array([column[id(ld)] for ld in loads], dtype=np.int64)


def _measurement_matrix(stiffness: StiffnessSet, sigma, loads: list, tol):
    """Measurement matrix of a symmetric layout, plus the solutions behind it."""
    lam, used = _solve(stiffness, sigma, loads, tol)
    values = lam.T @ np.column_stack([ld.y for ld in loads])
    return MeasurementMatrix(values=values, solves_used=used), lam


def forward_matrix(
    stiffness: StiffnessSet,
    sigma,
    loads: list,
    tol: float = linsolve.DEFAULT_TOL,
):
    """Measurement matrix and Jacobian stack for a symmetric layout.

    All ``m*m`` matrix entries and all ``n`` Jacobian slices are formed
    from the ``m`` solutions of ``B_sigma @ lam_j = y_j``; ``solves_used``
    of the returned matrix counts them.

    Returns
    -------
    (MeasurementMatrix, JacobianStack)
    """
    F, lam = _measurement_matrix(stiffness, sigma, loads, tol)
    slices = -_pixel_quadratic_forms(stiffness, lam, lam)
    _require_finite(sigma, F.values, slices)
    return F, JacobianStack(slices=slices)


def forward_pairs(
    stiffness: StiffnessSet,
    sigma,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
):
    """Values and Jacobian rows for arbitrary (excitation, measurement) pairs.

    ``pairs`` is a list of ``(y_l, y_r)`` LoadVector tuples. Returns a
    vector of the ``p`` values and a ``(p, n)`` Jacobian. Each distinct
    load object is solved once. The Loewner-order structure of symmetric
    layouts does not apply to such plain vectors of measurements.
    """
    distinct, column = _distinct([ld for pair in pairs for ld in pair])
    lam, _ = _solve(stiffness, sigma, distinct, tol)
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
) -> np.ndarray:
    """Values only for (excitation, measurement) pairs; solves excitations only.

    This is :func:`forward_pair_sweep` with no swept pixel and one sample.
    """
    return forward_pair_sweep(stiffness, sigma, [], np.empty((1, 0)), pairs, tol)[0]


# Most samples of a line handled at once, so memory does not grow with the
# line; above any landscape line (1,000 points and the truth).
_LINE_PIECE = 1024


def _apply(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix`` applied along the first axis of ``x``, as one product."""
    rest = x.shape[1:]
    return (matrix @ x.reshape(x.shape[0], math.prod(rest))).reshape(matrix.shape[0], *rest)


def forward_pair_sweep(
    stiffness: StiffnessSet,
    sigma,
    pixels,
    samples,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
) -> np.ndarray:
    """Pair values along a sweep of a few pixel coefficients.

    Row ``j`` of the returned ``(P, p)`` array holds the ``p`` pair values
    at ``sigma`` with ``sigma[pixels] = samples[j]``, for each of the ``P``
    rows of ``samples``.

    ``S`` are the unknowns on the swept pixels' vertices and ``R`` the
    rest. ``B_RR`` is solved for the distinct excitations (``U``) and the
    ``|S|`` columns of ``B_RS`` (``W``): a sweep costs that many solves,
    whatever ``P`` is. The Schur complement is formed without the swept
    pixels' blocks, so ``sigma[pixels]`` never enters the samples' matrices.
    On a line, ``M`` is that complement plus the other pixels' blocks (``K_j``
    is ``B_j`` on ``S``) at their samples, and ``t`` the last pixel ``q``'s
    sample. The pencil is decomposed, once per line or per 1,024 samples of
    a longer one, at ``rho``, the geometric mean of the extreme ``t`` there:
    ``K_q V = (M + rho K_q) V diag(mu)`` gives ``0 <= mu <= 1 / rho``, so
    every ``1 + (t - rho) mu`` is within ``sqrt(max / min)`` of 1. Each
    sample's ``lam_S`` from the decomposition gets one correction against
    ``M + t K_q``, which makes it as accurate as a direct solve. Every
    sample's relative residual ``||B_sample lam - y|| / ||y||`` is formed
    from set-up quantities and ``M + t K_q`` and checked against ``tol``.
    A line with a sample that misses it gets up to ``linsolve.REFINE_STEPS``
    refinement steps through the same elimination (each solves ``B_RR``
    again), and a sample that still misses it raises
    :class:`linsolve.SolverError` naming it.

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
    B_RR, B_RS, B_SR = B[R][:, R], B[R][:, S].toarray(), B[S][:, R]
    # B_SS without the swept pixels' blocks: they enter through the samples
    # only, so no sample's matrix cancels sigma[pixels] back out of B_sigma
    # (at a contrast of 1e4 that cancellation costs four digits).
    outside = base.copy()
    outside[pixels] = 0.0
    pattern = stiffness.pattern
    B_SS = sp.csr_matrix((stiffness.C @ outside, pattern.indices, pattern.indptr), shape=pattern.shape)[S][:, S]
    excitations, left = _distinct([y_l for y_l, _ in pairs])
    Y, e = np.column_stack([ld.y for ld in excitations]), len(excitations)
    Y_r = np.column_stack([r.y for _, r in pairs])
    reports = linsolve.solve_multi(B_RR, list(Y[R].T) + list(B_RS.T), tol=tol)
    solved = np.column_stack([rep.solution for rep in reports])
    U, W = solved[:, :e], solved[:, e:]  # B_RR^{-1} y_R and B_RR^{-1} B_RS
    schur = B_SS.toarray() - B_SR @ W
    load_S = Y[S] - B_SR @ U
    # With lam_R = U - W lam_S, rows R of y - B lam are E_W lam_S - e_U; values lam_S . G + offset.
    E_W, e_U = B_RR @ W - B_RS, B_RR @ U - Y[R]
    G, offset = Y_r[S] - W.T @ Y_r[R], np.einsum("ij,ij->j", U[:, left], Y_r[R])
    K = np.array([stiffness.pixel_matrix(i)[S][:, S].toarray() for i in pixels])
    K = K.reshape(pixels.size, S.size, S.size)  # also when no pixel is swept
    # Row j of `on` averages over pixel j's unknowns in S (zero with none);
    # K1 holds the row sums K_j 1, each rounded once.
    on = (dofs[:, :, None] == S).any(axis=1).astype(float).reshape(pixels.size, S.size)
    on /= np.maximum(on.sum(axis=1, keepdims=True), 1.0)
    K1 = np.array([[math.fsum(row) for row in K_j] for K_j in K]).reshape(pixels.size, S.size)

    def residual_S(X, s):
        """``load_S - (schur + sum_j s_j K_j) X`` for the samples ``s``, (p, n).

        Each ``K_j X`` is formed as ``K_j (X - c) + c K_j 1``, with ``c`` the
        mean of ``X`` on pixel ``j``: on a pixel of high coefficient
        ``lam_S`` is nearly constant, and ``K_j X`` as it stands would cancel
        away as many digits as the contrast has.
        """
        r = load_S[:, None] - _apply(schur, X)
        for K_j, K1_j, s_j, c in zip(K, K1, s, _apply(on, X)):
            r -= s_j[:, None] * (_apply(K_j, X - c) + K1_j[:, None, None] * c)
        return r

    y_norm = np.linalg.norm(Y, axis=0) + np.all(Y == 0.0, axis=0)  # a zero load: zero solution, residual 0

    # Heads, and the last pixel q's samples (0, K_q empty, with no pixel swept).
    heads, K_q, last = samples[:, :-1], K[-1:].sum(axis=0), samples[:, -1:].sum(axis=1)
    order = np.lexsort((np.arange(len(samples)), *heads.T[::-1]))  # lines, each in sweep order
    lines = np.split(order, np.flatnonzero((np.diff(heads[order], axis=0) != 0).any(axis=1)) + 1)
    pieces = [p for line in lines for p in np.array_split(line, range(_LINE_PIECE, line.size, _LINE_PIECE))]
    values = np.empty((samples.shape[0], len(pairs)))
    for rows in filter(len, pieces):  # an empty sweep has one empty line
        M, t, s = schur + np.tensordot(heads[rows[0]], K[:-1], 1), last[rows], samples[rows].T
        rho = np.sqrt(t.min() * t.max())
        mu, V = eigh(K_q, M + rho * K_q)  # (M + t K_q)^{-1} = V diag(D[j]) V^T
        D = 1.0 / (1.0 + (t - rho)[:, None] * mu)
        X = _apply(V, D.T[:, :, None] * (V.T @ load_S)[:, None])  # lam_S of every sample, (|S|, n, e)
        # One correction against M + t K_q: at a high contrast inside S the
        # decomposition alone is less accurate than a direct solve.
        X += _apply(V, D.T[:, :, None] * _apply(V.T, residual_S(X, s)))
        Z, BZ_R, BZ_S = np.zeros((R.size,) + X.shape[1:]), 0.0, 0.0  # corrections to lam_R, B_RR Z, B_SR Z
        for steps in range(linsolve.REFINE_STEPS + 1):
            r_R = _apply(E_W, X) - e_U[:, None] - BZ_R
            r_S = residual_S(X, s) - BZ_S
            achieved = np.sqrt((r_R * r_R).sum(axis=0) + (r_S * r_S).sum(axis=0)) / y_norm
            missed = ~np.all(achieved <= tol, axis=1)
            if not missed.any() or steps >= linsolve.REFINE_STEPS:
                break
            # Refine every sample of the piece: lam_R gains z - W dS, lam_S gains dS.
            columns = list(r_R.reshape(R.size, rows.size * e).T)
            refine = linsolve.solve_multi(B_RR, columns, tol=tol)
            z = np.array([rep.solution for rep in refine]).T.reshape(Z.shape)
            X += _apply(V, D.T[:, :, None] * _apply(V.T, r_S - _apply(B_SR, z)))
            Z += z
            BZ_R, BZ_S = _apply(B_RR, Z), _apply(B_SR, Z)
        if missed.any():
            j, worst = rows[missed][0], float(achieved[missed][0].max())
            raise linsolve.SolverError(
                f"sweep sample {j + 1} of {samples.shape[0]} (coefficients {samples[j].tolist()} on pixels "
                f"{pixels.tolist()}) missed tolerance {tol} after {steps} refinement steps (achieved "
                f"relative residual {worst:.3e})", residual_norm=worst, iterations=steps,
            )
        # Values from lam_S and lam_R = U + Z - W lam_S, elementwise and not
        # BLAS, so that no value depends on its place in its line.
        values[rows] = offset + np.einsum("smp,sp->mp", X[:, :, left], G)
        if steps:
            values[rows] += np.einsum("rmp,rp->mp", Z[:, :, left], Y_r[R])
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
    return _measurement_matrix(stiffness, sigma, loads, tol)[0]

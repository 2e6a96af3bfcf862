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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .assembly import (
    LoadVector,
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
    "forward_single",
    "forward_matrix",
    "forward_pairs",
    "forward_pair_values",
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
    loads: list
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


def _solve_distinct(stiffness: StiffnessSet, sigma, loads: list, tol, max_iter):
    """Solution columns of the distinct load objects among ``loads``, and the
    column of each entry of ``loads``."""
    distinct = {id(ld): ld for ld in loads}
    column = {key: j for j, key in enumerate(distinct)}
    lam, _ = _solve(stiffness, sigma, list(distinct.values()), tol, max_iter)
    return lam, np.array([column[id(ld)] for ld in loads], dtype=np.int64)


def _measurement_matrix(stiffness: StiffnessSet, sigma, loads: list, tol, max_iter):
    """Measurement matrix of a symmetric layout, plus the solutions behind it."""
    lam, used = _solve(stiffness, sigma, loads, tol, max_iter)
    values = lam.T @ np.column_stack([ld.y for ld in loads])
    return MeasurementMatrix(values=values, loads=list(loads), solves_used=used), lam


def forward_single(
    stiffness: StiffnessSet,
    sigma,
    y_l: LoadVector,
    y_r: LoadVector,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
):
    """One measurement value and its full coefficient gradient.

    Solves the two systems for the excitation and measurement loads and
    returns ``(value, gradient)`` with ``gradient[i]`` the derivative with
    respect to the i-th pixel coefficient. Costs exactly two solves.
    """
    lam, _ = _solve(stiffness, sigma, [y_l, y_r], tol, max_iter)
    value = float(lam[:, 0] @ y_r.y)
    gradient = -_pixel_quadratic_forms(stiffness, lam[:, :1], lam[:, 1:])[:, 0, 0]
    _require_finite(sigma, value, gradient)
    return value, gradient


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
    lam, column = _solve_distinct(stiffness, sigma, [ld for pair in pairs for ld in pair], tol, max_iter)
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
    """Values only for (excitation, measurement) pairs; solves excitations only."""
    lam, column = _solve_distinct(stiffness, sigma, [l for l, _ in pairs], tol, max_iter)
    return np.einsum("ij,ij->j", lam[:, column], np.column_stack([r.y for _, r in pairs]))


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

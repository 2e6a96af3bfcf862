"""Forward measurement maps and their exact coefficient Jacobians.

A measurement pairs an excitation functional ``l`` with a measurement
functional ``r``. With load vectors ``y_l``, ``y_r`` and the solution
``lam_l`` of ``B_sigma @ lam_l = y_l``, the measured value is

    ``F(sigma) = lam_l . y_r``

and its derivative with respect to the coefficient of pixel ``i`` is the
quadratic form ``-lam_l . (B_i @ lam_r)`` in the two solutions. For a
symmetric layout (the same functionals used as excitations and as
measurements) the full ``m x m`` matrix and all ``n`` Jacobian slices
follow from just ``m`` linear solves. The resulting matrix map is
symmetric positive semidefinite, monotonically non-increasing and convex
in the Loewner order, and grows pointwise under nested mesh refinement;
these properties are exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linsolve
from .assembly import LoadVector, StiffnessSet, assemble_load, assemble_pixel_matrices, global_matrix
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


def check_sigma(sigma, n: int) -> np.ndarray:
    """Validate a coefficient vector: ``n`` finite, strictly positive entries."""
    s = np.asarray(sigma, dtype=float).reshape(-1)
    if s.shape != (n,):
        raise ValueError(f"sigma must have {n} entries, got shape {s.shape}")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("all coefficient entries must be finite and > 0")
    return s


def _require_finite(s: np.ndarray, *outputs) -> None:
    """Refuse outputs that left the double-precision range instead of returning them."""
    if not all(np.isfinite(out).all() for out in outputs):
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

    Exploits the locality of each pixel matrix: only the rows/columns on
    the pixel's support contribute.
    """
    mj = left.shape[1]
    mk = right.shape[1]
    out = np.empty((stiffness.n, mj, mk))
    for i in range(stiffness.n):
        sup = stiffness.supports[i]
        if sup.size == 0:
            out[i] = 0.0
            continue
        out[i] = left[sup, :].T @ (stiffness.blocks[i] @ right[sup, :])
    return out


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
    s = check_sigma(sigma, stiffness.n)
    B = global_matrix(stiffness, s)
    lam_l = linsolve.solve_spd(B, y_l.y, tol=tol, max_iter=max_iter).solution
    lam_r = linsolve.solve_spd(B, y_r.y, tol=tol, max_iter=max_iter).solution
    value = float(lam_l @ y_r.y)
    forms = _pixel_quadratic_forms(stiffness, lam_l[:, None], lam_r[:, None])
    gradient = -forms[:, 0, 0]
    _require_finite(s, value, gradient)
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
    from the ``m`` solutions of ``B_sigma @ lam_j = y_j``; the solve count
    is instrumented and asserted to equal ``m``.

    Returns
    -------
    (MeasurementMatrix, JacobianStack)
    """
    if not loads:
        raise ValueError("need at least one load")
    s = check_sigma(sigma, stiffness.n)
    B = global_matrix(stiffness, s)
    Y = np.column_stack([ld.y for ld in loads])
    before = linsolve.solve_count()
    reports = linsolve.solve_multi(B, list(Y.T), tol=tol, max_iter=max_iter)
    used = linsolve.solve_count() - before
    m = len(loads)
    if used != m:
        raise AssertionError(f"expected exactly {m} solves, performed {used}")
    lam = np.column_stack([rep.solution for rep in reports])
    values = lam.T @ Y
    slices = -_pixel_quadratic_forms(stiffness, lam, lam)
    _require_finite(s, values, slices)
    return (
        MeasurementMatrix(values=values, loads=list(loads), solves_used=used),
        JacobianStack(slices=slices),
    )


def _solve_distinct(stiffness, sigma, loads, tol, max_iter):
    """Solutions for the distinct load objects among ``loads``."""
    B = global_matrix(stiffness, sigma)
    distinct = []
    index = {}
    for ld in loads:
        if id(ld) not in index:
            index[id(ld)] = len(distinct)
            distinct.append(ld)
    reports = linsolve.solve_multi(B, [ld.y for ld in distinct], tol=tol, max_iter=max_iter)
    solutions = {id(ld): rep.solution for ld, rep in zip(distinct, reports)}
    return solutions


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
    s = check_sigma(sigma, stiffness.n)
    solutions = _solve_distinct(stiffness, s, [ld for pair in pairs for ld in pair], tol, max_iter)
    values = np.array([float(solutions[id(l)] @ r.y) for l, r in pairs])
    jac = np.empty((len(pairs), stiffness.n))
    for q, (l, r) in enumerate(pairs):
        forms = _pixel_quadratic_forms(
            stiffness, solutions[id(l)][:, None], solutions[id(r)][:, None]
        )
        jac[q] = -forms[:, 0, 0]
    _require_finite(s, values, jac)
    return values, jac


def forward_pair_values(
    stiffness: StiffnessSet,
    sigma,
    pairs: list,
    tol: float = linsolve.DEFAULT_TOL,
    max_iter: int | None = None,
) -> np.ndarray:
    """Values only for (excitation, measurement) pairs; solves excitations only."""
    s = check_sigma(sigma, stiffness.n)
    solutions = _solve_distinct(stiffness, s, [l for l, _ in pairs], tol, max_iter)
    return np.array([float(solutions[id(l)] @ r.y) for l, r in pairs])


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
    s = check_sigma(sigma, stiffness.n)
    B = global_matrix(stiffness, s)
    Y = np.column_stack([ld.y for ld in loads])
    reports = linsolve.solve_multi(B, list(Y.T), tol=tol, max_iter=max_iter)
    lam = np.column_stack([rep.solution for rep in reports])
    return MeasurementMatrix(values=lam.T @ Y, loads=loads, solves_used=len(loads))

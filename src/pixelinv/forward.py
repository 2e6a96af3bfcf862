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

All maps but the sweep take one path: ``global_matrix`` validates ``sigma``
and forms ``B_sigma`` for the residuals, and ``linsolve.solve_multi`` solves
all loads in one block with a factor of ``B_sigma`` condensed onto the
skeleton (``StiffnessSet.condensation``): it condenses each zero-padded
panel of loads ``linsolve`` hands it, solves the Schur complement
``S_sigma`` by ``linsolve``'s band solver and lifts the pixel interiors
back, so no load's bits depend on the others. The Jacobian is contracted a
chunk of pixels at a time, from the pixel block all pixels share and the
solutions gathered onto their vertices, straight into the returned stack;
under a group of symmetries checked on the inputs, one pixel per orbit.
Pair values are one product of the distinct excitations' solutions with the
distinct measurement loads; a symmetric layout is all ``m*m`` pairs. The
number of back-substitutions is returned (``MeasurementMatrix.solves_used``).
The matrix map is symmetric positive semidefinite, monotonically
non-increasing and convex in the Loewner order, and grows pointwise under
nested mesh refinement; these properties are exercised by the test suite.

Pair values along a sweep of a few pixel coefficients take a second path
(:func:`forward_pair_sweep`): ``B_RR`` on the unknowns ``R`` off the swept
pixels is factored once by ``linsolve``'s band solver, and each distinct
sample condensed onto the rest ``S`` (static condensation). On a line of
samples differing only in the last swept pixel the condensed matrix is a
symmetric-definite pencil, reduced once per line by a Cholesky factor to an
eigenproblem on that pixel's unknowns (Golub & Van Loan, *Matrix Computations*,
4th ed., 8.7.2); the rest runs on batches of lines. A sample whose pencil
fails, or whose full residual or value fails its check, is solved again on its
own by :func:`forward_pair_values`: the sweep's one failure path. No numpy
warning pre-empts a check; a value that leaves the double range ends at one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dsyevd, dtrtri

from . import linsolve
from .assembly import (
    StiffnessSet,
    assemble_load,
    assemble_pixel_matrices,
    check_loads,
    check_sigma,
    global_matrix,
)
from .mesh import PixelGrid, build_mesh, lattice_symmetries, refine, refine_disk

__all__ = ["MeasurementMatrix", "JacobianStack", "check_sigma", "forward_matrix", "forward_pairs",
           "forward_pair_values", "forward_pair_sweep", "directional_derivative", "true_reference"]


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
    the j-th functional. ``solves_used`` counts the back-substitutions that
    produced it: one per functional, plus one per refinement step.
    """

    values: np.ndarray
    solves_used: int


@dataclass(frozen=True, eq=False)
class JacobianStack:
    """Per-pixel derivative slices of a measurement matrix.

    ``slices[i]`` is the ``m x m`` derivative of the measurement matrix with respect to pixel ``i``'s coefficient.
    ``group`` has a row per element ``(p, t)`` of a group with ``slices[p[i]][t[a], t[b]] == slices[i][a, b]``: its
    pixel, then its load permutation plus ``n``; the identity is first, and alone without a group. Only each pixel
    orbit's first slice (``orbits``) is stored, in ``orbit_slices``; ``slices`` gathers the rest on first read.
    """

    orbit_slices: np.ndarray
    group: np.ndarray = None

    def __post_init__(self):
        forms = np.asarray(self.orbit_slices, dtype=float)
        if forms.ndim != 3 or forms.shape[1] != forms.shape[2]:
            raise ValueError(f"Jacobian slices must form an (n, m, m) stack, got shape {forms.shape}")
        object.__setattr__(self, "orbit_slices", forms)
        object.__setattr__(self, "group", np.arange(sum(forms.shape[:2]))[None] if self.group is None else self.group)
        if len(self.orbits) != len(forms):
            raise ValueError(f"{len(forms)} slices given for the {len(self.orbits)} pixel orbits of the group")

    @property
    def n(self) -> int:
        return self.group.shape[1] - self.m

    @property
    def m(self) -> int:
        return self.orbit_slices.shape[1]

    @functools.cached_property
    def orbits(self) -> np.ndarray:
        """The first pixel of each pixel orbit, ascending."""
        return np.unique(self.group[:, :self.n].min(axis=0))

    @functools.cached_property
    def slices(self) -> np.ndarray:
        """All ``n`` slices: those stored, or their images under the group, gathered once."""
        if len(self.group) == 1:
            return self.orbit_slices
        out, n = np.empty((self.n, self.m, self.m)), self.n
        for p, t in zip(self.group[::-1, :n], self.group[::-1, n:] - n):  # the identity last: stored bits kept
            out[p[self.orbits]] = self.orbit_slices[:, t][:, :, t]
        return out

    def flattened(self) -> np.ndarray:
        """Measurements stacked row-major into an ``(m*m, n)`` matrix."""
        return self.slices.reshape(self.n, -1).T


# Bytes per step of the Jacobian contraction's gathered solutions (they set its memory
# peak) and of a sweep batch's eigenvectors and padded columns (larger was no faster).
_WORKING_BYTES = 1 << 18


def _pixel_quadratic_forms(stiffness: StiffnessSet, sigma, lam: np.ndarray, pixels, out: np.ndarray) -> np.ndarray:
    """``out[r, j, l] = -lam[:, j] . (B_i @ lam[:, l])`` for each pixel ``i = pixels[r]``, a chunk of
    pixels at a time, each gathered onto its vertices and checked for finiteness.
    ``lam`` ends in a zero row, which the -1 of a boundary vertex in ``dofs`` picks out."""
    s, m, dofs = stiffness.block.shape[0], lam.shape[1], stiffness.dofs[pixels]
    step = max(1, _WORKING_BYTES // (8 * s * m))
    for start in range(0, len(dofs), step):
        L = lam[dofs[start:start + step].T]  # (s, pixels, m)
        BL = (-stiffness.block @ L.reshape(s, -1)).reshape(L.shape)
        with np.errstate(all="ignore"):  # an overflow is refused by the check below
            np.matmul(L.transpose(1, 2, 0), BL.transpose(1, 0, 2), out=out[start:start + step])
        _require_finite(sigma, out[start:start + step])
    return out


def _condensed_factor(stiffness: StiffnessSet, sigma: np.ndarray):
    """``solve(R, out)``, the ``factor`` of :func:`linsolve.solve_multi` for ``B_sigma``: the skeleton's Schur
    complement (:class:`assembly.Condensation`) solved by ``linsolve._band_solver``, then the interiors lifted back
    into ``out``, whose zero last row a boundary edge vertex (-1) reads."""
    c = stiffness.condensation
    substitute = linsolve._band_solver(c.band(sigma))
    q, e = c.P.shape

    def solve(R, out):
        width = R.shape[1]
        R_I = np.take(R, c.interior.T, axis=0)  # (q, n, width)
        X_S = c.scatter @ (c.P.T @ R_I.reshape(q, stiffness.n * width)).reshape(c.edge.size, width)
        X_S += R[c.skeleton]
        out[c.skeleton] = substitute(X_S)
        R_I /= sigma[:, None]
        step = max(1, _WORKING_BYTES // (8 * e * width))  # the interiors lifted a few pixels at a time
        for p in range(0, stiffness.n, step):
            interior, edge = c.interior[p:p + step].T, c.edge[p:p + step].T
            X_I = c.K_II_inv @ R_I[:, p:p + step].reshape(q, edge.shape[1] * width)
            X_I += c.P @ out[edge].reshape(e, -1)
            out[interior] = X_I.reshape(*interior.shape, width)

    return solve


def _solve(stiffness: StiffnessSet, sigma, loads: list, tol):
    """Solution columns ``lam_j`` of ``B_sigma @ lam_j = y_j``, one per load,
    all against one factorization, above a zero row; the unknowns any load
    touches and the loads there; and the back-substitutions that took."""
    if not loads:
        raise ValueError("need at least one load")
    check_loads(stiffness, loads)
    B = global_matrix(stiffness, sigma)
    factor = _condensed_factor(stiffness, check_sigma(sigma, stiffness.n))
    rows = np.flatnonzero(np.any([ld.y for ld in loads], axis=0))
    Y = np.zeros((stiffness.N, len(loads)))
    Y[rows] = np.array([ld.y[rows] for ld in loads], dtype=float).T
    reports = linsolve.solve_multi(B, Y.T, tol=tol, factor=factor)  # solutions: columns of a block above a zero row
    return reports[0].solution.base[:, :len(loads)], (rows, Y[rows]), sum(1 + rep.iterations for rep in reports)


def _distinct(loads: list):
    """The distinct load objects among ``loads``, and the index of each entry
    of ``loads`` among them."""
    distinct = {id(ld): ld for ld in loads}
    column = {key: j for j, key in enumerate(distinct)}
    return list(distinct.values()), np.array([column[id(ld)] for ld in loads], dtype=np.int64)


def _measurement_matrix(stiffness: StiffnessSet, sigma, loads: list, tol):
    """Measurement matrix of a symmetric layout, plus the solutions behind it."""
    lam, (rows, values), used = _solve(stiffness, sigma, loads, tol)
    return MeasurementMatrix(values=lam[rows].T @ values, solves_used=used), lam


def _symmetry_group(stiffness: StiffnessSet, sigma, loads: list, symmetries) -> np.ndarray:
    """The :attr:`JacobianStack.group` of the commuting involutions ``(p, t)``, integer pixel and load permutations
    (element ``i`` composes the generators of the bits set in ``i``). Each generator must map, bitwise, the mesh (a
    pixel's vertices onto its image's by a :func:`mesh.lattice_symmetries` map that fixes the pixel block), ``sigma``
    and each load onto the one ``t`` names; then ``B_sigma``, each ``B_i``, the solutions and the stack move with it."""
    n, dofs, block = stiffness.n, stiffness.dofs, stiffness.block
    group = np.arange(n + len(loads))[None]
    if symmetries:  # what the generators must fix, read once
        check_loads(stiffness, loads)
        s, Y = check_sigma(sigma, n), np.array([ld.y for ld in loads]).reshape(-1, stiffness.N)
        maps = list(zip(*(lattice_symmetries(math.isqrt(size)) for size in (n, len(block), stiffness.N))))
    for i, (p, t) in enumerate(symmetries):
        g = np.concatenate([p, np.asarray(t) + n])  # float if either is: refused, not truncated
        if not (g.dtype.kind in "iu" and np.array_equal(np.sort(g), group[0]) and (g[:n] < n).all()
                and np.array_equal(g[group][:, g], group)):
            raise ValueError("symmetries must be commuting involutions, each a pixel and a load permutation")
        group, p, t = np.vstack([group, g[group]]), g[:n], g[n:] - n
        w = next((w for q, v, w in maps if np.array_equal(q, p) and np.array_equal(block[v][:, v], block)
                  and np.array_equal(np.append(w, -1)[dofs], dofs[p][:, v])), None)  # p's map of the unknowns, if any
        moved = ("the mesh" if w is None else "sigma" if not np.array_equal(s[p], s)
                 else "the loads" if not np.array_equal(Y.take(t, axis=0).take(w, axis=1), Y) else None)
        if moved:
            raise ValueError(f"the inputs are not invariant under the symmetries: symmetry {i} moves {moved}")
    return group


def forward_matrix(stiffness: StiffnessSet, sigma, loads: list, tol: float = linsolve.DEFAULT_TOL, *, symmetries=()):
    """Measurement matrix and Jacobian stack for a symmetric layout.

    All ``m*m`` matrix entries and the Jacobian slices are formed from the ``m`` solutions of
    ``B_sigma @ lam_j = y_j``; ``solves_used`` of the returned matrix counts their back-substitutions.
    The stack carries the group of ``symmetries``, commuting involutions ``(p, t)`` of pixels and loads
    checked exactly on the inputs (:func:`_symmetry_group`), and holds each pixel orbit's first slice only.

    Returns
    -------
    (MeasurementMatrix, JacobianStack)
    """
    group = _symmetry_group(stiffness, sigma, loads, symmetries)
    F, lam = _measurement_matrix(stiffness, sigma, loads, tol)
    _require_finite(sigma, F.values)
    orbits = np.unique(group[:, :stiffness.n].min(axis=0))  # as JacobianStack.orbits
    slices = _pixel_quadratic_forms(stiffness, sigma, lam, orbits, np.empty((orbits.size,) + F.values.shape))
    return F, JacobianStack(slices, group=group)


def forward_pairs(stiffness: StiffnessSet, sigma, pairs: list, tol: float = linsolve.DEFAULT_TOL):
    """Values and Jacobian rows for arbitrary (excitation, measurement) pairs.

    ``pairs`` is a list of ``(y_l, y_r)`` LoadVector tuples. Returns a
    vector of the ``p`` values and a ``(p, n)`` Jacobian. Each distinct
    load object is solved once, the excitations first. The Loewner-order
    structure of symmetric layouts does not apply to such plain vectors.
    """
    distinct, column = _distinct([y_l for y_l, _ in pairs] + [y_r for _, y_r in pairs])
    lam, d = _solve(stiffness, sigma, distinct, tol)[0], len(distinct)
    forms = _pixel_quadratic_forms(stiffness, sigma, lam, np.arange(stiffness.n), np.empty((stiffness.n, d, d)))
    return _pair_values(sigma, lam, pairs), forms[:, column[:len(pairs)], column[len(pairs):]].T


def forward_pair_values(stiffness: StiffnessSet, sigma, pairs: list, tol: float = linsolve.DEFAULT_TOL) -> np.ndarray:
    """Values only for (excitation, measurement) pairs; solves excitations only, as :func:`forward_pairs` does.

    :func:`forward_pair_sweep` solves a sample that misses its tolerance with this."""
    check_loads(stiffness, [y_r for _, y_r in pairs])  # _solve checks the excitations
    return _pair_values(sigma, _solve(stiffness, sigma, _distinct([y_l for y_l, _ in pairs])[0], tol)[0], pairs)


def _pair_values(sigma, lam: np.ndarray, pairs: list) -> np.ndarray:
    """``lam_l . y_r`` per pair: ``lam``'s first columns, the excitations', times the distinct measurement loads."""
    excitations, left = _distinct([y_l for y_l, _ in pairs])
    measurements, right = _distinct([y_r for _, y_r in pairs])
    with np.errstate(all="ignore"):  # an overflow is refused by the check below
        lam_e = np.ascontiguousarray(lam[:-1, :len(excitations)])  # one layout, so the two maps' products agree
        values = (lam_e.T @ np.column_stack([r.y for r in measurements]))[left, right]
    _require_finite(sigma, values)
    return values


# Most samples of a line decomposed at once, so memory does not grow with the
# line; above any landscape line (1,000 points and the truth).
_LINE_PIECE = 1024


def _apply(matrix, x: np.ndarray) -> np.ndarray:
    """``matrix`` applied along the first axis of ``x`` in one product; a stack, ``matrix[i]`` along ``x[i]``'s."""
    lead, rest = x.shape[:matrix.ndim - 2], x.shape[matrix.ndim - 1:]
    flat = x.reshape(*lead, x.shape[len(lead)], math.prod(rest))
    return (matrix @ flat).reshape(*lead, matrix.shape[-2], *rest)


def _pencil_data(K_q):
    """What :func:`_pencil_eigh` needs of ``K_q``, for any number of ``A``: the flat gather of ``P A P^T``, ``P`` the
    stable ordering that puts the rows ``Q`` of ``K_q``'s nonzero diagonal last; ``P``'s inverse; and ``K_QQ``."""
    n, order = len(K_q), np.argsort(K_q.diagonal() != 0.0, kind="stable")
    Q = order[np.count_nonzero(K_q.diagonal() == 0.0):]
    return order[:, None] * n + order, np.argsort(order), K_q.take(Q[:, None] * n + Q)


def _pencil_eigh(A, gather, inverse, K_QQ):
    """``scipy.linalg.eigh(K_q, A)``, errors included, for a positive semidefinite ``K_q`` zero off the rows and
    columns ``Q`` of its nonzero diagonal, given as ``_pencil_data(K_q)``. With ``Q`` ordered last (``P``),
    ``A = L L^T`` (``dpotrf``) leaves ``C = L_Q^-1 K_QQ L_Q^-T`` the only nonzero block of ``L^-1 K_q L^-T``, and
    ``C = Z diag(mu_Q) Z^T`` (``dsyevd``) gives ``V = P^T L^-T diag(I, Z)`` and ``mu = (0, mu_Q)``."""
    q = len(A) - len(K_QQ)
    U, info = dpotrf(np.asarray_chkfinite(A).take(gather).T)  # U^T U = P A P^T
    if info:
        raise np.linalg.LinAlgError(f"the leading minor of order {info} is not positive definite")
    T = dtrtri(U, overwrite_c=1)[0]  # U^-1 = L^-T, so T[q:, q:] is L_Q^-T
    mu, Z, info = dsyevd((T[q:, q:].T @ K_QQ @ T[q:, q:]).T, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"{info} eigenvalues of the pencil did not converge")
    T[:, q:] = T[:, q:] @ Z  # T is now P V
    return np.concatenate([np.zeros(q), mu]), T[inverse]


def forward_pair_sweep(stiffness: StiffnessSet, sigma, pixels, samples, pairs: list,
                       tol: float = linsolve.DEFAULT_TOL) -> np.ndarray:
    """Pair values along a sweep of a few pixel coefficients.

    Row ``j`` of the returned ``(P, p)`` array holds the ``p`` pair values
    at ``sigma`` with ``sigma[pixels] = samples[j]``, for each of the ``P``
    rows of ``samples``.

    ``S`` are the unknowns on the swept pixels' vertices and ``R`` the rest; the four blocks of
    ``B_sigma`` are cut by ranges from one symmetric permutation that puts ``R`` first. ``B_RR`` is
    solved for the distinct excitations (``U``) and the ``|S|`` columns of ``B_RS``
    (``W``): a sweep costs that many solves, whatever ``P`` is. The Schur complement is
    formed without the swept pixels' blocks, so ``sigma[pixels]`` never enters the
    samples' matrices. Each distinct sample is computed once, so repeated ones agree to
    the bit. On a line, ``M`` is that complement plus the other pixels' blocks (``K_j``,
    the shared pixel block placed on ``S``) at their samples, and ``t`` the last pixel
    ``q``'s sample. The pencil is decomposed once per piece (a line, or 1,024 samples of a
    longer one) at ``rho``, the geometric mean of its extreme ``t``:
    ``K_q V = (M + rho K_q) V diag(mu)`` gives ``0 <= mu <= 1 / rho``, so every
    ``1 + (t - rho) mu`` is within ``sqrt(max / min)`` of 1. As ``K_q`` is zero off
    ``q``'s unknowns, :func:`_pencil_eigh` solves an eigenproblem of their order only. All
    else runs on batches of pieces, each padded to the batch's longest with its last
    sample. Each sample's ``lam_S`` gets one correction against ``M + t K_q``, which makes
    it as accurate as a direct solve. Every sample's relative residual ``||B_sample lam - y|| / ||y||``
    is formed and checked against ``tol``: rows ``S`` from ``M + t K_q``, rows ``R`` (``E_W lam_S - e_U``)
    from one reduced QR ``[E_W, e_U] = Q [[R_E, Q_E^T e_U], [0, D]]`` taken at set-up, by the identity
    ``||E_W x - e_U||^2 = ||R_E x - Q_E^T e_U||^2 + ||(I - Q_E Q_E^T) e_U||^2`` (the last term a squared
    column of ``D``): ``|S| + e`` rows a sample, or ``|R|`` if fewer. A sample whose residual misses
    ``tol`` (or is NaN), whose value is not finite or whose piece cannot be decomposed is solved again on
    its own by :func:`forward_pair_values`: one more solve, and the sweep's one failure path.

    Raises
    ------
    ValueError
        If ``pixels`` is empty or has repeated, out-of-range or non-integer entries,
        ``samples`` is not ``(P, len(pixels))``, ``pairs`` is empty or from another mesh,
        ``sigma`` or a sample is not finite and strictly positive, or a sample's own solve
        overflows ``B_sigma``.
    linsolve.SolverError
        If the set-up solve misses ``tol``, or a sample's own solve fails: it names the
        sample and why it went there, and carries the sweep's residual (NaN if undecomposed).
    """
    if not pairs:
        raise ValueError("need at least one load")
    check_loads(stiffness, [ld for pair in pairs for ld in pair])
    B = global_matrix(stiffness, sigma)
    base = np.asarray(sigma, dtype=float).reshape(-1)
    pixels = np.asarray(pixels).reshape(-1)  # a float or bool index is refused, not truncated
    if not pixels.size or pixels.dtype.kind not in "iu" or len({*pixels.tolist()} & {*range(stiffness.n)}) < pixels.size:
        raise ValueError(f"pixels must be one or more distinct integer indices below {stiffness.n}, "
                         f"got {pixels.tolist()}")
    pixels = pixels.astype(np.int64)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != pixels.size:
        raise ValueError(f"samples must have shape (P, {pixels.size}), got {samples.shape}")
    check_sigma(samples, samples.size)

    dofs = stiffness.dofs[pixels]
    swept = np.zeros(stiffness.N + 1, dtype=bool)
    swept[dofs] = True  # a boundary -1 lands on the spare last entry
    S, R = np.flatnonzero(swept[:-1]), np.flatnonzero(~swept[:-1])
    # B_sigma without the swept pixels' blocks, which touch S only: they enter
    # through the samples only, so no sample's matrix cancels sigma[pixels]
    # back out of B_SS (at a contrast of 1e4 that cancellation costs four digits).
    outside = base.copy()
    outside[pixels] = 0.0
    B.data = stiffness.C @ outside
    RS, r = np.concatenate([R, S]), R.size
    B = B[RS][:, RS]  # one symmetric permutation, cut into the four blocks by ranges
    B_RR, B_RS, B_SR, B_SS = B[:r, :r], B[:r, r:].toarray(), B[r:, :r], B[r:, r:].toarray()
    excitations, left = _distinct([y_l for y_l, _ in pairs])
    Y, e = np.column_stack([ld.y for ld in excitations]), len(excitations)
    Y_r = np.column_stack([r.y for _, r in pairs])
    reports = linsolve.solve_multi(B_RR, list(Y[R].T) + list(B_RS.T), tol=tol)
    solved = np.column_stack([rep.solution for rep in reports])
    U, W = solved[:, :e], solved[:, e:]  # B_RR^{-1} y_R and B_RR^{-1} B_RS
    schur = B_SS - B_SR @ W
    load_S = Y[S] - B_SR @ U
    # With lam_R = U - W lam_S, rows R of y - B lam are E_W lam_S - e_U (normed by QR_E); values lam_S . G + offset.
    QR_E = np.linalg.qr(np.column_stack([B_RR @ W - B_RS, B_RR @ U - Y[R]]), mode="r")
    G, offset = Y_r[S] - W.T @ Y_r[R], np.einsum("ij,ij->j", U[:, left], Y_r[R])
    free, at = dofs >= 0, np.searchsorted(S, dofs)
    j, a, b = np.nonzero(free[:, :, None] & free[:, None, :])
    K = np.zeros((pixels.size, S.size, S.size))
    K[j, at[j, a], at[j, b]] = stiffness.block[a, b]  # K_j: the shared block on pixel j's free vertices
    own, pencil = [(at[j, f], K_j, K_j.sum(axis=1)[:, None, None])  # P_j, K_j and K_j 1, exact
                   for j, f in enumerate(free) for K_j in [stiffness.block[np.ix_(f, f)]]], _pencil_data(K[-1])

    def residual_S(X, s):
        """``load_S - (schur + sum_j s_j K_j) X`` for the samples ``s``, (p, n).

        Each ``K_j X`` is ``K_j (X_P - c) + c K_j 1`` on pixel ``j``'s unknowns ``P``, ``c`` the mean of ``X_P``: on a
        pixel of high coefficient ``lam_S`` is nearly constant, so ``K_j X`` as it stands loses the contrast's digits.
        """
        r = load_S[:, None] - _apply(schur, X)
        for (P, K_j, K_j1), s_j in zip(own, s):
            X_P = X[P]
            c = X_P.mean(axis=0)
            r[P] -= s_j[:, None] * (_apply(K_j, X_P - c) + K_j1 * c)
        return r

    y_norm = linsolve._norms(Y) + ~Y.any(axis=0)  # a zero load: zero solution, residual 0
    # Lines of equal heads, sorted; changed[k]: the first sample, or first k coefficients unlike the previous sample's.
    order = np.lexsort(samples.T[::-1])
    changed = np.zeros((pixels.size + 1, len(samples)), dtype=bool)
    changed[:, :1] = True
    for k in range(pixels.size):  # a column at a time: no temporary of all the samples' coefficients
        np.logical_or(changed[k, 1:], np.diff(samples[:, k].take(order)) != 0, out=changed[k + 1, 1:])
    line, new = changed[-2:]  # a sample that starts a line, and one that is not a repeat
    first, where = order[new], np.empty_like(order)  # where each distinct sample first appears
    where[order] = np.cumsum(new) - 1  # each sample's distinct row
    del order  # not held through the batches
    distinct, place = np.take(samples, first, axis=0), np.arange(first.size)
    place -= np.maximum.accumulate(np.where(line[new], place, 0))  # each distinct sample's place in its line
    bounds = np.append(np.flatnonzero(place % _LINE_PIECE == 0), len(distinct))
    count = max(1, _WORKING_BYTES // max(1, 8 * (S.size ** 2 + np.diff(bounds).max(initial=0) * stiffness.N * e)))
    values = np.empty((len(distinct), len(pairs)))
    for batch in range(0, len(bounds) - 1, count):  # batches of `count` pieces
        starts, stops = bounds[:-1][batch:batch + count], bounds[1:][batch:batch + count]
        rows = np.minimum(starts[:, None] + np.arange((stops - starts).max()), stops[:, None] - 1)  # (pieces, L)
        s = distinct[rows.ravel()].T
        t = s[-1].reshape(rows.shape)  # the last pixel's samples, ascending in a piece
        with np.errstate(all="ignore"):  # a non-finite intermediate ends at the residual check below
            rho = np.sqrt(t[:, 0]) * np.sqrt(t[:, -1])  # t.min() * t.max() can leave the double range
            M = schur + np.einsum("ph,hij->pij", distinct[starts, :-1], K[:-1])  # each piece's, (pieces, |S|, |S|)
            mu, V = np.empty((len(starts), S.size)), np.empty((len(starts), S.size, S.size))
            for i in range(len(starts)):
                try:  # (M + t K_q)^{-1} = V diag(D) V^T for each sample of the piece
                    mu[i], V[i] = _pencil_eigh(M[i] + rho[i] * K[-1], *pencil)
                except (np.linalg.LinAlgError, ValueError):  # not definite in double precision, or overflowed:
                    mu[i] = np.nan  # so each sample of the piece is solved on its own
            D, Vt = (1.0 / (1.0 + (t - rho[:, None])[:, None] * mu[:, :, None]))[..., None], V.transpose(0, 2, 1)
            X = _apply(V, D * (Vt @ load_S)[:, :, None]).transpose(1, 0, 2, 3).reshape(S.size, t.size, e)  # lam_S
            # One correction against M + t K_q: at high contrast in S the decomposition alone is less accurate.
            r = residual_S(X, s).reshape(S.size, *t.shape, e).transpose(1, 0, 2, 3)
            X += _apply(V, D * _apply(Vt, r)).transpose(1, 0, 2, 3).reshape(X.shape)
            r_R, r_S = _apply(QR_E[:, :S.size], X) - QR_E[:, S.size:][:, None], residual_S(X, s)  # Q^T times rows R
            worst = (np.hypot(linsolve._norms(r_R), linsolve._norms(r_S)) / y_norm).max(1)
            found = offset + np.einsum("smp,sp->mp", X[:, :, left], G)  # from lam_S and lam_R = U - W lam_S
        kept = (np.arange(rows.shape[1]) < (stops - starts)[:, None]).ravel()  # unpadded
        values[starts[0]:stops[-1]] = found[kept]
        served = (worst <= tol) & np.isfinite(found).all(axis=1)  # a NaN residual is not served
        for i in np.flatnonzero(kept & ~served):  # a sample its pencil cannot serve is solved on its own
            d = rows.flat[i]
            point = base.copy()
            point[pixels] = distinct[d]
            try:
                values[d] = forward_pair_values(stiffness, point, pairs, tol)
            except linsolve.SolverError as err:
                why = ("lies on a pencil that could not be decomposed" if np.isnan(mu[i // rows.shape[1]]).any()
                       else f"missed tolerance {tol} (achieved relative residual {worst[i]:.3e})"
                       if not worst[i] <= tol else "has a value that is not finite")
                raise linsolve.SolverError(
                    f"sweep sample {first[d] + 1} of {samples.shape[0]} (coefficients {distinct[d].tolist()} on "
                    f"pixels {pixels.tolist()}) {why}, and its own solve failed: {err}",
                    residual_norm=float(worst[i]), iterations=0,
                ) from err
    return np.take(values, where, axis=0)


def directional_derivative(jac: JacobianStack, tau) -> np.ndarray:
    """Contraction ``sum_i tau_i * slices[i]`` of the Jacobian stack.

    For a symmetric layout and elementwise-nonnegative ``tau`` the result
    is negative semidefinite (raising any coefficient can only lower the
    measurement matrix in the Loewner order).
    """
    t = np.asarray(tau, dtype=float).reshape(-1)
    if t.shape != (jac.n,):
        raise ValueError(f"direction must have {jac.n} entries, got {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError(f"direction must be finite, got {t.tolist()}")
    return np.tensordot(t, jac.slices, axes=([0], [0]))


def true_reference(grid: PixelGrid, disks: list, sigma, k: int, k_max: int,
                   tol: float = linsolve.DEFAULT_TOL) -> MeasurementMatrix:
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

"""P1 stiffness assembly with per-pixel splitting and Dirichlet elimination.

The diffusion bilinear form restricted to pixel ``i`` yields a sparse
symmetric positive-semidefinite matrix ``B_i`` over the interior-vertex
unknowns, and the operator for a coefficient vector ``sigma`` is

    ``B_sigma = sum_i sigma_i * B_i``.

:class:`StiffnessSet` holds this family once: one dense block of exact
half-integers over a pixel's vertices, which all pixels share (each holds
the same triangles, translated), and the sparse map ``C`` from ``sigma``
to the values of ``B_sigma`` on one fixed CSR pattern. As ``sigma`` is
constant on each pixel, the static condensation of the pixel interiors
(:class:`Condensation`) does not depend on it either; it is built once,
on first use. Homogeneous Dirichlet data is imposed by deleting boundary
rows/columns, which keeps ``B_sigma`` exactly symmetric positive definite.
:func:`assemble_global` builds ``B_sigma`` element by element instead, as
an independent oracle.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linsolve import _band_solver
from .mesh import DiskSpec, PixelGrid, TriMesh, _check_integer, _read_only

__all__ = ["StiffnessSet", "check_sigma", "check_loads", "LoadVector", "element_stiffness", "assemble_pixel_matrices",
           "assemble_global", "global_matrix", "assemble_load"]

# Bytes per step of the lifted interiors, of the Jacobian contraction's gathered solutions (they set its memory
# peak) and of a sweep batch's eigenvectors and padded columns (larger was no faster).
_WORKING_BYTES = 1 << 18


def element_stiffness(vertices) -> np.ndarray:
    """3x3 stiffness matrix of a single triangle.

    Entry ``(a, b)`` is ``area * grad(L_a) . grad(L_b)`` for the linear
    nodal basis ``L_a`` on the triangle. The result is symmetric positive
    semidefinite with zero row sums, and invariant under uniform scaling
    of the triangle.

    Raises
    ------
    ValueError
        If the triangle is degenerate, negatively oriented or not finite.
    """
    v = np.asarray(vertices, dtype=float)
    if v.shape != (3, 2):
        raise ValueError(f"expected three 2D vertices, got shape {v.shape}")
    x, y = v.T.tolist()  # Python floats: an infinite vertex gives a NaN area without a numpy warning
    twice_area = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    if not 0 < twice_area < np.inf:  # a NaN fails both comparisons
        raise ValueError(
            f"triangle has area {0.5 * twice_area}, not positive and finite; vertices "
            "must be finite, distinct and counter-clockwise"
        )
    # Gradient of L_a is (b_a, c_a) / (2*area) with the classic coefficients.
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    return (np.outer(b, b) + np.outer(c, c)) / (2.0 * twice_area)


def check_sigma(sigma, n: int) -> np.ndarray:
    """Validate a coefficient vector: ``n`` finite, strictly positive entries.

    Positivity is what makes the operator coercive, hence ``B_sigma`` SPD.
    """
    s = np.asarray(sigma, dtype=float).reshape(-1)
    if s.shape != (n,):
        raise ValueError(f"sigma must have {n} entries, got shape {s.shape}")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("all coefficient entries must be finite and > 0")
    return s


def check_loads(stiffness: StiffnessSet, loads: list) -> None:
    """Refuse an empty ``loads``, a load of another mesh (a ``y`` without ``N`` entries, or a disk of another
    ``(nx, k)``) and one with an entry that is not finite, named by its place in ``loads``; each load is read once."""
    if not loads:
        raise ValueError("need at least one load")
    mesh = (math.isqrt(stiffness.n), math.isqrt(stiffness.block.shape[0]) - 1)
    for ld in {id(ld): ld for ld in loads}.values():
        if ld.y.shape != (stiffness.N,) or ld.disk is not None and ld.disk.mesh != mesh:
            raise ValueError(f"load of {ld.y.size} entries from the mesh (nx, k) = {getattr(ld.disk, 'mesh', None)} "
                             f"used with the stiffness set of the mesh {mesh}, {stiffness.N} unknowns")
        if not ld._finite:  # a LoadVector equals only itself, so index finds its first place
            raise ValueError(f"load {loads.index(ld) + 1} of {len(loads)} has an entry that is not finite")


@dataclass(frozen=True, eq=False)
class StiffnessSet:
    """The affine family ``B_sigma = sum_i sigma_i B_i`` over the interior unknowns.

    Attributes
    ----------
    dofs : (n, s) int array
        Row ``i`` lists the unknown index of each of the ``s = (k+1)^2``
        vertices of pixel ``i``, or -1 for an eliminated boundary vertex.
    block : (s, s) float array
        Dense stiffness of a pixel over its vertices, boundary ones
        included, the same exact half-integers for every pixel, so that
        ``B_i = block`` restricted to the free ``dofs[i]``.
    pattern : (N, N) CSR matrix
        The sparsity pattern of every ``B_sigma`` (entries are ones),
        structural zeros included; it is the pattern of
        :func:`assemble_global`. Canonical: sorted indices, no duplicates.
    C : (nnz, n) CSR matrix
        Column ``i`` holds the entries of ``B_i`` on ``pattern``, so that
        ``global_matrix(stiffness, sigma).data == C @ sigma``; row ``r``
        lists, by ascending pixel, the block entries landing on entry
        ``r`` of ``pattern``.
    condensation : Condensation
        Cached on first use, by :meth:`skeleton_factor` at k >= 3 only.
    """

    dofs: np.ndarray
    block: np.ndarray = field(repr=False)
    pattern: sp.csr_matrix = field(repr=False)
    C: sp.csr_matrix = field(repr=False)
    __post_init__ = _read_only

    @property
    def n(self) -> int:
        """Number of pixels."""
        return self.dofs.shape[0]

    @property
    def N(self) -> int:
        """Number of interior-vertex unknowns."""
        return self.pattern.shape[0]

    def pixel_matrix(self, i: int) -> sp.csr_matrix:
        """``B_i`` as an (N, N) CSR matrix, stored only on pixel ``i``'s vertices."""
        _check_integer("pixel", i)
        if not 0 <= i < self.n:
            raise IndexError(f"pixel {i} outside {math.isqrt(self.n)}x{math.isqrt(self.n)} grid")
        col = self.C[:, [i]].tocoo()
        rows = np.repeat(np.arange(self.N), np.diff(self.pattern.indptr))
        return sp.csr_matrix(
            (col.data, (rows[col.row], self.pattern.indices[col.row])), shape=self.pattern.shape
        )

    def skeleton_factor(self, sigma):
        """The ``factor`` :func:`linsolve.solve_multi` takes for ``B_sigma`` in the forward maps: the skeleton's
        (:meth:`Condensation.factor`) from k = 3, else ``None``, so that ``B_sigma``'s own band is factored.

        Below k = 3 a pixel has at most one interior unknown, yet the skeleton's band is ``nx (k - 1)`` wider than
        ``B_sigma``'s ``nx k``: with ``forward_matrix`` on a warm stiffness set (one thread, ``BENCH_33.json``) the
        skeleton was 4-17 % slower at k = 2 (nx 3..30) and 1-43 % faster at k = 3..8 (nx <= 15)."""
        return self.condensation.factor(check_sigma(sigma, self.n)) if len(self.block) >= 16 else None  # (k + 1)^2

    @functools.cached_property
    def condensation(self) -> Condensation:
        """The static condensation onto the skeleton, built on first use."""
        k = math.isqrt(self.block.shape[0]) - 1
        iy, ix = np.divmod(np.arange((k + 1) ** 2), k + 1)
        inside = (ix > 0) & (ix < k) & (iy > 0) & (iy < k)
        K_II, K_IE = self.block[inside][:, inside], self.block[inside][:, ~inside]
        P = -np.linalg.solve(K_II, K_IE)
        S_ref = self.block[~inside][:, ~inside] + K_IE.T @ P
        # Skeleton numbers ascend with the local vertex order within a pixel.
        edge = self.dofs[:, ~inside]
        on_edge = np.zeros(self.N + 1, dtype=bool)
        on_edge[edge] = True
        skeleton = np.flatnonzero(on_edge[:-1])
        number = np.full(self.N + 1, -1)  # -1 stays -1 for a boundary vertex
        number[skeleton] = np.arange(skeleton.size)
        local = number[edge]
        a, b = np.triu_indices(edge.shape[1])
        kept = (local[:, a] >= 0) & (local[:, b] >= 0)
        row, col = local[:, a][kept], local[:, b][kept]
        bandwidth = int((col - row).max(initial=0))
        free, into = local >= 0, np.arange(edge.shape[1]) * self.n + np.arange(self.n)[:, None]
        return Condensation(
            skeleton=skeleton, interior=self.dofs[:, inside], edge=edge, P=P, K_II_inv=np.linalg.inv(K_II),
            scatter=sp.csr_matrix((np.ones(free.sum()), (local[free], into[free])), shape=(skeleton.size, edge.size)),
            bandwidth=bandwidth, band_position=bandwidth + row + bandwidth * col, band_pixel=np.nonzero(kept)[0],
            band_value=np.broadcast_to(0.5 * (S_ref + S_ref.T)[a, b], kept.shape)[kept],
        )


@dataclass(frozen=True, eq=False)
class Condensation:
    """``B_sigma`` condensed onto its skeleton, the free unknowns on pixel
    edges (static condensation, Wilson 1974).

    A pixel's ``q = (k-1)^2`` interior unknowns couple only to its ``4k``
    edge vertices, through blocks that scale with the same ``sigma_i``, so
    ``P = -K_II^-1 K_IE`` and ``S_ref = K_EE + K_EI P`` of the shared block
    do not depend on ``sigma``: ``S_sigma = sum_i sigma_i S_ref`` on the
    skeleton, the condensed load is ``y_skel + sum_i P^T y_I,i``, and
    ``lam_I,i = P lam_E,i + K_II^-1 y_I,i / sigma_i``. ``interior`` and
    ``edge`` hold each pixel's unknowns (-1 on the boundary); ``scatter``
    adds row ``a n + i``, edge vertex ``a`` of pixel ``i``, onto the
    skeleton; each upper entry of every pixel's ``S_ref`` has a place in
    the flattened transpose of LAPACK's upper band storage, a pixel and a
    value. With ``k = 1`` there is no interior and ``S_ref`` is the block.
    """

    skeleton: np.ndarray
    interior: np.ndarray
    edge: np.ndarray
    P: np.ndarray
    K_II_inv: np.ndarray
    scatter: sp.csr_matrix
    bandwidth: int
    band_position: np.ndarray
    band_pixel: np.ndarray
    band_value: np.ndarray
    __post_init__ = _read_only

    def band(self, sigma: np.ndarray) -> np.ndarray:
        """``S_sigma``'s upper band, ``(b + 1, Ns)`` in Fortran order."""
        weights = sigma[self.band_pixel] * self.band_value
        size = (self.bandwidth + 1) * self.skeleton.size
        return np.bincount(self.band_position, weights, size).reshape(-1, self.bandwidth + 1).T

    def factor(self, sigma: np.ndarray):
        """``solve(R, out)``, a ``factor`` of :func:`linsolve.solve_multi` for ``B_sigma`` at the checked ``sigma``:
        a panel ``R`` condensed onto the skeleton, ``S_sigma`` solved by ``linsolve``'s band solver, then the interiors
        lifted back into ``out``, whose zero last row a boundary edge vertex (-1) reads."""
        substitute = _band_solver(self.band(sigma))
        (q, e), n = self.P.shape, len(self.interior)

        def solve(R, out):
            width = R.shape[1]
            R_I = np.take(R, self.interior.T, axis=0)  # (q, n, width)
            X_S = self.scatter @ (self.P.T @ R_I.reshape(q, n * width)).reshape(self.edge.size, width)
            X_S += R[self.skeleton]
            out[self.skeleton] = substitute(X_S)
            R_I /= sigma[:, None]
            step = max(1, _WORKING_BYTES // (8 * e * width))  # the interiors lifted a few pixels at a time
            for p in range(0, n, step):
                interior, edge = self.interior[p:p + step].T, self.edge[p:p + step].T
                X_I = self.K_II_inv @ R_I[:, p:p + step].reshape(q, edge.shape[1] * width)
                X_I += self.P @ out[edge].reshape(e, -1)
                out[interior] = X_I.reshape(*interior.shape, width)

        return solve


def assemble_pixel_matrices(mesh: TriMesh, grid: PixelGrid | None = None) -> StiffnessSet:
    """Assemble the per-pixel stiffness family of ``mesh``.

    The shared block sums pixel 0's element matrices, one per distinct
    triangle shape on integer lattice coordinates, so it is exact.
    Boundary rows and columns are dropped when ``C`` is formed, so every
    ``B_i`` acts on the ``N`` interior unknowns. ``pattern`` and ``C`` are
    written straight into CSR from one stable sort of the entries'
    ``row * N + col`` keys (the block's structural pairs on every pixel,
    both vertices free), with no hash table and no format conversion.
    """
    if grid is None:
        grid = mesh.grid
    elif grid.nx != mesh.grid.nx:
        raise ValueError("mesh was built for a different pixel grid")

    # Vertex (ix, iy) of the lattice is number iy*(S+1) + ix; pixel (px, py)
    # owns the vertices with ix in px*k .. px*k+k and iy in py*k .. py*k+k.
    k, side = mesh.k, grid.nx * mesh.k + 1
    s = (k + 1) ** 2
    py, px = np.divmod(np.arange(grid.n), grid.nx)
    corner = (py * side + px) * k
    local = (np.arange(k + 1)[:, None] * side + np.arange(k + 1)).ravel()
    dofs = mesh.free_index[corner[:, None] + local]

    # Pixel 0's triangles on integer coordinates (its corner is vertex 0). A
    # shape is the offsets from the first corner, each -1, 0 or 1: six digits.
    xy = np.stack(np.divmod(mesh.triangles[mesh.element_pixel == 0], side)[::-1], axis=2)
    slot = xy @ np.array([1, k + 1])
    codes = (xy - xy[:, :1] + 1).reshape(-1, 6) @ 3 ** np.arange(6)
    _, first, shape = np.unique(codes, return_index=True, return_inverse=True)
    K = np.array([element_stiffness(xy[t]) for t in first])[shape]
    flat = (slot[:, :, None] * s + slot[:, None, :]).ravel()
    block = np.bincount(flat, weights=K.ravel(), minlength=s * s).reshape(s, s)

    # Entries of B_i: the block's vertex pairs (a, b) sharing a triangle, both
    # free, keyed row * N + col. They come pixel by pixel, so a stable sort
    # leaves each key's pixels ascending; a key differing from the one before
    # starts a row of C and an entry of the pattern.
    a, b = np.divmod(np.flatnonzero(np.bincount(flat, minlength=s * s)), s)
    free = dofs >= 0
    keep = free[:, a] & free[:, b]
    N = mesh.n_free
    keys = (dofs[:, a] * N + dofs[:, b])[keep]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    row = keys[start] // N  # keys is empty when N is 0
    indptr = np.concatenate(([0], np.bincount(row, minlength=N).cumsum()))
    pattern = sp.csr_matrix((np.ones(start.size), keys[start] - row * N, indptr), shape=(N, N))
    pixel = np.broadcast_to(np.arange(grid.n, dtype=np.int32)[:, None], keep.shape)[keep][order]
    value = np.broadcast_to(block[a, b], keep.shape)[keep][order]
    C = sp.csr_matrix((value, pixel, np.append(start, keys.size)), shape=(start.size, grid.n))
    return StiffnessSet(dofs=dofs, block=block, pattern=pattern, C=C)


def global_matrix(stiffness: StiffnessSet, sigma) -> sp.csr_matrix:
    """Form ``B_sigma = sum_i sigma_i B_i`` for a positive coefficient.

    Raises
    ------
    ValueError
        If ``sigma`` has the wrong length or an entry that is not finite
        and strictly positive, or if an entry of ``B_sigma`` overflows.
    """
    s = check_sigma(sigma, stiffness.n)
    data = stiffness.C @ s
    if not np.all(np.isfinite(data)):
        raise ValueError(
            f"B_sigma overflows at the largest coefficient {s.max():.6g}; "
            "scale sigma down (F(c sigma) = F(sigma) / c)"
        )
    pattern = stiffness.pattern
    return sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape)


def assemble_global(mesh: TriMesh, grid: PixelGrid, sigma) -> sp.csr_matrix:
    """Assemble ``B_sigma`` directly by weighting element matrices.

    Independent of the pixel-family route: each element matrix comes from
    :func:`element_stiffness` and is scattered with weight
    ``sigma[pixel(element)]``. Used to cross-check the identities
    ``B_i = B_{1+e_i} - B_1`` and ``B_1 = sum_i B_i``.
    """
    s = np.asarray(sigma, dtype=float).reshape(-1)
    if s.shape != (grid.n,):
        raise ValueError(f"sigma must have {grid.n} entries, got {s.shape}")
    K = np.array([element_stiffness(mesh.vertices[tri]) for tri in mesh.triangles]).reshape(-1, 3, 3)
    f = mesh.free_index[mesh.triangles]
    t, a, b = np.nonzero((f[:, :, None] >= 0) & (f[:, None, :] >= 0))
    N = mesh.n_free
    # tocsr sums the duplicates, which sorts the indices too.
    return sp.coo_matrix((K[t, a, b] * s[mesh.element_pixel[t]], (f[t, a], f[t, b])), shape=(N, N)).tocsr()


@dataclass(frozen=True, eq=False)
class LoadVector:
    """Assembled right-hand side of a disk-indicator excitation.

    ``y[j]`` is the integral of the j-th interior hat function over the
    resolved disk region; entries are nonnegative and vanish for vertices
    not touching the disk's elements.
    """

    y: np.ndarray
    disk: DiskSpec | None
    __post_init__ = _read_only

    @functools.cached_property
    def _finite(self) -> bool:
        """Whether every entry of ``y`` is finite, read once per load, as ``y`` is read-only."""
        return bool(np.isfinite(self.y).all())


def assemble_load(mesh: TriMesh, disk: DiskSpec) -> LoadVector:
    """Integrate interior hat functions over a resolved disk.

    The integral of each nodal basis function over a full triangle is a
    third of its area, which is exact for the piecewise-linear basis, so
    each element contributes ``area/3`` to its three vertices. Boundary
    vertices carry no unknown and their contributions are dropped.
    """
    disk.check_mesh(mesh)
    contrib = np.repeat(mesh.areas()[disk.element_set] / 3.0, 3)
    f = mesh.free_index[mesh.triangles[disk.element_set]].ravel()
    keep = f >= 0
    y = np.bincount(f[keep], contrib[keep], minlength=mesh.n_free)  # adds in order, as np.add.at
    if disk.element_set.size and not keep.any():  # each kept contribution is area/3 > 0
        warnings.warn(
            "load vector is identically zero: disk region touches no "
            "interior vertex",
            stacklevel=2,
        )
    return LoadVector(y=y, disk=disk)


"""P1 stiffness assembly with per-pixel splitting and Dirichlet elimination.

The diffusion bilinear form restricted to pixel ``i`` yields a sparse
symmetric positive-semidefinite matrix ``B_i`` over the interior-vertex
unknowns, and the operator for a coefficient vector ``sigma`` is

    ``B_sigma = sum_i sigma_i * B_i``.

:class:`StiffnessSet` holds this family once: one dense block of exact
half-integers over a pixel's vertices, which all pixels share (each holds
the same triangles, translated), and the sparse map ``C`` from ``sigma``
to the values of ``B_sigma`` on one fixed CSR pattern. Homogeneous
Dirichlet data is imposed by deleting boundary rows/columns, which keeps
``B_sigma`` exactly symmetric positive definite. :func:`assemble_global`
builds ``B_sigma`` element by element instead, as an independent oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import DiskSpec, PixelGrid, TriMesh

__all__ = [
    "StiffnessSet",
    "check_sigma",
    "LoadVector",
    "element_stiffness",
    "assemble_pixel_matrices",
    "assemble_global",
    "global_matrix",
    "assemble_load",
]


def element_stiffness(vertices) -> np.ndarray:
    """3x3 stiffness matrix of a single triangle.

    Entry ``(a, b)`` is ``area * grad(L_a) . grad(L_b)`` for the linear
    nodal basis ``L_a`` on the triangle. The result is symmetric positive
    semidefinite with zero row sums, and invariant under uniform scaling
    of the triangle.

    Raises
    ------
    ValueError
        If the triangle is degenerate or negatively oriented.
    """
    v = np.asarray(vertices, dtype=float)
    if v.shape != (3, 2):
        raise ValueError(f"expected three 2D vertices, got shape {v.shape}")
    x, y = v[:, 0], v[:, 1]
    twice_area = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    if twice_area <= 0:
        raise ValueError(
            f"triangle has non-positive area {0.5 * twice_area}; vertices "
            "must be distinct and counter-clockwise"
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
        :func:`assemble_global`.
    C : (nnz, n) CSR matrix
        Column ``i`` holds the entries of ``B_i`` on ``pattern``, so that
        ``global_matrix(stiffness, sigma).data == C @ sigma``.
    """

    dofs: np.ndarray
    block: np.ndarray = field(repr=False)
    pattern: sp.csr_matrix = field(repr=False)
    C: sp.csr_matrix = field(repr=False)

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
        col = self.C[:, [i]].tocoo()
        rows = np.repeat(np.arange(self.N), np.diff(self.pattern.indptr))
        return sp.csr_matrix(
            (col.data, (rows[col.row], self.pattern.indices[col.row])), shape=self.pattern.shape
        )


def _scatter_to_csr(rows, cols, data, N) -> sp.csr_matrix:
    m = sp.coo_matrix((data, (rows, cols)), shape=(N, N)).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def _element_contributions(mesh: TriMesh):
    """Free-index row/col/value triplets of every element matrix."""
    fidx = mesh.free_index
    all_rows, all_cols, all_data, all_tri = [], [], [], []
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        K = element_stiffness(mesh.vertices[tri])
        f = fidx[tri]
        for a in range(3):
            if f[a] < 0:
                continue
            for bb in range(3):
                if f[bb] < 0:
                    continue
                all_rows.append(f[a])
                all_cols.append(f[bb])
                all_data.append(K[a, bb])
                all_tri.append(t)
    return (
        np.array(all_rows, dtype=np.int64),
        np.array(all_cols, dtype=np.int64),
        np.array(all_data, dtype=float),
        np.array(all_tri, dtype=np.int64),
    )


def assemble_pixel_matrices(mesh: TriMesh, grid: PixelGrid | None = None) -> StiffnessSet:
    """Assemble the per-pixel stiffness family of ``mesh``.

    The shared block sums pixel 0's element matrices, one per distinct
    triangle shape on integer lattice coordinates, so it is exact.
    Boundary rows and columns are dropped when ``C`` is formed, so every
    ``B_i`` acts on the ``N`` interior unknowns.
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

    # Entries of B_i: vertex pairs sharing an element of pixel i, both free.
    free = dofs >= 0
    touched = (np.bincount(flat, minlength=s * s).reshape(s, s) > 0) & free[:, :, None] & free[:, None, :]
    i, a, b = np.nonzero(touched)
    N = mesh.n_free
    keys = dofs[i, a] * N + dofs[i, b]
    unique_keys = np.unique(keys)
    rows, cols = np.divmod(unique_keys, max(N, 1))
    pattern = sp.csr_matrix((np.ones(unique_keys.size), (rows, cols)), shape=(N, N))
    C = sp.csr_matrix(
        (block[a, b], (np.searchsorted(unique_keys, keys), i)), shape=(unique_keys.size, grid.n)
    )
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
    rows, cols, data, tri = _element_contributions(mesh)
    weighted = data * s[mesh.element_pixel[tri]]
    return _scatter_to_csr(rows, cols, weighted, mesh.n_free)


@dataclass(frozen=True, eq=False)
class LoadVector:
    """Assembled right-hand side of a disk-indicator excitation.

    ``y[j]`` is the integral of the j-th interior hat function over the
    resolved disk region; entries are nonnegative and vanish for vertices
    not touching the disk's elements.
    """

    y: np.ndarray
    disk: DiskSpec


def assemble_load(mesh: TriMesh, disk: DiskSpec) -> LoadVector:
    """Integrate interior hat functions over a resolved disk.

    The integral of each nodal basis function over a full triangle is a
    third of its area, which is exact for the piecewise-linear basis, so
    each element contributes ``area/3`` to its three vertices. Boundary
    vertices carry no unknown and their contributions are dropped.
    """
    y = np.zeros(mesh.n_free)
    tri = mesh.triangles[disk.element_set]
    contrib = np.repeat(mesh.areas()[disk.element_set] / 3.0, 3)
    f = mesh.free_index[tri].ravel()
    keep = f >= 0
    np.add.at(y, f[keep], contrib[keep])
    if disk.element_set.size and not y.any():
        warnings.warn(
            "load vector is identically zero: disk region touches no "
            "interior vertex",
            stacklevel=2,
        )
    return LoadVector(y=y, disk=disk)


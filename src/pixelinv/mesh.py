"""Structured triangulations of the unit square aligned with a pixel grid.

The unknown coefficient lives on an ``nx x nx`` grid of square pixels
covering ``(0, 1)^2``. All meshes here are uniform right-triangle meshes
built so that every pixel is an exact union of ``2*k*k`` triangles, which
makes coefficients that are constant per pixel exactly representable in
the assembled bilinear forms. Excitation/measurement regions are disks
resolved to unions of triangles by a centroid-membership rule.

Conventions
-----------
* Pixels are numbered row-major from the bottom-left corner (index 0 is
  the lower-left pixel, counting rightward then upward).
* Vertices form the lattice ``(ix/S, iy/S)`` with ``S = nx*k``, numbered
  row-major from the bottom-left as well.
* Each lattice square is split by the diagonal running from its
  lower-left to its upper-right corner. Doubling ``k`` therefore yields a
  nested refinement: every coarse triangle is the union of exactly four
  fine triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PixelGrid",
    "TriMesh",
    "DiskSpec",
    "build_mesh",
    "refine",
    "refine_element_set",
    "refine_disk",
    "resolve_disk",
    "standard_disk_layout",
]


@dataclass(frozen=True)
class PixelGrid:
    """Partition of the unit square into ``nx * nx`` equal square pixels."""

    nx: int

    def __post_init__(self):
        if self.nx < 1:
            raise ValueError(f"nx must be a positive integer, got {self.nx}")

    @property
    def n(self) -> int:
        """Total number of pixels."""
        return self.nx * self.nx

    @property
    def pixel_size(self) -> float:
        return 1.0 / self.nx

    def pixel_of(self, ix: int, iy: int) -> int:
        """Index of the pixel in column ``ix``, row ``iy`` (0-based)."""
        if not (0 <= ix < self.nx and 0 <= iy < self.nx):
            raise IndexError(f"pixel ({ix}, {iy}) outside {self.nx}x{self.nx} grid")
        return iy * self.nx + ix

    def pixel_center(self, pixel: int) -> np.ndarray:
        """Coordinates of the center of pixel ``pixel``."""
        iy, ix = divmod(pixel, self.nx)
        return np.array([(ix + 0.5) / self.nx, (iy + 0.5) / self.nx])

    def boundary_pixels(self) -> list[int]:
        """Indices of pixels touching the outer boundary, ascending."""
        nx = self.nx
        out = []
        for iy in range(nx):
            for ix in range(nx):
                if ix == 0 or iy == 0 or ix == nx - 1 or iy == nx - 1:
                    out.append(iy * nx + ix)
        return out


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming P1 triangulation of the unit square, pixel-compliant.

    Attributes
    ----------
    grid : PixelGrid
        The pixel partition this mesh complies with.
    k : int
        Elements per pixel side; each pixel contains ``2*k*k`` triangles.
    vertices : (V, 2) float array
        Lattice vertex coordinates in ``[0, 1]^2``.
    triangles : (T, 3) int array
        Vertex index triples, counter-clockwise.
    element_pixel : (T,) int array
        Pixel index containing each triangle.
    boundary_vertex : (V,) bool array
        True for vertices on the outer boundary.
    free_index : (V,) int array
        Contiguous unknown index for interior vertices, -1 on the boundary.
    """

    grid: PixelGrid
    k: int
    vertices: np.ndarray
    triangles: np.ndarray
    element_pixel: np.ndarray
    boundary_vertex: np.ndarray
    free_index: np.ndarray
    _areas: np.ndarray = field(repr=False, default=None)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_free(self) -> int:
        """Number of interior (unknown) vertices."""
        return int((~self.boundary_vertex).sum())

    def areas(self) -> np.ndarray:
        """Signed triangle areas; positive for this mesh's orientation."""
        return self._areas

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)


@dataclass(frozen=True, eq=False)
class DiskSpec:
    """A disk-supported region resolved to a set of mesh triangles."""

    center: np.ndarray
    radius: float
    element_set: np.ndarray

    def resolved_area(self, mesh: TriMesh) -> float:
        """Total area of the triangles approximating the disk."""
        return float(mesh.areas()[self.element_set].sum())


def build_mesh(grid: PixelGrid, k: int) -> TriMesh:
    """Triangulate the unit square with ``k`` elements per pixel side.

    Produces the ``(nx*k + 1)^2`` lattice of vertices and splits each of
    the ``(nx*k)^2`` lattice squares into two triangles along its
    lower-left to upper-right diagonal, giving ``2*(nx*k)^2`` triangles.

    Parameters
    ----------
    grid : PixelGrid
    k : int
        Refinement parameter, must be >= 1.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    nx = grid.nx
    S = nx * k

    axis = np.arange(S + 1)
    ix, iy = np.meshgrid(axis, axis, indexing="xy")
    vertices = np.column_stack([ix.ravel() / S, iy.ravel() / S])

    # Square (sx, sy) has corners ll, lr, ul, ur on the lattice.
    sx, sy = np.meshgrid(np.arange(S), np.arange(S), indexing="xy")
    sx = sx.ravel()
    sy = sy.ravel()
    ll = sy * (S + 1) + sx
    lr = ll + 1
    ul = ll + (S + 1)
    ur = ul + 1

    n_sq = S * S
    triangles = np.empty((2 * n_sq, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])  # below the diagonal
    triangles[1::2] = np.column_stack([ll, ur, ul])  # above the diagonal

    pixel = (sy // k) * nx + (sx // k)
    element_pixel = np.empty(2 * n_sq, dtype=np.int64)
    element_pixel[0::2] = pixel
    element_pixel[1::2] = pixel

    on_edge = (ix == 0) | (ix == S) | (iy == 0) | (iy == S)
    boundary_vertex = on_edge.ravel()

    free_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    interior = np.nonzero(~boundary_vertex)[0]
    free_index[interior] = np.arange(interior.size)

    v = vertices[triangles]
    areas = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 2, 0] - v[:, 0, 0]) * (v[:, 1, 1] - v[:, 0, 1])
    )

    return TriMesh(
        grid=grid,
        k=k,
        vertices=vertices,
        triangles=triangles,
        element_pixel=element_pixel,
        boundary_vertex=boundary_vertex,
        free_index=free_index,
        _areas=areas,
    )


def refine(mesh: TriMesh) -> TriMesh:
    """Halve the lattice spacing; the coarse P1 space nests in the fine one."""
    return build_mesh(mesh.grid, 2 * mesh.k)


def refine_element_set(mesh: TriMesh, elements: np.ndarray) -> np.ndarray:
    """Map triangle indices of ``mesh`` to their children on ``refine(mesh)``.

    Every coarse triangle is the union of exactly four fine triangles, so
    a region defined as a union of coarse elements is represented exactly
    on the refined mesh. Returns sorted fine-mesh triangle indices.
    """
    t = np.asarray(elements, dtype=np.int64)
    S = mesh.grid.nx * mesh.k
    S2 = 2 * S
    q, p = np.divmod(t, 2)
    sy, sx = np.divmod(q, S)

    def child(dx, dy, parity):
        return 2 * ((2 * sy + dy) * S2 + (2 * sx + dx)) + parity

    lower = np.stack([child(0, 0, 0), child(1, 0, 0), child(1, 0, 1), child(1, 1, 0)])
    upper = np.stack([child(0, 0, 1), child(0, 1, 0), child(0, 1, 1), child(1, 1, 1)])
    children = np.where(p == 0, lower, upper)
    return np.sort(children.ravel())


def refine_disk(disk: DiskSpec, mesh: TriMesh) -> DiskSpec:
    """Carry a resolved disk onto ``refine(mesh)`` without re-resolving.

    The element set is replaced by the children of its elements, so the
    region (and hence the linear functional it induces) is geometrically
    identical on the two meshes.
    """
    return DiskSpec(
        center=disk.center,
        radius=disk.radius,
        element_set=refine_element_set(mesh, disk.element_set),
    )


def resolve_disk(mesh: TriMesh, center, radius: float) -> DiskSpec:
    """Resolve a disk to the triangles whose centroid lies strictly inside.

    Parameters
    ----------
    mesh : TriMesh
    center : (2,) array_like
        Disk center; the disk must be contained in the open unit square.
    radius : float
        Disk radius, > 0.

    Raises
    ------
    ValueError
        If the disk is degenerate, pokes out of the unit square, or if no
        triangle centroid falls inside it (mesh too coarse).
    """
    c = np.asarray(center, dtype=float).reshape(2)
    if radius <= 0:
        raise ValueError(f"disk radius must be positive, got {radius}")
    margin = min(c[0], c[1], 1.0 - c[0], 1.0 - c[1])
    if radius >= margin:
        raise ValueError(
            f"disk (center {c.tolist()}, radius {radius}) is not contained "
            "in the open unit square"
        )
    d2 = ((mesh.centroids() - c) ** 2).sum(axis=1)
    element_set = np.nonzero(d2 < radius * radius)[0]
    if element_set.size == 0:
        raise ValueError(
            f"no triangle centroid inside disk of radius {radius} at "
            f"{c.tolist()}; mesh (k={mesh.k}) too coarse for this disk"
        )
    return DiskSpec(center=c, radius=float(radius), element_set=element_set)


def standard_disk_layout(mesh: TriMesh, radius_fraction: float = 0.25) -> list[DiskSpec]:
    """One disk per boundary pixel, centered at the pixel center.

    Disk radius is ``radius_fraction / nx``, so fractions below 0.5 keep
    every disk strictly inside its pixel. Disks are ordered by pixel
    index; an ``nx x nx`` grid yields ``4*nx - 4`` disks.
    """
    grid = mesh.grid
    if grid.nx < 2:
        raise ValueError("standard layout needs nx >= 2")
    if not 0.0 < radius_fraction < 0.5:
        raise ValueError(f"radius_fraction must be in (0, 0.5), got {radius_fraction}")
    radius = radius_fraction / grid.nx
    return [
        resolve_disk(mesh, grid.pixel_center(p), radius)
        for p in grid.boundary_pixels()
    ]


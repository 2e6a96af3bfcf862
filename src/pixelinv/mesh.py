"""Structured triangulations of the unit square aligned with a pixel grid.

The unknown coefficient lives on an ``nx x nx`` grid of square pixels
covering ``(0, 1)^2``. All meshes here are uniform right-triangle meshes
built so that every pixel is an exact union of ``2*k*k`` triangles, which
makes coefficients that are constant per pixel exactly representable in
the assembled bilinear forms. Every triangle has the one area ``0.5 / S**2``.
Excitation/measurement regions are disks resolved to unions of triangles
by one centroid-membership rule, exact in sixths of a lattice step on
every pixel centre (:func:`resolve_disk`); no centroid array is stored.

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

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PixelGrid", "TriMesh", "DiskSpec", "build_mesh", "refine", "refine_element_set", "refine_disk",
           "resolve_disk", "standard_disk_layout", "lattice_symmetries"]


def _read_only(self) -> None:
    """``__post_init__`` of the set-up dataclasses: each array, a sparse matrix's three too, read-only,
    so that no caller can change one under the caches and results built from it."""
    for value in vars(self).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        elif hasattr(value, "indptr"):
            for array in (value.data, value.indices, value.indptr):
                array.setflags(write=False)


def _check_integer(name: str, value, least: float = -np.inf) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class PixelGrid:
    """Partition of the unit square into ``nx * nx`` equal square pixels."""

    nx: int

    def __post_init__(self):
        _check_integer("nx", self.nx, 1)

    @property
    def n(self) -> int:
        """Total number of pixels."""
        return self.nx * self.nx

    @property
    def pixel_size(self) -> float:
        return 1.0 / self.nx

    def pixel_of(self, ix: int, iy: int) -> int:
        """Index of the pixel in column ``ix``, row ``iy`` (0-based)."""
        _check_integer("ix", ix)
        _check_integer("iy", iy)
        if not (0 <= ix < self.nx and 0 <= iy < self.nx):
            raise IndexError(f"pixel ({ix}, {iy}) outside {self.nx}x{self.nx} grid")
        return iy * self.nx + ix

    def pixel_center(self, pixel: int) -> np.ndarray:
        """Coordinates of the center of pixel ``pixel``."""
        _check_integer("pixel", pixel)
        if not 0 <= pixel < self.n:
            raise IndexError(f"pixel {pixel} outside {self.nx}x{self.nx} grid")
        iy, ix = divmod(pixel, self.nx)
        return np.array([(ix + 0.5) / self.nx, (iy + 0.5) / self.nx])

    def boundary_pixels(self) -> list[int]:
        """Indices of pixels touching the outer boundary, ascending."""
        edge = (0, self.nx - 1)
        return [p for p in range(self.n) if p // self.nx in edge or p % self.nx in edge]


def lattice_symmetries(side: int) -> list[np.ndarray]:
    """The maps of every mesh of a grid onto itself, the identity, the reflection about ``y = x``, the half-turn and
    their product (a quarter-turn flips the triangles' diagonals), on a ``side x side`` lattice numbered row-major
    from the bottom-left: on ``nx``, the pixels; ``S + 1``, a mesh's vertices; ``S - 1``, its unknowns (the interior
    vertices, in order); ``k + 1``, a pixel's. ``p`` goes to ``perm[p]``."""
    a = np.arange(side * side).reshape(side, side)
    return [a.ravel(), a.T.ravel(), a[::-1, ::-1].ravel(), a.T[::-1, ::-1].ravel()]


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
    __post_init__ = _read_only

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @functools.cached_property
    def n_free(self) -> int:
        """Number of interior (unknown) vertices, counted once per mesh."""
        return int((~self.boundary_vertex).sum())

    def areas(self) -> np.ndarray:
        """Triangle areas: every entry is the one value ``0.5 / S**2``."""
        return self._areas


@dataclass(frozen=True, eq=False)
class DiskSpec:
    """A disk-supported region resolved to a set of triangles of the mesh ``(nx, k)``."""

    center: np.ndarray
    radius: float
    element_set: np.ndarray
    mesh: tuple[int, int]
    __post_init__ = _read_only

    def check_mesh(self, mesh: TriMesh) -> None:
        """Refuse ``mesh`` unless it is the one this disk's triangles belong to."""
        if self.mesh != (mesh.grid.nx, mesh.k):
            raise ValueError(f"disk of the mesh (nx, k) = {self.mesh} used on the mesh {(mesh.grid.nx, mesh.k)}")

    def resolved_area(self, mesh: TriMesh) -> float:
        """Total area of the triangles approximating the disk."""
        self.check_mesh(mesh)
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
    _check_integer("k", k, 1)
    nx, S = grid.nx, grid.nx * k

    x = np.arange(S + 1) / S  # the lattice lines; x[S] = S / S is 1 exactly
    vertices = np.column_stack([np.tile(x, S + 1), np.repeat(x, S + 1)])

    # Square (sx, sy) has corners ll, lr = ll + 1, ul = ll + S + 1, ur = ll + S + 2.
    sy, sx = np.divmod(np.arange(S * S), S)
    ll = sy * (S + 1) + sx
    corners = np.array([[0, 1, S + 2], [0, S + 2, S + 1]])  # ll, lr, ur below the diagonal; ll, ur, ul above
    triangles = (ll[:, None, None] + corners).reshape(-1, 3)
    element_pixel = np.repeat((sy // k) * nx + (sx // k), 2)

    side = (x == 0.0) | (x == 1.0)
    boundary_vertex = (side[:, None] | side).ravel()

    free_index = np.full(vertices.shape[0], -1, dtype=np.int64)
    interior = np.nonzero(~boundary_vertex)[0]
    free_index[interior] = np.arange(interior.size)

    return TriMesh(
        grid=grid,
        k=k,
        vertices=vertices,
        triangles=triangles,
        element_pixel=element_pixel,
        boundary_vertex=boundary_vertex,
        free_index=free_index,
        _areas=np.full(2 * S * S, 0.5 / S**2),
    )


def refine(mesh: TriMesh) -> TriMesh:
    """Halve the lattice spacing; the coarse P1 space nests in the fine one."""
    return build_mesh(mesh.grid, 2 * mesh.k)


def refine_element_set(mesh: TriMesh, elements: np.ndarray) -> np.ndarray:
    """Map triangle indices of ``mesh`` to their children on ``refine(mesh)``.

    Every coarse triangle is the union of exactly four fine triangles, so
    a region defined as a union of coarse elements is represented exactly
    on the refined mesh. Returns sorted fine-mesh triangle indices; an index not an integer in ``[0, T)`` is refused.
    """
    t = np.asarray(elements)
    bad = t[(t < 0) | (t >= mesh.n_triangles)] if np.issubdtype(t.dtype, np.integer) else t
    if bad.size:
        raise ValueError(f"triangle indices must be integers in [0, {mesh.n_triangles}), got {bad.tolist()}")
    S = mesh.grid.nx * mesh.k
    q, p = np.divmod(t, 2)
    sy, sx = np.divmod(q, S)

    def child(dx, dy, parity):
        return 2 * ((2 * sy + dy) * 2 * S + (2 * sx + dx)) + parity

    lower = np.stack([child(0, 0, 0), child(1, 0, 0), child(1, 0, 1), child(1, 1, 0)])
    upper = np.stack([child(0, 0, 1), child(0, 1, 0), child(0, 1, 1), child(1, 1, 1)])
    return np.sort(np.where(p == 0, lower, upper).ravel())


def refine_disk(disk: DiskSpec, mesh: TriMesh) -> DiskSpec:
    """Carry a resolved disk onto ``refine(mesh)`` without re-resolving.

    The element set is replaced by the children of its elements, so the
    region (and hence the linear functional it induces) is geometrically
    identical on the two meshes.
    """
    disk.check_mesh(mesh)
    return DiskSpec(center=disk.center, radius=disk.radius, element_set=refine_element_set(mesh, disk.element_set),
                    mesh=(mesh.grid.nx, 2 * mesh.k))


def _disk(mesh: TriMesh, center: np.ndarray, radius: float, element_set: np.ndarray) -> DiskSpec:
    if not element_set.size:
        raise ValueError(f"no triangle centroid inside disk of radius {radius} at {center.tolist()}; "
                         f"mesh (k={mesh.k}) too coarse for this disk")
    return DiskSpec(center=center, radius=float(radius), element_set=element_set, mesh=(mesh.grid.nx, mesh.k))


def resolve_disk(mesh: TriMesh, center, radius: float) -> DiskSpec:
    """Resolve a disk to the triangles whose centroid lies strictly inside.

    In sixths of a lattice step ``1/S``, triangle ``2 (sy S + sx) + parity``
    has its centroid at ``(6 sx + 4 - 2 parity, 6 sy + 2 + 2 parity)``. A
    centre coordinate within 1e-9 of a whole sixth, as every pixel centre's
    is, is snapped to it, so the squared offsets compared with
    ``(6 S radius)**2`` are exact integers, and congruent disks hold
    congruent sets even where a centroid lies on the circle.

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
        If the radius is not positive, the disk is not finite or pokes out
        of the unit square, or if no triangle centroid falls inside it
        (mesh too coarse).
    """
    c = np.asarray(center, dtype=float).reshape(2)
    if not 0 < radius < np.concatenate([c, 1.0 - c]).min():  # a NaN fails both comparisons
        raise ValueError(f"disk (center {c.tolist()}, radius {radius}) is not contained in the open unit square, "
                         "or its radius is not positive")
    S = mesh.grid.nx * mesh.k
    u, whole = 6 * S * c, np.round(6 * S * c)
    u = np.where(np.abs(u - whole) <= 1e-9, whole, u)
    six = 6.0 * np.arange(S)[:, None]  # (square row or column, parity)
    d2 = ((six + [2.0, 4.0] - u[1]) ** 2)[:, None] + (six + [4.0, 2.0] - u[0]) ** 2  # (sy, sx, parity)
    return _disk(mesh, c, radius, np.flatnonzero(d2.ravel() < (6 * S * radius) ** 2))


def standard_disk_layout(mesh: TriMesh, radius_fraction: float = 0.25) -> list[DiskSpec]:
    """One disk per boundary pixel, centered at the pixel center.

    Disk radius is ``radius_fraction / nx``, so fractions below 0.5 keep
    every disk strictly inside its pixel. Disks are ordered by pixel
    index; an ``nx x nx`` grid yields ``4*nx - 4`` disks. Each is pixel 0's
    :func:`resolve_disk`, translated, which is what :func:`resolve_disk`
    gives at that pixel's centre, its rule being exact there; so the disks
    are congruent and the layout keeps the grid's :func:`lattice_symmetries`."""
    grid = mesh.grid
    if grid.nx < 2:
        raise ValueError("standard layout needs nx >= 2")
    if not 0.0 < radius_fraction < 0.5:
        raise ValueError(f"radius_fraction must be in (0, 0.5), got {radius_fraction}")
    radius, S = radius_fraction / grid.nx, grid.nx * mesh.k
    first = resolve_disk(mesh, grid.pixel_center(0), radius).element_set
    py, px = np.divmod(np.array(grid.boundary_pixels()), grid.nx)
    # Pixel (px, py) holds the lattice squares from (px k, py k) on: pixel 0's triangles moved by 2 k (py S + px).
    return [_disk(mesh, c, radius, 2 * mesh.k * (y * S + x) + first)
            for c, x, y in zip((np.column_stack([px, py]) + 0.5) / grid.nx, px, py)]

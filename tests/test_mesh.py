import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixelinv.mesh import (
    PixelGrid,
    build_mesh,
    refine,
    refine_disk,
    refine_element_set,
    resolve_disk,
    standard_disk_layout,
)


def hat_values(mesh, vertex, points):
    """Evaluate the piecewise-linear hat of ``vertex`` at arbitrary points.

    Structured-lattice lookup, written independently of the mesh builder:
    locate the lattice square, pick the triangle by comparing local
    coordinates against the lower-left/upper-right diagonal, and use the
    barycentric expression of the hat on that triangle.
    """
    S = mesh.grid.nx * mesh.k
    out = np.zeros(len(points))
    for idx, (x, y) in enumerate(points):
        sx = min(int(x * S), S - 1)
        sy = min(int(y * S), S - 1)
        xi = x * S - sx
        eta = y * S - sy
        ll = sy * (S + 1) + sx
        lr, ul, ur = ll + 1, ll + S + 1, ll + S + 2
        if xi >= eta:
            weights = {ll: 1 - xi, lr: xi - eta, ur: eta}
        else:
            weights = {ll: 1 - eta, ur: xi, ul: eta - xi}
        out[idx] = weights.get(vertex, 0.0)
    return out


class TestPixelGrid:
    def test_counts_and_ordering(self):
        g = PixelGrid(3)
        assert g.n == 9
        assert g.pixel_of(0, 0) == 0  # lower-left pixel comes first
        assert g.pixel_of(2, 0) == 2
        assert g.pixel_of(0, 1) == 3
        assert g.pixel_of(2, 2) == 8

    def test_rejects_bad_nx(self):
        with pytest.raises(ValueError):
            PixelGrid(0)

    def test_pixel_center(self):
        g = PixelGrid(2)
        assert np.allclose(g.pixel_center(0), [0.25, 0.25])
        assert np.allclose(g.pixel_center(3), [0.75, 0.75])

    def test_boundary_pixels(self):
        assert PixelGrid(2).boundary_pixels() == [0, 1, 2, 3]
        assert PixelGrid(3).boundary_pixels() == [0, 1, 2, 3, 5, 6, 7, 8]


class TestBuildMesh:
    def test_smallest_lattice(self):
        mesh = build_mesh(PixelGrid(1), 1)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2
        assert mesh.n_free == 0

    def test_counts_3x4(self):
        mesh = build_mesh(PixelGrid(3), 4)
        assert mesh.n_vertices == 169
        assert mesh.n_triangles == 288
        assert mesh.n_free == 121

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            build_mesh(PixelGrid(2), 0)

    def test_pixel_compliance(self):
        # All three vertices of every triangle lie in the closed square of
        # the triangle's assigned pixel.
        mesh = build_mesh(PixelGrid(2), 2)
        size = mesh.grid.pixel_size
        for t in range(mesh.n_triangles):
            p = mesh.element_pixel[t]
            iy, ix = divmod(p, mesh.grid.nx)
            lo = np.array([ix * size, iy * size])
            hi = lo + size
            coords = mesh.vertices[mesh.triangles[t]]
            assert np.all(coords >= lo - 1e-15) and np.all(coords <= hi + 1e-15)

    @settings(max_examples=20, deadline=None)
    @given(nx=st.integers(1, 5), k=st.integers(1, 4))
    def test_count_formulas_and_area(self, nx, k):
        mesh = build_mesh(PixelGrid(nx), k)
        S = nx * k
        assert mesh.n_vertices == (S + 1) ** 2
        assert mesh.n_triangles == 2 * S * S
        assert mesh.n_free == (S - 1) ** 2
        assert abs(mesh.areas().sum() - 1.0) <= 1e-12
        assert np.all(mesh.areas() > 0)

    def test_free_index_contiguous(self):
        mesh = build_mesh(PixelGrid(3), 2)
        interior = mesh.free_index[mesh.free_index >= 0]
        assert sorted(interior) == list(range(mesh.n_free))
        assert np.all(mesh.free_index[mesh.boundary_vertex] == -1)


class TestRefine:
    def test_doubles_k(self):
        fine = refine(build_mesh(PixelGrid(3), 1))
        assert fine.k == 2
        assert fine.n_triangles == 72  # 2*(nx*2k)^2 with nx=3, k=1

    def test_coarse_vertices_are_fine_vertices(self):
        coarse = build_mesh(PixelGrid(2), 2)
        fine = refine(coarse)
        fine_set = {tuple(v) for v in fine.vertices}
        assert all(tuple(v) in fine_set for v in coarse.vertices)

    def test_coarse_hat_is_in_fine_space(self):
        # A piecewise-linear function on the coarse mesh is linear on each
        # fine triangle, so its value at a fine centroid equals the mean of
        # its values at the fine triangle's vertices.
        coarse = build_mesh(PixelGrid(2), 1)
        fine = refine(coarse)
        for vertex in range(coarse.n_vertices):
            at_fine_nodes = hat_values(coarse, vertex, fine.vertices)
            tri_nodes = at_fine_nodes[fine.triangles]
            at_centroids = hat_values(coarse, vertex, fine.centroids())
            assert np.max(np.abs(tri_nodes.mean(axis=1) - at_centroids)) <= 1e-14

    def test_refine_element_set_partitions_children(self):
        mesh = build_mesh(PixelGrid(2), 1)
        fine = refine(mesh)
        all_children = refine_element_set(mesh, np.arange(mesh.n_triangles))
        assert sorted(all_children) == list(range(fine.n_triangles))
        one = refine_element_set(mesh, np.array([0]))
        assert one.size == 4
        assert abs(fine.areas()[one].sum() - mesh.areas()[0]) <= 1e-15

    def test_refine_disk_preserves_region(self):
        mesh = build_mesh(PixelGrid(3), 2)
        disk = resolve_disk(mesh, (0.5, 0.5), 0.15)
        fine_disk = refine_disk(disk, mesh)
        fine = refine(mesh)
        assert abs(disk.resolved_area(mesh) - fine_disk.resolved_area(fine)) <= 1e-15


class TestResolveDisk:
    def test_pixel_center_disk_selects_both_triangles(self):
        # Disk around the middle pixel's center with radius at least half
        # the pixel diagonal contains both of that pixel's centroids.
        grid = PixelGrid(3)
        mesh = build_mesh(grid, 1)
        radius = np.sqrt(2) / (2 * grid.nx)
        disk = resolve_disk(mesh, grid.pixel_center(4), radius)
        middle = set(np.nonzero(mesh.element_pixel == 4)[0])
        assert middle <= set(disk.element_set)

    def test_tiny_radius_errors(self):
        mesh = build_mesh(PixelGrid(3), 1)
        with pytest.raises(ValueError, match="too coarse"):
            resolve_disk(mesh, (0.5, 0.5), 1e-9)

    def test_nonpositive_radius_errors(self):
        mesh = build_mesh(PixelGrid(3), 1)
        with pytest.raises(ValueError):
            resolve_disk(mesh, (0.5, 0.5), 0.0)

    def test_disk_must_stay_inside_square(self):
        mesh = build_mesh(PixelGrid(3), 2)
        with pytest.raises(ValueError, match="not contained"):
            resolve_disk(mesh, (0.1, 0.5), 0.2)

    def test_deterministic(self):
        mesh = build_mesh(PixelGrid(3), 3)
        a = resolve_disk(mesh, (0.5, 0.5), 0.2)
        b = resolve_disk(mesh, (0.5, 0.5), 0.2)
        assert np.array_equal(a.element_set, b.element_set)

    def test_area_converges_to_disk_area(self):
        # Centroid-rule area vs the exact disk area, with the O(h) band
        # bound, cross-checked against a brute-force centroid scan.
        grid = PixelGrid(3)
        center, radius = (1 / 6, 1 / 6), 1 / 12
        exact = np.pi * radius**2
        errors = []
        for k in (4, 8, 16):
            mesh = build_mesh(grid, k)
            disk = resolve_disk(mesh, center, radius)
            brute = 0.0
            for t in range(mesh.n_triangles):
                c = mesh.vertices[mesh.triangles[t]].mean(axis=0)
                if (c[0] - center[0]) ** 2 + (c[1] - center[1]) ** 2 < radius**2:
                    brute += mesh.areas()[t]
            area = disk.resolved_area(mesh)
            assert abs(area - brute) <= 1e-15
            h = 1.0 / (grid.nx * k)
            err = abs(area - exact)
            assert err <= 4 * (2 * np.pi * radius) * h
            errors.append(err)
        assert errors[-1] < errors[0]


class TestStandardLayout:
    @pytest.mark.parametrize("nx,k,count", [(3, 4, 8), (2, 2, 4), (15, 2, 56)])
    def test_counts(self, nx, k, count):
        mesh = build_mesh(PixelGrid(nx), k)
        disks = standard_disk_layout(mesh, 0.25)
        assert len(disks) == count

    def test_disks_ordered_by_pixel_and_centered(self):
        grid = PixelGrid(3)
        mesh = build_mesh(grid, 4)
        disks = standard_disk_layout(mesh, 0.25)
        for disk, pixel in zip(disks, grid.boundary_pixels()):
            assert np.allclose(disk.center, grid.pixel_center(pixel))
            assert disk.radius == pytest.approx(0.25 / 3)
            assert np.all(mesh.element_pixel[disk.element_set] == pixel)

    def test_rejects_bad_fraction(self):
        mesh = build_mesh(PixelGrid(3), 4)
        with pytest.raises(ValueError):
            standard_disk_layout(mesh, 0.5)

    def test_rejects_single_pixel_grid(self):
        mesh = build_mesh(PixelGrid(1), 4)
        with pytest.raises(ValueError):
            standard_disk_layout(mesh, 0.25)


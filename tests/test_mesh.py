import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pixelinv.mesh import (
    PixelGrid,
    build_mesh,
    lattice_symmetries,
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

    @pytest.mark.parametrize("nx, message", [
        (True, "nx must be an integer, got True"),
        (2.5, "nx must be an integer, got 2.5"),
        (3.0, "nx must be an integer, got 3.0"),
        ("3", "nx must be an integer, got '3'"),
        (0, "nx must be at least 1, got 0"),
    ])
    def test_nx_must_be_an_integer_of_at_least_1(self, nx, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PixelGrid(nx)

    def test_numpy_integer_nx(self):
        assert PixelGrid(np.int64(3)).n == 9

    def test_pixel_center(self):
        g = PixelGrid(2)
        assert np.allclose(g.pixel_center(0), [0.25, 0.25])
        assert np.allclose(g.pixel_center(3), [0.75, 0.75])

    @pytest.mark.parametrize("call, error, message", [
        (lambda g: g.pixel_center(100), IndexError, "pixel 100 outside 3x3 grid"),
        (lambda g: g.pixel_center(-1), IndexError, "pixel -1 outside 3x3 grid"),
        (lambda g: g.pixel_center(9), IndexError, "pixel 9 outside 3x3 grid"),
        (lambda g: g.pixel_center(1.0), ValueError, "pixel must be an integer, got 1.0"),
        (lambda g: g.pixel_center(True), ValueError, "pixel must be an integer, got True"),
        (lambda g: g.pixel_of(1.5, 0), ValueError, "ix must be an integer, got 1.5"),
        (lambda g: g.pixel_of(0, np.float64(2.0)), ValueError, "iy must be an integer, got np.float64(2.0)"),
        (lambda g: g.pixel_of(3, 0), IndexError, "pixel (3, 0) outside 3x3 grid"),
        (lambda g: g.pixel_of(0, -1), IndexError, "pixel (0, -1) outside 3x3 grid"),
    ])
    def test_pixel_lookups_refuse_a_pixel_outside_the_grid_or_not_an_integer(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(PixelGrid(3))

    def test_pixel_lookups_take_numpy_integers(self):
        g = PixelGrid(3)
        assert g.pixel_of(np.int64(2), np.int32(1)) == 5
        assert np.array_equal(g.pixel_center(np.int64(5)), g.pixel_center(5))

    def test_boundary_pixels(self):
        assert PixelGrid(2).boundary_pixels() == [0, 1, 2, 3]
        assert PixelGrid(3).boundary_pixels() == [0, 1, 2, 3, 5, 6, 7, 8]


    @pytest.mark.parametrize("nx", [1, 2, 3, 6])
    def test_symmetries_are_the_diagonal_reflection_and_the_half_turn(self, nx):
        grid = PixelGrid(nx)
        reflection, half_turn = grid.symmetries()
        centers = np.array([grid.pixel_center(p) for p in range(grid.n)])
        assert np.allclose(centers[reflection], centers[:, ::-1])
        assert np.allclose(centers[half_turn], 1.0 - centers)
        for perm in (reflection, half_turn):
            assert np.array_equal(perm[perm], np.arange(grid.n))
        assert np.array_equal(reflection[half_turn], half_turn[reflection])

    @pytest.mark.parametrize("nx, k", [(1, 1), (2, 3), (5, 2), (6, 1)])
    def test_lattice_symmetries_map_the_mesh_onto_itself(self, nx, k):
        # The group of the grid's symmetries: on the vertices each element takes
        # every triangle onto a triangle of the image pixel, and the unknowns onto
        # the unknowns in the order of the interior lattice's own maps.
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        S = nx * k
        key = np.sort(mesh.triangles, axis=1) @ [(S + 1) ** 4, (S + 1) ** 2, 1]
        order = np.argsort(key)
        interior = np.flatnonzero(mesh.free_index >= 0)  # in free-index order
        assert [p.tolist() for p in lattice_symmetries(nx)[1:3]] == [p.tolist() for p in grid.symmetries()]
        moved = [mesh.vertices, mesh.vertices[:, ::-1], 1.0 - mesh.vertices, 1.0 - mesh.vertices[:, ::-1]]
        for vertices, pixels, unknowns, xy in zip(lattice_symmetries(S + 1), lattice_symmetries(nx),
                                                  lattice_symmetries(S - 1), moved):
            assert np.allclose(mesh.vertices[vertices], xy, rtol=0.0, atol=1e-15)
            image = np.sort(vertices[mesh.triangles], axis=1) @ [(S + 1) ** 4, (S + 1) ** 2, 1]
            at = order[np.searchsorted(key, image, sorter=order)]
            assert np.array_equal(key[at], image) and np.array_equal(np.sort(at), np.arange(mesh.n_triangles))
            assert np.array_equal(mesh.element_pixel[at], pixels[mesh.element_pixel])
            assert np.array_equal(mesh.free_index[vertices[interior]], unknowns)


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

    @pytest.mark.parametrize("k, message", [
        (True, "k must be an integer, got True"),
        (2.0, "k must be an integer, got 2.0"),
        (np.float64(2.0), "k must be an integer, got np.float64(2.0)"),
        (-1, "k must be at least 1, got -1"),
    ])
    def test_k_must_be_an_integer_of_at_least_1(self, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_mesh(PixelGrid(2), k)

    def test_numpy_integer_k(self):
        assert build_mesh(PixelGrid(2), np.int64(2)).n_triangles == build_mesh(PixelGrid(2), 2).n_triangles == 32

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

    @pytest.mark.parametrize("nx, k", [(1, 1), (2, 1), (3, 4), (5, 3), (10, 2), (11, 2), (12, 2), (15, 4), (3, 16)])
    @pytest.mark.parametrize("refined", [False, True])
    def test_geometry_is_the_corner_formula_bit_for_bit(self, nx, k, refined):
        # Every triangle has the one area 0.5 / S^2, bit for bit; the cross
        # product over its float corners gives it up to their rounding, which
        # is relative to the sides 1/S.
        mesh = build_mesh(PixelGrid(nx), k)
        if refined:
            mesh = refine(mesh)
        S = nx * mesh.k
        want = np.full(mesh.n_triangles, 0.5 / S**2)
        got = mesh.areas()
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        v = mesh.vertices[mesh.triangles]
        cross = (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1]) - (v[:, 2, 0] - v[:, 0, 0]) * (
            v[:, 1, 1] - v[:, 0, 1])
        assert np.allclose(0.5 * cross, want, rtol=4 * S * np.finfo(float).eps, atol=0.0)  # counter-clockwise

    @pytest.mark.parametrize("nx, k", [(1, 1), (2, 1), (3, 4), (15, 4)])
    def test_n_free_counts_interior_vertices(self, nx, k):
        mesh = build_mesh(PixelGrid(nx), k)
        assert mesh.n_free == (~mesh.boundary_vertex).sum() == (nx * k - 1) ** 2
        assert type(mesh.n_free) is int

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
        # fine triangle, so its value at a fine centroid (the mean of the
        # triangle's vertices) equals the mean of its values there.
        coarse = build_mesh(PixelGrid(2), 1)
        fine = refine(coarse)
        centroids = fine.vertices[fine.triangles].mean(axis=1)
        for vertex in range(coarse.n_vertices):
            at_fine_nodes = hat_values(coarse, vertex, fine.vertices)
            tri_nodes = at_fine_nodes[fine.triangles]
            at_centroids = hat_values(coarse, vertex, centroids)
            assert np.max(np.abs(tri_nodes.mean(axis=1) - at_centroids)) <= 1e-14

    def test_refine_element_set_partitions_children(self):
        mesh = build_mesh(PixelGrid(2), 1)
        fine = refine(mesh)
        all_children = refine_element_set(mesh, np.arange(mesh.n_triangles))
        assert sorted(all_children) == list(range(fine.n_triangles))
        one = refine_element_set(mesh, np.array([0]))
        assert one.size == 4
        assert abs(fine.areas()[one].sum() - mesh.areas()[0]) <= 1e-15

    @pytest.mark.parametrize("elements, message", [
        ([8], "got [8]"), ([3, -1], "got [-1]"), ([1.7], "got [1.7]"), (np.array([2.0]), "got [2.0]"),
        ([True], "got [True]"),
    ])
    def test_refine_element_set_refuses_an_index_outside_the_mesh_or_not_an_integer(self, elements, message):
        # Index 8 of the 8-triangle mesh once gave fine indices past the end, -1 negative ones, and 1.7 was read as 1.
        mesh = build_mesh(PixelGrid(2), 1)
        message = "triangle indices must be integers in [0, 8), " + message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            refine_element_set(mesh, elements)

    def test_refine_disk_preserves_region(self):
        mesh = build_mesh(PixelGrid(3), 2)
        disk = resolve_disk(mesh, (0.5, 0.5), 0.15)
        fine_disk = refine_disk(disk, mesh)
        fine = refine(mesh)
        assert abs(disk.resolved_area(mesh) - fine_disk.resolved_area(fine)) <= 1e-15

    def test_resolved_area_refuses_another_mesh(self):
        # Measured on the k=4 mesh, a disk of the k=2 mesh once read a quarter of its area.
        mesh = build_mesh(PixelGrid(3), 2)
        disk = resolve_disk(mesh, (0.5, 0.5), 0.15)
        with pytest.raises(ValueError, match=re.escape("disk of the mesh (nx, k) = (3, 2) used on the mesh (3, 4)")):
            disk.resolved_area(refine(mesh))

    def test_refine_disk_records_the_finer_mesh(self):
        mesh = build_mesh(PixelGrid(3), 2)
        disk = resolve_disk(mesh, (0.5, 0.5), 0.15)
        assert disk.mesh == (3, 2)
        assert refine_disk(disk, mesh).mesh == (3, 4)
        assert all(d.mesh == (3, 2) for d in standard_disk_layout(mesh, 0.25))
        with pytest.raises(ValueError, match=re.escape("disk of the mesh (nx, k) = (3, 2) used on the mesh (3, 4)")):
            refine_disk(disk, refine(mesh))


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

    @pytest.mark.parametrize("center, radius", [
        ((0.5, 0.5), np.nan), ((np.nan, 0.5), 0.1), ((0.5, np.nan), 0.1), ((np.inf, 0.5), 0.1),
        ((0.5, 0.5), np.inf), ((0.5, 0.5), -0.1),
    ])
    def test_non_finite_or_non_positive_disk_is_refused_without_blaming_the_mesh(self, center, radius):
        mesh = build_mesh(PixelGrid(3), 4)
        with pytest.raises(ValueError, match="not contained in the open unit square, or its radius is not positive"):
            resolve_disk(mesh, center, radius)

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


# Tie radii hypot(a, b) / (3k): 6 S radius = 2 hypot(a, b) sixths, the distance of a centroid from the
# pixel centre for some a, b.
_TIE_RADII = [(4, 8, np.sqrt(26) / 24)] + [
    (nx, k, np.hypot(a, b) / (3 * k)) for nx, k in ((3, 2), (5, 4)) for a in range(3 * k) for b in range(a, 3 * k)
    if 0 < np.hypot(a, b) < 1.5 * k]


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

    @pytest.mark.parametrize("nx,k,refined", [(3, 4, False), (9, 4, False), (15, 2, False), (15, 4, False), (3, 2, True)])
    def test_element_sets_match_recomputed_centroids(self, nx, k, refined):
        # The layout works in sixths of a lattice step from the triangle indices;
        # away from ties its sets are those of the centroid rule in floating
        # point, applied to the triangles' vertex means.
        mesh = build_mesh(PixelGrid(nx), k)
        if refined:
            mesh = refine(mesh)
        centroids = mesh.vertices[mesh.triangles].mean(axis=1)
        for disk in standard_disk_layout(mesh, 0.25):
            d2 = ((centroids - disk.center) ** 2).sum(axis=1)
            assert np.array_equal(disk.element_set, np.nonzero(d2 < disk.radius * disk.radius)[0])

    @pytest.mark.parametrize("nx,k,radius_fraction", [
        *((nx, k, f) for f in (0.1, 0.25, 0.49) for nx, k in ((3, 4), (10, 2), (12, 2), (15, 4), (3, 1))),
        *_TIE_RADII,
    ])
    def test_layout_is_the_full_scan(self, nx, k, radius_fraction):
        # Each disk is pixel 0's, translated; the outcome is that of
        # resolve_disk scanning every triangle: the same element sets, or the
        # same "too coarse" error (a disk centred on a lattice vertex can hold
        # no centroid at radius_fraction 0.1). At the tie radii a centroid lies
        # on every disk's circle, where the float rule once held 16, 17 or 18
        # triangles at nx=4, k=8 against the layout's congruent sets.
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        radius = radius_fraction / nx
        try:
            scanned = [resolve_disk(mesh, grid.pixel_center(p), radius) for p in grid.boundary_pixels()]
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                standard_disk_layout(mesh, radius_fraction)
            return
        layout = standard_disk_layout(mesh, radius_fraction)
        assert len(layout) == len(scanned) == 4 * nx - 4
        for disk, full in zip(layout, scanned):
            assert np.array_equal(disk.center, full.center) and disk.radius == full.radius
            assert np.array_equal(disk.element_set, full.element_set)

    @settings(max_examples=150, deadline=None)
    @given(nx=st.integers(2, 20), k=st.integers(1, 8), data=st.data())
    @example(nx=4, k=8, data=None)
    def test_disks_map_onto_each_other_under_the_grid_symmetries(self, nx, k, data):
        # Drawn at random, or on a tie: sqrt(a^2 + b^2) / (3k) puts a centroid
        # of every pixel on its disk's circle, where the centroid rule in
        # floating point told congruent disks apart (nx=4, k=8, a=1, b=5).
        ties = st.tuples(st.integers(0, 3 * k), st.integers(0, 3 * k)).map(lambda ab: np.hypot(*ab) / (3 * k))
        fractions = st.one_of(st.floats(0.01, 0.49), ties).filter(lambda f: 0.0 < f < 0.5)
        radius_fraction = np.sqrt(26) / 24 if data is None else data.draw(fractions)
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        try:
            disks = standard_disk_layout(mesh, radius_fraction)
        except ValueError:
            return  # no centroid inside the disks: too coarse a mesh
        S = nx * k
        square, parity = np.divmod(np.arange(mesh.n_triangles), 2)
        sy, sx = np.divmod(square, S)
        # Triangle maps: the reflection about y = x and the half-turn swap the
        # two triangles of a square, their product keeps them.
        maps = [2 * (sx * S + sy) + 1 - parity, 2 * ((S - 1 - sy) * S + S - 1 - sx) + 1 - parity]
        maps.append(maps[0][maps[1]])
        boundary = np.array(grid.boundary_pixels())
        reflection, half_turn = grid.symmetries()
        for triangles, pixels in zip(maps, [reflection, half_turn, reflection[half_turn]]):
            loads = np.searchsorted(boundary, pixels[boundary])
            for disk, image in zip(disks, loads):
                assert np.array_equal(np.sort(triangles[disk.element_set]), disks[image].element_set)

    def test_rejects_bad_fraction(self):
        mesh = build_mesh(PixelGrid(3), 4)
        with pytest.raises(ValueError):
            standard_disk_layout(mesh, 0.5)

    def test_rejects_single_pixel_grid(self):
        mesh = build_mesh(PixelGrid(1), 4)
        with pytest.raises(ValueError):
            standard_disk_layout(mesh, 0.25)


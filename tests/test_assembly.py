import operator
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pixelinv import linsolve
from pixelinv.assembly import (
    LoadVector,
    assemble_global,
    assemble_load,
    assemble_pixel_matrices,
    element_stiffness,
    global_matrix,
)
from pixelinv.forward import forward_matrix, forward_pair_sweep, forward_pair_values, forward_pairs, true_reference
from pixelinv.mesh import (
    PixelGrid,
    build_mesh,
    lattice_symmetries,
    refine,
    refine_disk,
    resolve_disk,
    standard_disk_layout,
)


def quadrature_stiffness(mesh, sigma):
    """Dense stiffness by midpoint-rule quadrature of fitted hat gradients.

    Independent route: on each element, each hat is fitted as the affine
    function through its nodal values and the (constant) gradients are
    integrated by the one-point midpoint rule, exact for constants.
    """
    N = mesh.n_free
    dense = np.zeros((N, N))
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        coords = mesh.vertices[tri]
        area = mesh.areas()[t]
        vander = np.column_stack([np.ones(3), coords])
        grads = [np.linalg.solve(vander, np.eye(3)[a])[1:] for a in range(3)]
        weight = sigma[mesh.element_pixel[t]]
        f = mesh.free_index[tri]
        for a in range(3):
            if f[a] < 0:
                continue
            for b in range(3):
                if f[b] < 0:
                    continue
                dense[f[a], f[b]] += weight * area * float(grads[a] @ grads[b])
    return dense


def max_abs(sparse_matrix):
    coo = sparse_matrix.tocoo()
    return float(np.max(np.abs(coo.data))) if coo.nnz else 0.0


class TestElementStiffness:
    def test_reference_right_triangle(self):
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        for h in (1.0, 0.1):
            K = element_stiffness([(0, 0), (h, 0), (0, h)])
            assert np.allclose(K, expected, atol=1e-14)

    def test_against_quadrature_oracle(self):
        tri = np.array([(0.2, 0.1), (0.9, 0.3), (0.4, 0.8)])
        K = element_stiffness(tri)
        area = 0.5 * abs(
            (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
            - (tri[2, 0] - tri[0, 0]) * (tri[1, 1] - tri[0, 1])
        )
        vander = np.column_stack([np.ones(3), tri])
        grads = [np.linalg.solve(vander, np.eye(3)[a])[1:] for a in range(3)]
        oracle = area * np.array([[ga @ gb for gb in grads] for ga in grads])
        assert np.allclose(K, oracle, atol=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            element_stiffness([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError):
            element_stiffness([(0, 0), (0, 1), (1, 0)])  # clockwise

    @pytest.mark.parametrize("vertex", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
    def test_non_finite_vertex_rejected(self, vertex):
        # A NaN area is neither positive nor non-positive, so it once passed as an all-NaN matrix.
        with pytest.raises(ValueError, match="not positive and finite"):
            element_stiffness([(0.0, 0.0), (1.0, 0.0), vertex])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=6, max_size=6))
    def test_row_sums_and_psd(self, flat):
        tri = np.array(flat).reshape(3, 2)
        area2 = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) - (
            tri[2, 0] - tri[0, 0]
        ) * (tri[1, 1] - tri[0, 1])
        if area2 <= 1e-3:
            return
        K = element_stiffness(tri)
        assert np.max(np.abs(K.sum(axis=1))) <= 1e-12
        assert np.max(np.abs(K - K.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-12


class TestPixelMatrices:
    def test_single_interior_vertex_laplacian(self):
        grid = PixelGrid(2)
        stiffness = assemble_pixel_matrices(build_mesh(grid, 1), grid)
        B = global_matrix(stiffness, np.ones(4)).toarray()
        assert B.shape == (1, 1)
        assert B[0, 0] == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("pixel, error, message", [(1.5, ValueError, "pixel must be an integer, got 1.5"),
                                                       (True, ValueError, "pixel must be an integer, got True"),
                                                       (-1, IndexError, "pixel -1 outside 3x3 grid"),
                                                       (9, IndexError, "pixel 9 outside 3x3 grid")], ids=repr)
    def test_pixel_matrix_refuses_a_bad_pixel(self, pixel, error, message):
        # 1.5 once gave pixel 1's B_i and -1 pixel 8's; True raised numpy's bool-mask IndexError.
        grid = PixelGrid(3)
        stiffness = assemble_pixel_matrices(build_mesh(grid, 2), grid)
        with pytest.raises(error, match=re.escape(message)):
            stiffness.pixel_matrix(pixel)
        assert stiffness.pixel_matrix(np.int64(8)).nnz == stiffness.pixel_matrix(8).nnz > 0

    def test_pixel_sum_identity(self, mesh3x4, grid3, stiffness3x4):
        # No coefficient-independent part: the pixel matrices alone sum to B_1.
        direct = assemble_global(mesh3x4, grid3, np.ones(9))
        total = stiffness3x4.pixel_matrix(0)
        for i in range(1, 9):
            total = total + stiffness3x4.pixel_matrix(i)
        assert max_abs(total - direct) <= 1e-14

    def test_difference_identity(self, mesh3x4, grid3, stiffness3x4):
        ones = np.ones(9)
        base = assemble_global(mesh3x4, grid3, ones)
        for i in range(9):
            bumped = ones.copy()
            bumped[i] += 1.0
            diff = assemble_global(mesh3x4, grid3, bumped) - base
            assert max_abs(stiffness3x4.pixel_matrix(i) - diff) <= 1e-14

    def test_support_locality(self, mesh3x4, stiffness3x4):
        # Diagonal entries vanish for vertices outside the pixel closure.
        for i in range(9):
            Bi = stiffness3x4.pixel_matrix(i)
            pixel_vertices = set(
                mesh3x4.free_index[
                    mesh3x4.triangles[mesh3x4.element_pixel == i].ravel()
                ]
            )
            diag = Bi.diagonal()
            outside = [j for j in range(stiffness3x4.N) if j not in pixel_vertices]
            assert np.all(diag[outside] == 0.0)

    def test_each_pixel_matrix_psd(self, stiffness3x4, rng):
        for i in range(9):
            Bi = stiffness3x4.pixel_matrix(i)
            for _ in range(100):
                v = rng.standard_normal(stiffness3x4.N)
                assert v @ (Bi @ v) >= -1e-12

    def test_quadrature_oracle_small_mesh(self):
        grid = PixelGrid(2)
        mesh = build_mesh(grid, 1)
        assembled = assemble_global(mesh, grid, np.ones(4)).toarray()
        oracle = quadrature_stiffness(mesh, np.ones(4))
        assert np.max(np.abs(assembled - oracle)) <= 1e-12

    @pytest.mark.parametrize("nx, k", [(3, 4), (15, 4), (3, 16)])
    def test_shared_block_is_exact(self, nx, k):
        # On the integer lattice every element matrix is made of
        # half-integers, so the one block all pixels share is exact: its
        # rows sum to exactly 0, and so do those of B_i for a pixel with no
        # boundary vertex.
        grid = PixelGrid(nx)
        stiffness = assemble_pixel_matrices(build_mesh(grid, k))
        block = stiffness.block
        assert block.shape == ((k + 1) ** 2, (k + 1) ** 2)
        assert np.array_equal(2 * block, np.round(2 * block))
        assert np.all(block.sum(axis=1) == 0.0)
        interior = grid.pixel_of(nx // 2, nx // 2)
        assert np.all(stiffness.dofs[interior] >= 0)
        assert np.all(stiffness.pixel_matrix(interior) @ np.ones(stiffness.N) == 0.0)

    def test_grid_defaults_to_the_mesh_grid(self, mesh3x4, stiffness3x4):
        implicit = assemble_pixel_matrices(mesh3x4)
        assert np.array_equal(implicit.dofs, stiffness3x4.dofs)
        assert np.array_equal(implicit.block, stiffness3x4.block)
        assert (implicit.pattern != stiffness3x4.pattern).nnz == 0
        assert (implicit.C != stiffness3x4.C).nnz == 0
        with pytest.raises(ValueError, match="different pixel grid"):
            assemble_pixel_matrices(mesh3x4, PixelGrid(4))


def unique_and_coo_family(mesh, stiffness):
    """``pattern`` and ``C`` built with ``np.unique`` and COO-to-CSR
    conversion from the per-pixel structural mask, independently of the
    sort in :func:`assemble_pixel_matrices`."""
    k, side, n = mesh.k, mesh.grid.nx * mesh.k + 1, mesh.grid.n
    s = (k + 1) ** 2
    iy, ix = np.divmod(mesh.triangles[mesh.element_pixel == 0], side)
    slot = iy * (k + 1) + ix
    structural = np.zeros((s, s), dtype=bool)
    structural[slot[:, :, None], slot[:, None, :]] = True
    dofs = stiffness.dofs
    free = dofs >= 0
    i, a, b = np.nonzero(structural & free[:, :, None] & free[:, None, :])
    N = mesh.n_free
    keys = dofs[i, a] * N + dofs[i, b]
    unique = np.unique(keys)
    rows, cols = np.divmod(unique, max(N, 1))
    pattern = sp.csr_matrix((np.ones(unique.size), (rows, cols)), shape=(N, N))
    C = sp.csr_matrix((stiffness.block[a, b], (np.searchsorted(unique, keys), i)), shape=(unique.size, n))
    return pattern, C


class TestFamilyConstruction:
    @pytest.mark.parametrize(
        "nx, k, refined",
        [(1, 1, False), (2, 1, False), (3, 4, False), (9, 4, False), (15, 2, False), (15, 4, False),
         (3, 16, False), (3, 2, True)],
    )
    def test_pattern_and_C_equal_the_unique_and_coo_build(self, nx, k, refined):
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        if refined:
            mesh = refine(mesh)
        stiffness = assemble_pixel_matrices(mesh)
        for built, reference in zip((stiffness.pattern, stiffness.C), unique_and_coo_family(mesh, stiffness)):
            assert built.format == "csr" and built.shape == reference.shape
            assert built.indptr.dtype == built.indices.dtype == np.int32
            assert built.has_canonical_format
            for name in ("indptr", "indices", "data"):
                got, want = getattr(built, name), getattr(reference, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        if nx == 1 and k == 1:
            assert stiffness.N == 0 and stiffness.C.shape == (0, 1)


class TestGlobalMatrix:
    def test_spd_at_ones(self, stiffness3x4):
        B = global_matrix(stiffness3x4, np.ones(9)).toarray()
        assert np.max(np.abs(B - B.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(B)) > 0.0

    def test_homogeneity(self, stiffness3x4):
        B1 = global_matrix(stiffness3x4, np.ones(9))
        B3 = global_matrix(stiffness3x4, 3.0 * np.ones(9))
        assert max_abs(B3 - 3.0 * B1) <= 1e-14

    def test_matches_direct_assembly(self, mesh3x4, grid3, stiffness3x4, rng):
        sigma = rng.uniform(0.5, 2.0, 9)
        assert max_abs(global_matrix(stiffness3x4, sigma) - assemble_global(mesh3x4, grid3, sigma)) <= 1e-14

    def test_rejects_nonpositive(self, stiffness3x4):
        bad = np.ones(9)
        bad[4] = 0.0
        with pytest.raises(ValueError):
            global_matrix(stiffness3x4, bad)
        bad[4] = -1.0
        with pytest.raises(ValueError):
            global_matrix(stiffness3x4, bad)

    @pytest.mark.parametrize("nx, k, refined", [(3, 4, False), (10, 2, False), (15, 4, False), (3, 8, True)])
    def test_bandwidth_is_nx_k(self, nx, k, refined):
        # linsolve's band Cholesky costs O(N b^2) for bandwidth b: a vertex
        # renumbering that widened the band would make the factor dense
        # without failing a single solve.
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        if refined:
            mesh = refine(mesh)
        B = global_matrix(assemble_pixel_matrices(mesh, grid), np.ones(grid.n)).tocoo()
        assert np.abs(B.row - B.col).max() == nx * mesh.k

    def test_coercivity_ordering(self, stiffness3x4, rng):
        B1 = global_matrix(stiffness3x4, np.ones(9))
        for _ in range(25):
            sigma = rng.uniform(0.25, 4.0, 9)
            v = rng.standard_normal(stiffness3x4.N)
            q1 = v @ (B1 @ v)
            q = v @ (global_matrix(stiffness3x4, sigma) @ v)
            assert sigma.min() * q1 - 1e-12 <= q <= sigma.max() * q1 + 1e-12


def check_family_against_oracles(mesh, grid, stiffness, sigma, loads):
    """``global_matrix`` against the element-by-element assembler, and every
    Jacobian slice against ``-lam^T B_i lam`` with the sparse ``B_i``."""
    B = global_matrix(stiffness, sigma)
    direct = assemble_global(mesh, grid, sigma)
    assert B.shape == direct.shape == (mesh.n_free, mesh.n_free)
    assert max_abs(B - direct) <= 1e-14 * max_abs(direct)
    if mesh.n_free == 0:
        return
    F, jac = forward_matrix(stiffness, sigma, loads)
    lam = np.column_stack([r.solution for r in linsolve.solve_multi(B, [ld.y for ld in loads])])
    for i in range(grid.n):
        Bi = stiffness.pixel_matrix(i)
        expected = -lam.T @ (Bi @ lam)
        # Both sides sum the same products in different orders; scale the
        # bound by the magnitude of those products, not by their sum.
        scale = np.abs(lam).T @ (abs(Bi) @ np.abs(lam))
        assert np.all(np.abs(jac.slices[i] - expected) <= 1e-12 * scale)
    return F


class TestAffineFamily:
    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(1, 5),
        k=st.integers(1, 4),
        log_sigma=st.lists(st.floats(-3.0, 3.0), min_size=25, max_size=25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracles(self, nx, k, log_sigma, seed):
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        stiffness = assemble_pixel_matrices(mesh, grid)
        assert stiffness.n == grid.n and stiffness.N == mesh.n_free
        assert stiffness.dofs.shape == (grid.n, (k + 1) ** 2)
        sigma = 10.0 ** np.array(log_sigma[: grid.n])
        rng = np.random.default_rng(seed)
        loads = [LoadVector(y=rng.uniform(0.0, 1.0, mesh.n_free), disk=None) for _ in range(3)]
        check_family_against_oracles(mesh, grid, stiffness, sigma, loads)

    def test_refined_mesh_matches_oracles(self, grid3, rng):
        # The mesh and carried disks that true_reference builds for k_max = 2k.
        coarse = build_mesh(grid3, 2)
        disks = standard_disk_layout(coarse, 0.25)
        mesh = refine(coarse)
        loads = [assemble_load(mesh, refine_disk(d, coarse)) for d in disks]
        stiffness = assemble_pixel_matrices(mesh, grid3)
        sigma = 10.0 ** rng.uniform(-3.0, 3.0, 9)
        F = check_family_against_oracles(mesh, grid3, stiffness, sigma, loads)
        assert np.array_equal(true_reference(disks, sigma, 4).values, F.values)


class TestLoadVector:
    def test_sum_equals_resolved_area(self, mesh3x4):
        # Interior disk, away from the boundary: total load mass equals the
        # resolved region area because the hats partition unity.
        disk = resolve_disk(mesh3x4, (0.5, 0.5), 0.1)
        load = assemble_load(mesh3x4, disk)
        assert load.y.sum() == pytest.approx(disk.resolved_area(mesh3x4), abs=1e-15)
        assert np.all(load.y >= 0.0)

    def test_single_element_region(self, mesh3x4):
        disk = resolve_disk(mesh3x4, (0.5, 0.5), 0.1)
        single = type(disk)(
            center=disk.center, radius=disk.radius, element_set=disk.element_set[:1], mesh=disk.mesh
        )
        load = assemble_load(mesh3x4, single)
        area = mesh3x4.areas()[single.element_set[0]]
        nonzero = load.y[load.y != 0]
        assert len(nonzero) == 3
        assert np.allclose(nonzero, area / 3.0)

    def test_entries_vanish_off_support(self, mesh3x4, disks3x4):
        disk = disks3x4[0]
        load = assemble_load(mesh3x4, disk)
        touched = set(mesh3x4.free_index[mesh3x4.triangles[disk.element_set].ravel()])
        touched.discard(-1)
        untouched = sorted(set(range(mesh3x4.n_free)) - touched)
        assert np.all(load.y[untouched] == 0.0)

    @pytest.mark.parametrize("nx, k, refined", [(3, 4, False), (15, 4, False), (3, 2, True)])
    def test_equals_add_at(self, nx, k, refined):
        # np.bincount adds each vertex's contributions in the order np.add.at
        # does, so every load is the same to the bit.
        mesh = build_mesh(PixelGrid(nx), k)
        disks = standard_disk_layout(mesh, 0.25)
        if refined:
            mesh, disks = refine(mesh), [refine_disk(d, mesh) for d in disks]
        for disk in disks:
            expected = np.zeros(mesh.n_free)
            f = mesh.free_index[mesh.triangles[disk.element_set]].ravel()
            contrib = np.repeat(mesh.areas()[disk.element_set] / 3.0, 3)
            np.add.at(expected, f[f >= 0], contrib[f >= 0])
            y = assemble_load(mesh, disk).y
            assert y.dtype == expected.dtype and np.array_equal(y, expected)

    @pytest.mark.parametrize("nx, k", [(12, 2), (15, 4)])
    def test_loads_are_bitwise_images_under_the_grid_symmetries(self, nx, k):
        # The reflection about y = x and the half-turn map the lattice onto
        # itself and each standard disk onto the disk of its image pixel; with
        # one area for every triangle, that disk's load is the image of the
        # load to the bit (it once missed by 2.2e-15 and 4.1e-15 of the
        # largest entry).
        grid = PixelGrid(nx)
        mesh = build_mesh(grid, k)
        loads = np.array([assemble_load(mesh, d).y for d in standard_disk_layout(mesh, 0.25)])
        interior = np.flatnonzero(mesh.free_index >= 0)  # in free-index order
        boundary = np.array(grid.boundary_pixels())
        for vertices, pixels in zip(lattice_symmetries(nx * k + 1), lattice_symmetries(nx)):
            images = np.searchsorted(boundary, pixels[boundary])
            moved = loads[images][:, mesh.free_index[vertices[interior]]]
            assert moved.tobytes() == loads.tobytes()

    def test_no_interior_overlap_warns(self):
        # The lower triangle of the bottom-right corner square has all
        # three vertices on the boundary, so a region made of it alone
        # produces an identically zero load.
        grid = PixelGrid(2)
        mesh = build_mesh(grid, 1)
        corner = 2 * (mesh.grid.nx * mesh.k - 1)
        assert np.all(mesh.free_index[mesh.triangles[corner]] == -1)
        disk = resolve_disk(mesh, (0.75, 0.25), 0.2)
        region = type(disk)(
            center=disk.center, radius=disk.radius, element_set=np.array([corner]), mesh=disk.mesh
        )
        with pytest.warns(UserWarning, match="zero"):
            load = assemble_load(mesh, region)
        assert not load.y.any()

    def test_disk_of_another_mesh_refused(self, grid3, mesh3x4):
        disk = standard_disk_layout(build_mesh(grid3, 2), 0.25)[0]
        with pytest.raises(ValueError, match=re.escape("disk of the mesh (nx, k) = (3, 2) used on the mesh (3, 4)")):
            assemble_load(mesh3x4, disk)



class TestCondensation:
    @pytest.mark.parametrize("nx, k", [(3, 1), (2, 2), (3, 4), (4, 3)])
    def test_band_is_the_schur_complement_on_the_skeleton(self, nx, k, rng):
        # S_sigma from the sigma-free reference blocks is B_sigma with every
        # pixel interior eliminated, as a dense elimination computes it.
        grid = PixelGrid(nx)
        stiffness = assemble_pixel_matrices(build_mesh(grid, k), grid)
        c = stiffness.condensation
        sigma = 10.0 ** rng.uniform(-1.0, 1.0, grid.n)
        B = global_matrix(stiffness, sigma).toarray()
        E, I = c.skeleton, np.setdiff1d(np.arange(stiffness.N), c.skeleton)
        assert np.array_equal(np.sort(c.interior.ravel()), I)  # each interior unknown in one pixel
        schur = B[np.ix_(E, E)] - B[np.ix_(E, I)] @ np.linalg.solve(B[np.ix_(I, I)], B[np.ix_(I, E)])
        band, b = c.band(sigma), c.bandwidth
        i, j = np.triu_indices(E.size)
        i, j = i[j - i <= b], j[j - i <= b]
        assert not np.triu(schur, b + 1).any()  # no fill beyond the band
        assert np.allclose(band[b + i - j, j], schur[i, j], rtol=0.0, atol=1e-13 * np.abs(schur).max())
        if k == 1:  # no interior: the skeleton is every unknown and S_sigma is B_sigma
            assert E.size == stiffness.N and c.P.shape == (0, 4)

    def test_skeleton_size_and_bandwidth(self):
        # nx=15, k=4: 14 full lattice rows of 59 unknowns and 45 rows with 14
        # on the vertical pixel edges; coupled across a pixel, at most 105 apart.
        grid = PixelGrid(15)
        c = assemble_pixel_matrices(build_mesh(grid, 4), grid).condensation
        assert c.skeleton.size == 14 * 59 + 45 * 14 == 1456
        assert c.bandwidth == 105

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("call", [
        lambda stiffness, loads: forward_matrix(stiffness, np.ones(9), loads),
        lambda stiffness, loads: forward_pairs(stiffness, np.ones(9), [(loads[0], loads[6])]),
        lambda stiffness, loads: forward_pair_values(stiffness, np.ones(9), [(loads[0], loads[6])]),
    ], ids=["forward_matrix", "forward_pairs", "forward_pair_values"])
    def test_built_on_first_use_only(self, grid3, k, call):
        # Only where a pixel has (k - 1)^2 >= 4 interior unknowns (k >= 3) do the
        # forward maps solve on the skeleton; at k <= 2 they factor B_sigma itself.
        mesh = build_mesh(grid3, k)
        stiffness = assemble_pixel_matrices(mesh, grid3)
        loads = [assemble_load(mesh, d) for d in standard_disk_layout(mesh, 0.25)]
        forward_pair_sweep(stiffness, np.ones(9), [3, 5], np.full((2, 2), 0.5), [(loads[0], loads[6])])
        assert "condensation" not in vars(stiffness)  # the sweep never needs it
        call(stiffness, loads)
        if k <= 2:
            assert "condensation" not in vars(stiffness)
        else:
            assert vars(stiffness)["condensation"] is stiffness.condensation


_SHARED_ARRAYS = [
    *(f"mesh.{name}" for name in ("vertices", "triangles", "element_pixel", "boundary_vertex", "free_index")),
    "areas", "disk.center", "disk.element_set", "load.y", "stiffness.dofs", "stiffness.block",
    *(f"stiffness.{m}.{a}" for m in ("pattern", "C") for a in ("data", "indices", "indptr")),
    *(f"condensation.{name}" for name in ("skeleton", "interior", "edge", "P", "K_II_inv", "band_position",
                                          "band_pixel", "band_value")),
    *(f"condensation.scatter.{a}" for a in ("data", "indices", "indptr")),
]


class TestReadOnly:
    """Set-up arrays are shared: every disk and load of a mesh reads its
    geometry, and the cached condensation holds the stiffness block. An
    in-place change would leave what was built from them stale, so it raises."""

    @pytest.fixture(scope="class")
    def shared(self):
        mesh = build_mesh(PixelGrid(3), 4)
        disk = standard_disk_layout(mesh)[0]
        stiffness = assemble_pixel_matrices(mesh)
        return types.SimpleNamespace(mesh=mesh, areas=mesh.areas(), disk=disk,
                                     load=assemble_load(mesh, disk), stiffness=stiffness,
                                     condensation=stiffness.condensation)

    @pytest.mark.parametrize("path", _SHARED_ARRAYS)
    def test_in_place_change_raises(self, shared, path):
        array = operator.attrgetter(path)(shared)
        assert array.size
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0

    def test_block_cannot_go_stale_under_the_condensation(self, stiffness3x4, loads3x4):
        # Doubling the block in place once left F as it was but gave J twice over.
        F, J = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        with pytest.raises(ValueError, match="read-only"):
            stiffness3x4.block[:] *= 2
        with pytest.raises(ValueError, match="read-only"):
            stiffness3x4.C.data *= 2
        F2, J2 = forward_matrix(stiffness3x4, np.ones(9), loads3x4)
        assert np.array_equal(F2.values, F.values) and np.array_equal(J2.slices, J.slices)

    def test_copies_stay_writable(self, shared):
        # Functions that write into a fresh matrix, as the sweep does, keep working.
        B = global_matrix(shared.stiffness, np.ones(9))
        B.data *= 2
        shared.stiffness.C.tocsc().data[0] += 1.0

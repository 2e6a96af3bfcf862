import numpy as np
import pytest
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
from pixelinv.forward import forward_matrix, true_reference
from pixelinv.mesh import PixelGrid, build_mesh, refine, refine_disk, resolve_disk, standard_disk_layout


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
        assert np.array_equal(true_reference(grid3, disks, sigma, 2, 4).values, F.values)


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
            center=disk.center, radius=disk.radius, element_set=disk.element_set[:1]
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
            center=disk.center, radius=disk.radius, element_set=np.array([corner])
        )
        with pytest.warns(UserWarning, match="zero"):
            load = assemble_load(mesh, region)
        assert not load.y.any()


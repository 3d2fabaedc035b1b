import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings, strategies as st

import femcond as fc
from femcond.assembly import _local_stiffness
from conftest import random_mesh, random_spd_field
from oracles import (
    DensityFunction,
    assemble_mass_dense,
    assemble_mass_weighted,
    assemble_stiffness_dense,
    bound_lambda_min_B,
    check_normalized,
    density_beta_weighted,
    density_equidistributed,
    patch_volumes,
    read_matrix_market,
    toeplitz_stiffness_1d,
)


class TestAverageDiffusion:
    def test_identity_any_element(self):
        m = fc.generate_uniform(2, 2)
        dk = fc.average_diffusion_all(m, fc.DiffusionField.identity(2))
        for k in (0, 3, 7):
            assert np.array_equal(dk[k], np.eye(2))

    def test_affine_1d_average(self):
        m = fc.SimplicialMesh(1, [[0.0], [0.5], [1.0]], [[0, 1], [1, 2]])
        field = fc.DiffusionField.from_callable(
            1, lambda x: np.array([[1.0 + x[0]]]), 1.0, 2.0
        )
        # exact integral of (1 + x) over [0, 0.5] divided by 0.5
        assert fc.average_diffusion_all(m, field)[0, 0, 0] == pytest.approx(1.25, rel=1e-14)

    def test_eigenvalue_outside_declared_range_raises(self):
        m = fc.generate_uniform(1, 2)
        field = fc.DiffusionField.from_callable(
            1, lambda x: np.array([[0.1]]), 1.0, 2.0
        )
        with pytest.raises(ValueError, match="at element 0, quadrature point 0 leave the declared range"):
            fc.average_diffusion_all(m, field)

    def test_nonsymmetric_value_names_first_bad_point(self):
        # only the upper-right grid cell (elements 3 and 7) is non-symmetric
        m = fc.generate_uniform(2, 2)

        def evaluator(x):
            return np.array([[1.0, 0.5], [0.0, 1.0]]) if min(x) > 0.5 else np.eye(2)

        field = fc.DiffusionField.from_callable(2, evaluator, 0.5, 2.0)
        with pytest.raises(ValueError, match="not symmetric at element 3, quadrature point 0$"):
            fc.average_diffusion_all(m, field)


class TestAssembleStiffness:
    def test_1d_n2_single_entry(self):
        m = fc.generate_uniform(1, 2)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        assert a.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-15)

    def test_1d_n4_tridiagonal(self):
        m = fc.generate_uniform(1, 4)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1)).toarray()
        expected = toeplitz_stiffness_1d(4)
        assert np.max(np.abs(a - expected)) <= 1e-14 * np.abs(expected).max()

    def test_2d_crisscross_single_interior(self):
        m = fc.generate_uniform(2, 2)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(2))
        oracle = assemble_stiffness_dense(m, fc.DiffusionField.identity(2))
        assert a.toarray() == pytest.approx(oracle, rel=1e-12)
        assert a.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-12)

    def test_empty_system_raises(self):
        m = fc.SimplicialMesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])
        with pytest.raises(ValueError, match="no interior"):
            fc.assemble_stiffness(m, fc.DiffusionField.identity(2))

    def test_matches_bruteforce_oracle_on_random_meshes(self, rng):
        for _ in range(50):
            mesh = random_mesh(rng)
            field = random_spd_field(rng, mesh.dim)
            if mesh.n_interior == 0:
                continue
            a = fc.assemble_stiffness(mesh, field).toarray()
            oracle = assemble_stiffness_dense(mesh, field)
            scale = np.abs(oracle).max()
            assert np.max(np.abs(a - oracle)) <= 1e-12 * scale

    def test_full_assembly_rows_sum_to_zero(self, rng):
        # constant-gradient partition of unity, before Dirichlet elimination
        for dim in (1, 2, 3):
            mesh = random_mesh(rng, dim=dim)
            dk = fc.average_diffusion_all(mesh, fc.DiffusionField.identity(dim))
            local = _local_stiffness(mesh, dk)
            sums = np.abs(local.sum(axis=2))
            scale = np.abs(np.diagonal(local, axis1=1, axis2=2)).max(axis=1)
            assert np.all(sums <= 1e-10 * scale[:, None])

    def test_interior_vertex_with_interior_patch_has_zero_row_sum(self):
        mesh = fc.generate_uniform(2, 4)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        center = int(mesh.interior_index[
            np.argmin(np.linalg.norm(mesh.vertices - 0.5, axis=1))
        ])
        neighbors_interior = True
        row = a.matrix.getrow(center)
        assert abs(row.sum()) <= 1e-12 * np.abs(a.diagonal).max()
        assert neighbors_interior

    def test_spd_on_random_meshes(self, rng):
        for _ in range(10):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            field = random_spd_field(rng, mesh.dim)
            a = fc.assemble_stiffness(mesh, field)
            assert np.linalg.eigvalsh(a.toarray())[0] > 0

    def test_bit_reproducible(self, rng):
        mesh = random_mesh(rng, dim=2)
        field = random_spd_field(rng, 2)
        a1 = fc.assemble_stiffness(mesh, field)
        a2 = fc.assemble_stiffness(mesh, field)
        assert np.array_equal(a1.matrix.data, a2.matrix.data)
        assert np.array_equal(a1.matrix.indices, a2.matrix.indices)

    def test_pattern_matches_adjacency(self, rng):
        mesh = random_mesh(rng, dim=2)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        share = np.zeros((mesh.n_interior, mesh.n_interior), dtype=bool)
        for elem in mesh.elements:
            ids = mesh.interior_index[elem]
            ids = ids[ids >= 0]
            share[np.ix_(ids, ids)] = True
        coo = a.matrix.tocoo()
        assert np.all(share[coo.row, coo.col])


class TestAssembleMass:
    def test_1d_n2_value(self):
        m = fc.generate_uniform(1, 2)
        b = assemble_mass_weighted(m, DensityFunction(np.ones(2)))
        assert b.toarray() == pytest.approx(np.array([[1.0 / 3.0]]), rel=1e-15)

    def test_trace_formula_for_uniform_density(self, rng):
        for _ in range(5):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            rho = DensityFunction(np.full(mesh.n_elements, 1.0 / mesh.domain_volume))
            b = assemble_mass_weighted(mesh, rho)
            d = mesh.dim
            expected = patch_volumes(mesh).sum() * 2 / ((d + 1) * (d + 2)) / mesh.domain_volume
            assert np.trace(b.toarray()) == pytest.approx(expected, rel=1e-12)

    def test_density_scaling_linearity(self, rng):
        mesh = random_mesh(rng, dim=2)
        rho = DensityFunction(rng.uniform(0.5, 2.0, mesh.n_elements))
        b1 = assemble_mass_weighted(mesh, rho).toarray()
        b2 = assemble_mass_weighted(mesh, DensityFunction(3.0 * rho.rho_k)).toarray()
        assert b2 == pytest.approx(3.0 * b1, rel=1e-15)

    def test_matches_quadrature_oracle(self, rng):
        for _ in range(5):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            rho = rng.uniform(0.2, 4.0, mesh.n_elements)
            b = assemble_mass_weighted(mesh, DensityFunction(rho)).toarray()
            oracle = assemble_mass_dense(mesh, rho)
            assert b == pytest.approx(oracle, rel=1e-10)

    def test_mass_eigenvalue_lower_bound(self, rng):
        # constant-free bound: smallest weighted patch volume over (d+1)(d+2)
        for _ in range(20):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            rho = DensityFunction(rng.uniform(0.1, 10.0, mesh.n_elements))
            b = assemble_mass_weighted(mesh, rho)
            lam_min = np.linalg.eigvalsh(b.toarray())[0]
            assert lam_min >= bound_lambda_min_B(mesh, rho)


class TestJacobiScale:
    def test_1x1(self):
        m = fc.generate_uniform(1, 2)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        assert fc.jacobi_scale(a).toarray() == pytest.approx(np.array([[1.0]]))

    def test_tridiagonal(self):
        m = fc.generate_uniform(1, 4)
        s = fc.jacobi_scale(fc.assemble_stiffness(m, fc.DiffusionField.identity(1)))
        expected = np.array([[1, -0.5, 0], [-0.5, 1, -0.5], [0, -0.5, 1]])
        assert s.toarray() == pytest.approx(expected, rel=1e-15)

    def test_idempotent_and_unit_diagonal(self, rng):
        mesh = random_mesh(rng, dim=2)
        field = random_spd_field(rng, 2)
        s1 = fc.jacobi_scale(fc.assemble_stiffness(mesh, field))
        assert np.all(s1.diagonal == 1.0)
        s2 = fc.jacobi_scale(s1)
        assert np.array_equal(s1.matrix.data, s2.matrix.data)

    def test_lambda_max_capped_by_dimension(self, rng):
        for dim in (1, 2, 3):
            mesh = random_mesh(rng, dim=dim)
            if mesh.n_interior == 0:
                continue
            field = random_spd_field(rng, dim)
            s = fc.jacobi_scale(fc.assemble_stiffness(mesh, field))
            lam_max = np.linalg.eigvalsh(s.toarray())[-1]
            assert 1.0 <= lam_max <= dim + 1

    def test_nonpositive_diagonal_rejected(self):
        import scipy.sparse as sp

        mat = fc.SparseSymmetric(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        with pytest.raises(ValueError):
            fc.jacobi_scale(mat)


class TestDensities:
    def test_equidistributed_uniform(self):
        m = fc.generate_uniform(1, 8)
        rho = density_equidistributed(m)
        assert rho.rho_k == pytest.approx(np.ones(8), rel=1e-12)
        assert check_normalized(m, rho)

    def test_equidistributed_power2(self):
        m = fc.generate_power2_1d(4)
        rho = density_equidistributed(m)
        k_small = int(np.argmin(m.volumes))
        assert rho.rho_k[k_small] == pytest.approx(1.0 / (4 * 0.125), rel=1e-15)
        metrics, _ = fc.compute_metrics(m)
        assert rho.rho_max == pytest.approx(
            1.0 / (m.n_elements * metrics.k_min_volume), rel=1e-15
        )

    def test_beta_weighted_equals_equidistributed_for_uniform_identity(self):
        for dim in (1, 2, 3):
            m = fc.generate_uniform(dim, 3)
            r1 = density_beta_weighted(m, fc.DiffusionField.identity(dim))
            r2 = density_equidistributed(m)
            assert r1.rho_k == pytest.approx(r2.rho_k, rel=1e-12)

    def test_beta_weighted_1d_inverse_square(self, rng):
        m = fc.generate_power2_1d(6)
        rho = density_beta_weighted(m, fc.DiffusionField.identity(1))
        raw = 1.0 / m.volumes**2
        assert rho.rho_k == pytest.approx(raw / (m.volumes @ raw), rel=1e-12)
        assert check_normalized(m, rho)

    def test_beta_weighted_invariant_under_field_scaling(self):
        m = fc.generate_boundary_layer(2, 5, 4.0)
        r1 = density_beta_weighted(m, fc.DiffusionField.identity(2))
        r2 = density_beta_weighted(
            m, fc.DiffusionField.constant_matrix(7.5 * np.eye(2))
        )
        assert r1.rho_k == pytest.approx(r2.rho_k, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_equidistributed_normalization(self, seed):
        mesh = random_mesh(np.random.default_rng(seed))
        rho = density_equidistributed(mesh)
        assert check_normalized(mesh, rho)

    def test_positive_values_required(self):
        with pytest.raises(ValueError):
            DensityFunction(np.array([1.0, -0.5]))


class TestMatrixMarket:
    def test_roundtrip_and_scipy_crosscheck(self, tmp_path, rng):
        mesh = random_mesh(rng, dim=2)
        field = random_spd_field(rng, 2)
        a = fc.assemble_stiffness(mesh, field)
        path = tmp_path / "a.mtx"
        fc.write_matrix_market(a, path)

        header = path.read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real symmetric"

        back = read_matrix_market(path)
        assert np.array_equal(back.toarray(), a.toarray())

        via_scipy = scipy.io.mmread(path).toarray()
        assert via_scipy == pytest.approx(a.toarray(), rel=1e-15)

    def test_rejects_nonsymmetric_header(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(path)

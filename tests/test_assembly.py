import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import femcond as fc
from femcond.assembly import _element_metric, _local_stiffness, _sym_eig_range
from conftest import random_mesh, random_spd_field, stretched_matrices
from oracles import (
    DensityFunction,
    assemble_mass_dense,
    assemble_mass_weighted,
    assemble_stiffness_dense,
    average_diffusion_dense,
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
        # 2D: only the upper-right grid cell (elements 3 and 7) is non-symmetric
        m = fc.generate_uniform(2, 2)

        def evaluator(x):
            return np.array([[1.0, 0.5], [0.0, 1.0]]) if min(x) > 0.5 else np.eye(2)

        field = fc.DiffusionField.from_callable(2, evaluator, 0.5, 2.0)
        with pytest.raises(ValueError, match="not symmetric at element 3, quadrature point 0$"):
            fc.average_diffusion_all(m, field)

        # 3D, per-element points: tetrahedron 7 is the first with a point
        # beyond x + y + z = 2.2, and its point 2 the first such point
        def evaluator_3d(x):
            return np.eye(3) + np.eye(3, k=1) / 2 if x.sum() > 2.2 else np.eye(3)

        field = fc.DiffusionField.from_callable(3, evaluator_3d, 0.5, 2.0)
        with pytest.raises(ValueError, match="not symmetric at element 7, quadrature point 2$"):
            fc.average_diffusion_all(fc.generate_uniform(3, 2), field)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("dim, n, cut, where", [
        # 2D points are shared edge midpoints; triangle 8 meets x > 0.6 first
        (2, 4, lambda x: x[0] > 0.6, "element 8, quadrature point 0"),
        # point 3 of tetrahedron 1 is the first at height z > 0.7
        (3, 2, lambda x: x[2] > 0.7, "element 1, quadrature point 3"),
    ], ids=["2d", "3d"])
    def test_non_finite_value_names_first_bad_point(self, value, dim, n, cut, where):
        def evaluator(x):
            return np.diag(np.full(dim, value)) if cut(x) else np.eye(dim)

        field = fc.DiffusionField.from_callable(dim, evaluator, 0.5, 2.0)
        mesh = fc.generate_uniform(dim, n)
        with pytest.raises(ValueError, match=f"diffusion matrix not finite at {where}$"):
            fc.average_diffusion_all(mesh, field)
        with pytest.raises(ValueError, match=f"not finite at {where}$"):
            fc.build_report(mesh, field)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quadratic_field_matches_dense_oracle(self, dim, rng):
        # every rule used is exact for quadratics, the 3-point oracle rule too
        field = fc.DiffusionField.from_callable(dim, _quadratic_field, 0.1, dim + 2.0)
        for _ in range(3):
            mesh = random_mesh(rng, dim)
            dk = fc.average_diffusion_all(mesh, field)
            oracle = np.array([average_diffusion_dense(mesh, field, mesh.vertices[e], 3)
                               for e in mesh.elements])
            err = np.abs(dk - oracle).max(axis=(1, 2))
            assert np.all(err <= 1e-13 * np.abs(oracle).max(axis=(1, 2)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_batch_evaluator_called_once(self, dim, rng):
        # one call on every point of the mesh, and the same D_K bits as the
        # pointwise twin that from_callable loops over
        calls = []

        def batch(points):
            calls.append(points.shape)
            return _quadratic_field_batch(points)

        batch_field = fc.DiffusionField(dim, batch, 0.1, dim + 2.0)
        pointwise = fc.DiffusionField.from_callable(dim, _quadratic_field, 0.1, dim + 2.0)
        mesh = random_mesh(rng, dim)
        dk = fc.average_diffusion_all(mesh, batch_field)
        n_points = len(mesh.facets) if dim == 2 else mesh.n_elements * (dim + 1)
        assert calls == [(n_points, dim)]
        assert np.array_equal(dk, fc.average_diffusion_all(mesh, pointwise))

    def test_field_needs_exactly_one_of_evaluator_and_constant(self):
        with pytest.raises(ValueError, match="exactly one of evaluator and constant"):
            fc.DiffusionField(2, None, 1.0, 1.0)
        with pytest.raises(ValueError, match="exactly one of evaluator and constant"):
            fc.DiffusionField(2, _quadratic_field_batch, 1.0, 1.0, constant=np.eye(2))

    def test_wrong_batch_shape_rejected(self):
        field = fc.DiffusionField(2, lambda p: np.ones((len(p), 2)), 1.0, 1.0)
        with pytest.raises(ValueError, match=r"gave shape \(16, 2\), not \(16, 2, 2\)"):
            fc.average_diffusion_all(fc.generate_uniform(2, 2), field)

    def test_variable_field_averages_bit_identical(self, rng):
        mesh = random_mesh(rng, dim=2)
        field = fc.DiffusionField.from_callable(2, _quadratic_field, 0.1, 4.0)
        first = fc.average_diffusion_all(mesh, field)
        assert np.array_equal(first, fc.average_diffusion_all(mesh, field))


class TestFromCallable:
    def test_one_call_per_point_in_order(self, rng):
        seen = []

        def spy(x):
            seen.append(np.array(x))
            return _quadratic_field(x)

        field = fc.DiffusionField.from_callable(2, spy, 0.1, 4.0)
        points = rng.uniform(size=(37, 2))
        values = field.evaluator(points)
        assert np.array_equal(np.array(seen), points)
        assert np.array_equal(values, _quadratic_field_batch(points))
        # through the mesh: one call per edge midpoint, in the order of the edges
        seen.clear()
        mesh = random_mesh(rng, dim=2)
        fc.average_diffusion_all(mesh, field)
        ends = mesh.vertices[mesh.facets]
        assert np.array_equal(np.array(seen), 0.5 * (ends[:, 0] + ends[:, 1]))

    def test_nested_list_values(self):
        field = fc.DiffusionField.from_callable(
            2, lambda x: [[1.0 + x[0], 0.0], [0.0, 2.0]], 1.0, 3.0)
        values = field.evaluator(np.array([[0.0, 0.0], [0.5, 1.0]]))
        assert values.dtype == float
        assert np.array_equal(values, [[[1.0, 0.0], [0.0, 2.0]], [[1.5, 0.0], [0.0, 2.0]]])
        dk = fc.average_diffusion_all(fc.generate_uniform(2, 2), field)
        assert dk.shape == (8, 2, 2)

    @pytest.mark.parametrize("f", [
        lambda x: np.eye(3),
        lambda x: np.eye(3) if x[0] > 0.5 else np.eye(2),
    ], ids=["every-point", "one-point"])
    def test_value_of_another_size_raises(self, f):
        field = fc.DiffusionField.from_callable(2, f, 1.0, 1.0)
        with pytest.raises(ValueError):
            field.evaluator(np.array([[0.25, 0.25], [0.75, 0.25]]))
        with pytest.raises(ValueError):
            fc.average_diffusion_all(fc.generate_uniform(2, 2), field)


def _stretched_metrics(rng, count: int, aspect: float) -> np.ndarray:
    """G G^T for the inverse G of stretched 2D edge matrices: element metrics
    whose eigenvalues spread by up to about aspect^2."""
    g = np.linalg.inv(stretched_matrices(rng, 2, count, aspect))
    m = g @ np.swapaxes(g, 1, 2)
    return 0.5 * (m + np.swapaxes(m, 1, 2))


class TestSymEigRange:
    """The closed-form 2D eigenvalue range against numpy.linalg.eigvalsh."""

    @staticmethod
    def _stacks(rng) -> list[np.ndarray]:
        r = rng.standard_normal((500, 2, 2))
        stacks = [r + np.swapaxes(r, 1, 2)]
        stacks += [_stretched_metrics(rng, 500, aspect) for aspect in (10.0, 1e3)]
        # the benchmark's element metrics (D = I, D = diag(1 + x, 1 + 10 y))
        # and its field values at the edge midpoints
        mesh = fc.generate_boundary_layer(2, 100, 125.0)
        field = fc.DiffusionField.from_callable(
            2, lambda x: np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]]), 1.0, 11.0)
        ends = mesh.vertices[mesh.facets]
        stacks += [_element_metric(mesh, np.broadcast_to(np.eye(2), (mesh.n_elements, 2, 2))),
                   _element_metric(mesh, fc.average_diffusion_all(mesh, field)),
                   field.evaluator(0.5 * (ends[:, 0] + ends[:, 1]))]
        return stacks

    def test_2d_matches_lapack(self, rng):
        # a relative tolerance of eps times the condition number |lambda|max / |lambda|
        eps = np.finfo(float).eps
        for m in self._stacks(rng):
            ref = np.linalg.eigvalsh(m)
            tol = 8 * eps * np.abs(ref).max(axis=1)
            low, high = _sym_eig_range(m)
            assert np.all(np.abs(low - ref[:, 0]) <= tol)
            assert np.all(np.abs(high - ref[:, 1]) <= tol)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dimensions_are_lapack(self, dim, rng):
        r = rng.standard_normal((200, dim, dim))
        m = r + np.swapaxes(r, 1, 2)
        low, high = _sym_eig_range(m)
        ref = np.linalg.eigvalsh(m)
        assert np.array_equal(low, ref[:, 0]) and np.array_equal(high, ref[:, -1])


def _quadratic_field(x):
    """D_ii = i + 1 + x_i^2 and D_ij = x_i x_j / 4; in 2D
    [[1 + x^2, xy/4], [xy/4, 2 + y^2]].  SPD on the unit box."""
    d = len(x)
    return np.diag(np.arange(1.0, d + 1) + x**2) + (1 - np.eye(d)) * np.outer(x, x) / 4


def _quadratic_field_batch(points):
    """_quadratic_field at each row of points (m, d), as (m, d, d)."""
    d = points.shape[1]
    diag = np.arange(1.0, d + 1) + points**2
    outer = points[:, :, None] * points[:, None, :]
    return diag[:, :, None] * np.eye(d) + (1 - np.eye(d)) * outer / 4


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
            local = _local_stiffness(mesh, _element_metric(mesh, dk))
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

    def test_duplicate_entries_give_unit_diagonal(self):
        # [[4, 1], [1, 4]] with its (0, 0) entry stored as 2 + 2
        m = sp.csr_matrix(([2.0, 2.0, 1.0, 1.0, 4.0], [0, 0, 1, 0, 1], [0, 3, 5]),
                          shape=(2, 2))
        s = fc.jacobi_scale(fc.SparseSymmetric(m))
        assert np.array_equal(s.diagonal, [1.0, 1.0])
        assert np.array_equal(s.toarray(), [[1.0, 0.25], [0.25, 1.0]])

    def test_keeps_stiffness_pattern_with_explicit_zeros(self):
        mesh = fc.generate_boundary_layer(2, 10, 5.0)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        s = fc.jacobi_scale(a)
        zeros = a.matrix.data == 0.0
        assert zeros.any()
        assert np.array_equal(s.matrix.indptr, a.matrix.indptr)
        assert np.array_equal(s.matrix.indices, a.matrix.indices)
        assert np.all(s.matrix.data[zeros] == 0.0)


class TestSparseSymmetric:
    def test_noncanonical_input_summed_into_a_copy(self):
        # [[4, 0], [0, 4]]: (0, 0) stored as 2 + 2, row 1 unsorted, the
        # off-diagonal zeros stored explicitly
        data, indices, indptr = [2.0, 0.0, 2.0, 4.0, 0.0], [0, 1, 0, 1, 0], [0, 3, 5]
        m = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
        a = fc.SparseSymmetric(m)
        assert np.array_equal(m.data, data)
        assert np.array_equal(m.indices, indices)
        assert np.array_equal(m.indptr, indptr)
        assert a.matrix.has_canonical_format
        assert np.array_equal(a.matrix.indptr, [0, 2, 4])
        assert np.array_equal(a.matrix.indices, [0, 1, 0, 1])
        assert np.array_equal(a.matrix.data, [4.0, 0.0, 0.0, 4.0])
        assert np.array_equal(a.diagonal, [4.0, 4.0])

    def test_canonical_input_stored_as_is(self):
        mesh = fc.generate_uniform(2, 4)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        assert fc.SparseSymmetric(a.matrix).matrix is a.matrix


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

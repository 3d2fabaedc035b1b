import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import femcond as fc
from femcond.assembly import SparseSymmetric
from femcond.spectra import (
    SHIFT_GAP,
    EigenSolveError,
    _Band,
    _inverse_above,
    _rayleigh,
    _rounding_margin,
    _shift_invert,
    _shifted_bound,
    extreme_eigenvalues,
)
from conftest import random_mesh, random_spd_field
from oracles import (
    DensityFunction,
    assemble_mass_weighted,
    density_equidistributed,
    generalized_min_eigenvalue,
    interlacing_lower_bound,
    lambda_max_unfiltered,
    toeplitz_kappa_1d,
)


def _sparse(dense) -> SparseSymmetric:
    return SparseSymmetric(sp.csr_matrix(np.asarray(dense, dtype=float)))


class TestExtremeEigenvalues:
    def test_identity_order_5(self):
        r = extreme_eigenvalues(_sparse(np.eye(5)))
        assert r.lambda_min == pytest.approx(1.0, abs=1e-14)
        assert r.lambda_max == pytest.approx(1.0, abs=1e-14)
        assert r.kappa == pytest.approx(1.0, abs=1e-14)
        assert r.method == "dense"

    def test_tridiagonal_closed_form(self):
        m = fc.generate_uniform(1, 4)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        r = extreme_eigenvalues(a)
        assert r.lambda_min == pytest.approx(4 * (2 - math.sqrt(2)), rel=1e-13)
        assert r.lambda_max == pytest.approx(4 * (2 + math.sqrt(2)), rel=1e-13)
        assert r.kappa == pytest.approx((2 + math.sqrt(2)) / (2 - math.sqrt(2)), rel=1e-13)

    @pytest.mark.parametrize("n", [64, 1024])
    def test_uniform_1d_kappa_closed_form(self, n):
        m = fc.generate_uniform(1, n)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        r = extreme_eigenvalues(a, tol=1e-8)
        assert r.kappa == pytest.approx(toeplitz_kappa_1d(n), rel=1e-8)

    def test_iterative_path_matches_dense(self, rng):
        # overlap regime: same matrices solved by both paths
        for _ in range(20):
            n_elems = int(rng.integers(500, 1200))
            widths = rng.uniform(0.2, 3.0, n_elems)
            nodes = np.concatenate([[0.0], np.cumsum(widths)])
            nodes /= nodes[-1]
            mesh = fc.SimplicialMesh(
                1, nodes, np.stack([np.arange(n_elems), np.arange(1, n_elems + 1)], axis=1)
            )
            a = fc.jacobi_scale(
                fc.assemble_stiffness(mesh, fc.DiffusionField.identity(1))
            )
            tol = 1e-8
            dense = extreme_eigenvalues(a, tol, dense_cutoff=a.order)
            iterative = extreme_eigenvalues(a, tol, dense_cutoff=10)
            assert iterative.method == "lanczos_shift_invert"
            assert iterative.converged
            assert iterative.lambda_min == pytest.approx(dense.lambda_min, rel=10 * tol)
            assert iterative.lambda_max == pytest.approx(dense.lambda_max, rel=10 * tol)

    def test_rayleigh_certificates(self, rng):
        mesh = random_mesh(rng, dim=2)
        a = fc.assemble_stiffness(mesh, random_spd_field(rng, 2))
        tol = 1e-8
        r = extreme_eigenvalues(a, tol)
        rq_min = (r.v_min @ (a.matrix @ r.v_min)) / (r.v_min @ r.v_min)
        rq_max = (r.v_max @ (a.matrix @ r.v_max)) / (r.v_max @ r.v_max)
        assert r.lambda_min <= rq_min <= r.lambda_min * (1 + tol)
        assert r.lambda_max * (1 - tol) <= rq_max <= r.lambda_max * (1 + 1e-15)

    def test_nonconvergence_is_flagged(self, monkeypatch):
        # MAXITER = 1: both lambda_max shift-invert solves stop after their
        # first 10-vector Krylov basis, unconverged.  At order 699 one basis
        # converges every solve, so the order is 1 999.
        m = fc.generate_uniform(1, 2000)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        monkeypatch.setattr(fc.spectra, "MAXITER", 1)
        r = extreme_eigenvalues(a, tol=1e-8, dense_cutoff=10)
        assert not r.converged

    def test_non_spd_rejected(self):
        with pytest.raises(fc.spectra.EigenSolveError):
            extreme_eigenvalues(_sparse(np.diag([1.0, -2.0])))

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(_sparse(np.eye(3)), tol=1e-2)


def _boundary_layer_a() -> SparseSymmetric:
    """Order 400, aspect 125: the two largest eigenvalues differ by 2.3e-6 relative."""
    mesh = fc.generate_boundary_layer(2, 20, 125.0)
    return fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))


def _laplacian_1d(n: int, shift: float = 0.0) -> SparseSymmetric:
    """tridiag(-1, 2 - shift, -1) of order n."""
    return SparseSymmetric(
        sp.diags([-1.0, 2.0 - shift, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    )


class TestFilteredLambdaMax:
    """The iterative lambda_max, shift-invert from above, against dense
    eigensolvers, plain Lanczos on A and lower bounds."""

    @pytest.mark.parametrize("seed", range(5))
    def test_clustered_top_matches_dense_and_unfiltered(self, seed):
        a = _boundary_layer_a()
        tol = 1e-8
        dense = extreme_eigenvalues(a, tol, dense_cutoff=a.order)
        filtered = extreme_eigenvalues(a, tol, dense_cutoff=10, seed=seed)
        assert filtered.method == "lanczos_shift_invert"
        assert filtered.converged
        assert filtered.lambda_max == pytest.approx(dense.lambda_max, rel=10 * tol)
        assert filtered.lambda_max == pytest.approx(
            lambda_max_unfiltered(a, tol, seed), rel=10 * tol)

    def test_diagonal_matrix_above_cutoff(self, rng):
        # no off-diagonal entries: the Gershgorin bound is max a_ii
        diag = rng.uniform(1.0, 2.0, 3000)
        a = SparseSymmetric(sp.diags(diag, format="csr"))
        r = extreme_eigenvalues(a)
        assert r.method == "lanczos_shift_invert"
        assert r.converged
        assert r.lambda_max == pytest.approx(diag.max(), rel=1e-12)
        assert r.lambda_min == pytest.approx(diag.min(), rel=1e-12)

    def test_indefinite_above_cutoff_rejected(self):
        n = 3000
        lam1, lam2 = 2.0 - 2.0 * np.cos(np.arange(1, 3) * np.pi / (n + 1))
        # one negative eigenvalue, and it is the one nearest zero
        shift = 0.75 * lam1 + 0.25 * lam2
        with pytest.raises(EigenSolveError, match="not SPD"):
            extreme_eigenvalues(_laplacian_1d(n, shift=shift))
        # no positive diagonal entry: the factor at zero fails
        negated = SparseSymmetric(-_laplacian_1d(n).matrix)
        with pytest.raises(EigenSolveError, match="not SPD"):
            extreme_eigenvalues(negated)

    def test_negative_eigenvalue_never_wins(self):
        # The Gershgorin shift 10 (1 + 1e-4) lies 8 above 2 and 20 above
        # -10: shift-invert there finds 2, though |-10| is the largest.
        diag = np.concatenate([[-10.0], np.linspace(1.0, 2.0, 2999)])
        a = SparseSymmetric(sp.diags(diag, format="csr"))
        gershgorin = float(np.abs(diag).max())
        inverse = _inverse_above(_Band(a.matrix), gershgorin * (1 + SHIFT_GAP), gershgorin)
        v0 = np.random.default_rng(0).standard_normal(a.order)
        lam_max, residual, _, ok = _shift_invert(a, inverse, 1e-10, v0)
        assert ok and residual <= 1e-8
        assert lam_max == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_max_vector_is_accurate(self, seed):
        # shift-invert mode returns the top vector to working precision
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=10, seed=seed)
        assert r.method == "lanczos_shift_invert" and r.converged
        assert _rayleigh(a, r.v_max, r.lambda_max)[1] <= 1e-14

    def test_order_one_is_dense(self):
        # ARPACK needs an order above k = 1
        r = extreme_eigenvalues(_sparse([[3.0]]), dense_cutoff=0)
        assert r.method == "dense"
        assert r.certified and r.converged
        assert r.lambda_min == r.lambda_max == 3.0 and r.kappa == 1.0

    def test_at_least_the_lower_bounds(self):
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.lambda_max >= interlacing_lower_bound(a)
        assert r.lambda_max >= fc.bound_lambda_max(a, 2)[0]

    def test_unconverged_lambda_max_is_a_rayleigh_quotient(self, monkeypatch):
        a = _boundary_layer_a()
        dense = extreme_eigenvalues(a, dense_cutoff=a.order)
        # MAXITER = 1 at tol 1e-12 (ARPACK tol 1e-14): the lambda_max
        # shift-invert solve stops after its first Krylov basis, unconverged;
        # at the default tol that one basis already converges.
        monkeypatch.setattr(fc.spectra, "MAXITER", 1)
        r = extreme_eigenvalues(a, 1e-12, dense_cutoff=10)
        assert not r.converged
        v = r.v_max
        assert r.lambda_max == (v @ (a.matrix @ v)) / (v @ v)
        assert r.lambda_max <= dense.lambda_max * (1 + 1e-14)

    def test_counters_zero_on_dense_path(self):
        # no solves; the factor at zero and the two certificates
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=a.order)
        assert r.method == "dense"
        kd = _Band(a.matrix).kd
        assert (r.factor_nnz, r.solves, r.factorizations) == (a.order * (kd + 1), 0, 3)


class TestShiftInvertLambdaMax:
    """lambda_max is found by shift-invert Lanczos at shifts shown above
    lambda_max by completed Cholesky factorizations, and every factor of a
    call shares the band order of the factor at zero."""

    def test_start_far_below_lambda_max_grows_the_shift(self, monkeypatch):
        # The start returns lambda_min's exact pair: its residual meets tol,
        # its lambda_max certificate fails, and the shift step takes over.
        a = _boundary_layer_a()
        vals, vecs = np.linalg.eigh(a.toarray())
        assert vals[-1] > 1e3 * vals[0]
        start = float(abs(a.matrix).sum(axis=1).max()) * (1 + SHIFT_GAP)

        def smallest_at_the_start(a_, inverse, arp_tol, v0):
            if inverse.sigma != start:
                return _shift_invert(a_, inverse, arp_tol, v0)
            v = vecs[:, 0]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_shift_invert", smallest_at_the_start)
        tol = 1e-8
        r = extreme_eigenvalues(a, tol, dense_cutoff=10)
        # five factors when the first shift holds; its factorization failed here
        assert r.factorizations > 5
        assert r.certified and r.converged
        assert r.lambda_max == pytest.approx(vals[-1], rel=10 * tol)
        assert r.lambda_min == pytest.approx(vals[0], rel=10 * tol)

    def test_first_shift_holds_on_a_converged_start(self):
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.converged
        assert r.factorizations == 5
        assert r.solves > 0

    def test_one_band_order_per_call(self, monkeypatch):
        a = fc.assemble_stiffness(fc.generate_boundary_layer(3, 11, 25.0),
                                  fc.DiffusionField.identity(3))
        orders, bands = [], []
        rcm, dpbtrf = fc.spectra.reverse_cuthill_mckee, fc.spectra.dpbtrf

        def rcm_spy(*args, **kwargs):
            orders.append(rcm(*args, **kwargs))
            return orders[-1]

        def dpbtrf_spy(band, *args, **kwargs):
            factor, info = dpbtrf(band, *args, **kwargs)
            # Fortran order, so LAPACK factors the band in place.
            bands.append((band.shape, band.flags.f_contiguous,
                          np.shares_memory(band, factor)))
            return factor, info

        monkeypatch.setattr(fc.spectra, "reverse_cuthill_mckee", rcm_spy)
        monkeypatch.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.converged
        assert len(orders) == 1
        assert len(bands) == r.factorizations
        (shape, f_order, in_place), = set(bands)
        assert f_order and in_place
        kd = shape[0] - 1
        assert shape == (kd + 1, a.order) and r.factor_nnz == a.order * (kd + 1)

    def test_band_stays_narrow_under_relabelled_vertices(self):
        # An imported mesh (say from Triangle) numbers its vertices in no
        # useful order; reverse Cuthill-McKee must find a band as narrow as
        # the generator's numbering gives.
        rng = np.random.default_rng(7)
        for dim, n in ((2, 20), (3, 8)):
            mesh = fc.generate_boundary_layer(dim, n, 25.0)
            field = fc.DiffusionField.identity(dim)
            a = fc.assemble_stiffness(mesh, field)
            coo = a.matrix.tocoo()
            kd_generated = int(np.abs(coo.row - coo.col).max())
            perm = rng.permutation(mesh.n_vertices)
            label = np.empty_like(perm)
            label[perm] = np.arange(len(perm))
            relabelled = fc.SimplicialMesh(dim, mesh.vertices[perm], label[mesh.elements])
            b = fc.assemble_stiffness(relabelled, field)
            coo = b.matrix.tocoo()
            assert int(np.abs(coo.row - coo.col).max()) > 2 * kd_generated
            ra = extreme_eigenvalues(a, dense_cutoff=10)
            rb = extreme_eigenvalues(b, dense_cutoff=10)
            assert rb.converged and rb.method == "lanczos_shift_invert"
            kd = rb.factor_nnz // b.order - 1
            assert kd <= 1.5 * kd_generated
            assert rb.lambda_min == pytest.approx(ra.lambda_min, rel=1e-12)
            assert rb.lambda_max == pytest.approx(ra.lambda_max, rel=1e-12)

    def test_one_band_alive_at_a_time(self):
        # Order 10 000: the band, n (kd + 1) doubles, dominates the memory of
        # the call.  Two bands alive at once, or a band in C order that
        # LAPACK would copy, each take the peak above twice its size.
        a = fc.assemble_stiffness(fc.generate_boundary_layer(2, 100, 125.0),
                                  fc.DiffusionField.identity(2))
        tracemalloc.start()
        try:
            r = extreme_eigenvalues(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.converged
        assert peak <= 2.0 * 8 * r.factor_nnz


class TestCertificate:
    """Each iterative end is enclosed by a shifted band Cholesky
    factorization, so an interior eigenpair with a small residual is not
    taken for the extreme one."""

    def test_interior_pair_at_the_top_is_rejected(self, monkeypatch):
        a = _boundary_layer_a()
        vals, vecs = np.linalg.eigh(a.toarray())
        assert vals[-2] < vals[-1]

        def second_largest(a_, inverse, arp_tol, v0):
            if inverse.sigma == 0:
                return _shift_invert(a_, inverse, arp_tol, v0)
            v = vecs[:, -2]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_shift_invert", second_largest)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.residual <= 1e-8  # the interior pair passes the residual test
        assert not r.certified
        assert not r.converged

    def test_interior_pair_at_the_bottom_is_rejected(self, monkeypatch):
        a = _boundary_layer_a()
        vals, vecs = np.linalg.eigh(a.toarray())
        assert vals[0] < vals[1]

        def second_smallest(a_, inverse, arp_tol, v0):
            if inverse.sigma != 0:
                return _shift_invert(a_, inverse, arp_tol, v0)
            v = vecs[:, 1]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_shift_invert", second_smallest)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.residual <= 1e-8
        assert not r.certified
        assert not r.converged

    def test_enclosure_on_the_iterative_path(self):
        a = _boundary_layer_a()
        vals = np.linalg.eigvalsh(a.toarray())
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.certified and r.converged
        assert 0 < r.lambda_min_lower <= vals[0] <= r.lambda_min * (1 + 1e-12)
        assert r.lambda_max * (1 - 1e-12) <= vals[-1] <= r.lambda_max_upper
        assert r.lambda_max_upper <= r.lambda_max * (1 + 1e-8)
        assert r.lambda_min_lower >= r.lambda_min * (1 - 1e-6)

    @pytest.fixture(scope="class", params=["2d-400", "3d-1331"])
    def matrix_and_spectrum(self, request):
        if request.param == "2d-400":
            a = _boundary_layer_a()
        else:
            mesh = fc.generate_boundary_layer(3, 11, 25.0)
            a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(3))
        return a, np.linalg.eigvalsh(a.toarray())

    def test_shift_inside_the_spectrum_is_rejected(self, matrix_and_spectrum):
        a, vals = matrix_and_spectrum
        band = _Band(a.matrix)
        assert _shifted_bound(band, vals[-1] * (1 - 1e-6), upper=True) is None
        assert _shifted_bound(band, vals[0] * (1 + 1e-6), upper=False) is None

    def test_shift_just_outside_the_spectrum_is_accepted(self, matrix_and_spectrum):
        a, vals = matrix_and_spectrum
        band = _Band(a.matrix)
        hi = _shifted_bound(band, vals[-1] * (1 + 1e-10), upper=True)
        lo = _shifted_bound(band, vals[0] * (1 - 1e-10), upper=False)
        assert vals[-1] < hi <= vals[-1] * (1 + 1e-9)
        assert vals[0] * (1 - 1e-6) <= lo < vals[0]

    @pytest.mark.parametrize("upper", [True, False])
    def test_rounding_margin_bounds_the_backward_error(self, matrix_and_spectrum, upper):
        # M = sigma I - A just above lambda_max, or A - sigma I just below
        # lambda_min: nearly singular, the hardest case for the factor.
        a, vals = matrix_and_spectrum
        sigma = vals[-1] * (1 + 1e-10) if upper else vals[0] * (1 - 1e-10)
        band = _Band(a.matrix)
        q, kd, n = band.q, band.kd, band.n
        m_diag = band.shifted_diagonal(sigma, upper)
        m = a.toarray()[np.ix_(q, q)] * (-1.0 if upper else 1.0)
        np.fill_diagonal(m, m_diag)  # M as rounded into the band
        factor = band.cholesky(sigma, upper)
        assert factor is not None
        # R^T R - M in extended precision (where numpy has it), so that the
        # product's own rounding does not swamp the factor's.
        err = -m.astype(np.longdouble)
        for j in range(n):
            r_j = factor[:min(kd + 1, n - j), j].astype(np.longdouble)
            err[j:j + len(r_j), j:j + len(r_j)] += np.multiply.outer(r_j, r_j)
        backward = float(np.abs(np.linalg.eigvalsh(err.astype(float))).max())
        delta = _rounding_margin(kd, m_diag)
        assert backward <= delta
        # The roundoff of M's diagonal alone is exceeded: the margin's
        # gamma term is needed.
        assert backward > np.finfo(float).eps / 2 * np.abs(m_diag).max()

    def test_dense_path_is_certified_by_the_full_spectrum(self):
        a = _boundary_layer_a()
        vals = np.linalg.eigvalsh(a.toarray())
        r = extreme_eigenvalues(a, dense_cutoff=a.order)
        assert r.certified and r.converged
        assert 0 < r.lambda_min_lower < vals.min()
        assert vals.max() < r.lambda_max_upper
        assert r.lambda_min_lower >= r.lambda_min * (1 - 1e-6)
        assert r.lambda_max_upper <= r.lambda_max * (1 + 1e-8)

    def test_interior_pair_on_the_dense_path_is_rejected(self, monkeypatch):
        # the dense eigensolver's top pair swapped for the second-largest one
        a = _boundary_layer_a()
        eigh = np.linalg.eigh

        def second_on_top(m):
            vals, vecs = eigh(m)
            vals[[-2, -1]], vecs[:, [-2, -1]] = vals[[-1, -2]], vecs[:, [-1, -2]]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", second_on_top)
        r = extreme_eigenvalues(a, dense_cutoff=a.order)
        assert r.method == "dense"
        assert r.residual <= 1e-8  # the interior pair passes the residual test
        assert not r.certified
        assert not r.converged

    @pytest.mark.parametrize("generate, n", [(fc.generate_power2_1d, 24),
                                             (fc.generate_chebyshev_1d, 256)])
    def test_ill_conditioned_dense_spectra_are_certified(self, generate, n):
        # kappa(A) about 9.7e6 and 2.2e6: eigh's lambda_min has to land
        # within the certificate's relative gap tol 1e-2 of the true one.
        a = fc.assemble_stiffness(generate(n), fc.DiffusionField.identity(1))
        results = [extreme_eigenvalues(m) for m in (a, fc.jacobi_scale(a))]
        for r in results:
            assert r.method == "dense"
            assert r.certified and r.converged
            assert r.factorizations == 3
        assert results[0].kappa > 1e6


class TestInertia:
    """Shift-invert at zero finds the eigenvalue nearest zero; its Cholesky
    factorization fails on, and so rejects, an indefinite matrix whose
    eigenvalue nearest zero is positive."""

    def test_indefinite_with_positive_eigenvalue_nearest_zero(self):
        diag = np.concatenate([[-10.0], np.linspace(1.0, 2.0, 2999)])
        a = SparseSymmetric(sp.diags(diag, format="csr"))
        with pytest.raises(EigenSolveError, match="not SPD"):
            extreme_eigenvalues(a)

    def test_boundary_layer_shifted_between_two_smallest(self):
        mesh = fc.generate_boundary_layer(2, 60, 5.0)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        assert a.order == 3600
        lam1, lam2 = np.sort(spla.eigsh(a.matrix.tocsc(), k=2, sigma=0.0, which="LM",
                                        return_eigenvectors=False))
        # one negative eigenvalue; the positive lam2 - shift is nearest zero
        shift = 0.25 * lam1 + 0.75 * lam2
        shifted = SparseSymmetric(
            (a.matrix - shift * sp.identity(a.order, format="csr")).tocsr())
        with pytest.raises(EigenSolveError, match="not SPD"):
            extreme_eigenvalues(shifted)


class TestGeneralizedMinEigenvalue:
    def test_equal_matrices(self):
        m = fc.generate_uniform(1, 8)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        assert generalized_min_eigenvalue(a, a) == pytest.approx(1.0, rel=1e-12)

    def test_identity_b_reduces_to_lambda_min(self):
        m = fc.generate_uniform(1, 16)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        b = _sparse(np.eye(a.order))
        assert generalized_min_eigenvalue(a, b) == pytest.approx(
            extreme_eigenvalues(a).lambda_min, rel=1e-12
        )

    def test_dirichlet_laplace_eigenvalue(self):
        m = fc.generate_uniform(1, 64)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        b = assemble_mass_weighted(m, DensityFunction(np.ones(64)))
        lam = generalized_min_eigenvalue(a, b)
        assert lam == pytest.approx(math.pi**2, rel=0.01)

    def test_iterative_matches_dense(self):
        m = fc.generate_uniform(1, 300)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        b = assemble_mass_weighted(m, DensityFunction(np.ones(300)))
        dense = generalized_min_eigenvalue(a, b)
        iterative = generalized_min_eigenvalue(a, b, dense_cutoff=10)
        assert iterative == pytest.approx(dense, rel=1e-7)

    def test_iterative_path_uses_the_band_factor_at_zero(self, monkeypatch):
        mesh = fc.generate_boundary_layer(2, 20, 25.0)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))
        b = assemble_mass_weighted(mesh, density_equidistributed(mesh))
        dense = generalized_min_eigenvalue(a, b, dense_cutoff=a.order)
        calls = []
        factor = fc.spectra._factor_at_zero

        def counting(m):
            calls.append(m)
            return factor(m)

        monkeypatch.setattr(fc.spectra, "_factor_at_zero", counting)
        solves = []
        dpbtrs = fc.spectra.dpbtrs

        def solve_spy(*args, **kwargs):
            solves.append(args[0].shape)
            return dpbtrs(*args, **kwargs)

        monkeypatch.setattr(fc.spectra, "dpbtrs", solve_spy)
        iterative = generalized_min_eigenvalue(a, b, dense_cutoff=10)
        assert len(calls) == 1 and calls[0] is a
        kd = _Band(a.matrix).kd
        assert solves and set(solves) == {(kd + 1, a.order)}
        assert iterative == pytest.approx(dense, rel=1e-10)


class TestConditionReport:
    def test_1d_uniform_n4(self):
        m = fc.generate_uniform(1, 4)
        report = fc.build_report(m, fc.DiffusionField.identity(1))
        res_a, res_sas = report.exact_A, report.exact_SAS
        expected = (2 + math.sqrt(2)) / (2 - math.sqrt(2))
        assert res_a.kappa == pytest.approx(expected, rel=1e-12)
        # constant diagonal: scaling is a constant multiple, kappa unchanged
        assert res_sas.kappa == pytest.approx(res_a.kappa, rel=1e-10)

    def test_power2_kappa_doubles_per_step(self):
        kappas = []
        for n in (15, 16):
            m = fc.generate_power2_1d(n)
            res_a = fc.build_report(m, fc.DiffusionField.identity(1)).exact_A
            kappas.append(res_a.kappa)
        assert 1.8 <= kappas[1] / kappas[0] <= 2.2

    def test_scaled_lambda_max_within_dimensional_cap(self, rng):
        for dim in (1, 2, 3):
            mesh = random_mesh(rng, dim=dim)
            if mesh.n_interior == 0:
                continue
            field = random_spd_field(rng, dim)
            res_sas = fc.build_report(mesh, field).exact_SAS
            assert 1.0 - 1e-12 <= res_sas.lambda_max <= dim + 1 + 1e-12

    def test_lambda_max_sandwich(self, rng):
        for _ in range(8):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            field = random_spd_field(rng, mesh.dim)
            a = fc.assemble_stiffness(mesh, field)
            res = extreme_eigenvalues(a)
            lo, hi = fc.bound_lambda_max(a, mesh.dim)
            assert lo <= res.lambda_max * (1 + 1e-13)
            assert res.lambda_max <= hi * (1 + 1e-13)

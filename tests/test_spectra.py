import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf

import femcond as fc
from femcond.assembly import SparseSymmetric
from femcond.spectra import (
    BAND_TARGET,
    DEFAULT_TOL,
    DENSE_CUTOFF,
    LOCAL_LAYERS,
    LOCAL_SHARE,
    MIRROR_NEGLIGIBLE,
    REFINE_STEPS,
    SHIFT_GAP,
    START_TOL,
    EigenSolveError,
    _Band,
    _arpack,
    _colouring,
    _local_rows,
    _mirror_start,
    _rayleigh,
    _refine,
    _rounding_margin,
    _shift_above_lambda_max,
    _spectra,
    extreme_eigenvalues,
)
from conftest import perturb_interior, random_mesh, random_spd_field
from oracles import (
    DensityFunction,
    assemble_mass_weighted,
    density_equidistributed,
    eigenvalues_below,
    generalized_min_eigenvalue,
    interlacing_lower_bound,
    lambda_max_unfiltered,
    toeplitz_kappa_1d,
)


def _sparse(dense) -> SparseSymmetric:
    return SparseSymmetric(sp.csr_matrix(np.asarray(dense, dtype=float)))


def _band(a: SparseSymmetric) -> _Band:
    """A's band as the solver builds it, on the instance's colouring."""
    return _Band(a.matrix, _colouring(a))


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

    @pytest.mark.parametrize("dense_cutoff", [DENSE_CUTOFF, 1])
    def test_eigenvalues_are_rayleigh_quotients(self, dense_cutoff):
        # both ends on both paths, bit for bit: order 1 takes the dense path
        # at any cutoff, every other order here the iterative one at 1
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mesh = random_mesh(rng, dim=2)
            a = fc.assemble_stiffness(mesh, random_spd_field(rng, 2))
            r = extreme_eigenvalues(a, dense_cutoff=dense_cutoff)
            assert r.method == ("dense" if a.order <= dense_cutoff else "lanczos_shift_invert")
            for lam, v in ((r.lambda_min, r.v_min), (r.lambda_max, r.v_max)):
                assert lam == float(v @ (a.matrix @ v) / (v @ v))

    def test_nonconvergence_is_flagged(self, monkeypatch):
        # MAXITER = 1: both lambda_max shift-invert solves stop after their
        # first 10-vector Krylov basis, unconverged.  At order 699 one basis
        # converges every solve, so the order is 1 999.  The mirror start is
        # off: it would take lambda_max from lambda_min's vector, which one
        # basis converges, and run no lambda_max solve.
        m = fc.generate_uniform(1, 2000)
        a = fc.assemble_stiffness(m, fc.DiffusionField.identity(1))
        monkeypatch.setattr(fc.spectra, "MAXITER", 1)
        monkeypatch.setattr(fc.spectra, "_mirror_start", lambda *args: None)
        r = extreme_eigenvalues(a, tol=1e-8, dense_cutoff=10)
        assert not r.converged

    def test_non_spd_rejected(self):
        with pytest.raises(fc.spectra.EigenSolveError):
            extreme_eigenvalues(_sparse(np.diag([1.0, -2.0])))

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            extreme_eigenvalues(_sparse(np.eye(3)), tol=1e-2)

    def test_empty_matrix_rejected(self):
        # refused before any factorization is attempted
        with pytest.raises(ValueError, match="order 0"):
            extreme_eigenvalues(SparseSymmetric(sp.csr_matrix((0, 0))))


def _boundary_layer_a() -> SparseSymmetric:
    """Order 400, aspect 125: the two largest eigenvalues differ by 2.3e-6 relative."""
    mesh = fc.generate_boundary_layer(2, 20, 125.0)
    return fc.assemble_stiffness(mesh, fc.DiffusionField.identity(2))


def _local_a() -> SparseSymmetric:
    """Order 400, aspect 125, D = diag(1 + x, 1 + 10 y): lambda_max's
    eigenvector lives on 139 rows along the boundary layer."""
    mesh = fc.generate_boundary_layer(2, 20, 125.0)
    field = fc.DiffusionField.from_callable(
        2, lambda x: np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]]), 1.0, 11.0)
    return fc.assemble_stiffness(mesh, field)


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
        # no off-diagonal entries: the Gershgorin bound is max a_ii, and
        # the lambda_max start is the dense 1 x 1 submatrix on its row
        diag = rng.uniform(1.0, 2.0, 3000)
        a = SparseSymmetric(sp.diags(diag, format="csr"))
        r = extreme_eigenvalues(a)
        assert r.method == "lanczos_shift_invert"
        assert r.converged
        assert r.local_rows == 1
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
        band = _Band(a.matrix)
        assert band.gershgorin == float(np.abs(diag).max())
        inverse = _shift_above_lambda_max(band, band.gershgorin, SHIFT_GAP)
        assert inverse.sigma == band.gershgorin * (1 + SHIFT_GAP)
        v0 = np.random.default_rng(0).standard_normal(a.order)
        lam_max, residual, _, ok = _arpack(a, inverse, 1e-10, v0)
        assert ok and residual <= 1e-8
        assert lam_max == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_lambda_max_vector_is_accurate(self, seed):
        # shift-invert mode returns the top vector to working precision
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=10, seed=seed)
        assert r.method == "lanczos_shift_invert" and r.converged
        assert _rayleigh(a, r.v_max)[1] <= 1e-14

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

    def test_no_arpack_vector_is_reported_unconverged(self, monkeypatch):
        # ARPACK stops every run without a vector: each solve returns its
        # start vector, flagged, and the result is reported, not raised.
        a = _stiffness(fc.generate_boundary_layer(2, 20, 5.0))

        def no_vector(A, k, *args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                           np.empty((A.shape[0], 0)))

        monkeypatch.setattr(fc.spectra.spla, "eigsh", no_vector)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.method == "lanczos_shift_invert"
        assert not r.converged and not r.certified
        for lam, v in ((r.lambda_min, r.v_min), (r.lambda_max, r.v_max)):
            assert lam == _rayleigh(a, v)[0]

    def test_counters_zero_on_dense_path(self):
        # no shift-invert solve: the two solves refine |v_min| on the factor
        # at zero, whose Collatz-Wielandt bound proves lambda_min; the
        # lambda_max certificate is the only other factor, since |v_max| of
        # this stretched layer is too small to resolve far from the layer
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=a.order)
        assert r.method == "dense"
        band = _band(a)
        assert 2 * len(band.kept) == a.order  # the eliminated band: half the rows
        assert (r.factor_nnz, r.solves, r.factorizations) == (
            len(band.kept) * (band.kd + 1), REFINE_STEPS, 2)
        assert (r.start, r.proof_min, r.proof_max) == ("dense", "collatz_wielandt", "band")


class TestOneFactorDoor:
    """Every band Cholesky factorization is built by _Band.factor and counted
    on the result it was built for."""

    @pytest.mark.parametrize("dim, n, aspect, local, method", [
        (2, 100, 25.0, True, "lanczos_shift_invert"),
        (2, 100, 5.0, True, "lanczos_shift_invert"),
        (3, 11, 25.0, False, "lanczos_shift_invert"),
        (2, 10, 25.0, False, "dense"),
    ])
    def test_factorizations_are_counted(self, monkeypatch, dim, n, aspect, local, method):
        a = fc.assemble_stiffness(fc.generate_boundary_layer(dim, n, aspect),
                                  fc.DiffusionField.identity(dim))
        calls = {"factor": 0, "dpbtrf": 0}
        factor, lapack = _Band.factor, fc.spectra.dpbtrf

        def factor_spy(*args, **kwargs):
            calls["factor"] += 1
            return factor(*args, **kwargs)

        def dpbtrf_spy(*args, **kwargs):
            calls["dpbtrf"] += 1
            return lapack(*args, **kwargs)

        monkeypatch.setattr(_Band, "factor", factor_spy)
        monkeypatch.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
        r_a, r_sas = _spectra(a)
        assert (r_a.method, r_sas.method) == (method, method)
        assert (r_a.local_rows > 0) == local
        assert calls["factor"] == calls["dpbtrf"] == r_a.factorizations + r_sas.factorizations


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
            if inverse is None or inverse.sigma != start:
                return _arpack(a_, inverse, arp_tol, v0)
            v = vecs[:, 0]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_arpack", smallest_at_the_start)
        tol = 1e-8
        r = extreme_eigenvalues(a, tol, dense_cutoff=10)
        # five factors when the first shift holds; its factorization failed here
        assert r.factorizations > 5
        assert r.certified and r.converged
        assert r.lambda_max == pytest.approx(vals[-1], rel=10 * tol)
        assert r.lambda_min == pytest.approx(vals[0], rel=10 * tol)

    def test_first_shift_holds_on_a_converged_start(self):
        # at zero, the Gershgorin start's, the shift's and the lambda_max
        # certificate; the Collatz-Wielandt bound proves lambda_min
        a = _boundary_layer_a()
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.converged
        assert r.factorizations == 4
        assert (r.proof_min, r.proof_max) == ("collatz_wielandt", "band")
        assert r.solves > 0

    @pytest.mark.parametrize("seed", [0, 11])
    def test_shift_step_stops_at_the_first_completed_factor(self, monkeypatch, seed):
        # On the 3D layer (order 1 331, Gershgorin start) the Gershgorin
        # start's shift completes at once, and step 2's first shift fails
        # once; the step grows it and keeps the first factor that
        # completes, without bisecting back towards lambda_max.
        a = _stiffness(fc.generate_boundary_layer(3, 11, 25.0))
        completed, inside = [], []  # each shift step's factors: completed?
        factor, shift = _Band.factor, fc.spectra._shift_above_lambda_max

        def factor_spy(band, sigma, upper):
            inverse = factor(band, sigma, upper)
            if inside:
                completed[-1].append(inverse is not None)
            return inverse

        def shift_spy(*args):
            completed.append([])
            inside.append(True)
            try:
                return shift(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(_Band, "factor", factor_spy)
        monkeypatch.setattr(fc.spectra, "_shift_above_lambda_max", shift_spy)
        r = extreme_eigenvalues(a, seed=seed)
        assert (a.order, r.start) == (1331, "gershgorin")
        assert completed == [[True], [False, True]]
        assert r.converged and r.certified

    def test_one_band_order_per_call(self, monkeypatch):
        # One ordering for A and, when the lambda_max start runs on the
        # submatrix, one for it: the 3D layer falls back, the 2D one does not.
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
        a3 = fc.assemble_stiffness(fc.generate_boundary_layer(3, 11, 25.0),
                                   fc.DiffusionField.identity(3))
        # (order, kept rows) of the submatrix, when there is one
        for a, sub in ((a3, ()), (_local_a(), (138, 69))):
            orders.clear()
            bands.clear()
            r = extreme_eigenvalues(a, dense_cutoff=10)
            assert r.converged
            assert r.local_rows == (sub[0] if sub else 0)
            assert len(bands) == r.factorizations
            assert {(f_order, in_place) for _, f_order, in_place in bands} == {(True, True)}
            # A's band on its kept rows, which factor_nnz reports, and the
            # submatrix's on its own kept rows
            shapes = {shape for shape, _, _ in bands}
            assert [len(q) for q in orders] == [a.order, *sub[:1]]
            band = _band(a)
            sizes = {len(band.kept), *sub[1:]}
            assert len(shapes) == len(sizes) and {n for _, n in shapes} == sizes
            assert (band.kd + 1, len(band.kept)) in shapes
            assert r.factor_nnz == len(band.kept) * (band.kd + 1)

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
            band = _band(b)
            assert rb.factor_nnz == len(band.kept) * (band.kd + 1)
            assert band.kd <= 1.5 * kd_generated
            assert rb.lambda_min == pytest.approx(ra.lambda_min, rel=1e-12)
            assert rb.lambda_max == pytest.approx(ra.lambda_max, rel=1e-12)

    def test_one_band_alive_at_a_time(self, monkeypatch):
        # Order 10 000: every band factored before this one has been
        # released when dpbtrf starts, and the band, |K| (kd + 1) doubles on
        # half of A's rows, dominates the memory of the call and of the
        # pair's.  Two bands alive at once, or a band in C order that LAPACK
        # would copy, each take the peak above 2.8 times its size (2.70 was
        # measured for the pair).
        a = fc.assemble_stiffness(fc.generate_boundary_layer(2, 100, 125.0),
                                  fc.DiffusionField.identity(2))
        factored, alive = [], []
        lapack = fc.spectra.dpbtrf

        def dpbtrf_spy(ab, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in factored))
            factored.append(weakref.ref(ab))
            return lapack(ab, *args, **kwargs)

        monkeypatch.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
        for solve in (lambda: [extreme_eigenvalues(a)], lambda: _spectra(a)):
            factored.clear()
            alive.clear()
            tracemalloc.start()
            try:
                results = solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(alive) == sum(r.factorizations for r in results)
            assert alive == [0] * len(alive)
            for r in results:
                assert r.converged
                assert peak <= 2.8 * 8 * r.factor_nnz


def _stiffness(mesh: fc.SimplicialMesh) -> SparseSymmetric:
    return fc.assemble_stiffness(mesh, fc.DiffusionField.identity(mesh.dim))


class TestRedBlack:
    """A pattern that 2-colours eliminates the colour class without row 0:
    the band holds C = M_KK - B^T D_E^-1 B on the other class, at half the
    order.  A pattern that does not gets today's band of all rows."""

    CASES = {
        "1d": lambda: _stiffness(fc.generate_chebyshev_1d(1024)),
        "2d": lambda: _local_a(),
        "3d": lambda: _stiffness(fc.generate_boundary_layer(3, 11, 25.0)),
        "sheared": lambda: _sheared_layer(),
        "dense": lambda: _stiffness(fc.generate_boundary_layer(2, 15, 25.0)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_one_colouring_per_instance(self, case, monkeypatch):
        # one breadth-first search of A's pattern; the mirror start and both
        # bands read it
        a = self.CASES[case]()
        searches = []
        search = fc.spectra.breadth_first_order

        def search_spy(*args, **kwargs):
            searches.append(args[0].shape)
            return search(*args, **kwargs)

        monkeypatch.setattr(fc.spectra, "breadth_first_order", search_spy)
        pair = _spectra(a)
        assert searches == [a.matrix.shape]
        assert all(r.converged and r.certified for r in pair)
        band = _band(a)
        for r in pair:
            assert r.factor_nnz == len(band.kept) * (band.kd + 1)
        if case != "sheared":
            assert pair[1].start == ("dense" if case == "dense" else "mirror")

    @pytest.mark.parametrize("case", list(CASES))
    def test_half_the_rows_at_the_same_bandwidth(self, case):
        a = self.CASES[case]()
        band, whole = _band(a), _Band(a.matrix)
        if case == "sheared":
            assert len(band.kept) == a.order and band.kd == whole.kd
        else:
            assert len(band.kept) == (a.order + 1) // 2 and band.kd <= whole.kd
            # no coupling inside E: the 3D layer's are below MIRROR_NEGLIGIBLE
            assert band.dropped <= MIRROR_NEGLIGIBLE * band.amax
            assert (band.dropped > 0) == (case == "3d")

    def test_uncoloured_pattern_factors_the_whole_band(self):
        # The sheared layer's pattern does not 2-colour: its band is A[q][:,
        # q] with its shifted diagonal, entry for entry, scaled by 4^e with
        # e from |sigma| + max |a_ij|, and nothing is added to its margin.
        a = _sheared_layer()
        band = _band(a)
        q = band.pattern.q
        pos = np.empty(a.order, dtype=int)
        pos[q] = np.arange(a.order)
        coo = a.matrix.tocoo()
        row, col = pos[coo.row], pos[coo.col]
        lower = row > col
        gershgorin = float(abs(a.matrix).sum(axis=1).max())
        for sigma, upper in ((0.0, False), (gershgorin * (1 + SHIFT_GAP), True)):
            ab, e, d = band.form(sigma, upper)
            assert len(d) == 0 and e == (BAND_TARGET - math.frexp(sigma + band.amax)[1]) // 2
            expected = np.zeros((band.kd + 1, a.order))
            expected[(row - col)[lower], col[lower]] = (-1 if upper else 1) * coo.data[lower]
            expected[0] = sigma - a.diagonal[q] if upper else a.diagonal[q] - sigma
            assert np.array_equal(ab, np.ldexp(expected, 2 * e))
            inverse = band.factor(sigma, upper)
            assert band.formation(inverse) == band.dropped == 0.0
            assert band.margin(inverse) == _rounding_margin(band.kd, expected[0])


class TestSharedBand:
    """The pair computes both spectra of an instance on A's band order and
    A's factor at zero: one ordering and one factorization fewer than A and
    S A S solved apart, with S A S's own results otherwise unchanged."""

    CASES = {
        "2d-5": lambda: _stiffness(fc.generate_boundary_layer(2, 100, 5.0)),
        "2d-25": lambda: _stiffness(fc.generate_boundary_layer(2, 100, 25.0)),
        "2d-125": lambda: _stiffness(fc.generate_boundary_layer(2, 100, 125.0)),
        "3d-25": lambda: _stiffness(fc.generate_boundary_layer(3, 11, 25.0)),
        "chebyshev": lambda: _stiffness(fc.generate_chebyshev_1d(1024)),
        "dense": lambda: _stiffness(fc.generate_boundary_layer(2, 15, 25.0)),
    }

    @pytest.fixture(scope="class", params=list(CASES))
    def solved(self, request):
        # ((A's, S A S's result), ordering calls, dpbtrf calls) of the pair,
        # then the same of A alone and of S A S alone
        a = self.CASES[request.param]()
        counts = {"rcm": 0, "dpbtrf": 0}
        rcm, factor = fc.spectra.reverse_cuthill_mckee, fc.spectra.dpbtrf

        def rcm_spy(*args, **kwargs):
            counts["rcm"] += 1
            return rcm(*args, **kwargs)

        def dpbtrf_spy(*args, **kwargs):
            counts["dpbtrf"] += 1
            return factor(*args, **kwargs)

        runs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fc.spectra, "reverse_cuthill_mckee", rcm_spy)
            mp.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
            for solve in (lambda: _spectra(a), lambda: extreme_eigenvalues(a),
                          lambda: extreme_eigenvalues(fc.jacobi_scale(a))):
                counts.update(rcm=0, dpbtrf=0)
                runs.append((solve(), counts["rcm"], counts["dpbtrf"]))
        return a, runs

    def test_one_ordering_and_one_factorization_fewer(self, solved):
        _, ((pair, rcm, dpbtrf), (_, rcm_a, dpbtrf_a), (_, rcm_s, dpbtrf_s)) = solved
        assert rcm == rcm_a + rcm_s - 1
        assert dpbtrf == dpbtrf_a + dpbtrf_s - 1
        # each factorization is counted once, on the result it was built for
        assert sum(r.factorizations for r in pair) == dpbtrf

    def test_scaled_result_as_when_solved_alone(self, solved):
        a, ((pair, _, _), (alone_a, _, _), (alone_s, _, _)) = solved
        (pair_a, pair_s) = pair
        for name in ("lambda_min", "lambda_max", "lambda_min_lower", "lambda_max_upper"):
            assert getattr(pair_a, name) == getattr(alone_a, name), name
        # S A S's lambda_min solve runs on A's factor in the pair and on its
        # own alone, so v_min's bits differ, and with them lambda_max's and
        # its certificate's wherever the mirror start takes v_min across.
        for name in ("lambda_min", "lambda_max", "lambda_max_upper"):
            assert getattr(pair_s, name) == pytest.approx(
                getattr(alone_s, name), rel=1e-13, abs=0), name
        assert pair_s.start == alone_s.start
        assert (pair_s.converged, pair_s.certified) == (alone_s.converged, alone_s.certified)
        assert pair_s.certified and pair_s.converged
        assert pair_s.factorizations == alone_s.factorizations - 1
        assert (pair_s.method == "dense") == (a.order <= DENSE_CUTOFF)

    def test_dense_path_scaled_result_is_bit_identical(self):
        # but for the lambda_min bound: the pair refines S A S's |v_min| on
        # A's factor, alone on its own, so the refined vector's bits differ
        a = self.CASES["dense"]()
        pair_s, alone_s = _spectra(a)[1], extreme_eigenvalues(fc.jacobi_scale(a))
        assert pair_s.method == "dense" and pair_s.proof_min == "collatz_wielandt"
        refined = ("lambda_min_lower", "width_min")
        for field in dataclasses.fields(alone_s):
            if field.name not in ("factorizations", *refined):
                assert np.array_equal(getattr(pair_s, field.name),
                                      getattr(alone_s, field.name)), field.name
        assert pair_s.lambda_min_lower == pytest.approx(alone_s.lambda_min_lower, rel=1e-13, abs=0)
        assert pair_s.width_min == pytest.approx(alone_s.width_min, rel=0, abs=1e-13)

    @pytest.mark.parametrize("k", [-50, 50])
    def test_scaled_result_is_the_same_for_a_power_of_4(self, k):
        # S A S of 4^k A is S A S of A, bit for bit, and so is everything
        # solved on it: the operator on A's factor carries S A S's 2^s.  With
        # A's, ARPACK's test turns absolute on this matrix at k = -50 and
        # stops after 22 solves instead of 27.
        a = _stiffness(fc.generate_boundary_layer(3, 11, 25.0))
        m = a.matrix.copy()
        m.data = np.ldexp(m.data, 2 * k)
        r, rk = _spectra(a)[1], _spectra(SparseSymmetric(m))[1]
        assert r.method == "lanczos_shift_invert" and r.converged
        for field in dataclasses.fields(r):
            assert np.array_equal(getattr(rk, field.name), getattr(r, field.name)), field.name


class TestLocalStart:
    """lambda_max's start from the submatrix on the rows where its
    eigenvector lives, certified on the full A, against dense eigh."""

    @pytest.fixture(scope="class")
    def local(self):
        a = _local_a()
        return a, np.linalg.eigvalsh(a.toarray())

    @pytest.fixture
    def shifted_on(self, monkeypatch):
        # the order of every band that the lambda_max shift step runs on
        orders = []
        shift = fc.spectra._shift_above_lambda_max

        def shift_spy(band, *args):
            orders.append(band.n)
            return shift(band, *args)

        monkeypatch.setattr(fc.spectra, "_shift_above_lambda_max", shift_spy)
        return orders

    @pytest.mark.parametrize("dense_cutoff", [10, DENSE_CUTOFF])
    def test_stretched_layer_takes_the_local_path(self, local, shifted_on, dense_cutoff):
        # The submatrix is solved on its own band whatever the dense cutoff,
        # also at DENSE_CUTOFF, above its order; A is iterative either way.
        # The padded vector is the answer, so A's band has no shift step.
        a, vals = local
        tol = 1e-8
        r = extreme_eigenvalues(a, tol, dense_cutoff=dense_cutoff)
        assert (r.method, r.start) == ("lanczos_shift_invert", "local")
        assert 0 < r.local_rows <= a.order / 2
        assert (r.local_rows <= dense_cutoff) == (dense_cutoff == DENSE_CUTOFF)
        assert shifted_on and set(shifted_on) == {r.local_rows}
        assert r.converged and r.certified
        assert r.lambda_max == pytest.approx(vals[-1], rel=10 * tol)
        assert r.lambda_max <= vals[-1] * (1 + 1e-14)
        assert vals[-1] <= r.lambda_max_upper
        assert np.count_nonzero(r.v_max) == r.local_rows

    @pytest.mark.parametrize("case", ["aspect-5", "SAS"])
    def test_spread_eigenvector_falls_back(self, case):
        # The Gershgorin seed rows alone exceed half the rows: the start
        # stays on A at the Gershgorin shift.
        if case == "aspect-5":
            a = fc.assemble_stiffness(fc.generate_boundary_layer(2, 20, 5.0),
                                      fc.DiffusionField.identity(2))
        else:
            a = fc.jacobi_scale(_local_a())
        vals = np.linalg.eigvalsh(a.toarray())
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.local_rows == 0
        assert r.start == {"aspect-5": "gershgorin", "SAS": "mirror"}[case]
        assert r.converged and r.certified
        assert r.lambda_max == pytest.approx(vals[-1], rel=1e-7)
        assert np.count_nonzero(r.v_max) == a.order

    def test_submatrix_band_holds_its_kept_class(self, local, monkeypatch):
        # The submatrix's band is eliminated like A's, on A's colouring
        # restricted to S, without a search of its own: it keeps S's rows of
        # sign +1, 69 of 138.
        a, _ = local
        built, searches = [], []
        init, search = _Band.__init__, fc.spectra.breadth_first_order

        def init_spy(band, matrix, signs=None, like=None):
            init(band, matrix, signs, like)
            built.append((band, signs))

        def search_spy(*args, **kwargs):
            searches.append(args[0].shape)
            return search(*args, **kwargs)

        monkeypatch.setattr(_Band, "__init__", init_spy)
        monkeypatch.setattr(fc.spectra, "breadth_first_order", search_spy)
        r = _spectra(a)[0]
        assert searches == [a.matrix.shape]
        # A's band, S A S's, then the submatrix's
        assert len(built) == 3
        sub, signs = built[2]
        rows = np.flatnonzero(r.v_max)
        assert (r.start, len(rows), sub.n, len(sub.kept)) == ("local", 138, 138, 69)
        assert np.array_equal(signs, _colouring(a)[rows])
        assert np.array_equal(np.sort(sub.kept), np.flatnonzero(signs > 0))
        assert np.array_equal(sub.pattern.elim, np.flatnonzero(signs < 0))

    def test_submatrix_builds_no_certificate(self, local, monkeypatch):
        # The submatrix's solve only supplies the start: A's own residual
        # and certificates judge the padded vector.
        a, _ = local
        certified_on = []
        certify = _Band.certify

        def certify_spy(band, *args, **kwargs):
            certified_on.append(band.n)
            return certify(band, *args, **kwargs)

        monkeypatch.setattr(_Band, "certify", certify_spy)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.start == "local" and r.local_rows > 10
        # A's lambda_max only: the padded vector has zeros, and the
        # Collatz-Wielandt bound proves lambda_min
        assert r.certified and certified_on == [a.order]
        assert (r.proof_min, r.proof_max) == ("collatz_wielandt", "band")

    def test_forced_miss_ends_certified(self, local, shifted_on, monkeypatch):
        # Without the 6 layers the padded vector misses tol on A, and A's
        # own shift step and final solve take over from it.
        a, vals = local
        monkeypatch.setattr(fc.spectra, "LOCAL_LAYERS", 0)
        tol = 1e-8
        r = extreme_eigenvalues(a, tol, dense_cutoff=10)
        assert 0 < r.local_rows < 139
        assert a.order in shifted_on
        assert r.converged and r.certified
        assert r.lambda_max == pytest.approx(vals[-1], rel=10 * tol)
        assert r.lambda_max_upper >= vals[-1]

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_small_submatrix_on_its_band(self, k, shifted_on):
        # A diagonal matrix whose top lies on a chain of k rows, cut off from
        # the rest: S is the chain.  One row is its own eigenvector and
        # builds no factor; any longer chain, below ARPACK's 10 Krylov
        # vectors too, is solved on its own band.  The padded vector's zeros
        # leave lambda_max to its certificate, while the Collatz-Wielandt
        # bound proves lambda_min = 1 of the diagonal rows.
        n = 400
        m = sp.lil_matrix(sp.diags(np.linspace(1.0, 2.0, n)))
        m[7, 7] = 5.0
        for i in range(7, 7 + k - 1):
            m[i, i + 1] = m[i + 1, i] = -0.5
            m[i + 1, i + 1] = 4.9
        a = SparseSymmetric(sp.csr_matrix(m))
        top = np.linalg.eigvalsh(a.toarray())[-1]
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert (r.start, r.local_rows) == ("local", k)
        assert r.converged and r.certified
        assert r.lambda_max == pytest.approx(top, rel=1e-14)
        assert set(shifted_on) == ({k} if k > 1 else set())
        assert r.factorizations == 2 + (k > 1)
        assert (r.proof_min, r.proof_max) == ("collatz_wielandt", "band")


def _sheared_layer() -> SparseSymmetric:
    """boundary_layer(2, 40, 25) mapped by x' = x + y, order 1 600: its
    triangles are no longer right-angled, so no coupling vanishes and A's
    graph holds triangles."""
    mesh = fc.generate_boundary_layer(2, 40, 25.0)
    vertices = mesh.vertices.copy()
    vertices[:, 0] += vertices[:, 1]
    return _stiffness(fc.SimplicialMesh(2, vertices, mesh.elements))


def _mirror_off(monkeypatch) -> None:
    monkeypatch.setattr(fc.spectra, "_mirror_start", lambda *args: None)


def _bound_declines(monkeypatch) -> None:
    """Every end goes to its band certificate, as without the
    Collatz-Wielandt bounds."""
    monkeypatch.setattr(_Band, "collatz_wielandt", lambda band, x: None)


class TestMirrorStart:
    """On a matrix with a constant diagonal and a 2-colourable off-diagonal
    pattern, lambda_max's start is v_min with its signs flipped on one
    colour; the residual test and the certificate judge it, and every other
    matrix starts as before."""

    CASES = {
        "2d-25": lambda: _stiffness(fc.generate_boundary_layer(2, 100, 25.0)),
        "3d-25": lambda: _stiffness(fc.generate_boundary_layer(3, 11, 25.0)),
        "chebyshev": lambda: _stiffness(fc.generate_chebyshev_1d(1024)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_signs_mirror_the_scaled_matrix(self, case):
        # exactly in 2D and 1D; in 3D up to the couplings of about 1e-16
        # that the Kuhn tetrahedra leave where 2D leaves 0.0
        a = self.CASES[case]()
        m = fc.jacobi_scale(a).matrix
        signs = _colouring(a)  # the instance's colouring, on A's pattern
        assert np.all(m.diagonal() == 1.0) and set(np.unique(signs)) == {-1.0, 1.0}
        flipped = sp.diags(signs) @ m @ sp.diags(signs)
        gap = abs(flipped - (2 * sp.identity(m.shape[0]) - m)).max()
        assert gap <= MIRROR_NEGLIGIBLE * abs(m).max()
        assert (gap == 0) == (case != "3d-25")

    @pytest.mark.parametrize("case", list(CASES))
    def test_scaled_matrix_takes_the_mirror(self, case, monkeypatch):
        a = self.CASES[case]()
        r = _spectra(a)[1]
        _mirror_off(monkeypatch)
        off = _spectra(a)[1]
        assert (r.start, off.start) == ("mirror", "gershgorin")
        assert r.certified and r.converged
        # no factor: the Collatz-Wielandt bounds from the refined |v_min|
        # prove both ends, against the Gershgorin start's factor (and on
        # chebyshev a shift's too)
        assert (r.proof_min, r.proof_max) == ("collatz_wielandt", "collatz_wielandt")
        assert r.factorizations == 0 < off.factorizations
        assert r.lambda_max == pytest.approx(off.lambda_max, rel=1e-13, abs=0)
        assert r.lambda_max == pytest.approx(2 - r.lambda_min, rel=1e-13, abs=0)

    def test_uniform_stiffness_takes_the_mirror(self):
        # A itself: its diagonal is constant to rounding
        a = _stiffness(fc.generate_uniform(2, 50))
        vals = spla.eigsh(a.matrix, k=1, which="LA", return_eigenvectors=False, tol=1e-12)
        r = extreme_eigenvalues(a)
        assert r.start == "mirror" and r.certified and r.converged
        assert r.lambda_max == pytest.approx(vals[0], rel=1e-10)

    def test_sheared_layer_falls_back(self, monkeypatch):
        # The colouring fails on both matrices, before any product or
        # factorization: the counts are those without the mirror.
        a = _sheared_layer()
        assert _colouring(a) is None and _colouring(fc.jacobi_scale(a)) is None
        pair = _spectra(a)
        _mirror_off(monkeypatch)
        for r, off in zip(pair, _spectra(a)):
            assert r.certified and r.converged
            assert (r.start, r.factorizations, r.solves, r.local_rows, r.lambda_max) == (
                off.start, off.factorizations, off.solves, off.local_rows, off.lambda_max)
        assert [r.start for r in pair] == ["local", "gershgorin"]

    def test_unflipped_signs_are_rejected(self, monkeypatch):
        # All signs +1 give v_min itself: a pair whose residual meets tol,
        # at the wrong end of the spectrum, 2 - lambda_min away from the
        # mirrored eigenvalue.  The start falls back to the Gershgorin one.
        sas = fc.jacobi_scale(self.CASES["chebyshev"]())
        _mirror_off(monkeypatch)
        off = extreme_eigenvalues(sas)
        monkeypatch.undo()
        # only the mirror reads the wrong signs; the bands keep the colouring
        monkeypatch.setattr(fc.spectra, "_mirror_start", lambda a, signs, *args: _mirror_start(
            a, np.ones(a.order), *args))
        r = extreme_eigenvalues(sas)
        assert r.start == "gershgorin" and r.certified and r.converged
        assert (r.factorizations, r.solves, r.lambda_max) == (
            off.factorizations, off.solves, off.lambda_max)

    def test_failed_certificate_sends_the_start_to_the_shift_step(self, monkeypatch):
        sas = fc.jacobi_scale(self.CASES["chebyshev"]())
        mirrored = extreme_eigenvalues(sas)
        certify, shift = _Band.certify, fc.spectra._shift_above_lambda_max
        tops, shifts = [], []

        def fail_first_top(band, theta, tol, upper):
            if upper:
                tops.append(theta)
                if len(tops) == 1:
                    return None
            return certify(band, theta, tol, upper)

        def shift_spy(band, theta0, *args):
            shifts.append(theta0)
            return shift(band, theta0, *args)

        monkeypatch.setattr(_Band, "certify", fail_first_top)
        monkeypatch.setattr(fc.spectra, "_shift_above_lambda_max", shift_spy)
        _bound_declines(monkeypatch)
        r = extreme_eigenvalues(sas)
        assert r.start == "mirror"
        assert tops[0] == shifts[0] == mirrored.lambda_max
        assert len(tops) == 2 and r.certified and r.converged
        assert r.lambda_max == pytest.approx(mirrored.lambda_max, rel=1e-12)

    def test_disconnected_pattern_is_not_mirrored(self):
        # Two copies of a mirrored matrix side by side: one search from row 0
        # reaches only the first, so no signs are claimed for the second.
        sas = fc.jacobi_scale(_stiffness(fc.generate_chebyshev_1d(400))).matrix
        twice = SparseSymmetric(sp.block_diag([sas, sas], format="csr"))
        assert _colouring(twice) is None
        r = extreme_eigenvalues(twice)
        assert r.start == "gershgorin" and r.certified and r.converged


class TestRitzSeeds:
    """The local start seeds at a Ritz value only when the seeds at max a_ii
    are too many and the diagonal varies; a Lanczos run that returns no
    vector seeds at the start vector's Rayleigh quotient, and one that fails
    raises."""

    @pytest.fixture
    def ritz_on(self, monkeypatch):
        # the order of every matrix that a Ritz value is sought on
        orders = []
        arpack = fc.spectra._arpack

        def ritz_spy(a, inverse, arp_tol, v0):
            if inverse is None:
                orders.append(a.order)
            return arpack(a, inverse, arp_tol, v0)

        monkeypatch.setattr(fc.spectra, "_arpack", ritz_spy)
        return orders

    @pytest.mark.parametrize("aspect, sought", [(5.0, True), (25.0, False)])
    def test_sought_only_when_max_diagonal_seeds_are_too_many(self, aspect, sought, ritz_on):
        # At aspect 5 every row is a seed at max a_ii; at aspect 25 the
        # seeds at max a_ii already give S.
        a = _stiffness(fc.generate_boundary_layer(2, 100, aspect))
        pair = _spectra(a)
        assert [(r.start, r.local_rows) for r in pair] == [("local", 2604), ("mirror", 0)]
        assert ritz_on == ([a.order] if sought else [])

    def test_not_sought_on_a_constant_diagonal(self, ritz_on):
        # The sheared layer's A localizes at max a_ii; its S A S, diagonal
        # 1, is not mirrored and not seeded at a Ritz value.
        pair = _spectra(_sheared_layer())
        assert [r.start for r in pair] == ["local", "gershgorin"]
        assert ritz_on == []

    @staticmethod
    def _failing_lanczos(monkeypatch, exc):
        # eigsh raises exc on the Ritz run (which="LA") and runs otherwise
        eigsh, kwargs_seen = spla.eigsh, []

        def eigsh_spy(*args, **kwargs):
            if kwargs.get("which") == "LA":
                kwargs_seen.append(kwargs)
                if exc is not None:
                    raise exc
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(fc.spectra.spla, "eigsh", eigsh_spy)
        return kwargs_seen

    def test_run_is_capped_at_maxiter(self, monkeypatch):
        a = _stiffness(fc.generate_boundary_layer(2, 20, 5.0))
        monkeypatch.setattr(fc.spectra, "MAXITER", 7)
        seen = self._failing_lanczos(monkeypatch, None)
        _arpack(a, None, START_TOL, np.ones(a.order))
        assert [kwargs["maxiter"] for kwargs in seen] == [7]

    def test_no_vector_leaves_the_max_diagonal_seeds(self, monkeypatch):
        a = _stiffness(fc.generate_boundary_layer(2, 20, 5.0))
        ok = extreme_eigenvalues(a, dense_cutoff=10)
        self._failing_lanczos(monkeypatch, spla.ArpackNoConvergence(
            "no convergence", np.empty(0), np.empty((a.order, 0))))
        # the seed is R(v0), a Rayleigh quotient, below max a_ii here
        v0 = np.ones(a.order)
        lam, _, v, converged = _arpack(a, None, START_TOL, v0)
        assert (lam, converged) == (_rayleigh(a, v0)[0], False) and v is v0
        assert lam < a.diagonal.max()
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.start == "gershgorin" and r.certified and r.converged
        assert (r.factorizations, r.solves, r.lambda_max) == (
            ok.factorizations, ok.solves, ok.lambda_max)

    def test_partial_vector_is_used(self, monkeypatch):
        a = _stiffness(fc.generate_boundary_layer(2, 20, 5.0))
        v = np.linalg.eigh(a.toarray())[1][:, -2:-1]
        self._failing_lanczos(monkeypatch, spla.ArpackNoConvergence(
            "no convergence", np.ones(1), v))
        assert _arpack(a, None, START_TOL, np.ones(a.order))[0] == _rayleigh(a, v[:, 0])[0]

    def test_failed_run_raises(self, monkeypatch):
        a = _stiffness(fc.generate_boundary_layer(2, 20, 5.0))
        self._failing_lanczos(monkeypatch, RuntimeError("ARPACK error -9999"))
        with pytest.raises(EigenSolveError, match="sparse eigensolve failed"):
            extreme_eigenvalues(a, dense_cutoff=10)


def _rows_from_interlacing(a: SparseSymmetric):
    """_local_rows with the seeds taken at the oracle's interlacing bound
    instead of max a_ii."""
    abs_a = abs(a.matrix)
    rows = np.asarray(abs_a.sum(axis=1)).ravel() >= interlacing_lower_bound(a)
    for _ in range(LOCAL_LAYERS):
        if np.count_nonzero(rows) > LOCAL_SHARE * a.order:
            return None
        rows = abs_a @ rows > 0
    return np.flatnonzero(rows) if np.count_nonzero(rows) <= LOCAL_SHARE * a.order else None


class TestLocalRows:
    """The seeds at the Ritz value select the same S as the interlacing
    bound on stretched layers, and both fall back on spread eigenvectors."""

    @pytest.mark.parametrize("case", ["local", "boundary-layer", "SAS", "3d"])
    def test_same_rows_as_the_interlacing_bound(self, case):
        a = {
            "local": _local_a,
            "boundary-layer": _boundary_layer_a,
            "SAS": lambda: fc.jacobi_scale(_local_a()),
            "3d": lambda: fc.assemble_stiffness(fc.generate_boundary_layer(3, 11, 25.0),
                                                fc.DiffusionField.identity(3)),
        }[case]()
        theta = _arpack(a, None, START_TOL, np.random.default_rng(0).standard_normal(a.order))[0]
        rows = _local_rows(a, _Band(a.matrix), theta)
        expected = _rows_from_interlacing(a)
        # at order 400 only the anisotropic field keeps S within n / 2
        assert (rows is None) == (case != "local")
        if rows is None:
            assert expected is None
        else:
            assert np.array_equal(rows, expected)


class TestCertificate:
    """Each iterative end is enclosed by a shifted band Cholesky
    factorization, so an interior eigenpair with a small residual is not
    taken for the extreme one."""

    def test_interior_pair_at_the_top_is_rejected(self, monkeypatch):
        a = _boundary_layer_a()
        vals, vecs = np.linalg.eigh(a.toarray())
        assert vals[-2] < vals[-1]

        def second_largest(a_, inverse, arp_tol, v0):
            if inverse is None or inverse.sigma == 0:
                return _arpack(a_, inverse, arp_tol, v0)
            v = vecs[:, -2]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_arpack", second_largest)
        r = extreme_eigenvalues(a, dense_cutoff=10)
        assert r.residual <= 1e-8  # the interior pair passes the residual test
        assert not r.certified
        assert not r.converged

    def test_interior_pair_at_the_bottom_is_rejected(self, monkeypatch):
        a = _boundary_layer_a()
        vals, vecs = np.linalg.eigh(a.toarray())
        assert vals[0] < vals[1]

        def second_smallest(a_, inverse, arp_tol, v0):
            if inverse is None or inverse.sigma != 0:
                return _arpack(a_, inverse, arp_tol, v0)
            v = vecs[:, 1]
            return (*_rayleigh(a_, v), v, True)

        monkeypatch.setattr(fc.spectra, "_arpack", second_smallest)
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

    @pytest.fixture(scope="class", params=["1d-255", "2d-400", "3d-1331"])
    def matrix_and_spectrum(self, request):
        a = {"1d-255": lambda: _stiffness(fc.generate_chebyshev_1d(256)),
             "2d-400": _boundary_layer_a,
             "3d-1331": lambda: _stiffness(fc.generate_boundary_layer(3, 11, 25.0)),
             }[request.param]()
        return a, np.linalg.eigvalsh(a.toarray())

    def test_shift_inside_the_spectrum_is_rejected(self, matrix_and_spectrum):
        a, vals = matrix_and_spectrum
        band = _band(a)
        assert band.factor(vals[-1] * (1 - 1e-6), upper=True) is None
        assert band.factor(vals[0] * (1 + 1e-6), upper=False) is None

    def test_shift_just_outside_the_spectrum_is_accepted(self, matrix_and_spectrum):
        a, vals = matrix_and_spectrum
        band = _band(a)
        # certify shifts by tol 1e-2 = 1e-10
        hi = band.certify(vals[-1], 1e-8, upper=True)
        lo = band.certify(vals[0], 1e-8, upper=False)
        assert vals[-1] < hi <= vals[-1] * (1 + 1e-9)
        assert vals[0] * (1 - 1e-6) <= lo < vals[0]

    @pytest.mark.parametrize("upper", [True, False])
    def test_rounding_margin_bounds_the_backward_error(self, matrix_and_spectrum, upper):
        # M = sigma I - A just above lambda_max, or A - sigma I just below
        # lambda_min: nearly singular, the hardest case for the factor.  The
        # band factors C = M_KK - B^T D_E^-1 B on half the rows.  Each term
        # of the margin bounds its own part of the backward error, measured
        # densely in extended precision (where numpy has it), and so the
        # margin bounds all of M's.
        a, vals = matrix_and_spectrum
        sigma = vals[-1] * (1 + 1e-10) if upper else vals[0] * (1 - 1e-10)
        band = _band(a)
        kept, elim, kd = band.pattern.kept, band.pattern.elim, band.kd
        assert len(kept) + len(elim) == a.order and len(elim) in (a.order // 2, len(kept))
        # M and C in exact arithmetic, up to the extended precision
        sign = -1 if upper else 1
        m = sign * a.toarray().astype(np.longdouble)
        m[np.diag_indices(a.order)] -= sign * np.longdouble(sigma)
        b, d = m[np.ix_(elim, kept)], np.diagonal(m)[elim]
        c_exact = m[np.ix_(kept, kept)]
        for b_i, d_i in zip(b, d):
            nz = np.flatnonzero(b_i)
            c_exact[np.ix_(nz, nz)] -= np.multiply.outer(b_i[nz], b_i[nz]) / d_i
        inverse = band.factor(sigma, upper)
        assert inverse is not None
        ab, e, _ = band.form(sigma, upper)
        c = _from_band(np.ldexp(ab, -2 * e)).astype(np.longdouble)  # C as computed
        # (1) forming C; the last rounding of its diagonal is the u max
        # |c_jj| of C's own margin
        u = np.finfo(float).eps / 2
        formation = _norm(c - c_exact)
        assert 0 < formation <= band.formation(inverse) + u * np.abs(inverse.c_diagonal).max()
        # (2) the factor R of 4^e C, as for any band: R^T R - 4^e C
        err = -np.ldexp(c, 2 * e)
        factor = inverse.factor
        for j in range(len(kept)):
            r_j = factor[:min(kd + 1, len(kept) - j), j].astype(np.longdouble)
            err[j:j + len(r_j), j:j + len(r_j)] += np.multiply.outer(r_j, r_j)
        backward = _norm(err)
        delta = _rounding_margin(kd, inverse.c_diagonal)
        assert backward <= np.ldexp(delta, 2 * e)
        # Beyond 1D (kd = 1), the roundoff of C's diagonal alone is exceeded:
        # the margin's gamma term is needed.
        assert kd == 1 or backward > np.ldexp(u * np.abs(inverse.c_diagonal).max(), 2 * e)
        # (3) the couplings inside E, which C leaves out: 3D Kuhn tetrahedra
        # leave some of about 1e-17 max |a_ij|, 1D and 2D none
        dropped = m[np.ix_(elim, elim)] - np.diag(d)
        assert _norm(dropped) <= band.dropped
        assert (_norm(dropped) > 0) == (a.matrix.shape[0] == 1331)
        # All of M: d_E and R factor [[D_E, B], [B^T, B^T D_E^-1 B + 4^-e R^T
        # R]] exactly, which differs from M by blockdiag(-E, 4^-e R^T R - C).
        whole = max(_norm(dropped), _norm(np.ldexp(err, -2 * e) + c - c_exact))
        assert whole <= band.margin(inverse)

    @pytest.mark.parametrize("case", ["bl2d-5", "bl2d-25", "bl2d-125", "bl3d-4", "bl3d-6",
                                      "bl3d-8", "bl3d-11", "varfield-2d"])
    def test_no_wider_than_the_whole_band(self, case):
        # On the benchmark's matrices, A and S A S, each certificate of the
        # eliminated band lies inside the one that the band of all rows,
        # without a colouring, gives at the same Rayleigh quotient.
        family, size = case.split("-")
        if family == "bl2d":
            a = _stiffness(fc.generate_boundary_layer(2, 100, float(size)))
        elif family == "bl3d":
            a = _stiffness(fc.generate_boundary_layer(3, int(size), 25.0))
        else:
            field = fc.DiffusionField.from_callable(
                2, lambda x: np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]]), 1.0, 11.0)
            a = fc.assemble_stiffness(fc.generate_boundary_layer(2, 100, 125.0), field)
        signs = _colouring(a)
        for m, r in zip((a, fc.jacobi_scale(a)), _spectra(a)):
            whole, eliminated = _Band(m.matrix), _Band(m.matrix, signs)
            assert 2 * len(eliminated.kept) <= m.order + 1
            for theta, upper in ((r.lambda_max, True), (r.lambda_min, False)):
                ends = [band.certify(theta, 1e-8, upper) for band in (whole, eliminated)]
                assert ends[1] <= ends[0] if upper else ends[1] >= ends[0]

    def test_dropped_coupling_is_in_the_margin(self):
        # A path of 51 rows with a coupling -1e-12 between rows 25 and 27,
        # both eliminated: below MIRROR_NEGLIGIBLE max |a_ij|, so the
        # colouring drops it and C leaves it out.  It lowers lambda_min by
        # about 1e-14, far beyond C's own margin in 1D, so a certificate at
        # the path's lambda_min without the coupling must take it back.
        path = 2.0 * np.eye(51) - np.eye(51, k=1) - np.eye(51, k=-1)
        coupled = path.copy()
        coupled[25, 27] = coupled[27, 25] = -1e-12
        a = _sparse(coupled)
        band = _band(a)
        assert 25 in band.pattern.elim and 27 in band.pattern.elim
        assert band.dropped == 1e-12
        lam_min, lam_uncoupled = np.linalg.eigvalsh(coupled)[0], np.linalg.eigvalsh(path)[0]
        assert lam_uncoupled - lam_min > 1e-15
        assert band.certify(lam_uncoupled, 1e-12, upper=False) <= lam_min

    def test_nonpositive_eliminated_pivot_is_rejected(self):
        # A path of 5 rows whose eliminated rows 1 and 3 (the colour without
        # row 0) have a_ii = -1: M = A is indefinite, while C = a_KK + B^T B
        # is positive definite, so only d_E > 0 rejects it.  The same above
        # lambda_max, at sigma = 5 below the eliminated a_ii = 10.
        path = 0.1 * (np.eye(5, k=1) + np.eye(5, k=-1))
        for diag, sigma, upper in (([1.0, -1.0, 1.0, -1.0, 1.0], 0.0, False),
                                   ([1.0, 10.0, 1.0, 10.0, 1.0], 5.0, True)):
            a = _sparse(np.diag(diag) + path)
            band = _band(a)
            assert list(band.pattern.elim) == [1, 3]
            assert band.form(sigma, upper) is None
            assert band.factor(sigma, upper) is None and band.factorizations == 1
        with pytest.raises(EigenSolveError, match="not SPD"):
            extreme_eigenvalues(_sparse(np.diag([1.0, -1.0, 1.0, -1.0, 1.0]) + path))

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 100])
    def test_rounding_margin_is_the_padded_window_sum(self, n):
        # The largest sum of m_jj over |j - i| <= kd, against the windows of
        # the zero-padded diagonal; each side errs by under (2 kd + 1) u.
        u = np.finfo(float).eps / 2
        m_diag = np.random.default_rng(n).uniform(0.5, 2.0, n) ** 8
        for kd in range(n):
            gamma = (kd + 2) * u / (1 - (kd + 2) * u)
            padded = np.pad(m_diag, kd)
            windows = [padded[i:i + 2 * kd + 1].sum() for i in range(n)]
            expected = gamma / (1 - gamma) * max(windows) + u * m_diag.max()
            assert _rounding_margin(kd, m_diag) == pytest.approx(
                expected, rel=(2 * kd + 1) * 2 * u, abs=0)

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
        # The Collatz-Wielandt bounds prove every end of S A S and the top
        # of power2's A; A's lambda_min bound is too wide (kappa u), and
        # chebyshev's top pair has a near-twin at the mesh's other end.
        factorizations = {24: (2, 1), 256: (3, 1)}[n]
        a = fc.assemble_stiffness(generate(n), fc.DiffusionField.identity(1))
        results = [extreme_eigenvalues(m) for m in (a, fc.jacobi_scale(a))]
        for r, count in zip(results, factorizations):
            assert r.method == "dense"
            assert r.certified and r.converged
            assert r.factorizations == count
        assert results[0].kappa > 1e6


def _perturbed_a(seed: int) -> SparseSymmetric:
    """A of a conftest-perturbed boundary layer of order 25 with a random
    anisotropic field: many positive couplings, and triangles in A's
    graph."""
    rng = np.random.default_rng(seed)
    mesh = perturb_interior(fc.generate_boundary_layer(2, 5, 4.0), rng)
    a = fc.assemble_stiffness(mesh, random_spd_field(rng, 2))
    assert (a.matrix - sp.diags(a.diagonal)).max() > 0
    return a


class TestCollatzWielandt:
    """An end proven by one product with |A| (the Collatz-Wielandt bounds of
    the module docstring) instead of a shifted band factorization, and the
    band certificate wherever the bound is too wide or x has a zero."""

    def test_rounding_term_covers_the_product(self):
        # x = (1, 1) is the Perron vector, so without rounding the bounds
        # would be exact, 1 -+ 2^-54; but fl(1 + 2^-54) = 1 puts both on the
        # wrong side of the eigenvalue, which only the rounding term undoes.
        b = 2.0**-54
        a = _sparse([[1.0, -b], [-b, 1.0]])
        lower, upper = _Band(a.matrix).collatz_wielandt(np.ones(2))
        assert eigenvalues_below(a, lower) == 0 and eigenvalues_below(a, upper) == 2
        assert 1.0 - lower < 1e-14 and upper - 1.0 < 1e-14

    @pytest.mark.parametrize("x", [[1.0, 0.0, 1.0], [1.0, -1e-300, 1.0], [1.0, np.nan, 1.0]])
    def test_vector_with_a_zero_declines(self, x):
        # the bounds divide by x_i and hold only for x > 0
        band = _Band(_laplacian_1d(3).matrix)
        assert band.collatz_wielandt(np.array(x)) is None
        # so the end goes to the band certificate
        theta = 2.0 - math.sqrt(2.0)
        assert band.prove(theta, 1e-8, False, np.array(x)) == (
            band.certify(theta, 1e-8, upper=False), "band")
        assert band.factorizations == 2

    def test_bounds_enclose_the_spectrum_from_any_positive_vector(self):
        # valid from any x > 0, sharp only from the Perron vector
        rng = np.random.default_rng(3)
        for a in (_perturbed_a(0), _local_a(), fc.jacobi_scale(_local_a())):
            vals = np.linalg.eigvalsh(a.toarray())
            lower, upper = _Band(a.matrix).collatz_wielandt(rng.uniform(0.5, 2.0, a.order))
            assert lower < vals[0] and vals[-1] < upper

    @pytest.fixture(scope="class")
    def chebyshev(self):
        # chebyshev_1d(1024)'s A with and without the bound, and the lambda_min
        # bound that the refined vector gave
        a = _stiffness(fc.generate_chebyshev_1d(1024))
        seen = []
        bound = _Band.collatz_wielandt
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Band, "collatz_wielandt",
                       lambda band, x: seen.append(bound(band, x)) or seen[-1])
            r = extreme_eigenvalues(a)
            _bound_declines(mp)
            off = extreme_eigenvalues(a)
        return r, off, seen

    def test_too_wide_on_chebyshev_1d(self, chebyshev):
        # kappa 1.4e8: 2 a_ii x_i - y_i cancels to kappa u relative, so the
        # lambda_min bound is wider than tol, and the padded local start's
        # zeros rule out the lambda_max one; the band proves both ends with
        # the counts and ends of a solve without the bound.
        r, off, seen = chebyshev
        assert r.start == "local" and (r.proof_min, r.proof_max) == ("band", "band")
        (lower, _), = [b for b in seen if b is not None]
        assert (r.lambda_min - lower) / r.lambda_min > 1e-8 * 10
        for name in ("factorizations", "solves", "lambda_min", "lambda_max", "lambda_min_lower",
                     "lambda_max_upper", "width_min", "width_max"):
            assert getattr(r, name) == getattr(off, name), name

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dense_cutoff", [DENSE_CUTOFF, 1])
    def test_band_keeps_lambda_min_on_perturbed_meshes(self, seed, dense_cutoff, monkeypatch):
        # Positive couplings leave D - |O| far below A: its lambda_min bound
        # is off by more than tol, and the band proves the end exactly as
        # without the bound.  Where every triangle of A's graph has an even
        # number of negative couplings, rho(|A|) = lambda_max(A) and the
        # lambda_max bound is sharp, and it replaces one certificate.
        a = _perturbed_a(seed)
        pair = _spectra(a, dense_cutoff=dense_cutoff)
        _bound_declines(monkeypatch)
        for r, off in zip(pair, _spectra(a, dense_cutoff=dense_cutoff)):
            assert r.certified and r.converged and r.proof_min == "band"
            assert (r.lambda_min, r.lambda_max, r.lambda_min_lower) == (
                off.lambda_min, off.lambda_max, off.lambda_min_lower)
            replaced = r.proof_max == "collatz_wielandt"
            assert r.factorizations == off.factorizations - replaced
            assert r.solves == off.solves
            if not replaced:
                assert r.lambda_max_upper == off.lambda_max_upper

    def test_refined_vector_is_two_solves_on_the_factor_at_zero(self):
        # on A's factor, and on S A S's through the congruence
        a = _boundary_layer_a()
        pair = _spectra(a, dense_cutoff=a.order)
        assert [r.solves for r in pair] == [REFINE_STEPS, REFINE_STEPS]
        inverse = _band(a).factor(0.0, upper=False)
        x = _refine(inverse, pair[0].v_min)
        dense = np.linalg.solve(a.toarray(), np.linalg.solve(a.toarray(), np.abs(pair[0].v_min)))
        assert np.allclose(np.ldexp(x, -2 * inverse.s), dense, rtol=1e-10, atol=0)


# name: (function making A, dense cutoff, (start, proof_min, proof_max) of A and of
# S A S, or None where they are not pinned); the dense path, the iterative one at
# a small cutoff, each lambda_max start, both proofs of each end, a mesh with
# positive couplings, 4^k A and every committed 1D member
_R = ("collatz_wielandt",) * 2
_ORACLE_CASES = {
    "dense": (lambda: _stiffness(fc.generate_boundary_layer(2, 6, 25.0)), DENSE_CUTOFF,
              [("dense", *_R), ("dense", *_R)]),
    "iterative": (lambda: _stiffness(fc.generate_boundary_layer(2, 6, 25.0)), 1,
                  [("gershgorin", *_R), ("mirror", *_R)]),
    "4^50": (lambda: _scaled(_stiffness(fc.generate_boundary_layer(2, 6, 25.0)), 50), 1,
             [("gershgorin", *_R), ("mirror", *_R)]),
    "variable-field": (lambda: fc.assemble_stiffness(
        fc.generate_boundary_layer(2, 8, 125.0), fc.DiffusionField.from_callable(
            2, lambda x: np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]]), 1.0, 11.0)), 1,
        [("gershgorin", "collatz_wielandt", "band"), ("mirror", *_R)]),
    "3d": (lambda: _stiffness(fc.generate_boundary_layer(3, 3, 4.0)), 1,
           [("gershgorin", *_R), ("mirror", *_R)]),
    "perturbed": (lambda: _perturbed_a(3), 1,
                  [("gershgorin", "band", "band"), ("gershgorin", "band", "band")]),
    "chebyshev-128-iterative": (lambda: _stiffness(fc.generate_chebyshev_1d(128)), 10,
                                [("local", "collatz_wielandt", "band"), ("mirror", *_R)]),
    **{f"chebyshev-{n}": (lambda n=n: _stiffness(fc.generate_chebyshev_1d(n)), DENSE_CUTOFF,
                          None) for n in (32, 64, 128, 256, 512, 1024)},
    **{f"power2-{n}": (lambda n=n: _stiffness(fc.generate_power2_1d(n)), DENSE_CUTOFF, None)
       for n in range(8, 25, 2)},
}


def _scaled(a: SparseSymmetric, k: int) -> SparseSymmetric:
    m = a.matrix.copy()
    m.data = np.ldexp(m.data, 2 * k)
    return SparseSymmetric(m)


class TestExactEnclosure:
    """Every reported enclosure holds for the stored matrix in exact
    arithmetic (oracles.eigenvalues_below, Sylvester's law of inertia), and
    each Rayleigh quotient is within tol of the extreme eigenvalue, from
    every path and proof."""

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_ends_enclose_the_extreme_eigenvalues(self, case):
        build, dense_cutoff, expected = _ORACLE_CASES[case]
        a = build()
        tol = DEFAULT_TOL
        for m, r in zip((a, fc.jacobi_scale(a)), _spectra(a, tol, dense_cutoff=dense_cutoff)):
            n = m.order
            assert r.certified and r.converged
            assert eigenvalues_below(m, r.lambda_min_lower) == 0
            assert eigenvalues_below(m, r.lambda_max_upper) == n
            assert eigenvalues_below(m, r.lambda_min * (1 + tol)) >= 1
            assert eigenvalues_below(m, r.lambda_max * (1 - tol)) <= n - 1
            for width, proof in ((r.width_min, r.proof_min), (r.width_max, r.proof_max)):
                assert width <= (tol if proof == "collatz_wielandt" else 1e-6)
        if expected is not None:
            assert [(r.start, r.proof_min, r.proof_max) for r in _spectra(
                a, tol, dense_cutoff=dense_cutoff)] == expected

    def test_cases_cover_every_start_and_proof(self):
        seen = [t for _, _, expected in _ORACLE_CASES.values() if expected for t in expected]
        assert {start for start, _, _ in seen} == {"dense", "mirror", "local", "gershgorin"}
        for end in (1, 2):
            assert {t[end] for t in seen} == {"band", "collatz_wielandt"}


def _variable_field_a() -> SparseSymmetric:
    """Order 2 500, kd 50, D = diag(1 + x, 1 + 1e4 y): unscaled, the factor
    of sigma I - A at the lambda_max start holds subnormal entries."""
    mesh = fc.generate_boundary_layer(2, 50, 125.0)
    field = fc.DiffusionField.from_callable(
        2, lambda x: np.diag([1.0 + x[0], 1.0 + 1e4 * x[1]]), 1.0, 10001.0)
    return fc.assemble_stiffness(mesh, field)


def _unscaled_factor(band: _Band, sigma: float, upper: bool):
    """(dpbtrf's factor of the band's C itself, info), M as in
    band.shifted: band.form's 4^e C, scaled back exactly."""
    ab, e, _ = band.form(sigma, upper)
    return dpbtrf(np.ldexp(ab, -2 * e), lower=1)


def _from_band(ab: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band storage is ab."""
    n = ab.shape[1]
    c = np.zeros((n, n), dtype=ab.dtype)
    for k, diagonal in enumerate(ab):
        rows = np.arange(k, n)
        c[rows, rows - k] = c[rows - k, rows] = diagonal[:n - k]
    return c


def _norm(x: np.ndarray) -> float:
    """||x||_2 of a symmetric x, rounded to double."""
    return float(np.abs(np.linalg.eigvalsh(x.astype(float))).max())


def _subnormals(x: np.ndarray) -> int:
    return int(np.count_nonzero((x != 0) & (np.abs(x) < np.finfo(float).tiny)))


class TestScaledBand:
    """Every band is factored scaled by an exact power of 4: the factor is
    the unscaled one times a power of 2 without its subnormal fill, and the
    solver's results scale exactly with A."""

    @pytest.fixture(scope="class")
    def factors(self):
        # (band, sigma, upper, factor or None) of every factorization and
        # dpbtrf's output of each, completed or not, of two calls: one with
        # the lambda_max start on the submatrix, one with it on A at the
        # Gershgorin shift
        a = _variable_field_a()
        built, outputs = [], []
        factor = _Band.factor

        def factor_spy(band, sigma, upper):
            inverse = factor(band, sigma, upper)
            built.append((band, sigma, upper, None if inverse is None else inverse.factor.copy()))
            return inverse

        def dpbtrf_spy(*args, **kwargs):
            factor, info = dpbtrf(*args, **kwargs)
            outputs.append(factor.copy())
            return factor, info

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Band, "factor", factor_spy)
            mp.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
            for share in (LOCAL_SHARE, 0.0):
                mp.setattr(fc.spectra, "LOCAL_SHARE", share)
                before = len(built)
                r = extreme_eigenvalues(a)
                assert r.method == "lanczos_shift_invert" and r.converged
                assert (r.local_rows > 0) == (share > 0)
                assert len(built) - before == r.factorizations
        assert len(built) == len(outputs)
        return a, built, outputs

    def test_no_factor_holds_a_subnormal(self, factors):
        a, built, outputs = factors
        assert [_subnormals(f) for f in outputs] == [0] * len(outputs)
        # unscaled, the factor at the lambda_max start on A has some
        start = float(abs(a.matrix).sum(axis=1).max()) * (1 + SHIFT_GAP)
        (band, sigma, upper), = [b[:3] for b in built if b[0].n == a.order and b[1] == start]
        assert upper
        assert _subnormals(_unscaled_factor(band, sigma, upper)[0]) > 0

    def test_factor_is_the_unscaled_one_scaled(self, factors):
        _, built, _ = factors
        completed = [b for b in built if b[3] is not None]
        assert len(completed) >= 4
        for band, sigma, upper, factor in completed:
            ref, info = _unscaled_factor(band, sigma, upper)
            assert info == 0
            e, tiny = band.form(sigma, upper)[1], np.finfo(float).tiny
            normal = np.abs(ref) >= tiny
            assert np.array_equal(factor[normal], np.ldexp(ref[normal], e))
            # elsewhere both are below the normal range, unscaled
            assert np.all(np.abs(np.ldexp(factor[~normal], -e)) < tiny)

    @pytest.fixture(scope="class")
    def unscaled(self):
        a = fc.assemble_stiffness(fc.generate_boundary_layer(2, 40, 125.0),
                                  fc.DiffusionField.identity(2))
        r = extreme_eigenvalues(a)
        assert r.method == "lanczos_shift_invert" and r.converged
        return a, r

    @pytest.mark.parametrize("k", [-150, -10, 5, 50, 100])
    def test_results_scale_exactly_with_a(self, unscaled, k):
        a, r = unscaled
        m = a.matrix.copy()
        m.data = np.ldexp(m.data, 2 * k)
        rk = extreme_eigenvalues(SparseSymmetric(m))
        assert rk.converged and rk.certified
        for name in ("lambda_min", "lambda_max", "lambda_min_lower", "lambda_max_upper"):
            assert getattr(rk, name) == np.ldexp(getattr(r, name), 2 * k), name
        assert (rk.kappa, rk.residual) == (r.kappa, r.residual)
        assert np.array_equal(rk.v_min, r.v_min) and np.array_equal(rk.v_max, r.v_max)
        assert (rk.solves, rk.factorizations) == (r.solves, r.factorizations)
        # the Collatz-Wielandt end too: the refined vector is the same, and
        # its product with |4^k A| is 4^k times that with |A|
        assert r.proof_min == "collatz_wielandt"
        assert (rk.proof_min, rk.proof_max, rk.width_min, rk.width_max) == (
            r.proof_min, r.proof_max, r.width_min, r.width_max)

    @pytest.mark.parametrize("k", [-200, 0, 200])
    @pytest.mark.parametrize("upper", [False, True])
    def test_inverse_solves_the_shifted_system(self, k, upper):
        # on the band of all rows and on the eliminated one
        m = _boundary_layer_a().matrix.copy()
        m.data = np.ldexp(m.data, 2 * k)
        a = SparseSymmetric(m)
        x = np.random.default_rng(1).standard_normal(a.order)
        for band in (_Band(a.matrix), _band(a)):
            if upper:  # the lambda_max start's shift, above lambda_max
                gershgorin = float(abs(a.matrix).sum(axis=1).max())
                sigma = gershgorin * (1 + SHIFT_GAP)
                inverse = _shift_above_lambda_max(band, band.gershgorin, SHIFT_GAP)
                assert inverse.sigma == sigma
            else:
                sigma, inverse = 0.0, band.factor(0.0, upper=False)
            expected = np.linalg.solve(a.toarray() - sigma * np.eye(a.order), x)
            y = np.ldexp(inverse.matvec(x), -inverse.s)
            assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)


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
        factor = _Band.factor

        def counting(band, sigma, upper):
            calls.append((band, sigma, upper))
            return factor(band, sigma, upper)

        monkeypatch.setattr(_Band, "factor", counting)
        solves = []
        dpbtrs = fc.spectra.dpbtrs

        def solve_spy(*args, **kwargs):
            solves.append(args[0].shape)
            return dpbtrs(*args, **kwargs)

        monkeypatch.setattr(fc.spectra, "dpbtrs", solve_spy)
        iterative = generalized_min_eigenvalue(a, b, dense_cutoff=10)
        (band, sigma, upper), = calls
        assert (sigma, upper) == (0.0, False) and band.n == a.order
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

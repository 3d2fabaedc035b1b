import dataclasses
import json
import math

import numpy as np
import pytest

import femcond as fc
from femcond.bounds import (
    BOUND_IDS,
    BOUNDS,
    Calibration,
    _patch_weighted_sums,
    _sym_eigmax,
    evaluate_raw_bounds,
)
from femcond.cli import fit_loglog_slope
from femcond.spectra import _spectra
from conftest import random_mesh
from oracles import (
    DensityFunction,
    assemble_mass_weighted,
    bound_lambda_min_B,
    bound_lambda_rho,
    density_equidistributed,
    h_domain_pairwise,
    kappa_bounds_1d,
    p_min,
    patch_weighted_sums_add_at,
    toeplitz_kappa_1d,
)

I1 = fc.DiffusionField.identity(1)
I2 = fc.DiffusionField.identity(2)
I3 = fc.DiffusionField.identity(3)


class TestComputeBeta:
    def test_1d_inverse_square_width(self):
        m = fc.generate_power2_1d(5)
        beta = fc.compute_beta(m, I1)
        assert beta.beta_k == pytest.approx(1.0 / m.volumes**2, rel=1e-14)

    def test_uniform_gamma_is_one(self):
        for dim, field in ((1, I1), (2, I2), (3, I3)):
            m = fc.generate_uniform(dim, 3)
            beta = fc.compute_beta(m, field)
            assert beta.gamma_h == pytest.approx(1.0 / m.domain_volume, rel=1e-12)

    def test_field_scaling_invariance(self):
        m = fc.generate_boundary_layer(2, 6, 8.0)
        b1 = fc.compute_beta(m, I2)
        b2 = fc.compute_beta(m, fc.DiffusionField.constant_matrix(3.0 * np.eye(2)))
        assert b2.beta_k == pytest.approx(b1.beta_k, rel=1e-13)

    def test_2d_right_triangle_closed_form(self):
        # legs (h, h/a): the reference map contributes a factor 2, so the
        # stretched direction gives 2 a^2 / h^2
        h, a = 0.25, 6.0
        verts = [[0.0, 0.0], [h, 0.0], [0.0, h / a], [h, h / a]]
        m = fc.SimplicialMesh(2, verts, [[0, 1, 2], [1, 3, 2]])
        beta = fc.compute_beta(m, I2)
        jac = m.edge_matrices() / fc.mesh.reference_scale(2)
        oracle = np.array([
            np.linalg.eigvalsh(np.linalg.inv(j) @ np.linalg.inv(j).T)[-1] for j in jac
        ])
        assert beta.beta_k == pytest.approx(oracle, rel=1e-12)
        # element 0 is axis-aligned, so its edge matrix is diagonal
        assert beta.beta_k[0] == pytest.approx(2 * a**2 / h**2, rel=1e-12)
        assert beta.beta_k.max() <= 1.1 * 2 * a**2 / h**2

    def test_closed_form_matches_lapack(self, rng):
        for d in (1, 2, 3):
            mats = rng.standard_normal((200, d, d))
            mats = mats + np.swapaxes(mats, 1, 2)
            closed = _sym_eigmax(mats)
            lapack = np.linalg.eigvalsh(mats)[:, -1]
            assert closed == pytest.approx(lapack, rel=1e-10, abs=1e-10)

    def test_scale_law(self, rng):
        mesh = random_mesh(rng, dim=2)
        c = 3.5
        scaled = fc.SimplicialMesh(2, mesh.vertices * c, mesh.elements)
        b1 = fc.compute_beta(mesh, I2)
        b2 = fc.compute_beta(scaled, I2)
        assert b2.beta_k == pytest.approx(b1.beta_k / c**2, rel=1e-12)


class TestBoundLambdaMinB:
    def test_1d_uniform_value_and_validity(self):
        m = fc.generate_uniform(1, 4)
        rho = DensityFunction(np.ones(4))
        bound = bound_lambda_min_B(m, rho)
        assert bound == pytest.approx(0.5 / 6.0, rel=1e-15)
        b = assemble_mass_weighted(m, rho)
        assert np.linalg.eigvalsh(b.toarray())[0] >= bound

    def test_equidistributed_patch_lower_bound(self, rng):
        for _ in range(10):
            mesh = random_mesh(rng)
            if mesh.n_interior == 0:
                continue
            rho = density_equidistributed(mesh)
            _, geometry = fc.compute_metrics(mesh)
            wsums = np.zeros(mesh.n_interior)
            mask = geometry.patch_ids >= 0
            np.add.at(
                wsums,
                geometry.patch_ids[mask],
                np.broadcast_to((rho.rho_k * mesh.volumes)[:, None],
                                geometry.patch_ids.shape)[mask],
            )
            assert wsums.min() >= p_min(mesh) / mesh.n_elements * (1 - 1e-12)

    def test_density_scaling_linearity(self):
        m = fc.generate_uniform(1, 8)
        rho = DensityFunction(np.ones(8))
        doubled = DensityFunction(2 * np.ones(8))
        assert bound_lambda_min_B(m, doubled) == pytest.approx(
            2 * bound_lambda_min_B(m, rho), rel=1e-15
        )


class TestBoundLambdaRho:
    def test_1d_uniform_hand_sum(self):
        m = fc.generate_uniform(1, 4)
        rho = DensityFunction(np.ones(4))
        # element distances 0.25, 0.5, 0.5, 0.25, each weighted by h = 0.25
        assert bound_lambda_rho(m, rho) == pytest.approx(1 / 0.375, rel=1e-14)

    def test_2d_degenerate_distance_limit(self):
        m = fc.generate_uniform(2, 3)
        rho = density_equidistributed(m)
        _, geometry = fc.compute_metrics(m)
        flat = dataclasses.replace(geometry, d_k=np.zeros(m.n_elements))
        assert bound_lambda_rho(m, rho, geometry=flat) == pytest.approx(1.0, rel=1e-15)

    def test_3d_prefactor_vanishes_as_p_approaches_limit(self):
        m = fc.generate_uniform(3, 2)
        rho = density_equidistributed(m)
        values = [bound_lambda_rho(m, rho, p) for p in (2.0, 2.9, 2.999, 2.999999)]
        assert values[-1] < values[-2] < 1e-1 * values[0]

    def test_p_validation(self):
        m = fc.generate_uniform(3, 2)
        rho = density_equidistributed(m)
        with pytest.raises(ValueError):
            bound_lambda_rho(m, rho, 3.5)


class TestBoundLambdaMinA:
    def test_1d_uniform_value_and_calibration_constant(self):
        m = fc.generate_uniform(1, 4)
        raw = evaluate_raw_bounds(m, I1)["new.lambda_min.A"]
        assert raw == pytest.approx(2.0 / 3.0, rel=1e-14)
        exact = 4 * (2 - math.sqrt(2))
        assert exact / raw == pytest.approx(3.5147, abs=2e-4)

    def test_2d_uniform_family_slope(self):
        sizes = [4, 8, 16, 32]
        ns, vals = [], []
        for n in sizes:
            m = fc.generate_uniform(2, n)
            ns.append(m.n_elements)
            vals.append(evaluate_raw_bounds(m, I2)["new.lambda_min.A"])
        assert fit_loglog_slope(ns, vals) == pytest.approx(-1.0, abs=0.1)

    def test_dominates_fried_on_power2(self):
        for n in (6, 10, 16, 24):
            m = fc.generate_power2_1d(n)
            raw = evaluate_raw_bounds(m, I1)
            assert raw["new.lambda_min.A"] >= raw["fried.lambda_min"]


class TestBoundLambdaMinSAS:
    def test_1d_uniform_value(self):
        m = fc.generate_uniform(1, 4)
        assert evaluate_raw_bounds(m, I1)["new.lambda_min.SAS"] == pytest.approx(
            1.0 / 6.0, rel=1e-14
        )

    def test_uniform_slope_minus_two_over_d(self):
        for dim, field, sizes in ((1, I1, [8, 16, 32, 64]), (2, I2, [4, 8, 16, 32])):
            ns, vals = [], []
            for n in sizes:
                m = fc.generate_uniform(dim, n)
                ns.append(m.n_elements)
                vals.append(evaluate_raw_bounds(m, field)["new.lambda_min.SAS"])
            assert fit_loglog_slope(ns, vals) == pytest.approx(-2.0 / dim, abs=0.15)

    def test_aspect_one_layer_equals_uniform(self):
        bl = fc.generate_boundary_layer(2, 9, 1.0)
        un = fc.generate_uniform(2, 8)
        assert evaluate_raw_bounds(bl, I2)["new.lambda_min.SAS"] == pytest.approx(
            evaluate_raw_bounds(un, I2)["new.lambda_min.SAS"], rel=1e-10
        )


class TestBoundLambdaMax:
    def test_tridiagonal_sandwich(self):
        m = fc.generate_uniform(1, 4)
        a = fc.assemble_stiffness(m, I1)
        lo, hi = fc.bound_lambda_max(a, 1)
        assert (lo, hi) == (8.0, 16.0)
        true = 4 * (2 + math.sqrt(2))
        assert lo <= true <= hi

    def test_order_one_attains_lower(self):
        m = fc.generate_uniform(1, 2)
        a = fc.assemble_stiffness(m, I1)
        assert fc.bound_lambda_max(a, 1) == (4.0, 8.0)

    def test_homogeneity(self, rng):
        mesh = random_mesh(rng, dim=2)
        a = fc.assemble_stiffness(mesh, I2)
        lo, hi = fc.bound_lambda_max(a, 2)
        scaled = fc.SparseSymmetric((a.matrix * 7.0).tocsr())
        lo7, hi7 = fc.bound_lambda_max(scaled, 2)
        assert lo7 == pytest.approx(7 * lo, rel=1e-15)
        assert hi7 == pytest.approx(7 * hi, rel=1e-15)


class TestBoundKappa:
    def test_general_equals_specialized_1d(self):
        for mesh in (
            fc.generate_uniform(1, 16),
            fc.generate_chebyshev_1d(24),
            fc.generate_power2_1d(12),
        ):
            raw = evaluate_raw_bounds(mesh, I1)
            special = kappa_bounds_1d(mesh)
            for bid in ("new.kappa.A", "new.kappa.SAS", "prior.kappa.A", "prior.kappa.SAS"):
                assert raw[bid] == pytest.approx(special[bid], rel=1e-12)

    def test_chebyshev_sweep_slopes(self):
        ns, kappa_a, kappa_sas = [], [], []
        for n in (64, 128, 256, 512):
            m = fc.generate_chebyshev_1d(n)
            raw = evaluate_raw_bounds(m, I1)
            a, s = raw["new.kappa.A"], raw["new.kappa.SAS"]
            ns.append(n)
            kappa_a.append(a)
            kappa_sas.append(s)
        assert fit_loglog_slope(ns, kappa_a) == pytest.approx(3.0, abs=0.2)
        assert fit_loglog_slope(ns, kappa_sas) == pytest.approx(2.0, abs=0.2)

    def test_power2_trends(self):
        values = {}
        for n in (12, 16, 20, 24):
            m = fc.generate_power2_1d(n)
            raw = evaluate_raw_bounds(m, I1)
            values[n] = (raw["new.kappa.A"], raw["new.kappa.SAS"])
        # kappa(A) bound doubles per unit step in n, kappa(SAS) bound is linear
        assert values[24][0] / values[20][0] == pytest.approx(2.0**4, rel=0.05)
        assert fit_loglog_slope(list(values), [v[1] for v in values.values()]) == pytest.approx(
            1.0, abs=0.15
        )

    def test_distance_monotonicity_h_domain_substitution(self, rng):
        for dim, field in ((1, I1), (2, I2)):
            mesh = random_mesh(rng, dim=dim)
            if mesh.n_interior == 0:
                continue
            metrics, geometry = fc.compute_metrics(mesh)
            capped = dataclasses.replace(
                geometry, d_k=np.full(mesh.n_elements, h_domain_pairwise(mesh))
            )
            orig = evaluate_raw_bounds(mesh, field, geometry=geometry, metrics=metrics)
            subbed = evaluate_raw_bounds(mesh, field, geometry=capped, metrics=metrics)
            assert subbed["new.kappa.A"] >= orig["new.kappa.A"]
            assert subbed["new.kappa.SAS"] >= orig["new.kappa.SAS"]


class TestBoundKappaPrior:
    def test_power2_overestimates_scaled_case(self):
        ratios = []
        for n in (12, 16, 20, 24):
            m = fc.generate_power2_1d(n)
            raw = evaluate_raw_bounds(m, I1)
            ratios.append(raw["new.kappa.SAS"] / raw["prior.kappa.SAS"])
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a / 1.5

    def test_chebyshev_prior_grows_by_log_factor(self):
        ratios = []
        for n in (32, 64, 128, 256, 512):
            m = fc.generate_chebyshev_1d(n)
            raw = evaluate_raw_bounds(m, I1)
            ratios.append(raw["prior.kappa.SAS"] / raw["new.kappa.SAS"])
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_uniform_ratio_bounded(self):
        for dim, field, sizes in ((1, I1, (8, 32, 128)), (2, I2, (4, 8, 16))):
            ratios = []
            for n in sizes:
                m = fc.generate_uniform(dim, n)
                raw = evaluate_raw_bounds(m, field)
                ratios.append(raw["prior.kappa.SAS"] / raw["new.kappa.SAS"])
            assert max(ratios) / min(ratios) <= 1.3
            assert 0.5 <= min(ratios) and max(ratios) <= 8.0


class TestBoundFried:
    def test_uniform_equals_dmin_over_n(self):
        for dim, field in ((1, I1), (2, I2), (3, I3)):
            m = fc.generate_uniform(dim, 3)
            assert evaluate_raw_bounds(m, field)["fried.lambda_min"] == pytest.approx(
                1.0 / m.n_elements, rel=1e-12
            )

    def test_power2_independent_of_grading(self):
        m = fc.generate_power2_1d(10)
        assert evaluate_raw_bounds(m, I1)["fried.lambda_min"] == pytest.approx(
            1.0 / 10, rel=1e-15
        )

    def test_new_dominates_on_random_graded_1d(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 40))
            widths = rng.uniform(0.05, 1.0, n) ** rng.uniform(1.0, 3.0)
            nodes = np.concatenate([[0.0], np.cumsum(widths)])
            nodes /= nodes[-1]
            mesh = fc.SimplicialMesh(
                1, nodes, np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
            )
            raw = evaluate_raw_bounds(mesh, I1)
            assert raw["new.lambda_min.A"] >= raw["fried.lambda_min"]


class TestBoundConjectured:
    def test_requires_2d(self):
        # the conjectured id reads NaN outside 2D
        for dim, field in ((1, I1), (3, I3)):
            raw = evaluate_raw_bounds(fc.generate_uniform(dim, 4 if dim == 1 else 2), field)
            assert math.isnan(raw["conjectured.kappa.SAS"])

    def test_zero_distance_gives_zero(self):
        m = fc.generate_uniform(2, 3)
        _, geometry = fc.compute_metrics(m)
        flat = dataclasses.replace(geometry, d_k=np.zeros(m.n_elements))
        raw = evaluate_raw_bounds(m, I2, geometry=flat)
        assert raw["conjectured.kappa.SAS"] == 0.0

    def test_uniform_growth_close_to_n_log_n(self):
        ns, vals = [], []
        for n in (8, 16, 32):
            m = fc.generate_uniform(2, n)
            ns.append(m.n_elements)
            vals.append(evaluate_raw_bounds(m, I2)["conjectured.kappa.SAS"])
        slope = fit_loglog_slope(ns, vals)
        assert 1.0 <= slope <= 1.35  # N log N reads as slope slightly above 1

    def test_flattest_bound_under_aspect_sweep(self):
        # fixed N, growing aspect: the conjectured value moves least
        variation = {}
        for key in ("conjectured.kappa.SAS", "new.kappa.SAS", "new.kappa.A"):
            variation[key] = []
        for aspect in (5.0, 25.0, 125.0):
            m = fc.generate_boundary_layer(2, 40, aspect)
            raw = evaluate_raw_bounds(m, I2)
            for key in variation:
                variation[key].append(raw[key])
        spread = {k: max(v) / min(v) for k, v in variation.items()}
        assert spread["conjectured.kappa.SAS"] < spread["new.kappa.SAS"]
        assert spread["conjectured.kappa.SAS"] < spread["new.kappa.A"]
        assert spread["conjectured.kappa.SAS"] <= 6.0


class TestCalibrate:
    def _uniform_series(self, dim, sizes, field):
        return [fc.build_report(fc.generate_uniform(dim, n), field) for n in sizes]

    def test_exact_equal_bound_gives_unit_constant(self):
        mesh = fc.generate_uniform(1, 8)
        raw = evaluate_raw_bounds(mesh, I1)
        fake_a = fc.SpectralResult(
            lambda_min=raw["new.lambda_min.A"],
            lambda_max=1.0,
            kappa=raw["new.kappa.A"],
            method="dense",
            residual=0.0,
        )
        fake_sas = fc.SpectralResult(
            lambda_min=raw["new.lambda_min.SAS"],
            lambda_max=1.0,
            kappa=raw["new.kappa.SAS"],
            method="dense",
            residual=0.0,
        )
        report = dataclasses.replace(fc.build_report(mesh, I1),
                                     exact_A=fake_a, exact_SAS=fake_sas)
        cal = fc.calibrate([report])
        assert cal.constants["new.lambda_min.A"] == pytest.approx(1.0, rel=1e-12)
        assert cal.constants["new.kappa.SAS"] == pytest.approx(1.0, rel=1e-12)

    def test_calibrated_bounds_valid_on_family(self):
        series = self._uniform_series(1, (8, 16, 32, 64), I1)
        cal = fc.calibrate(series)
        hits = 0
        for report in series:
            exact_sas, raw = report.exact_SAS, report.raw
            value = cal.constants["new.lambda_min.SAS"] * raw["new.lambda_min.SAS"]
            assert value <= exact_sas.lambda_min * (1 + 1e-12)
            if value == pytest.approx(exact_sas.lambda_min, rel=1e-12):
                hits += 1
            kappa_cal = cal.constants["new.kappa.SAS"] * raw["new.kappa.SAS"]
            assert kappa_cal >= exact_sas.kappa * (1 - 1e-12)
        assert hits >= 1  # equality at the argmin by construction

    def test_reordering_invariance(self):
        series = self._uniform_series(1, (8, 16, 32), I1)
        c1 = fc.calibrate(series)
        c2 = fc.calibrate(series[::-1])
        assert c1.constants == c2.constants

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            fc.calibrate([])

    def test_mixed_p_rejected(self):
        report = fc.build_report(fc.generate_uniform(3, 2), I3, 2.9)
        with pytest.raises(ValueError, match="mixes p"):
            fc.calibrate([report, dataclasses.replace(report, p_used=2.0)])

    def test_reads_reports_only(self, monkeypatch):
        evaluator = _CountingEvaluator(lambda x: np.array([[1.0 + x[0]]]))
        field = fc.DiffusionField.from_callable(1, evaluator, 1.0, 2.0)
        series = [fc.build_report(fc.generate_uniform(1, n), field) for n in (8, 16)]
        evaluator.calls = 0

        def fail(mesh):
            raise AssertionError("calibrate recomputed the mesh metrics")

        monkeypatch.setattr(fc.bounds, "compute_metrics", fail)
        cal = fc.calibrate(series)
        assert evaluator.calls == 0
        assert cal.dim == 1 and cal.constants

    def test_json_roundtrip(self, tmp_path):
        series = self._uniform_series(1, (8, 16), I1)
        cal = fc.calibrate(series)
        path = tmp_path / "cal.json"
        cal.save(path)
        back = Calibration.load(path)
        assert back.dim == cal.dim
        assert back.constants == pytest.approx(cal.constants)

    @pytest.mark.parametrize("text, reason", [
        ('{}', "needs a dim and a constants object"),
        ('[]', "needs a dim and a constants object"),
        ('{"version": 1, "constants": {}}', "needs a dim and a constants object"),
        ('{"version": 1, "dim": 1}', "needs a dim and a constants object"),
        ('{"version": 1, "dim": 1, "constants": [1.0]}', "needs a dim and a constants object"),
        ('{"version": 2, "dim": 1, "constants": {}}', "unsupported version 2"),
        ('{"version": 1, "dim": 4, "constants": {}}', "dim must be an integer from 1 to 3"),
        ('{"version": 1, "dim": 1.5, "constants": {}}', "dim must be an integer from 1 to 3"),
        ('{"version": 1, "dim": "1", "constants": {}}', "dim must be an integer from 1 to 3"),
        ('{"version": 1, "dim": true, "constants": {}}', "dim must be an integer from 1 to 3"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.B": "1"}}',
         "unknown bound id 'new.kappa.B'"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.A": null}}',
         "constant new.kappa.A must be a finite number > 0, got None"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.A": [1]}}',
         "constant new.kappa.A must be a finite number > 0"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.A": "abc"}}',
         "constant new.kappa.A must be a finite number > 0"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.A": -1}}',
         "constant new.kappa.A must be a finite number > 0"),
        ('{"version": 1, "dim": 1, "constants": {"new.kappa.A": "nan"}}',
         "constant new.kappa.A must be a finite number > 0"),
        ('{"version": 1, "dim": 3, "constants": {"conjectured.kappa.SAS": "1"}}',
         "conjectured.kappa.SAS is a 2D bound, not one for dim 3"),
    ], ids=["empty", "list", "no-dim", "no-constants", "constants-list", "version",
            "dim-range", "dim-float", "dim-string", "dim-bool", "unknown-id",
            "constant-null", "constant-list", "constant-text", "constant-negative",
            "constant-nan", "conjectured-3d"])
    def test_load_rejects_malformed_file(self, tmp_path, text, reason):
        path = tmp_path / "cal.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"cal.json: .*{reason}"):
            Calibration.load(path)

    def test_load_accepts_json_numbers(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"dim": 2, "constants": {"new.kappa.A": 2, '
                        '"conjectured.kappa.SAS": 0.5}}')
        assert Calibration.load(path).constants == {"new.kappa.A": 2.0,
                                                    "conjectured.kappa.SAS": 0.5}


class TestPSensitivity:
    def test_continuous_and_vanishing_at_limit(self):
        m = fc.generate_uniform(3, 2)
        ps = np.linspace(1.2, 2.9, 20)
        vals = [evaluate_raw_bounds(m, I3, p)["new.lambda_min.A"] for p in ps]
        diffs = np.abs(np.diff(vals)) / np.abs(np.asarray(vals[:-1]))
        assert np.all(diffs < 0.25)
        # the prefactor kills the bound as p approaches the admissible limit
        tail = [evaluate_raw_bounds(m, I3, p)["new.lambda_min.A"]
                for p in (2.99, 2.999, 2.999999)]
        assert tail[0] > tail[1] > tail[2]
        assert tail[2] < 0.05 * max(vals)


class TestBuildReport:
    def test_report_fields_and_row(self):
        m = fc.generate_uniform(1, 8)
        report = fc.build_report(m, I1)
        row = report.to_row()
        for bid in BOUND_IDS:
            if bid == "conjectured.kappa.SAS":
                assert math.isnan(row[bid])
            else:
                assert row[bid] > 0
        assert row["exact.kappa.A"] == pytest.approx(toeplitz_kappa_1d(8), rel=1e-10)
        assert report.lambda_max_lower <= report.exact_A.lambda_max
        assert report.exact_A.lambda_max <= report.upper_lambda_max_A

    def test_bound_table_names_exact_row_columns(self):
        row = fc.build_report(fc.generate_uniform(2, 4), fc.DiffusionField.identity(2)).to_row()
        for bid, (exact, _, _) in BOUNDS.items():
            assert bid in row
            assert exact in row and exact.startswith("exact.")

    def test_calibrated_row_columns(self):
        m = fc.generate_uniform(2, 4)
        series = [fc.build_report(fc.generate_uniform(2, n), I2) for n in (2, 4)]
        cal = fc.calibrate(series)
        report = fc.build_report(m, I2, calibration=cal)
        row = report.to_row()
        assert "cal.new.kappa.SAS" in row
        assert row["cal.new.kappa.SAS"] == pytest.approx(
            cal.constants["new.kappa.SAS"] * row["new.kappa.SAS"], rel=1e-14
        )

    def test_calibrated_bounds_are_strict_json(self):
        # a conjectured constant outside 2D, which Calibration.load refuses,
        # scales a NaN raw bound
        cal = Calibration(dim=3, constants={"new.kappa.A": 2.0, "conjectured.kappa.SAS": 1.0})
        report = fc.build_report(fc.generate_uniform(3, 2), I3, calibration=cal)
        data = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert data["bounds_calibrated"] == {
            "new.kappa.A": 2.0 * report.raw["new.kappa.A"], "conjectured.kappa.SAS": None}

    def test_dimension_mismatch_rejected(self):
        m = fc.generate_uniform(1, 4)
        cal = Calibration(dim=2, constants={"new.kappa.A": 1.0})
        evaluator = _CountingEvaluator(lambda x: np.array([[1.0 + x[0]]]))
        field = fc.DiffusionField.from_callable(1, evaluator, 1.0, 2.0)
        with pytest.raises(ValueError, match="calibration is for dimension 2"):
            fc.build_report(m, field, calibration=cal)
        assert evaluator.calls == 0

    def test_field_evaluated_once_per_quadrature_point(self):
        m = fc.generate_boundary_layer(2, 6, 4.0)
        evaluator = _CountingEvaluator(_varfield)
        fc.build_report(m, fc.DiffusionField.from_callable(2, evaluator, 1.0, 11.0))
        # edge midpoints: the two triangles of an interior edge share one point
        assert evaluator.calls == len(m.facets)

    def test_3d_field_evaluated_once_per_element_and_point(self):
        m = fc.generate_boundary_layer(3, 3, 4.0)
        evaluator = _CountingEvaluator(_varfield_3d)
        fc.build_report(m, fc.DiffusionField.from_callable(3, evaluator, 1.0, 11.0))
        # the 4-point degree-2 rule, points not shared between tetrahedra
        assert evaluator.calls == m.n_elements * 4

    @pytest.mark.parametrize("dim, n, variable", [(2, 20, False), (3, 4, False), (2, 20, True)])
    def test_one_element_metric_per_report(self, monkeypatch, dim, n, variable):
        # A and beta_K read one M_K = G D_K G^T, and G is the only inverse
        m = fc.generate_boundary_layer(dim, n, 25.0)
        field = (fc.DiffusionField.from_callable(2, _varfield, 1.0, 11.0) if variable
                 else fc.DiffusionField.identity(dim))
        calls = {"metric": 0, "inv": 0}
        element_metric, inv = fc.assembly._element_metric, fc.assembly._inv

        def counting_metric(*args):
            calls["metric"] += 1
            return element_metric(*args)

        def counting_inv(*args):
            calls["inv"] += 1
            return inv(*args)

        for module in (fc.assembly, fc.bounds):
            monkeypatch.setattr(module, "_element_metric", counting_metric)
        monkeypatch.setattr(fc.assembly, "_inv", counting_inv)
        fc.build_report(m, field, 2.9 if dim == 3 else None)
        assert calls == {"metric": 1, "inv": 1}

    @pytest.mark.parametrize("mesh, variable", [
        (fc.generate_chebyshev_1d(64), False), (fc.generate_boundary_layer(2, 20, 25.0), False),
        (fc.generate_boundary_layer(3, 4, 25.0), False),
        (fc.generate_boundary_layer(2, 20, 125.0), True),
    ], ids=["1d", "2d", "3d", "varfield-2d"])
    def test_report_holds_the_assembled_stiffness(self, mesh, variable):
        field = (fc.DiffusionField.from_callable(2, _varfield, 1.0, 11.0) if variable
                 else fc.DiffusionField.identity(mesh.dim))
        p = 2.9 if mesh.dim == 3 else None
        report = fc.build_report(mesh, field, p)
        got, expected = report.stiffness.matrix, fc.assemble_stiffness(mesh, field).matrix
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        # A is in no row, JSON or repr, and not compared
        bare = dataclasses.replace(report, stiffness=None)
        assert bare == report and repr(bare) == repr(report)
        assert "stiffness" not in repr(report)
        assert list(report.to_row()) == [
            "dim", "n_elements", "n_interior", "p", "domain_volume",
            *(f"exact.{q}.{m}" for m in ("A", "SAS") for q in ("lambda_min", "lambda_max", "kappa")),
            "diag.lambda_max.lower", "diag.lambda_max.upper", "new.lambda_min.A",
            "new.lambda_min.SAS", "new.kappa.A", "new.kappa.SAS", "prior.kappa.A",
            "prior.kappa.SAS", "fried.lambda_min", "conjectured.kappa.SAS"]
        assert list(report.to_json_dict()) == [
            "dim", "n_elements", "n_interior", "p", "domain_volume", "nonunit_domain",
            "exact", "lambda_max_sandwich", "bounds_raw"]

    @pytest.mark.parametrize("dim, p, cutoff", [(2, None, None), (2, None, 10), (3, 2.9, None)])
    def test_row_equals_composed_public_stages(self, dim, p, cutoff):
        m = fc.generate_boundary_layer(dim, 5, 4.0)
        if dim == 2:
            field = fc.DiffusionField.from_callable(2, _varfield, 1.0, 11.0)
        else:
            field = I3
        kwargs = {} if cutoff is None else {"dense_cutoff": cutoff}
        row = fc.build_report(m, field, p, **kwargs).to_row()

        a = fc.assemble_stiffness(m, field)
        exact_a, exact_sas = _spectra(a, **kwargs)
        lo, hi = fc.bound_lambda_max(a, dim)
        expected = {
            "dim": dim,
            "n_elements": m.n_elements,
            "n_interior": m.n_interior,
            "p": p if p is not None else math.nan,
            "domain_volume": m.domain_volume,
            "exact.lambda_min.A": exact_a.lambda_min,
            "exact.lambda_max.A": exact_a.lambda_max,
            "exact.kappa.A": exact_a.kappa,
            "exact.lambda_min.SAS": exact_sas.lambda_min,
            "exact.lambda_max.SAS": exact_sas.lambda_max,
            "exact.kappa.SAS": exact_sas.kappa,
            "diag.lambda_max.lower": lo,
            "diag.lambda_max.upper": hi,
            **evaluate_raw_bounds(m, field, p),
        }
        assert list(row) == list(expected)
        # exact equality, NaN matching NaN
        np.testing.assert_array_equal(list(row.values()), list(expected.values()))


class TestPatchWeightedSums:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_add_at_oracle(self, dim, rng):
        checked = 0
        while checked < 4:
            mesh = random_mesh(rng, dim=dim)
            if mesh.n_interior == 0:
                continue
            geometry = fc.compute_metrics(mesh)[1]
            # weights over many binades, so that the order of the sums shows
            weights = geometry.volumes * np.exp(rng.uniform(-20.0, 20.0, mesh.n_elements))
            sums = _patch_weighted_sums(geometry, weights, mesh.n_interior)
            assert np.array_equal(sums, patch_weighted_sums_add_at(
                geometry, weights, mesh.n_interior))
            checked += 1


def _varfield(x):
    return np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]])


def _varfield_3d(x):
    return np.diag([1.0 + x[0], 1.0 + 10.0 * x[1], 1.0 + x[2]])


class _CountingEvaluator:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)

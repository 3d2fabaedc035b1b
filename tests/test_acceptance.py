"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime (run with -s to see them).  Tolerances are fixed here, not
calibrated after the fact."""

import math
import time

import numpy as np
import pytest

import femcond as fc
from femcond.cli import fit_loglog_slope
from conftest import perturb_interior, random_mesh, random_spd_field
from oracles import (
    DensityFunction,
    assemble_mass_weighted,
    bound_lambda_min_B,
    generalized_min_eigenvalue,
    h_domain_pairwise,
    toeplitz_kappa_1d,
    toeplitz_stiffness_1d,
)

I1 = fc.DiffusionField.identity(1)
I2 = fc.DiffusionField.identity(2)
I3 = fc.DiffusionField.identity(3)


def _finish(name: str, t0: float, limit: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < limit, f"{name} exceeded its runtime budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s < {limit:.0f}s)")


def test_criterion_1_constant_free_inequalities():
    """Mass bound, stiffness lambda_max sandwich, and the scaled-system cap
    hold exactly on 200 randomized meshes across d = 1, 2, 3."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        dim = 1 + checked % 3
        mesh = random_mesh(rng, dim=dim)
        if mesh.n_interior == 0:
            continue
        field = random_spd_field(rng, dim, cond_max=100.0)
        rho = DensityFunction(rng.uniform(0.1, 10.0, mesh.n_elements))

        b = assemble_mass_weighted(mesh, rho)
        lam_min_b = np.linalg.eigvalsh(b.toarray())[0]
        assert lam_min_b >= bound_lambda_min_B(mesh, rho)

        a = fc.assemble_stiffness(mesh, field)
        lam_max_a = np.linalg.eigvalsh(a.toarray())[-1]
        lo, hi = fc.bound_lambda_max(a, dim)
        assert lo <= lam_max_a <= hi

        sas = fc.jacobi_scale(a)
        lam_max_sas = np.linalg.eigvalsh(sas.toarray())[-1]
        assert 1.0 <= lam_max_sas <= dim + 1

        checked += 1
    _finish("1 constant-free inequalities (200 meshes)", t0, 60.0)


def test_criterion_2_oracle_equivalence():
    """1D uniform stiffness matches the closed tridiagonal form bit-near and
    its condition number matches the cosine closed form to 1e-8."""
    t0 = time.time()
    m = fc.generate_uniform(1, 4)
    a = fc.assemble_stiffness(m, I1).toarray()
    expected = toeplitz_stiffness_1d(4)
    assert np.max(np.abs(a - expected)) <= 1e-14 * np.abs(expected).max()

    for n in (8, 64, 512, 1024):
        mesh = fc.generate_uniform(1, n)
        res = fc.extreme_eigenvalues(
            fc.assemble_stiffness(mesh, I1), tol=1e-8
        )
        assert res.kappa == pytest.approx(toeplitz_kappa_1d(n), rel=1e-8)
    _finish("2 oracle equivalence (tridiagonal + closed-form kappa)", t0, 5.0)


def test_criterion_3_chebyshev_reproduction():
    """Chebyshev sweep: kappa(A) ~ N^3, kappa(SAS) ~ N^2, new scaled bound
    ~ N^2, and the prior scaled bound drifts above the new one like log N."""
    t0 = time.time()
    ns = [32, 64, 128, 256, 512, 1024]
    exact_a, exact_sas, new_sas, prior_sas = [], [], [], []
    for n in ns:
        mesh = fc.generate_chebyshev_1d(n)
        report = fc.build_report(mesh, I1, tol=1e-8)
        res_a, res_sas, raw = report.exact_A, report.exact_SAS, report.raw
        assert res_a.converged and res_sas.converged
        exact_a.append(res_a.kappa)
        exact_sas.append(res_sas.kappa)
        new_sas.append(raw["new.kappa.SAS"])
        prior_sas.append(raw["prior.kappa.SAS"])

    assert fit_loglog_slope(ns, exact_a) == pytest.approx(3.0, abs=0.2)
    assert fit_loglog_slope(ns, exact_sas) == pytest.approx(2.0, abs=0.2)
    assert fit_loglog_slope(ns, new_sas) == pytest.approx(2.0, abs=0.2)
    ratios = [p / n for p, n in zip(prior_sas, new_sas)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    _finish("3 chebyshev reproduction (slopes 3/2/2, growing ratio)", t0, 120.0)


def test_criterion_4_boundary_layer_reproduction():
    """Geometric 1D grading: kappa(A) doubles per step, kappa(SAS) grows
    with small log-log slope, and the new/prior scaled-bound ratio collapses
    geometrically."""
    t0 = time.time()
    ns = list(range(8, 25))
    exact_a, exact_sas, ratio_new_prior = [], [], []
    for n in ns:
        mesh = fc.generate_power2_1d(n)
        report = fc.build_report(mesh, I1, tol=1e-8)
        res_a, res_sas, raw = report.exact_A, report.exact_SAS, report.raw
        exact_a.append(res_a.kappa)
        exact_sas.append(res_sas.kappa)
        ratio_new_prior.append(raw["new.kappa.SAS"] / raw["prior.kappa.SAS"])

    for k in range(1, len(ns)):
        assert 1.8 <= exact_a[k] / exact_a[k - 1] <= 2.2

    assert fit_loglog_slope(ns, exact_sas) <= 1.3

    for k in range(1, len(ns)):
        if ns[k] >= 12:
            assert ratio_new_prior[k] <= ratio_new_prior[k - 1] / 1.5
    _finish("4 boundary-layer reproduction (2^N, flat scaled case)", t0, 60.0)


def _one_d_test_meshes():
    meshes = [fc.generate_uniform(1, n) for n in (4, 8, 16, 64)]
    meshes += [fc.generate_chebyshev_1d(n) for n in (8, 32, 128)]
    meshes += [fc.generate_power2_1d(n) for n in (6, 12, 24)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(4, 50))
        widths = rng.uniform(0.05, 1.0, n) ** rng.uniform(1.0, 3.0)
        nodes = np.concatenate([[0.0], np.cumsum(widths)])
        nodes /= nodes[-1]
        meshes.append(
            fc.SimplicialMesh(1, nodes, np.stack([np.arange(n), np.arange(1, n + 1)], axis=1))
        )
    return meshes


def test_criterion_5_sharpness_ordering():
    """The distance-weighted lower bound dominates the classical one on every
    1D mesh, and capping distances at the domain diameter can only loosen the
    new condition-number bounds in d <= 2."""
    t0 = time.time()
    for mesh in _one_d_test_meshes():
        raw = fc.evaluate_raw_bounds(mesh, I1)
        assert raw["new.lambda_min.A"] >= raw["fried.lambda_min"]

    import dataclasses

    rng = np.random.default_rng(11)
    two_d = [
        fc.generate_uniform(2, 4),
        fc.generate_uniform(2, 8),
        fc.generate_boundary_layer(2, 8, 4.0),
        fc.generate_boundary_layer(2, 12, 25.0),
        perturb_interior(fc.generate_uniform(2, 6), rng),
    ]
    one_d = [fc.generate_uniform(1, 16), fc.generate_chebyshev_1d(32),
             fc.generate_power2_1d(12)]
    for mesh in one_d + two_d:
        field = I1 if mesh.dim == 1 else I2
        metrics, geometry = fc.compute_metrics(mesh)
        capped = dataclasses.replace(
            geometry, d_k=np.full(mesh.n_elements, h_domain_pairwise(mesh))
        )
        orig = fc.evaluate_raw_bounds(mesh, field, geometry=geometry, metrics=metrics)
        wide = fc.evaluate_raw_bounds(mesh, field, geometry=capped, metrics=metrics)
        assert wide["new.kappa.A"] >= orig["new.kappa.A"]
        assert wide["new.kappa.SAS"] >= orig["new.kappa.SAS"]
    _finish("5 sharpness ordering (fried dominance, distance monotonicity)", t0, 60.0)


def test_criterion_6_2d_aspect_flatness():
    """Fixed N near 20k elements: the exact scaled condition number moves by
    less than 10 percent across aspect ratios 5 to 125 while the unscaled one
    grows monotonically."""
    t0 = time.time()
    kappa_a, kappa_sas = [], []
    for aspect in (5.0, 25.0, 125.0):
        mesh = fc.generate_boundary_layer(2, 100, aspect)
        assert abs(mesh.n_elements - 20_000) < 1_000
        report = fc.build_report(mesh, I2, tol=1e-8)
        res_a, res_sas = report.exact_A, report.exact_SAS
        assert res_a.converged and res_sas.converged
        kappa_a.append(res_a.kappa)
        kappa_sas.append(res_sas.kappa)

    assert max(kappa_sas) / min(kappa_sas) < 1.10
    assert kappa_a[0] < kappa_a[1] < kappa_a[2]
    _finish("6 2D aspect flatness at N ~ 20k", t0, 600.0)


def _uniform_series(dim, sizes, field, p=None):
    return [fc.build_report(fc.generate_uniform(dim, n), field, p, tol=1e-8)
            for n in sizes]


def test_criterion_7_calibration_validity():
    """Calibrated bounds stay on the correct side of the exact values on the
    calibration family (all dimensions) and, empirically, on the Chebyshev
    family with the 1D constants."""
    t0 = time.time()
    families = {
        1: ((8, 16, 32, 64), I1),
        2: ((2, 4, 8, 16), I2),
        3: ((2, 3, 4, 5), I3),
    }
    calibrations = {}
    for dim, (sizes, field) in families.items():
        series = _uniform_series(dim, sizes, field, 2.9 if dim == 3 else None)
        cal = fc.calibrate(series)
        calibrations[dim] = cal
        for report in series:
            exact_a, exact_sas, raw = report.exact_A, report.exact_SAS, report.raw
            exact_of = {
                "new.lambda_min.A": exact_a.lambda_min,
                "new.lambda_min.SAS": exact_sas.lambda_min,
                "fried.lambda_min": exact_a.lambda_min,
                "new.kappa.A": exact_a.kappa,
                "new.kappa.SAS": exact_sas.kappa,
                "prior.kappa.A": exact_a.kappa,
                "prior.kappa.SAS": exact_sas.kappa,
                "conjectured.kappa.SAS": exact_sas.kappa,
            }
            for bid, c in cal.constants.items():
                value = c * raw[bid]
                if "lambda_min" in bid:
                    assert value <= exact_of[bid] * (1 + 1e-10), (dim, bid)
                else:
                    assert value >= exact_of[bid] * (1 - 1e-10), (dim, bid)

    cal1 = calibrations[1]
    for n in (32, 64, 128, 256):
        mesh = fc.generate_chebyshev_1d(n)
        report = fc.build_report(mesh, I1, tol=1e-8)
        exact_a, exact_sas, raw = report.exact_A, report.exact_SAS, report.raw
        violations = []
        checks = [
            ("new.lambda_min.A", exact_a.lambda_min, "lower"),
            ("new.lambda_min.SAS", exact_sas.lambda_min, "lower"),
            ("fried.lambda_min", exact_a.lambda_min, "lower"),
            ("new.kappa.A", exact_a.kappa, "upper"),
            ("new.kappa.SAS", exact_sas.kappa, "upper"),
            ("prior.kappa.A", exact_a.kappa, "upper"),
            ("prior.kappa.SAS", exact_sas.kappa, "upper"),
        ]
        for bid, exact, side in checks:
            value = cal1.constants[bid] * raw[bid]
            ok = value <= exact if side == "lower" else value >= exact
            if not ok:
                violations.append((n, bid, value, exact))
        assert not violations, f"chebyshev calibration violations: {violations}"
    _finish("7 calibration validity (own family + chebyshev)", t0, 120.0)


def test_criterion_8_generalized_eigenvalue_sanity():
    """Smallest eigenvalue of the stiffness/mass pencil on a uniform 1D mesh
    approximates the continuous Dirichlet value pi^2."""
    t0 = time.time()
    mesh = fc.generate_uniform(1, 64)
    a = fc.assemble_stiffness(mesh, I1)
    b = assemble_mass_weighted(mesh, DensityFunction(np.ones(64)))
    lam = generalized_min_eigenvalue(a, b, tol=1e-8)
    assert lam == pytest.approx(math.pi**2, rel=0.01)
    _finish("8 generalized eigenvalue sanity (pi^2)", t0, 1.0)


def test_note_3d_trends():
    """3D is trend-based: the lambda_max sandwich holds, the scaled condition
    number is flat (< 20 percent) under the aspect sweep at fixed N, and
    calibrated bounds keep the correct ordering on the layered meshes."""
    t0 = time.time()
    cal = fc.calibrate(_uniform_series(3, (2, 3, 4, 5), I3, 2.9))

    kappa_sas = []
    for aspect in (5.0, 25.0):
        mesh = fc.generate_boundary_layer(3, 8, aspect)
        a = fc.assemble_stiffness(mesh, I3)
        report = fc.build_report(mesh, I3, 2.9, tol=1e-8)
        exact_a, exact_sas, raw = report.exact_A, report.exact_SAS, report.raw
        lo, hi = fc.bound_lambda_max(a, 3)
        assert lo <= exact_a.lambda_max <= hi
        kappa_sas.append(exact_sas.kappa)

        assert cal.constants["new.lambda_min.A"] * raw["new.lambda_min.A"] <= exact_a.lambda_min
        assert cal.constants["new.lambda_min.SAS"] * raw["new.lambda_min.SAS"] <= exact_sas.lambda_min
        assert cal.constants["fried.lambda_min"] * raw["fried.lambda_min"] <= exact_a.lambda_min
        assert cal.constants["new.kappa.A"] * raw["new.kappa.A"] >= exact_a.kappa
        assert cal.constants["new.kappa.SAS"] * raw["new.kappa.SAS"] >= exact_sas.kappa

    assert max(kappa_sas) / min(kappa_sas) < 1.20
    _finish("3D trends (sandwich, flat scaled kappa, calibrated ordering)", t0, 120.0)

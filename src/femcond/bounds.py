"""A-priori bounds on the extreme eigenvalues and condition numbers of the
stiffness matrix and its Jacobi-scaled form.

Four bound families are evaluated, identified by stable string ids:

    new.lambda_min.A    new.lambda_min.SAS    new.kappa.A    new.kappa.SAS
    prior.kappa.A       prior.kappa.SAS
    fried.lambda_min
    conjectured.kappa.SAS                      (2D only, NaN elsewhere)

The "new" family weights every element by its distance to the domain
boundary; the "prior" family replaces that distance by the domain diameter;
"fried" is the classical density-based lower bound; "conjectured" is a
sharper 2D candidate suggested by the aspect-ratio experiments.  All raw
values omit the unknown generic constant; `calibrate` fits one constant per
(dimension, bound id) from exact spectra on a reference family, min-ratio
for lower bounds and max-ratio for upper bounds, so calibrated bounds remain
valid on the whole calibration series by construction.

`evaluate_raw_bounds` and `build_report` both get the eight values from
`_raw_bounds`, the one pass over the geometry, which computes, once each:
the weights |K| beta_K, the largest patch sum of those weights over an
interior vertex, the volume-nonuniformity factors of A and of SAS (the
lambda_min bound of each is the reciprocal of the factor in its kappa
bound), the prior and Fried factors, and in 3D the exponents q, expo and
prefactor of the p-dependent estimate.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .assembly import (
    DiffusionField,
    SparseSymmetric,
    _element_metric,
    _stiffness_from_metric,
    average_diffusion_all,
)
from .mesh import (
    ElementGeometry,
    MeshMetrics,
    SimplicialMesh,
    _sym_eigmax,
    compute_metrics,
    reference_scale,
)
from .spectra import DEFAULT_TOL, DENSE_CUTOFF, EigenSolveError, SpectralResult, _spectra

__all__ = [
    "AnisotropyMetrics",
    "BoundReport",
    "Calibration",
    "compute_beta",
    "bound_lambda_max",
    "evaluate_raw_bounds",
    "calibrate",
    "build_report",
    "BOUND_IDS",
    "DEFAULT_P",
]

DEFAULT_P = 2.9

# Every bound id: the exact column of BoundReport.to_row() it estimates, the
# side of it that the bound lies on, and the dimensions it is defined in.
# This is the order of to_row()'s cal.* columns; its raw columns follow
# _raw_bounds' order instead, in which fried.lambda_min comes seventh.
BOUNDS = {
    "new.lambda_min.A": ("exact.lambda_min.A", "lower", (1, 2, 3)),
    "new.lambda_min.SAS": ("exact.lambda_min.SAS", "lower", (1, 2, 3)),
    "fried.lambda_min": ("exact.lambda_min.A", "lower", (1, 2, 3)),
    "new.kappa.A": ("exact.kappa.A", "upper", (1, 2, 3)),
    "new.kappa.SAS": ("exact.kappa.SAS", "upper", (1, 2, 3)),
    "prior.kappa.A": ("exact.kappa.A", "upper", (1, 2, 3)),
    "prior.kappa.SAS": ("exact.kappa.SAS", "upper", (1, 2, 3)),
    "conjectured.kappa.SAS": ("exact.kappa.SAS", "upper", (2,)),
}
BOUND_IDS = tuple(BOUNDS)


def _resolve_p(dim: int, p: float | None) -> float | None:
    if dim < 3:
        return None
    if p is None:
        p = DEFAULT_P
    if not (1.0 < p < dim / (dim - 2)):
        raise ValueError(f"p must lie in (1, {dim / (dim - 2)}) for dim {dim}, got {p}")
    return p


# -- anisotropy ------------------------------------------------------------


@dataclass(frozen=True)
class AnisotropyMetrics:
    """Per-element stretching of the mesh in the inverse-diffusion metric.

    beta_k is the spectral norm of inv(F) D_K inv(F)^T divided by d_min,
    where F maps the unit-volume reference simplex to the element; gamma_h
    normalizes its maximum by the volume-weighted total.
    """

    beta_k: np.ndarray
    gamma_h: float
    p: float | None = None

    def __post_init__(self):
        if not np.all(self.beta_k > 0):
            raise ValueError("beta values must be positive")
        self.beta_k.setflags(write=False)


def compute_beta(
    mesh: SimplicialMesh,
    field: DiffusionField,
    p: float | None = None,
    *,
    geometry: ElementGeometry | None = None,
    metric: np.ndarray | None = None,
) -> AnisotropyMetrics:
    """Per-element anisotropy factors and their normalized maximum; of
    geometry only the volumes are read (the mesh's own when it is None).
    With F = E / s_d, E the edge matrix and s_d = reference_scale(d),
    inv(F) D_K inv(F)^T = s_d^2 M_K for the element metric M_K that A is
    assembled from; metric is M_K, formed from the field when None."""
    volumes = mesh.volumes if geometry is None else geometry.volumes
    if metric is None:
        metric = _element_metric(mesh, average_diffusion_all(mesh, field))
    beta = _sym_eigmax(reference_scale(mesh.dim) ** 2 * metric) / field.d_min
    gamma_h = float(beta.max() / (volumes @ beta))
    return AnisotropyMetrics(beta_k=beta, gamma_h=gamma_h, p=_resolve_p(mesh.dim, p))


# -- constant-free pieces ----------------------------------------------------


def _patch_weighted_sums(geometry: ElementGeometry, weights: np.ndarray, n_interior: int) -> np.ndarray:
    mask = geometry.patch_ids >= 0
    vals = np.broadcast_to(weights[:, None], geometry.patch_ids.shape)[mask]
    return np.bincount(geometry.patch_ids[mask], weights=vals, minlength=n_interior)


def bound_lambda_max(a: SparseSymmetric, dim: int) -> tuple[float, float]:
    """Constant-free sandwich for the largest stiffness eigenvalue:
    (max diagonal, (d+1) * max diagonal)."""
    top = float(a.diagonal.max())
    if top <= 0:
        raise ValueError("diagonal must be positive")
    return top, (dim + 1) * top


def _sobolev_exponents(d: int, p: float) -> tuple[float, float, float]:
    """The exponents of the d >= 3 estimates: q = p/(p-1), the distance
    exponent expo = q (d - (d-2) p)/(d + 2p), and the prefactor
    (d/(d-2) - p)^(d/(d+2p)), which vanishes as p reaches d/(d-2)."""
    q = p / (p - 1.0)
    expo = q * (d - (d - 2) * p) / (d + 2 * p)
    pref = (d / (d - 2) - p) ** (d / (d + 2 * p))
    return q, expo, pref


def evaluate_raw_bounds(
    mesh: SimplicialMesh,
    field: DiffusionField,
    p: float | None = None,
    *,
    geometry: ElementGeometry | None = None,
    metrics: MeshMetrics | None = None,
) -> dict[str, float]:
    """All raw (constant-free) bound values keyed by stable bound id, in
    CSV column order.

    geometry and metrics default to compute_metrics(mesh); a geometry with
    substituted d_k evaluates the bounds on those distances.  The
    conjectured id maps to NaN outside 2D.
    """
    p = _resolve_p(mesh.dim, p)
    if metrics is None or geometry is None:
        computed = compute_metrics(mesh)
        metrics, geometry = metrics or computed[0], geometry or computed[1]
    beta = compute_beta(mesh, field, geometry=geometry)
    return _raw_bounds(mesh, field, p, geometry, metrics, beta)


def _raw_bounds(
    mesh: SimplicialMesh,
    field: DiffusionField,
    p: float | None,
    geometry: ElementGeometry,
    metrics: MeshMetrics,
    beta: AnisotropyMetrics,
) -> dict[str, float]:
    """The eight raw bound values from resolved p, geometry and beta."""
    if mesh.n_interior == 0:
        raise ValueError("mesh has no interior vertices")
    d, n = mesh.dim, mesh.n_elements
    volumes, d_k, beta_k = geometry.volumes, geometry.d_k, beta.beta_k
    k_ratio = metrics.k_avg_volume / metrics.k_min_volume
    vb = volumes * beta_k
    patch_max = _patch_weighted_sums(geometry, vb, mesh.n_interior).max()

    # case_a and case_sas are the volume-nonuniformity factors of the new
    # kappa(A) and kappa(SAS) bounds; the lambda_min bounds divide by them.
    # prior_a/prior_sas are the distance-free factors, fried the factor of
    # Fried's lambda_min bound.
    conjectured = float("nan")
    if d == 1:
        case_a = float(d_k.sum() / n)
        case_sas = float(vb @ d_k / n**2)
        prior_a, prior_sas = 1.0, vb.sum() / n**2
        fried = 1.0
    elif d == 2:
        s = np.log1p(k_ratio * d_k) ** 2
        case_a = float(math.sqrt(1.0 + s.sum() / n))
        mean_vb = vb.sum() / n
        logs = 1.0 + np.log1p(d_k * beta.gamma_h) ** 2
        case_sas = float(math.sqrt(mean_vb) * math.sqrt(vb @ logs / n))
        prior_a = 1.0 + math.log(k_ratio)
        prior_sas = mean_vb * (1.0 + abs(math.log(beta.gamma_h)))
        fried = 1.0 / prior_a
        conjectured = float(np.sum(vb * np.log1p(d_k / volumes)))
    else:
        q, expo, pref = _sobolev_exponents(d, p)
        ratio = metrics.k_avg_volume / volumes
        s = np.sum(ratio ** (1.0 / (p - 1.0)) * d_k**expo) / n
        case_a = float(s ** (1.0 / q) / pref)
        s = np.sum(volumes * beta_k**q * d_k**expo) / n ** (2 * p / (d * (p - 1.0)))
        case_sas = float(s ** (1.0 / q) / pref)
        prior_a = float((np.sum(ratio ** ((d - 2.0) / 2.0)) / n) ** (2.0 / d))
        prior_sas = float((np.sum(volumes * beta_k ** (d / 2.0)) / n) ** (2.0 / d))
        fried = k_ratio ** (2.0 / d - 1.0)

    scale = n ** (2.0 / d)
    patch_term = n ** ((d - 2.0) / d) * patch_max
    return {
        "new.lambda_min.A": field.d_min / n / case_a,
        "new.lambda_min.SAS": n ** (-2.0 / d) / case_sas,
        "new.kappa.A": float(scale * patch_term * case_a),
        "new.kappa.SAS": float(scale * case_sas),
        "prior.kappa.A": float(scale * patch_term * prior_a),
        "prior.kappa.SAS": float(scale * prior_sas),
        "fried.lambda_min": field.d_min / n * fried,
        "conjectured.kappa.SAS": conjectured,
    }


# -- calibration -------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """One fitted constant per bound id for a fixed dimension."""

    dim: int
    constants: Mapping[str, float]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(
            {
                "version": 1,
                "dim": self.dim,
                "constants": {k: format(v, ".17g") for k, v in sorted(self.constants.items())},
            },
            indent=2,
        ) + "\n")

    @staticmethod
    def load(path) -> "Calibration":
        """Read a file written by save; ValueError naming the file if it is not one."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not a calibration JSON file ({exc})") from exc
        constants = data.get("constants") if isinstance(data, dict) else None
        if not isinstance(constants, dict) or "dim" not in data:
            problem = "a calibration needs a dim and a constants object"
        elif data.get("version", 1) != 1:
            problem = f"unsupported version {data['version']!r}"
        elif type(data["dim"]) is not int or not 1 <= data["dim"] <= 3:
            problem = f"dim must be an integer from 1 to 3, got {data['dim']!r}"
        elif unknown := sorted(set(constants) - set(BOUND_IDS)):
            problem = f"unknown bound id {unknown[0]!r}"
        elif bad := [bid for bid, value in constants.items() if not _is_constant(value)]:
            problem = f"constant {bad[0]} must be a finite number > 0, got {constants[bad[0]]!r}"
        elif off := [bid for bid in constants if data["dim"] not in BOUNDS[bid][2]]:
            dims = " or ".join(f"{d}D" for d in BOUNDS[off[0]][2])
            problem = f"{off[0]} is a {dims} bound, not one for dim {data['dim']}"
        else:
            return Calibration(data["dim"], {k: float(v) for k, v in constants.items()})
        raise ValueError(f"{path}: {problem}")


def _is_constant(value) -> bool:
    """A JSON number, or a numeric string as Calibration.save writes, that is
    finite and > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return False
    try:
        return 0 < float(value) < math.inf
    except (ValueError, OverflowError):
        return False


def calibrate(reports: Sequence[BoundReport]) -> Calibration:
    """Fit the generic constants from the reports of a reference family.

    Reads each report's to_row(): for each bound, the ratio of its exact
    column in BOUNDS to its raw value; nothing is solved or evaluated
    again.  Lower bounds get the min ratio exact/raw, upper bounds
    the max ratio, so calibrated values stay on the correct side of the
    exact ones for every member of the series.  The reports must share one
    dimension and one p, and every spectrum must have converged.
    """
    if not reports:
        raise ValueError("calibration series is empty")
    dims = {r.dim for r in reports}
    if len(dims) != 1:
        raise ValueError("calibration series mixes dimensions")
    if len({r.p_used for r in reports}) != 1:
        raise ValueError("calibration series mixes p")
    dim = dims.pop()

    ratios: dict[str, list[float]] = {bid: [] for bid in BOUND_IDS}
    for i, report in enumerate(reports):
        if not (report.exact_A.converged and report.exact_SAS.converged):
            raise EigenSolveError(
                f"calibration member {i} (N={report.n_elements}): eigensolver "
                "did not reach the requested tolerance"
            )
        row = report.to_row()
        for bid, (exact, _, _) in BOUNDS.items():
            if not math.isnan(row[bid]):
                ratios[bid].append(row[exact] / row[bid])

    fit = {"lower": min, "upper": max}
    constants = {bid: fit[side](ratios[bid])
                 for bid, (_, side, _) in BOUNDS.items() if ratios[bid]}
    return Calibration(dim=dim, constants=constants)


# -- full report --------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """Exact spectra plus every bound value for one mesh/diffusion instance.

    raw maps every bound id to its value without the generic constant, in
    CSV column order; calibrated values are raw values scaled by the fitted
    constants when a calibration is attached.  stiffness is the matrix A
    that build_report assembled and solved; it is left out of the repr, of
    equality and of every row, JSON and printout.
    """

    dim: int
    n_elements: int
    n_interior: int
    p_used: float | None
    domain_volume: float
    exact_A: SpectralResult
    exact_SAS: SpectralResult
    lambda_max_lower: float
    upper_lambda_max_A: float
    raw: dict[str, float]
    calibration: Calibration | None = None
    stiffness: SparseSymmetric | None = dataclasses.field(default=None, repr=False,
                                                           compare=False)

    @property
    def nonunit_domain(self) -> bool:
        """True when |Omega| differs from 1 by more than 1e-9: the 2D
        logarithmic terms of the bounds are then scale-sensitive."""
        return abs(self.domain_volume - 1.0) > 1e-9

    def calibrated_bounds(self) -> dict[str, float] | None:
        if self.calibration is None:
            return None
        return {
            bid: self.raw[bid] * self.calibration.constants[bid]
            for bid in BOUND_IDS
            if bid in self.calibration.constants
        }

    def to_row(self) -> dict[str, float]:
        """Flat numeric row with stable column names (CSV order)."""
        row: dict[str, float] = {
            "dim": self.dim,
            "n_elements": self.n_elements,
            "n_interior": self.n_interior,
            "p": self.p_used if self.p_used is not None else float("nan"),
            "domain_volume": self.domain_volume,
            "exact.lambda_min.A": self.exact_A.lambda_min,
            "exact.lambda_max.A": self.exact_A.lambda_max,
            "exact.kappa.A": self.exact_A.kappa,
            "exact.lambda_min.SAS": self.exact_SAS.lambda_min,
            "exact.lambda_max.SAS": self.exact_SAS.lambda_max,
            "exact.kappa.SAS": self.exact_SAS.kappa,
            "diag.lambda_max.lower": self.lambda_max_lower,
            "diag.lambda_max.upper": self.upper_lambda_max_A,
        }
        row.update(self.raw)
        cal = self.calibrated_bounds()
        if cal is not None:
            for bid in BOUND_IDS:
                row[f"cal.{bid}"] = cal.get(bid, float("nan"))
        return row

    def to_json_dict(self) -> dict:
        """Strict JSON data: a NaN (a bound undefined in this dimension, or
        an enclosure end whose certificate failed) becomes None."""
        data = {
            "dim": self.dim,
            "n_elements": self.n_elements,
            "n_interior": self.n_interior,
            "p": self.p_used,
            "domain_volume": self.domain_volume,
            "nonunit_domain": self.nonunit_domain,
            "exact": {"A": _spectral_json(self.exact_A),
                      "SAS": _spectral_json(self.exact_SAS)},
            "lambda_max_sandwich": [self.lambda_max_lower, self.upper_lambda_max_A],
            "bounds_raw": {k: _nan_to_none(v) for k, v in self.raw.items()},
        }
        cal = self.calibrated_bounds()
        if cal is not None:
            data["bounds_calibrated"] = {k: _nan_to_none(v) for k, v in cal.items()}
        return data


def _nan_to_none(value):
    return None if isinstance(value, float) and math.isnan(value) else value


def _spectral_json(r: SpectralResult) -> dict:
    """Every field of r but its two eigenvectors, in declaration order."""
    return {f.name: _nan_to_none(getattr(r, f.name)) for f in dataclasses.fields(r)
            if f.name not in ("v_min", "v_max")}


def build_report(
    mesh: SimplicialMesh,
    field: DiffusionField,
    p: float | None = None,
    tol: float = DEFAULT_TOL,
    *,
    calibration: Calibration | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
    seed: int = 0,
) -> BoundReport:
    """Assemble, solve, and evaluate every bound for one instance.

    One pass: geometry and metrics, the element averages D_K, the element
    metric M_K from them, A from M_K, the spectra of A and SAS on one band
    order and A's factor at zero, beta from the same M_K, and the raw
    bounds.  Each stage runs once and hands its result to the next.
    """
    if calibration is not None and calibration.dim != mesh.dim:
        raise ValueError(
            f"calibration is for dimension {calibration.dim}, mesh is {mesh.dim}D"
        )
    p = _resolve_p(mesh.dim, p)
    metrics, geometry = compute_metrics(mesh)
    metric = _element_metric(mesh, average_diffusion_all(mesh, field))
    a = _stiffness_from_metric(mesh, metric)
    exact_a, exact_sas = _spectra(a, tol, dense_cutoff=dense_cutoff, seed=seed)
    # Scaled system sanity: unit diagonal caps the largest eigenvalue at d+1.
    cap = (mesh.dim + 1) * (1 + 100 * max(tol, exact_sas.residual))
    if exact_sas.lambda_max > cap:
        raise EigenSolveError(
            f"lambda_max of the scaled system ({exact_sas.lambda_max:.6g}) exceeds "
            f"its dimensional cap {mesh.dim + 1}"
        )
    lam_lo, lam_hi = bound_lambda_max(a, mesh.dim)
    beta = compute_beta(mesh, field, geometry=geometry, metric=metric)
    return BoundReport(
        dim=mesh.dim,
        n_elements=mesh.n_elements,
        n_interior=mesh.n_interior,
        p_used=p,
        domain_volume=mesh.domain_volume,
        exact_A=exact_a,
        exact_SAS=exact_sas,
        lambda_max_lower=lam_lo,
        upper_lambda_max_A=lam_hi,
        raw=_raw_bounds(mesh, field, p, geometry, metrics, beta),
        calibration=calibration,
        stiffness=a,
    )

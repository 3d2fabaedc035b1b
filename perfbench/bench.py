"""Workloads, reference check and stage tracing of the femcond benchmark.

Importing this module imports numpy, scipy and femcond; `run.py` times that
import as part of the set-up.  Every stage is timed from here, around calls
into femcond's public functions, so nothing inside the package is touched.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import math
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import femcond
from femcond import (
    DiffusionField,
    build_report,
    compute_beta,
    compute_metrics,
    evaluate_raw_bounds,
    extreme_eigenvalues,
    generate_boundary_layer,
)
from femcond.assembly import assemble_stiffness, average_diffusion_all, jacobi_scale
from femcond.bounds import BOUND_IDS
from femcond.quadrature import simplex_average_rule

TOL = 1e-8  # eigen-solver residual tolerance passed to build_report
EXACT_RTOL = 1e-8  # exact.* columns: the residual tolerance bounds their error
RAW_RTOL = 1e-12  # raw bounds and diag.*: geometry only, allows cross-machine drift
STRUCTURAL = ("dim", "n_elements", "n_interior")

LAYER_UNITS = {
    "mesh.generate_s": "s",
    "mesh.metrics_s": "s",
    "assembly.average_diffusion_s": "s",
    "assembly.assemble_s": "s",
    "assembly.jacobi_s": "s",
    "assembly.field_evals": "count",
    "assembly.field_eval_yield": "1",
    "assembly.nnz": "count",
    "spectra.eig_A_s": "s",
    "spectra.eig_SAS_s": "s",
    "spectra.lanczos_solves": "count",
    "spectra.dense_solves": "count",
    "spectra.unconverged": "count",
    "spectra.residual_max": "1",
    "bounds.beta_s": "s",
    "bounds.raw_s": "s",
    "report.build_s": "s",
    "report.unattributed_s": "s",
    "trace.overhead_s": "s",
    "check.max_rel_err": "1",
}


@dataclass(frozen=True)
class Workload:
    """A closed loop of instances: mesh generation, then one build_report.

    instances holds (n_core_per_axis, aspect) pairs; `parameter` names which
    of the two keys the reference CSV's "parameter" column.
    """

    name: str
    dim: int
    instances: tuple[tuple[int, float], ...]
    parameter: str
    reference: str
    p: float | None = None
    variable_field: bool = False

    def key(self, n: int, aspect: float) -> float:
        return float(aspect if self.parameter == "aspect" else n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bl2d-aspect", 2, ((100, 5.0), (100, 25.0), (100, 125.0)),
                 "aspect", "results/boundary_layer_2d/fixed_n.csv"),
        Workload("bl3d-n", 3, ((4, 25.0), (6, 25.0), (8, 25.0), (11, 25.0)),
                 "n", "results/boundary_layer_3d/fixed_aspect.csv", p=2.9),
        Workload("varfield-2d", 2, ((100, 125.0),),
                 "aspect", "perfbench/reference/varfield-2d.csv", variable_field=True),
    )
}


# -- diffusion fields --------------------------------------------------------


def varfield_tensor(x: np.ndarray) -> np.ndarray:
    """D(x, y) = diag(1 + x, 1 + 10 y) on the unit square: d_min 1, d_max 11."""
    return np.diag([1.0 + x[0], 1.0 + 10.0 * x[1]])


class CountingEvaluator:
    """Wraps a diffusion evaluator and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def make_field(workload: Workload, evaluator=varfield_tensor) -> DiffusionField:
    if workload.variable_field:
        return DiffusionField.from_callable(2, evaluator, 1.0, 11.0)
    return DiffusionField.identity(workload.dim)


def warm_up() -> None:
    """One small build_report through the Lanczos/shift-invert path, so BLAS,
    ARPACK and SuperLU are loaded before anything is timed."""
    mesh = generate_boundary_layer(2, 8, 5.0)
    build_report(mesh, DiffusionField.identity(2), tol=TOL, dense_cutoff=10)


# -- reference check ---------------------------------------------------------


def load_reference(root: Path, workload: Workload) -> dict[float, dict[str, float]]:
    """Reference rows of a sweep CSV keyed by their parameter value."""
    with open(root / workload.reference, newline="") as f:
        return {
            float(row["parameter"]): {k: float(v) for k, v in row.items() if k != "parameter"}
            for row in csv.DictReader(f)
        }


def _rel_err(value: float, ref: float) -> float:
    if value == ref or (math.isnan(value) and math.isnan(ref)):
        return 0.0
    if ref == 0 or math.isnan(value) or math.isnan(ref):
        return math.inf
    return abs(value - ref) / abs(ref)


def check_row(row: dict[str, float], ref: dict[str, float]) -> tuple[list[str], float]:
    """Columns of a report row that miss the reference, and the largest
    relative drift over every compared column."""
    bad = [c for c in STRUCTURAL if row[c] != ref[c]]
    worst = 0.0
    for col, value in row.items():
        if col.startswith("exact."):
            rtol = EXACT_RTOL
        elif col.startswith("diag.") or col in BOUND_IDS:
            rtol = RAW_RTOL
        else:
            continue
        err = _rel_err(value, ref[col])
        worst = max(worst, err)
        if err > rtol:
            bad.append(col)
    return bad, worst


def judge(report, ref: dict[str, float] | None) -> tuple[str | None, float]:
    """Failure reason of one finished instance (None when it passes) and its
    largest drift from the reference."""
    if not (report.exact_A.converged and report.exact_SAS.converged):
        return "eigen-solve did not converge", math.nan
    if report.exact_SAS.lambda_max > report.dim + 1:
        return f"lambda_max(SAS) above {report.dim + 1}", math.nan
    if ref is None:
        return "no reference row", math.nan
    bad, worst = check_row(report.to_row(), ref)
    if bad:
        return "reference mismatch: " + ", ".join(bad), worst
    return None, worst


@dataclass
class Outcome:
    key: float
    failure: str | None
    max_rel_err: float

    def to_json(self) -> dict:
        return {"parameter": self.key, "ok": self.failure is None,
                "failure": self.failure,
                "max_rel_err": None if math.isnan(self.max_rel_err) else self.max_rel_err}


# -- untraced pass -----------------------------------------------------------


def run_pass(workload: Workload, seed: int, refs) -> tuple[float, float, list[Outcome]]:
    """Every instance once, untraced: (wall seconds, seconds inside
    build_report, outcomes)."""
    field = make_field(workload)
    outcomes = []
    build_s = 0.0
    t0 = time.perf_counter()
    for n, aspect in workload.instances:
        key = workload.key(n, aspect)
        try:
            mesh = generate_boundary_layer(workload.dim, n, aspect)
            tb = time.perf_counter()
            report = build_report(mesh, field, workload.p, tol=TOL, seed=seed)
            build_s += time.perf_counter() - tb
            outcomes.append(Outcome(key, *judge(report, refs.get(key))))
        except Exception as exc:  # an instance that raises is a failed instance
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(key, f"raised {type(exc).__name__}: {exc}", math.nan))
    return time.perf_counter() - t0, build_s, outcomes


# -- traced pass -------------------------------------------------------------

# Replayed stages whose work build_report does once; average_diffusion and
# beta are replayed too, but their work is already inside assemble and raw.
TOP_LEVEL_STAGES = ("mesh.metrics", "assembly.assemble", "assembly.jacobi",
                    "spectra.eig_A", "spectra.eig_SAS", "bounds.raw")


class Tracer:
    """Spans kept in memory: name, instance, parent span, start and end in
    seconds since the tracer was made."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []

    def call(self, name: str, instance: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append({
                "name": name, "instance": instance, "parent": "instance",
                "start": start - self.origin, "end": time.perf_counter() - self.origin,
            })

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def trace_instance(tracer: Tracer, instance: str, workload: Workload,
                   n: int, aspect: float, seed: int) -> tuple:
    """build_report under a span, then each stage replayed once through its
    public function.  Returns (report, field evaluations inside build_report,
    nnz of A)."""
    evaluator = CountingEvaluator(varfield_tensor)
    field = make_field(workload, evaluator)
    p = workload.p
    start = time.perf_counter()
    try:
        mesh = tracer.call("mesh.generate", instance, generate_boundary_layer,
                           workload.dim, n, aspect)
        report = tracer.call("report.build", instance, build_report,
                             mesh, field, p, tol=TOL, seed=seed)
        field_evals = evaluator.calls
        # build_report cached boundary distances on its mesh; the replay
        # starts from a fresh one so that it pays for them again.
        mesh = generate_boundary_layer(workload.dim, n, aspect)
        metrics, geometry = tracer.call("mesh.metrics", instance, compute_metrics, mesh)
        tracer.call("assembly.average_diffusion", instance, average_diffusion_all, mesh, field)
        a = tracer.call("assembly.assemble", instance, assemble_stiffness, mesh, field)
        sas = tracer.call("assembly.jacobi", instance, jacobi_scale, a)
        tracer.call("spectra.eig_A", instance, extreme_eigenvalues, a, TOL, seed=seed)
        tracer.call("spectra.eig_SAS", instance, extreme_eigenvalues, sas, TOL, seed=seed)
        tracer.call("bounds.beta", instance, compute_beta, mesh, field, p, geometry=geometry)
        tracer.call("bounds.raw", instance, evaluate_raw_bounds, mesh, field, p,
                    geometry=geometry, metrics=metrics)
    finally:
        tracer.spans.append({"name": "instance", "instance": instance, "parent": None,
                             "start": start - tracer.origin,
                             "end": time.perf_counter() - tracer.origin})
    return report, field_evals, a.matrix.nnz


def run_traced_pass(workload: Workload, seed: int, refs,
                    tag: str) -> tuple[dict, list[Outcome], list[dict]]:
    """Every instance once with spans and counters: (per-layer values summed
    over the instances, outcomes, spans)."""
    tracer = Tracer()
    outcomes = []
    counts = {"field_evals": 0, "useful_evals": 0, "nnz": 0, "lanczos": 0,
              "dense": 0, "unconverged": 0}
    residual_max = 0.0
    n_points = len(simplex_average_rule(workload.dim, 2)[1])
    for i, (n, aspect) in enumerate(workload.instances):
        key = workload.key(n, aspect)
        instance = f"{tag}/{i}"
        try:
            report, evals, nnz = trace_instance(tracer, instance, workload, n, aspect, seed)
        except Exception as exc:  # an instance that raises is a failed instance
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(key, f"raised {type(exc).__name__}: {exc}", math.nan))
            continue
        outcomes.append(Outcome(key, *judge(report, refs.get(key))))
        counts["field_evals"] += evals
        if workload.variable_field:
            counts["useful_evals"] += report.n_elements * n_points
        counts["nnz"] += nnz
        for res in (report.exact_A, report.exact_SAS):
            counts["dense" if res.method == "dense" else "lanczos"] += 1
            counts["unconverged"] += not res.converged
            residual_max = max(residual_max, res.residual)

    stage = {name: tracer.total(name) for name in
             ("mesh.generate", "mesh.metrics", "assembly.average_diffusion",
              "assembly.assemble", "assembly.jacobi", "spectra.eig_A",
              "spectra.eig_SAS", "bounds.beta", "bounds.raw", "report.build")}
    build_s = stage["report.build"]
    layer = {f"{name}_s": value for name, value in stage.items()}
    layer.update({
        "assembly.field_evals": counts["field_evals"],
        # A constant field is never evaluated: nothing is wasted.
        "assembly.field_eval_yield": (counts["useful_evals"] / counts["field_evals"]
                                      if counts["field_evals"] else 1.0),
        "assembly.nnz": counts["nnz"],
        "spectra.lanczos_solves": counts["lanczos"],
        "spectra.dense_solves": counts["dense"],
        "spectra.unconverged": counts["unconverged"],
        "spectra.residual_max": residual_max,
        "report.unattributed_s": build_s - sum(stage[s] for s in TOP_LEVEL_STAGES),
    })
    return layer, outcomes, tracer.spans


# -- environment ---------------------------------------------------------------


def _openblas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with a numpy/scipy wheel."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "femcond": femcond.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_blas_threads": _openblas_threads(np),
        "scipy_blas_threads": _openblas_threads(scipy),
    }


def median_of(values: list[dict]) -> dict:
    return {k: statistics.median(v[k] for v in values) for k in values[0]}

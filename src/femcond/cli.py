"""Command-line front end: mesh generation, single-instance analysis,
parameter sweeps, and bound calibration.

A mesh path ending in .node or .ele names the Triangle pair base.node and
base.ele, any other path a native JSON file.  A boundary-layer sweep takes
exactly one of --n-core and --aspect and sweeps the other; the other
generators sweep --n, and the imported family the mesh files in --values.
Eigen-solves run at spectra.DEFAULT_TOL from start vectors of seed 0.

Exit codes: 0 success, 2 usage error, 3 numerical failure.  Any command
exits 2 on a usage error, before any solve.  A sweep member that fails on
its own (a generator refusing the value, a failed eigen-solve) is reported
on stderr and written as a NaN row; the sweep exits 3 only when every member
failed.  All commands are deterministic for fixed flags; numbers are printed
with 17 significant digits so repeated runs on one machine, with one build
of numpy, scipy and their BLAS, produce bit-identical files.  Across
machines or library builds the last digits may differ.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .assembly import DiffusionField, write_matrix_market
from .bounds import (BOUND_IDS, Calibration, _report_and_stiffness, _resolve_p,
                     build_report, calibrate)
from .mesh import (
    SimplicialMesh,
    _triangle_base,
    export_mesh,
    generate_boundary_layer,
    generate_chebyshev_1d,
    generate_power2_1d,
    generate_uniform,
    import_mesh,
    max_aspect_ratio,
)
from .spectra import EigenSolveError

__all__ = ["main", "cmd_generate", "cmd_analyze", "cmd_sweep", "cmd_calibrate",
           "fit_loglog_slope"]

FAMILY_DIM = {"chebyshev": 1, "power2": 1, "boundary_layer_2d": 2, "boundary_layer_3d": 3}
GENERATORS = ("uniform", *FAMILY_DIM)
FAMILIES = (*GENERATORS, "imported")
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _check_family_flags(args) -> int:
    """Raise the usage error of a generator family's missing flags; return
    the family's dimension."""
    if args.family == "uniform":
        needed = ("dim", "n")
    else:
        needed = ("n",) if FAMILY_DIM[args.family] == 1 else ("n_core", "aspect")
    missing = ["--" + name.replace("_", "-") for name in needed if getattr(args, name) is None]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise ValueError(f"{' and '.join(missing)} {verb} required for the {args.family} family")
    return FAMILY_DIM.get(args.family, args.dim)


def _make_mesh(args) -> SimplicialMesh:
    """The mesh of the generator flags, checked by _check_family_flags."""
    if args.family == "uniform":
        return generate_uniform(args.dim, int(args.n))
    if args.family == "chebyshev":
        return generate_chebyshev_1d(int(args.n))
    if args.family == "power2":
        return generate_power2_1d(int(args.n))
    return generate_boundary_layer(FAMILY_DIM[args.family], int(args.n_core), float(args.aspect))


def _parse_diffusion(spec: str, dim: int) -> DiffusionField:
    if spec == "identity":
        return DiffusionField.identity(dim)
    if spec.startswith("const:"):
        entries = [float(t) for t in spec[len("const:"):].split(",") if t]
        m = np.empty((dim, dim))
        if len(entries) == dim:
            m = np.diag(entries)
        elif len(entries) == dim * (dim + 1) // 2:
            k = 0
            for i in range(dim):
                for j in range(i, dim):
                    m[i, j] = m[j, i] = entries[k]
                    k += 1
        elif len(entries) == dim * dim:
            m = np.asarray(entries).reshape(dim, dim)
        else:
            raise ValueError(
                f"const diffusion for dim {dim} takes {dim} (diagonal), "
                f"{dim * (dim + 1) // 2} (upper triangle) or {dim * dim} "
                f"(full row-major) entries, got {len(entries)}"
            )
        return DiffusionField.constant_matrix(m)
    raise ValueError(f"unknown diffusion spec {spec!r}")


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x over the upper half of the
    sweep (the asymptotic regime)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(y) & (y > 0)
    x, y = x[keep], y[keep]
    if len(x) < 2:
        return float("nan")
    lo = len(x) // 2 if len(x) >= 4 else 0
    return float(np.polyfit(np.log(x[lo:]), np.log(y[lo:]), 1)[0])


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(Path(path), "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    _check_family_flags(args)
    mesh = _make_mesh(args)
    export_mesh(mesh, args.output)
    print(
        f"wrote {_triangle_base(args.output) or args.output}: "
        f"N={mesh.n_elements} N_vi={mesh.n_interior} "
        f"|K_min|={_fmt(mesh.volumes.min())} "
        f"max_aspect={_fmt(max_aspect_ratio(mesh))}"
    )
    return 0


def _load_calibration(path) -> Calibration | None:
    return Calibration.load(path) if path else None


def _print_report(report) -> None:
    print(
        f"mesh: dim={report.dim} N={report.n_elements} N_vi={report.n_interior} "
        f"|Omega|={_fmt(report.domain_volume)}"
        + ("" if abs(report.domain_volume - 1.0) <= 1e-9
           else "  (warning: non-unit domain, 2D log terms are scale-sensitive)")
    )
    for name, r in (("A", report.exact_A), ("SAS", report.exact_SAS)):
        flag = "" if r.converged else "  [NOT CONVERGED]"
        print(
            f"exact {name}: lambda_min={_fmt(r.lambda_min)} "
            f"lambda_max={_fmt(r.lambda_max)} kappa={_fmt(r.kappa)} "
            f"method={r.method} residual={r.residual:.2e} "
            f"matvecs={r.matvecs} factor_nnz={r.factor_nnz} solves={r.solves} "
            f"factorizations={r.factorizations}{flag}"
        )
        print(
            f"  enclosure: {_fmt(r.lambda_min_lower)} <= lambda_min, "
            f"lambda_max <= {_fmt(r.lambda_max_upper)}"
            + ("" if r.certified else "  [NOT CERTIFIED]")
        )
    print(
        f"lambda_max sandwich: {_fmt(report.lambda_max_lower)} <= lambda_max(A) "
        f"<= {_fmt(report.upper_lambda_max_A)}"
    )
    print("bounds (raw, C = 1):")
    for bid, value in report.raw.items():
        print(f"  {bid} = {_fmt(value)}")
    cal = report.calibrated_bounds()
    if cal is not None:
        print("bounds (calibrated):")
        for bid, value in cal.items():
            print(f"  {bid} = {_fmt(value)}")


def cmd_analyze(args) -> int:
    calibration = _load_calibration(args.calibration)
    if args.mesh:
        mesh = import_mesh(args.mesh)
        field = _parse_diffusion(args.diffusion, mesh.dim)
    else:
        field = _parse_diffusion(args.diffusion, _check_family_flags(args))
        mesh = _make_mesh(args)
    report, a = _report_and_stiffness(mesh, field, args.p, calibration=calibration)

    if args.matrix_out:
        write_matrix_market(a, args.matrix_out)

    _print_report(report)
    row = report.to_row()
    if args.csv:
        _write_csv(args.csv, list(row), [list(row.values())])
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_json_dict(), indent=2, allow_nan=False) + "\n")

    if not (report.exact_A.converged and report.exact_SAS.converged):
        print("warning: eigensolver did not reach the requested tolerance",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_sweep(args) -> int:
    calibration = _load_calibration(args.calibration)
    if args.values is None:
        raise ValueError("--values is required")
    swept = "n"
    if args.family == "imported":
        files = [t for t in args.values.split(",") if t]
        if not files:
            raise ValueError("empty value list")
        values = list(range(len(files)))
    else:
        values = _parse_values(args.values)
        if values != sorted(set(values)):
            raise ValueError("sweep values must be strictly increasing")
        if args.family.startswith("boundary_layer"):
            if (args.n_core is None) == (args.aspect is None):
                raise ValueError(f"a {args.family} sweep takes exactly one of --n-core "
                                 "and --aspect; --values sets the other")
            swept = "aspect" if args.aspect is None else "n_core"
        if swept != "aspect" and any(isinstance(v, float) for v in values):
            raise ValueError(f"sweep values of {swept} must be integers")
        members = [argparse.Namespace(**{**vars(args), swept: v}) for v in values]
        dim = _check_family_flags(members[0])
        field = _parse_diffusion(args.diffusion, dim)
        _resolve_p(dim, args.p)
        if calibration is not None and calibration.dim != dim:
            raise ValueError(f"calibration is for dimension {calibration.dim}, "
                             f"the {args.family} family is {dim}D")

    reports = []
    for k, value in enumerate(values):
        try:
            if args.family == "imported":
                mesh = import_mesh(files[k])
                field = _parse_diffusion(args.diffusion, mesh.dim)
            else:
                mesh = _make_mesh(members[k])
            reports.append(build_report(mesh, field, args.p, calibration=calibration))
        except (EigenSolveError, ValueError) as exc:  # MeshError is a ValueError
            print(f"warning: sweep value {value} failed: {exc}", file=sys.stderr)
            reports.append(None)
    if all(r is None for r in reports):
        print("error: every sweep instance failed", file=sys.stderr)
        return EXIT_NUMERICAL

    header = ["parameter"]
    first = next(r for r in reports if r is not None)
    value_keys = list(first.to_row())
    header += value_keys
    rows = []
    xs = []
    for value, report in zip(values, reports):
        if report is None:
            rows.append([value] + [float("nan")] * len(value_keys))
            xs.append(float("nan"))
        else:
            row = report.to_row()
            rows.append([value] + [row[k] for k in value_keys])
            xs.append(value if swept == "aspect" else report.n_elements)
    if args.csv:
        _write_csv(args.csv, header, rows)

    curve_keys = [k for k in value_keys if k.startswith(("exact.kappa", "exact.lambda"))
                  or k in BOUND_IDS or k.startswith("cal.")]
    slopes = {}
    for key in curve_keys:
        ys = [row[1 + value_keys.index(key)] for row in rows]
        slopes[key] = fit_loglog_slope(xs, ys)

    print(f"sweep {args.family} over {'aspect' if swept == 'aspect' else 'n'} = {values}")
    print("fitted log-log slopes (upper half of sweep):")
    for key, slope in slopes.items():
        print(f"  {key}: {_fmt(slope)}")

    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for key in curve_keys:
            ys = [row[1 + value_keys.index(key)] for row in rows]
            fname = plot_dir / (key.replace(".", "_") + ".dat")
            with open(fname, "w", newline="\n") as f:
                for x, y in zip(xs, ys):
                    f.write(f"{_fmt(x)} {_fmt(y)}\n")
        _write_csv(
            plot_dir / "slopes.csv",
            ["curve", "slope"],
            [[k, s] for k, s in slopes.items()],
        )
        _write_gnuplot(plot_dir, curve_keys, swept)
    return 0


def _write_gnuplot(plot_dir: Path, curve_keys, swept: str) -> None:
    lines = [
        "set logscale xy",
        f'set xlabel "{ "aspect ratio" if swept == "aspect" else "number of elements N"}"',
        'set ylabel "value"',
        "set key left top",
        "plot \\",
    ]
    plots = [
        f'  "{key.replace(".", "_")}.dat" using 1:2 with linespoints title "{key}"'
        for key in curve_keys
    ]
    lines.append(", \\\n".join(plots))
    (plot_dir / "plots.gp").write_text("\n".join(lines) + "\n")


def cmd_calibrate(args) -> int:
    field = _parse_diffusion(args.diffusion, args.dim)
    reports = []
    for n in _parse_values(args.n_values):
        mesh = generate_uniform(args.dim, int(n))
        reports.append(build_report(mesh, field, args.p))
    cal = calibrate(reports)
    cal.save(args.output)
    print(f"wrote {args.output}: {len(cal.constants)} constants for dim {cal.dim}")
    return 0


def _parse_values(text: str) -> list[float]:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        v = float(tok)
        if not math.isfinite(v):
            raise ValueError(f"value {tok!r} is not finite")
        vals.append(int(v) if v == int(v) else v)
    if not vals:
        raise ValueError("empty value list")
    return vals


# -- parser ------------------------------------------------------------------


def _add_family_args(p: argparse.ArgumentParser, families=GENERATORS, source=None) -> None:
    """Generator flags; --family is required, or one of a required group."""
    (source or p).add_argument("--family", choices=families, required=source is None)
    p.add_argument("--dim", type=int, choices=(1, 2, 3),
                   help="dimension (uniform family)")
    p.add_argument("--n", type=int, help="elements per axis / 1D element count")
    p.add_argument("--n-core", dest="n_core", type=int,
                   help="core nodes per axis (boundary layer families)")
    p.add_argument("--aspect", type=float,
                   help="target layer aspect ratio (boundary layer families)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--diffusion", default="identity",
                   help='"identity" or "const:<entries>" (diagonal, upper '
                        "triangle, or full row-major)")
    p.add_argument("--p", type=float, default=None,
                   help="exponent for the 3D bounds, in (1, 3); default 2.9")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femcond",
        description="Stiffness-matrix conditioning on anisotropic simplicial "
                    "meshes: exact spectra, a-priori bounds, experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a mesh file")
    _add_family_args(p)
    p.add_argument("-o", "--output", required=True, help=".node or .ele: Triangle pair, else JSON")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="exact spectra and all bounds for one mesh")
    source = p.add_mutually_exclusive_group(required=True)
    _add_family_args(p, source=source)
    _add_common_args(p)
    source.add_argument("--mesh", help="mesh file instead of a generator family")
    p.add_argument("--calibration", help="calibration JSON from the calibrate command")
    p.add_argument("--csv", help="write the report as one CSV row")
    p.add_argument("--json", help="write the report as JSON")
    p.add_argument("--matrix-out", dest="matrix_out",
                   help="write the stiffness matrix (MatrixMarket)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sweep a family parameter, write CSV and plot data")
    _add_family_args(p, FAMILIES)
    _add_common_args(p)
    p.add_argument("--values",
                   help="comma-separated strictly increasing values of --n, or of whichever of "
                        "--n-core and --aspect is not given; mesh files (imported family)")
    p.add_argument("--calibration")
    p.add_argument("--csv", help="output CSV path")
    p.add_argument("--plot-dir", dest="plot_dir",
                   help="directory for per-curve .dat files and gnuplot script")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="fit bound constants on uniform meshes")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n-values", dest="n_values", required=True,
                   help="comma-separated uniform mesh sizes")
    _add_common_args(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EigenSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # MeshError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: mesh generation, single-instance analysis,
parameter sweeps, and bound calibration.

A mesh path ending in .node or .ele names the Triangle pair base.node and
base.ele, any other path a native JSON file.  A sweep sets, from --values,
the one flag of its family, other than --dim, that is not given; calibrate
sweeps the uniform family's --n over --n-values, checked like --values.
Mesh files are read before any solve, since they give the dimension, so an
unreadable file is a usage error.  So is a flag that the family (or an
analyzed --mesh file) does not read or that --values sets, and --p when no
member is 3D; an imported sweep applies --p to its 3D files only.
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
from functools import partial
from pathlib import Path

import numpy as np

from .assembly import DiffusionField, write_matrix_market
from .bounds import BOUND_IDS, Calibration, _resolve_p, build_report, calibrate
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

# name: (mesh builder, the flags it reads in call order, the dimension, or None
# where --dim or the mesh file gives it).  A row that reads --mesh imports a
# file; the others are the generators.
FAMILIES = {
    "uniform": (generate_uniform, ("dim", "n"), None),
    "chebyshev": (generate_chebyshev_1d, ("n",), 1),
    "power2": (generate_power2_1d, ("n",), 1),
    "boundary_layer_2d": (partial(generate_boundary_layer, 2), ("n_core", "aspect"), 2),
    "boundary_layer_3d": (partial(generate_boundary_layer, 3), ("n_core", "aspect"), 3),
    "imported": (import_mesh, ("mesh",), None),
}
GENERATORS = tuple(name for name, (_, reads, _) in FAMILIES.items() if "mesh" not in reads)
FLAGS = tuple(dict.fromkeys(name for _, reads, _ in FAMILIES.values() for name in reads))
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _flag_names(names) -> str:
    return " and ".join("--" + name.replace("_", "-") for name in names)


def _check_flags(args, sweep: bool = False) -> str | None:
    """Raise the usage error of a family flag that the family (or a mesh
    file, when args.family is None) does not read, or misses; return the
    flag that a sweep sets from --values: the one flag of the family, other
    than --dim, that is not given."""
    family = args.family or "imported"
    reads = FAMILIES[family][1]
    given = [name for name in FLAGS if getattr(args, name, None) is not None]
    if unread := [name for name in given if name not in reads]:
        source = f"the {family} family" if args.family else "a --mesh file"
        raise ValueError(f"{source} does not read {_flag_names(unread)}")
    swept = None
    if sweep:
        free = [name for name in reads if name != "dim"]
        unset = [name for name in free if name not in given]
        if len(free) == 1 and not unset:
            raise ValueError(f"--values sets {_flag_names(free)} in a {family} sweep; "
                             f"drop {_flag_names(free)}")
        if len(unset) != 1:
            raise ValueError(f"a {family} sweep takes exactly one of {_flag_names(free)}; "
                             "--values sets the other")
        swept = unset[0]
    if missing := [name for name in reads if name != swept and name not in given]:
        verb = "is" if len(missing) == 1 else "are"
        raise ValueError(f"{_flag_names(missing)} {verb} required for the {family} family")
    return swept


def _members(args, swept: str, text: str) -> list[argparse.Namespace]:
    """One copy of args per comma-separated entry of text, with swept set to
    it: a mesh file as given, else a finite number.  The numbers must be
    strictly increasing and, except for an aspect, integers."""
    values = [token for token in map(str.strip, text.split(",")) if token]
    if not values:
        raise ValueError("empty value list")
    if swept != "mesh":
        numbers = [float(token) for token in values]
        if infinite := [t for t, v in zip(values, numbers) if not math.isfinite(v)]:
            raise ValueError(f"value {infinite[0]!r} is not finite")
        if numbers != sorted(set(numbers)):
            raise ValueError("sweep values must be strictly increasing")
        if swept != "aspect" and not all(v.is_integer() for v in numbers):
            raise ValueError(f"sweep values of {swept} must be integers")
        values = [int(v) if v.is_integer() else v for v in numbers]
    return [argparse.Namespace(**{**vars(args), swept: value}) for value in values]


def _make_mesh(args) -> SimplicialMesh:
    """The mesh of the family flags, checked by _check_flags."""
    builder, reads, _ = FAMILIES[args.family or "imported"]
    return builder(*(getattr(args, name) for name in reads))


def _check_problem(args, dims: set[int]) -> tuple[dict, Calibration | None]:
    """Raise the usage error of a --diffusion, --p or --calibration that
    does not fit the members' dimensions; return the diffusion field of
    each dimension and the calibration, if any."""
    fields = {dim: _parse_diffusion(args.diffusion, dim) for dim in sorted(dims)}
    if args.p is not None:
        if max(dims) < 3:
            shown = " or ".join(f"{dim}D" for dim in sorted(dims))
            raise ValueError(f"--p applies to 3D problems only, not to this {shown} one")
        _resolve_p(3, args.p)
    path = getattr(args, "calibration", None)
    calibration = Calibration.load(path) if path else None
    if calibration is not None and (other := dims - {calibration.dim}):
        raise ValueError(f"calibration is for dimension {calibration.dim}, "
                         f"not for a {min(other)}D problem")
    return fields, calibration


def _instances(args, values: str | None = None):
    """Check a command's flags and problem before any solve; return the
    swept flag, the members, the calibration and instance(k), member k's
    mesh and diffusion field.  Mesh files are read here and each is dropped
    when taken; a generator builds its mesh in instance(k), so a value it
    refuses fails alone."""
    swept = _check_flags(args, values is not None)
    members = [args] if swept is None else _members(args, swept, values)
    _, reads, dim = FAMILIES[args.family or "imported"]
    meshes = [_make_mesh(m) if "mesh" in reads else None for m in members]
    dims = {mesh.dim for mesh in meshes} if "mesh" in reads else {dim or args.dim}
    fields, calibration = _check_problem(args, dims)

    def instance(k: int) -> tuple[SimplicialMesh, DiffusionField]:
        mesh = meshes[k] if meshes[k] is not None else _make_mesh(members[k])
        meshes[k] = None
        return mesh, fields[mesh.dim]

    return swept, members, calibration, instance


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
    sweep (the asymptotic regime); NaN unless that range holds at least two
    distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(y) & (y > 0)
    x, y = x[keep], y[keep]
    lo = len(x) // 2 if len(x) >= 4 else 0
    x, y = x[lo:], y[lo:]
    if len(np.unique(x)) < 2:
        return float("nan")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(Path(path), "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


# -- subcommands -------------------------------------------------------------


def cmd_generate(args) -> int:
    _check_flags(args)
    mesh = _make_mesh(args)
    export_mesh(mesh, args.output)
    print(
        f"wrote {_triangle_base(args.output) or args.output}: "
        f"N={mesh.n_elements} N_vi={mesh.n_interior} "
        f"|K_min|={_fmt(mesh.volumes.min())} "
        f"max_aspect={_fmt(max_aspect_ratio(mesh))}"
    )
    return 0


def _print_report(report) -> None:
    print(
        f"mesh: dim={report.dim} N={report.n_elements} N_vi={report.n_interior} "
        f"|Omega|={_fmt(report.domain_volume)}"
        + ("  (warning: non-unit domain, 2D log terms are scale-sensitive)"
           if report.nonunit_domain else "")
    )
    for name, r in (("A", report.exact_A), ("SAS", report.exact_SAS)):
        flag = "" if r.converged else "  [NOT CONVERGED]"
        print(
            f"exact {name}: lambda_min={_fmt(r.lambda_min)} "
            f"lambda_max={_fmt(r.lambda_max)} kappa={_fmt(r.kappa)} "
            f"method={r.method} residual={r.residual:.2e} "
            f"factor_nnz={r.factor_nnz} solves={r.solves} "
            f"factorizations={r.factorizations} start={r.start}{flag}"
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
    _, _, calibration, instance = _instances(args)
    report = build_report(*instance(0), args.p, calibration=calibration)

    if args.matrix_out:
        write_matrix_market(report.stiffness, args.matrix_out)

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
    if args.values is None:
        raise ValueError("--values is required")
    swept, members, calibration, instance = _instances(args, args.values)
    # An imported sweep's parameter numbers its files.
    values = list(range(len(members))) if swept == "mesh" else [getattr(m, swept) for m in members]
    reports = []
    for k, value in enumerate(values):
        try:
            reports.append(build_report(*instance(k), args.p, calibration=calibration))
        except (EigenSolveError, ValueError) as exc:  # MeshError is a ValueError
            print(f"warning: sweep value {value} failed: {exc}", file=sys.stderr)
            reports.append(None)
    if all(r is None for r in reports):
        print("error: every sweep instance failed", file=sys.stderr)
        return EXIT_NUMERICAL

    value_keys = list(next(r for r in reports if r is not None).to_row())
    rows, xs = [], []
    for value, report in zip(values, reports):
        row = dict.fromkeys(value_keys, float("nan")) if report is None else report.to_row()
        rows.append([value] + [row[k] for k in value_keys])
        xs.append(float("nan") if report is None
                  else value if swept == "aspect" else report.n_elements)
    if args.csv:
        _write_csv(args.csv, ["parameter", *value_keys], rows)

    curves = {k: [row[1 + i] for row in rows] for i, k in enumerate(value_keys)
              if k.startswith(("exact.kappa", "exact.lambda", "cal.")) or k in BOUND_IDS}
    slopes = {key: fit_loglog_slope(xs, ys) for key, ys in curves.items()}

    print(f"sweep {args.family} over {'aspect' if swept == 'aspect' else 'n'} = {values}")
    print("fitted log-log slopes (upper half of sweep):")
    for key, slope in slopes.items():
        print(f"  {key}: {_fmt(slope)}")

    if args.plot_dir:
        plot_dir = Path(args.plot_dir)
        plot_dir.mkdir(parents=True, exist_ok=True)
        for key, ys in curves.items():
            fname = plot_dir / (key.replace(".", "_") + ".dat")
            with open(fname, "w", newline="\n") as f:
                for x, y in zip(xs, ys):
                    f.write(f"{_fmt(x)} {_fmt(y)}\n")
        _write_csv(
            plot_dir / "slopes.csv",
            ["curve", "slope"],
            [[k, s] for k, s in slopes.items()],
        )
        _write_gnuplot(plot_dir, curves, swept)
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
    uniform = argparse.Namespace(**vars(args), family="uniform", n=None)
    _, members, _, instance = _instances(uniform, args.n_values)
    cal = calibrate([build_report(*instance(k), args.p) for k in range(len(members))])
    cal.save(args.output)
    print(f"wrote {args.output}: {len(cal.constants)} constants for dim {cal.dim}")
    return 0


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
                   help="exponent for the 3D bounds, in (1, 3); default 2.9; "
                        "a usage error on a 1D or 2D problem")


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
                   help="comma-separated values of the one family flag, other than --dim, that "
                        "is not given: strictly increasing numbers, integers but for --aspect; "
                        "or mesh files (imported family), read before any solve, so an "
                        "unreadable one is a usage error")
    p.add_argument("--calibration")
    p.add_argument("--csv", help="output CSV path")
    p.add_argument("--plot-dir", dest="plot_dir",
                   help="directory for per-curve .dat files and gnuplot script")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="fit bound constants on uniform meshes")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--n-values", dest="n_values", required=True,
                   help="comma-separated uniform mesh sizes --n, checked like sweep --values")
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

#!/usr/bin/env python3
"""Regenerate the committed sweep results under results/.

    python3 scripts/sweep.py                      # every family
    python3 scripts/sweep.py chebyshev power2     # some of them

Each family first fits its calibration on uniform meshes, then runs its
sweeps with that calibration attached.  The exit code is that of the first
command that fails; later commands are skipped.
"""

import sys
from pathlib import Path

from femcond.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"

# family: (calibration file, calibrate arguments,
#          [(CSV file, plot directory, sweep arguments), ...])
EXPERIMENTS = {
    # Endpoint-clustered (cosine-spaced) nodes: exact kappa(A) ~ N^3 and
    # kappa(SAS) ~ N^2; the new bound tracks SAS without the prior bound's
    # extra log factor.
    "chebyshev": ("calibration_1d.json", ["--dim", "1", "--n-values", "8,16,32,64"], [
        ("chebyshev.csv", "plots", ["--values", "32,64,128,256,512,1024"]),
    ]),
    # Widths halving towards x = 0: exact kappa(A) ~ 2^N while kappa(SAS)
    # stays nearly flat; the new scaled bound grows linearly in N, the prior
    # one like 2^N.
    "power2": ("calibration_1d.json", ["--dim", "1", "--n-values", "8,16,32,64"], [
        ("power2.csv", "plots", ["--values", ",".join(str(n) for n in range(8, 25, 2))]),
    ]),
    # Unit square with a thin stretched layer along the boundary: exact
    # kappa(SAS) is essentially independent of the layer aspect ratio, while
    # kappa(A) grows with it.  Fixed aspect 125 with growing N, then fixed N
    # (n_core 100, about 20k elements) with growing aspect.
    "boundary_layer_2d": ("calibration_2d.json", ["--dim", "2", "--n-values", "2,4,8,16"], [
        ("fixed_aspect.csv", "plots_fixed_aspect",
         ["--values", "20,30,45,70,100", "--aspect", "125"]),
        ("fixed_n.csv", "plots_fixed_n",
         ["--variable", "aspect", "--values", "5,25,125", "--n-core", "100"]),
    ]),
    # Unit cube with pancake-shaped cells at the faces: fixed anisotropy
    # 25:25:1 with growing N, then fixed N with growing anisotropy; the 3D
    # bounds use p = 2.9.
    "boundary_layer_3d": ("calibration_3d.json", ["--dim", "3", "--n-values", "2,3,4,5", "--p", "2.9"], [
        ("fixed_aspect.csv", "plots_fixed_aspect",
         ["--values", "4,6,8,11,14", "--aspect", "25", "--p", "2.9"]),
        ("fixed_n.csv", "plots_fixed_n",
         ["--variable", "aspect", "--values", "5,10,25,50", "--n-core", "8", "--p", "2.9"]),
    ]),
}


def commands(family: str, root: Path = RESULTS) -> list[list[str]]:
    """The calibrate command, then one sweep command per table row, writing
    under root/family."""
    out = root / family
    cal_file, cal_args, sweeps = EXPERIMENTS[family]
    cal = str(out / cal_file)
    argvs = [["calibrate", *cal_args, "-o", cal]]
    for csv, plot_dir, args in sweeps:
        argvs.append(["sweep", "--family", family, *args, "--calibration", cal,
                      "--csv", str(out / csv), "--plot-dir", str(out / plot_dir)])
    return argvs


if __name__ == "__main__":
    families = sys.argv[1:] or list(EXPERIMENTS)
    unknown = [f for f in families if f not in EXPERIMENTS]
    if unknown:
        sys.exit(f"unknown family {unknown[0]!r}; choose from {', '.join(EXPERIMENTS)}")
    rc = 0
    for family in families:
        (RESULTS / family).mkdir(parents=True, exist_ok=True)
        for argv in commands(family):
            rc = rc or main(argv)
    sys.exit(rc)

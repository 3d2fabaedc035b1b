#!/usr/bin/env python3
"""Write the reference rows of a workload that has no committed sweep result.

    python3 perfbench/make_reference.py varfield-2d

Runs every instance once with seed 0 and writes perfbench/reference/<name>.csv
in the sweep CSV layout (a "parameter" column, then BoundReport.to_row()),
17 significant digits.  Run it only on a commit whose results are trusted:
the benchmark checks every later commit against this file.
"""

import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402  (needs the path above)


def main(name: str) -> None:
    workload = bench.WORKLOADS[name]
    field = bench.make_field(workload)
    rows = []
    for n, aspect in workload.instances:
        mesh = bench.generate_boundary_layer(workload.dim, n, aspect)
        report = bench.build_report(mesh, field, workload.p, tol=bench.TOL, seed=0)
        row = {"parameter": format(workload.key(n, aspect), "g")}
        row.update({k: format(v, ".17g") for k, v in report.to_row().items()})
        rows.append(row)
    with open(ROOT / workload.reference, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    main(sys.argv[1])

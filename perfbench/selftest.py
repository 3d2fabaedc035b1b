#!/usr/bin/env python3
"""Self-tests of the benchmark harness, on small meshes (about 10 s).

    python3 perfbench/selftest.py

Run from the repository root.  The file name keeps it out of the package's
own pytest collection; `python3 -m pytest perfbench/selftest.py` works too.
"""

import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402  (needs the path above)
import run  # noqa: E402

SMALL = {
    "bl2d-aspect": ((10, 5.0), (10, 25.0)),
    "bl3d-n": ((4, 25.0),),
    "varfield-2d": ((12, 5.0),),
}


@contextlib.contextmanager
def small_workloads():
    """Shrink every workload to a few small instances for the duration."""
    saved = dict(bench.WORKLOADS)
    for name, instances in SMALL.items():
        bench.WORKLOADS[name] = dataclasses.replace(saved[name], instances=instances)
    try:
        yield
    finally:
        bench.WORKLOADS.update(saved)


class PrintedMetrics(unittest.TestCase):
    def last_line(self, *args: str) -> dict:
        out = io.StringIO()
        with small_workloads(), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "bl2d-aspect", "--seconds", "0", *args])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_names_and_units_equal_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            result = self.last_line("--trace", trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec[group]},
            )


class ReferenceCheck(unittest.TestCase):
    def setUp(self):
        mesh = bench.generate_boundary_layer(2, 10, 5.0)
        field = bench.DiffusionField.identity(2)
        self.row = bench.build_report(mesh, field, tol=bench.TOL, seed=3).to_row()
        self.ref = dict(self.row)

    def test_identical_row_passes(self):
        self.assertEqual(bench.check_row(self.row, self.ref), ([], 0.0))

    def test_perturbation_of_1e_6_fails_every_checked_column(self):
        checked = [c for c in self.row
                   if c.startswith(("exact.", "diag.")) or c in bench.BOUND_IDS]
        self.assertEqual(len(checked), 16)
        for col in checked:
            ref = dict(self.ref, **{col: self.ref[col] * (1 + 1e-6)})
            bad, worst = bench.check_row(self.row, ref)
            self.assertEqual(bad, [col])
            self.assertAlmostEqual(worst, 1e-6, delta=1e-9)

    def test_exact_columns_allow_solver_tolerance(self):
        ref = dict(self.ref, **{"exact.kappa.A": self.ref["exact.kappa.A"] * (1 + 1e-9)})
        self.assertEqual(bench.check_row(self.row, ref)[0], [])

    def test_committed_reference_rows_are_found(self):
        for w in bench.WORKLOADS.values():
            refs = bench.load_reference(ROOT, w)
            for n, aspect in w.instances:
                self.assertIn(w.key(n, aspect), refs, w.name)


class FieldEvaluationCount(unittest.TestCase):
    def test_count_repeats_exactly(self):
        with small_workloads():
            w = bench.WORKLOADS["varfield-2d"]
            first, second = (bench.run_traced_pass(w, seed, {}, "t")[0] for seed in (0, 1))
        self.assertGreater(first["assembly.field_evals"], 0)
        for name in ("assembly.field_evals", "assembly.field_eval_yield"):
            self.assertEqual(first[name], second[name])

    def test_constant_field_is_never_evaluated(self):
        with small_workloads():
            layer = bench.run_traced_pass(bench.WORKLOADS["bl3d-n"], 0, {}, "t")[0]
        self.assertEqual(layer["assembly.field_evals"], 0)
        self.assertEqual(layer["spectra.dense_solves"], 2)


if __name__ == "__main__":
    unittest.main()

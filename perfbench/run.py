#!/usr/bin/env python3
"""femcond benchmark: one workload of build_report instances in this process.

    python3 perfbench/run.py --workload bl2d-aspect --seed 1 --seconds 35 --trace 0

Run from the repository root; femcond is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
SETUP_PROBES = 6  # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60
E2E_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "solved_frac": "1"}


class BenchError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def set_up():
    """Import numpy, scipy and femcond from ./src, then warm up once.
    Returns (bench module, seconds taken)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "femcond" / "__init__.py").is_file():
        raise BenchError(f"no femcond sources under {src}")
    sys.path.insert(0, str(src))
    import bench

    if Path(bench.femcond.__file__).resolve().parent != (src / "femcond").resolve():
        raise BenchError(f"femcond imported from {bench.femcond.__file__}, not {src}")
    bench.warm_up()
    return bench, time.perf_counter() - t0


def probe_setup_seconds() -> float:
    """Set-up time of a fresh interpreter running this file."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(bench, workload, refs, seed: int, seconds: float, trace: bool):
    """Repeat the workload while one more pass of the mean length so far
    still ends within `seconds` (at least one pass).  Returns (outcomes of
    every pass, metric values)."""
    outcomes, walls, layers, spans = [], [], [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        wall, untraced_build_s, result = bench.run_pass(workload, seed, refs)
        walls.append(wall)
        outcomes += result
        print(json.dumps({"pass": k, "traced": False, "seconds": wall,
                          "instances": [o.to_json() for o in result]}))
        if trace:
            layer, result, pass_spans = bench.run_traced_pass(workload, seed, refs, f"pass{k}")
            layer["trace.overhead_s"] = layer["report.build_s"] - untraced_build_s
            layers.append(layer)
            outcomes += result
            print(json.dumps({"pass": k, "traced": True,
                              "instances": [o.to_json() for o in result]}))
            spans += pass_spans
        k += 1

    if trace:
        print(json.dumps({"spans": spans}))
        metrics = bench.median_of(layers)
        metrics["check.max_rel_err"] = max(
            (o.max_rel_err for o in outcomes if not math.isnan(o.max_rel_err)), default=0.0)
        return outcomes, metrics
    return outcomes, {
        "sweep_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "solved_frac": sum(o.failure is None for o in outcomes) / len(outcomes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_blas_threads()
    try:
        bench, setup_s = set_up()
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_s)
        return 0
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        setup_samples = [setup_s] + [probe_setup_seconds() for _ in range(SETUP_PROBES)]
        expected = declared_metrics(trace)
        refs = bench.load_reference(ROOT, workload)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"env": bench.environment(), "workload": workload.name,
                      "seed": args.seed, "setup_samples_s": setup_samples}))
    outcomes, values = measure(bench, workload, refs, args.seed, args.seconds, trace)
    if not trace:
        values["setup_s"] = statistics.median(setup_samples)
    units = bench.LAYER_UNITS if trace else E2E_UNITS
    metrics = {name: {"value": v, "unit": units.get(name)} for name, v in values.items()}
    declared = {name: m["unit"] for name, m in metrics.items()}
    if declared != expected:
        print(f"perfbench: metrics {declared} differ from BENCHMARK.json {expected}",
              file=sys.stderr)
        return 3

    failed = sum(o.failure is not None for o in outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The committed results/ reproduce within a stated tolerance.

Every sweep of scripts/sweep.py is rerun into a temporary directory and each
committed CSV column and calibration constant is compared with the rerun at
a relative tolerance: 1e-10 for the exact.* columns, whose error the
eigensolver's tolerance governs, and 1e-13 for everything else (geometry
and bound formulas, which only reorder rounding).  Each plot directory must
hold the same files and the same gnuplot script; each .dat file must keep
its x column exactly and its y column within the tolerance of the CSV
column it copies.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

from femcond.cli import main

ROOT = Path(__file__).resolve().parents[1]
EXACT_RTOL = 1e-10
OTHER_RTOL = 1e-13


def _load_sweep():
    spec = importlib.util.spec_from_file_location("femcond_sweep", ROOT / "scripts" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = _load_sweep()


def _drift(new: float, old: float) -> float:
    if math.isnan(new) and math.isnan(old) or new == old:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def _read_csv(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {col: [float(r[col]) for r in rows] for col in rows[0]}


def _read_dat(path: Path) -> tuple[list[str], list[float]]:
    rows = [line.split() for line in path.read_text().splitlines()]
    return [x for x, _ in rows], [float(y) for _, y in rows]


def _read_constants(path: Path) -> dict[str, float]:
    return {k: float(v) for k, v in json.loads(path.read_text())["constants"].items()}


@pytest.mark.parametrize("family", list(SWEEP.EXPERIMENTS))
def test_committed_results_reproduce(family, tmp_path):
    (tmp_path / family).mkdir()
    for argv in SWEEP.commands(family, tmp_path):
        assert main(argv) == 0

    cal_file, _, sweeps = SWEEP.EXPERIMENTS[family]
    committed, rerun = SWEEP.RESULTS / family, tmp_path / family
    worst: dict[str, float] = {}  # largest drift per file and column

    old = _read_constants(committed / cal_file)
    new = _read_constants(rerun / cal_file)
    assert list(new) == list(old)
    for bid in old:
        worst[f"{cal_file}:{bid}"] = _drift(new[bid], old[bid])
    for csv_file, plot_dir, _ in sweeps:
        old, new = _read_csv(committed / csv_file), _read_csv(rerun / csv_file)
        assert list(new) == list(old)
        for col in old:
            assert len(new[col]) == len(old[col])
            worst[f"{csv_file}:{col}"] = max(map(_drift, new[col], old[col]))

        old_dir, new_dir = committed / plot_dir, rerun / plot_dir
        names = sorted(f.name for f in old_dir.iterdir())
        assert sorted(f.name for f in new_dir.iterdir()) == names
        assert (new_dir / "plots.gp").read_text() == (old_dir / "plots.gp").read_text()
        copied = {col.replace(".", "_") + ".dat": col for col in old}
        for dat in sorted(old_dir.glob("*.dat")):
            (old_x, old_y), (new_x, new_y) = _read_dat(dat), _read_dat(new_dir / dat.name)
            assert new_x == old_x, dat.name
            worst[f"{plot_dir}/{dat.name}:{copied[dat.name]}"] = max(map(_drift, new_y, old_y))

    print(f"\n{family}: largest relative drift per column")
    for key, value in worst.items():
        print(f"  {key} {value:.2e}")
    over = {key: value for key, value in worst.items()
            if value > (EXACT_RTOL if key.split(":")[1].startswith("exact.") else OTHER_RTOL)}
    assert not over, f"columns beyond tolerance: {over}"

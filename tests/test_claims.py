"""The abstract's claims, read from the committed sweeps under results/.

test_reproducibility checks that results/ can be regenerated; this file
checks what the committed numbers show:
- every calibrated bound lies on the safe side of its exact value;
- the raw new kappa bounds are below the raw prior ones in 1D and 2D (in 3D
  the raw new value is about 2.2 times the prior one, and only the
  calibrated values are comparable);
- the exact kappa(SAS) of the 2D boundary layer does not grow with the
  layer's aspect ratio.
"""

import csv
import math
from pathlib import Path

import pytest

from femcond.bounds import BOUND_IDS, LOWER_BOUND_IDS

RESULTS = Path(__file__).resolve().parents[1] / "results"
CSVS = sorted(RESULTS.glob("*/*.csv"))

# The exact quantity each bound id estimates.
EXACT = {
    "new.lambda_min.A": "exact.lambda_min.A",
    "new.lambda_min.SAS": "exact.lambda_min.SAS",
    "fried.lambda_min": "exact.lambda_min.A",
    "new.kappa.A": "exact.kappa.A",
    "new.kappa.SAS": "exact.kappa.SAS",
    "prior.kappa.A": "exact.kappa.A",
    "prior.kappa.SAS": "exact.kappa.SAS",
    "conjectured.kappa.SAS": "exact.kappa.SAS",
}


def _rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as f:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def _name(path: Path) -> str:
    return str(path.relative_to(RESULTS))


def test_every_sweep_is_read():
    assert len(CSVS) >= 6  # six sweeps of four families
    assert set(EXACT) == set(BOUND_IDS)


@pytest.mark.parametrize("path", CSVS, ids=_name)
def test_calibrated_bounds_are_on_the_safe_side(path):
    for row in _rows(path):
        for bid, exact_key in EXACT.items():
            bound, exact = row["cal." + bid], row[exact_key]
            assert math.isfinite(exact), (_name(path), row["parameter"], exact_key)
            if math.isnan(bound):  # conjectured.kappa.SAS outside 2D
                continue
            if bid in LOWER_BOUND_IDS:
                assert bound <= exact, (_name(path), row["parameter"], bid)
            else:
                assert bound >= exact, (_name(path), row["parameter"], bid)


@pytest.mark.parametrize("path", CSVS, ids=_name)
def test_new_kappa_bounds_below_prior_in_1d_and_2d(path):
    for row in _rows(path):
        if row["dim"] == 3:
            continue
        for matrix in ("A", "SAS"):
            assert row[f"new.kappa.{matrix}"] <= row[f"prior.kappa.{matrix}"], (
                _name(path), row["parameter"], matrix)


def test_2d_sas_condition_number_is_flat_in_the_aspect_ratio():
    kappa = [row["exact.kappa.SAS"] for row in _rows(RESULTS / "boundary_layer_2d" / "fixed_n.csv")]
    assert len(kappa) >= 3
    assert max(kappa) / min(kappa) <= 1.01

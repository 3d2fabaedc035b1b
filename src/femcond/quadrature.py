"""Degree-2 averaging rules on simplices, one fixed rule per dimension.

Each rule is a read-only table of barycentric coordinates: row j is local
point j, and every point carries the weight 1/m (m points).  The average of
a polynomial of total degree <= 2 over any simplex is exactly the mean of
its values at the mapped points; that is all element averaging of the
diffusion tensor needs.  The rules are the classical equal-weight ones:

- 1D: 2-point Gauss-Legendre, 1/2 +- 1/(2 sqrt 3) (exact to degree 3);
- 2D: the three edge midpoints, point j on the edge opposite vertex j;
- 3D: the 4-point rule with a = (5 + 3 sqrt 5)/20 at vertex j and
  b = (5 - sqrt 5)/20 at the other three.

All three are in Stroud, Approximate Calculation of Multiple Integrals
(1971); the 3D rule is also Keast's degree-2 rule (CMAME 55, 1986).

Exactness is verified against closed-form monomial integrals in the test
suite.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

__all__ = ["DEGREE2_RULES", "simplex_average_rule"]


def _rule(dim: int, at_vertex: float, elsewhere: float) -> np.ndarray:
    """(dim + 1, dim + 1) barycentric table: point j has coordinate
    at_vertex on vertex j and elsewhere on every other vertex."""
    table = np.where(np.eye(dim + 1, dtype=bool), at_vertex, elsewhere)
    table.setflags(write=False)
    return table


_G = 0.5 / math.sqrt(3.0)

DEGREE2_RULES = MappingProxyType({
    1: _rule(1, 0.5 + _G, 0.5 - _G),
    2: _rule(2, 0.0, 0.5),
    3: _rule(3, (5.0 + 3.0 * math.sqrt(5.0)) / 20.0, (5.0 - math.sqrt(5.0)) / 20.0),
})


def simplex_average_rule(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (m, dim) on the standard simplex {x >= 0, sum x <= 1} and
    equal weights (m,) summing to 1, exact for averages of polynomials of
    total degree <= `degree` (at most 2): the DEGREE2_RULES table of `dim`
    with its vertex-0 column dropped."""
    if dim not in DEGREE2_RULES:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not 0 <= degree <= 2:
        raise ValueError(f"the averaging rules are exact to degree 2 only, got degree {degree}")
    table = DEGREE2_RULES[dim]
    return table[:, 1:].copy(), np.full(len(table), 1.0 / len(table))

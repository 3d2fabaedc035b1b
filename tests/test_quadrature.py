import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from femcond.quadrature import DEGREE2_RULES, simplex_average_rule
from oracles import monomial_integral_standard_simplex


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_monomials_integrated_exactly(dim, degree):
    # averages times the simplex volume 1/dim! are integrals
    pts, w = simplex_average_rule(dim, degree)
    for alpha in itertools.product(range(degree + 1), repeat=dim):
        if sum(alpha) > degree:
            continue
        approx = float(w @ np.prod(pts ** np.array(alpha), axis=1)) / math.factorial(dim)
        exact = monomial_integral_standard_simplex(alpha)
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_sum_to_simplex_volume(dim):
    # equal weights 1/m: the average of 1 is 1, its integral the volume 1/dim!
    _, w = simplex_average_rule(dim, 2)
    assert np.all(w == w[0])
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    assert w.sum() / math.factorial(dim) == pytest.approx(
        monomial_integral_standard_simplex([0] * dim), rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_inside_simplex(dim):
    table = DEGREE2_RULES[dim]
    assert table.shape == (dim + 1, dim + 1)
    assert np.all(table >= 0)
    assert np.abs(table.sum(axis=1) - 1).max() <= 1e-15
    pts, _ = simplex_average_rule(dim, 2)
    assert np.array_equal(pts, table[:, 1:])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_table_is_read_only(dim):
    with pytest.raises(ValueError, match="read-only"):
        DEGREE2_RULES[dim][0, 0] = 0.0
    with pytest.raises(TypeError):
        DEGREE2_RULES[dim] = None


def test_published_rules():
    g = 0.5 / math.sqrt(3)
    assert DEGREE2_RULES[1][0] == pytest.approx([0.5 + g, 0.5 - g], rel=1e-15)
    # point j of a triangle is the midpoint of the edge opposite vertex j
    assert np.array_equal(DEGREE2_RULES[2], [[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
    a, b = 0.5854101966249685, 0.1381966011250105
    assert DEGREE2_RULES[3][2] == pytest.approx([b, b, a, b], rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [3, 4])
def test_degree_outside_rule_raises(dim, degree):
    with pytest.raises(ValueError, match="degree 2 only"):
        simplex_average_rule(dim, degree)


def test_invalid_request_raises():
    with pytest.raises(ValueError, match="degree 2 only"):
        simplex_average_rule(2, -1)
    with pytest.raises(ValueError, match="dim must be 1, 2 or 3"):
        simplex_average_rule(4, 2)


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(1, 3),
    coeffs=st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_random_quadratics_match_monomial_expansion(dim, coeffs):
    """Averaging rule applied to a random quadratic equals the closed form."""
    pts, w = simplex_average_rule(dim, 2)
    c0, c1, c2, c3 = coeffs

    def f(x):
        return c0 + c1 * x[..., 0] + c2 * x[..., 0] ** 2 + c3 * x[..., -1] * x[..., 0]

    approx = float(w @ f(pts)) / math.factorial(dim)
    exact = (
        c0 * monomial_integral_standard_simplex([0] * dim)
        + c1 * monomial_integral_standard_simplex([1] + [0] * (dim - 1))
        + c2 * monomial_integral_standard_simplex([2] + [0] * (dim - 1))
    )
    alpha_mixed = [0] * dim
    alpha_mixed[0] += 1
    alpha_mixed[-1] += 1
    exact += c3 * monomial_integral_standard_simplex(alpha_mixed)
    assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13)

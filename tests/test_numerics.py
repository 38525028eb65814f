"""Quadrature, winding, and fitting utilities under the map layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petalmap import fit_power_law, singular_endpoint_quadrature, winding_number

SINGULAR_TOL = 1e-11

SQUARE = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])

# Beta(3/4, 3/4) via the gamma function, the two-sided singular oracle
BETA_34 = math.gamma(0.75) ** 2 / math.gamma(1.5)


def test_singular_left_endpoint():
    val = singular_endpoint_quadrature(lambda x: x**-0.5, (0.0, 1.0), (-0.5, 0.0))
    assert abs(val - 2.0) <= SINGULAR_TOL


def test_singular_both_endpoints():
    val = singular_endpoint_quadrature(
        lambda x: x**-0.25 * (1.0 - x) ** -0.25, (0.0, 1.0), (-0.25, -0.25)
    )
    assert abs(val - BETA_34) <= SINGULAR_TOL


def test_logarithmic_endpoint():
    # integrable but not algebraic; the plain split still converges
    val = singular_endpoint_quadrature(lambda x: np.log(x), (0.0, 1.0), (0.0, 0.0), n=400)
    assert abs(val - (-1.0)) <= 1e-9


def test_singular_quadrature_array_integrand():
    # one call per half-interval, each on the whole node array
    calls = []

    def integrand(x):
        calls.append(x)
        return x**-0.5

    val = singular_endpoint_quadrature(integrand, (0.0, 1.0), (-0.5, 0.0), n=64)
    assert abs(val - 2.0) <= SINGULAR_TOL
    assert len(calls) == 2
    for x in calls:
        assert isinstance(x, np.ndarray) and x.shape == (64,) and x.dtype == float
    with pytest.raises(ValueError):
        singular_endpoint_quadrature(lambda x: x[:-1], (0.0, 1.0), (0.0, 0.0))
    # a (k, n) integrand gives k integrals, each summed over its own row
    rows = singular_endpoint_quadrature(lambda x: np.stack([x**-0.5, 3.0 * x**-0.5]), (0.0, 1.0), (-0.5, 0.0), n=64)
    assert rows.shape == (2,) and np.max(np.abs(rows - [2.0, 6.0])) <= SINGULAR_TOL


def test_singular_quadrature_validation():
    with pytest.raises(ValueError):
        singular_endpoint_quadrature(lambda x: x, (0.0, 1.0), (-1.0, 0.0))
    with pytest.raises(ValueError):
        singular_endpoint_quadrature(lambda x: x, (0.0, 1.0), (0.0, -1.5))
    with pytest.raises(ValueError):
        singular_endpoint_quadrature(lambda x: x, (1.0, 0.0), (0.0, 0.0))


def test_winding_square():
    assert winding_number(SQUARE, 0j) == 1
    assert winding_number(SQUARE[::-1], 0j) == -1
    assert winding_number(SQUARE, 3.0 + 0j) == 0
    assert winding_number(SQUARE, -2.0 - 2.0j) == 0


def test_winding_point_on_edge_rejected():
    with pytest.raises(ValueError):
        winding_number(SQUARE, 1j)
    with pytest.raises(ValueError):
        winding_number(SQUARE, 1 + 1j)


def test_power_law_recovery():
    x = np.linspace(1e-4, 1e-2, 12)
    fit = fit_power_law(x, 3.0 * x**0.75)
    assert abs(fit.exponent - 0.75) <= 1e-10
    assert abs(fit.prefactor - 3.0) <= 1e-9
    assert fit.residual <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    expo=st.floats(min_value=0.2, max_value=3.0),
    pref=st.floats(min_value=0.1, max_value=10.0),
)
def test_power_law_recovery_property(expo, pref):
    x = np.linspace(1e-4, 1e-2, 16)
    fit = fit_power_law(x, pref * x**expo)
    assert abs(fit.exponent - expo) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=64),
    radius=st.floats(min_value=0.3, max_value=5.0),
)
def test_winding_convex_loop_property(n, radius):
    # any circular polygon winds once around its own center
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = (0.7 + 0.2j) + radius * np.exp(1j * phis)
    assert winding_number(pts, 0.7 + 0.2j) == 1

"""Quadrature, winding, and fitting utilities under the map layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petalmap import (
    NonFiniteIntegrandError,
    circle_contour,
    contour_quadrature,
    fit_power_law,
    polyline_area,
    segment_contour,
    singular_endpoint_quadrature,
    winding_number,
)

CAUCHY_TOL = 1e-13
SMOOTH_TOL = 1e-12
SINGULAR_TOL = 1e-11

SQUARE = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])

# Beta(3/4, 3/4) via the gamma function, the two-sided singular oracle
BETA_34 = math.gamma(0.75) ** 2 / math.gamma(1.5)


def test_cauchy_residue_unit_circle():
    c = circle_contour(0j, 1.0, 256)
    val = contour_quadrature(lambda w: 1.0 / w, c)
    assert abs(val - 2j * math.pi) <= CAUCHY_TOL * 2.0 * math.pi


def test_analytic_integrand_vanishes():
    c = circle_contour(0j, 1.0, 256)
    assert abs(contour_quadrature(lambda w: w**3, c)) <= 1e-14


def test_shifted_pole_residue():
    c = circle_contour(2.0 + 1.0j, 0.5, 128)
    val = contour_quadrature(lambda w: 1.0 / (w - (2.0 + 1.0j)), c)
    assert abs(val - 2j * math.pi) <= CAUCHY_TOL * 2.0 * math.pi
    # pole outside the contour contributes nothing
    val = contour_quadrature(lambda w: 1.0 / (w - 5.0), c)
    assert abs(val) <= 1e-13


def test_segment_polynomial_exact():
    seg = segment_contour(0.0, 1.0, 64)
    assert abs(contour_quadrature(lambda w: w**2, seg) - 1.0 / 3.0) <= SMOOTH_TOL
    seg = segment_contour(-1.0 + 1.0j, 2.0 - 0.5j, 48)
    a, b = -1.0 + 1.0j, 2.0 - 0.5j
    want = (b**4 - a**4) / 4.0
    assert abs(contour_quadrature(lambda w: w**3, seg) - want) <= SMOOTH_TOL * abs(want)


def test_pole_on_path_rejected():
    # pole placed exactly on a quadrature node
    seg = segment_contour(0.0, 2.0, 16)
    node = seg.points[5]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteIntegrandError):
            contour_quadrature(lambda w: 1.0 / (w - node), seg)


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


def test_polyline_area_signed():
    assert polyline_area(SQUARE) == pytest.approx(4.0, abs=1e-14)
    assert polyline_area(SQUARE[::-1]) == pytest.approx(-4.0, abs=1e-14)
    tri = np.array([0j, 1.0 + 0j, 1j])
    assert polyline_area(tri) == pytest.approx(0.5, abs=1e-14)


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

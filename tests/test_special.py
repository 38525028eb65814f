"""Special-function layer: hypergeometric series and log-gamma.

Frozen oracle values come from 40-digit mpmath evaluations or closed forms;
the live mpmath cross-checks stay in because it is a declared test
dependency.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from petalmap import Hyp2F1DomainError, log_gamma
from petalmap.special_functions import hyp2f1_values

SPOT_TOL = 1e-14
IDENTITY_TOL = 1e-12
MPMATH_TOL = 1e-12
GAMMA_TOL = 1e-13

# F(1/4, -1/4; 1/2; 1/4) = cos(pi/12), the quadratic-transformation spot value
SPOT_COS = 0.9659258262890683

# Gamma(1/4), frozen from mpmath at 40 digits
GAMMA_QUARTER = 3.6256099082219083


def f21(a, b, c, t):
    """F(a, b; c; t) at one point, through the vectorized evaluator."""
    return complex(hyp2f1_values(a, b, c, np.array([complex(t)]))[0])


def test_quadratic_spot_value():
    got = f21(0.25, -0.25, 0.5, 0.25)
    assert abs(got - SPOT_COS) <= SPOT_TOL
    assert abs(got - math.cos(math.pi / 12.0)) <= SPOT_TOL


def test_half_angle_identity_real():
    # F(g, g - 1/2; 1/2; z^2) = ((1+z)^(1-2g) + (1-z)^(1-2g)) / 2
    rng = np.random.default_rng(20251204)
    gs = rng.uniform(-0.49, 0.49, size=300)
    zs = rng.uniform(-0.9, 0.9, size=300)
    worst = 0.0
    for g, z in zip(gs, zs):
        lhs = f21(g, g - 0.5, 0.5, z * z)
        rhs = 0.5 * (
            cmath.exp((1.0 - 2.0 * g) * cmath.log(1.0 + z))
            + cmath.exp((1.0 - 2.0 * g) * cmath.log(1.0 - z))
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= IDENTITY_TOL


def test_half_angle_identity_complex():
    rng = np.random.default_rng(77)
    gs = rng.uniform(-0.49, 0.49, size=300)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size=300))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=300)
    zs = radii * np.exp(1j * angles)
    worst = 0.0
    for g, z in zip(gs, zs):
        lhs = f21(g, g - 0.5, 0.5, z * z)
        rhs = 0.5 * ((1.0 + z) ** (1.0 - 2.0 * g) + (1.0 - z) ** (1.0 - 2.0 * g))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= IDENTITY_TOL


def test_binomial_reduction():
    # F(a, b; b; t) = (1-t)^(-a) regardless of b
    for a, b, t in [(0.35, 0.8, 0.6), (-0.7, 1.3, -0.4), (1.2, 0.5, 0.3 + 0.2j)]:
        got = f21(a, b, b, t)
        assert abs(got - (1.0 - t) ** (-a)) <= 1e-13


def test_polynomial_short_circuit():
    # a = -2 truncates the series to a quadratic, valid at any t
    a, b, c = -2.0, 0.7, 1.3
    for t in (0.9, 4.0, -7.5, 2.0 + 3.0j):
        explicit = 1.0 + a * b / c * t + a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2.0 * t * t
        assert abs(f21(a, b, c, t) - explicit) <= 1e-13 * abs(explicit)


def test_parameter_symmetry():
    # a and b play asymmetric roles in the connection formulas, so the
    # swapped evaluation may differ by rounding but nothing more
    for t in (0.4, -0.8, 0.2 + 0.6j):
        assert abs(f21(0.31, -0.12, 0.5, t) - f21(-0.12, 0.31, 0.5, t)) <= 1e-14


def test_routes_against_mpmath():
    # arguments chosen to exercise the direct series, the 1/t and 1-t
    # connections, and points just inside the summation guard
    cases = [
        (0.25, -0.25, 0.5, 0.3),
        (0.25, -0.25, 0.5, -8.0),
        (0.31, 0.07, 0.5, 0.93),
        (0.31, 0.07, 0.5, 0.6 + 0.7j),
        (-0.45, 0.2, 0.5, -0.94),
        (0.125, -0.375, 0.5, 1.0 + 0.3j),
        (0.125, -0.375, 0.5, 0.9999j),
        (0.4, 0.15, 0.5, -3.0),
    ]
    mp.mp.dps = 30
    for a, b, c, t in cases:
        got = f21(a, b, c, t)
        want = complex(mp.hyp2f1(a, b, c, t))
        assert abs(got - want) <= MPMATH_TOL * max(1.0, abs(want)), (a, b, c, t)


def test_unreachable_argument_rejected():
    # no connection formula brings these inside the summation radius
    for t in (3.0 + 0.1j, -25.0):
        with pytest.raises(Hyp2F1DomainError):
            f21(0.125, -0.375, 0.5, t)


def test_cut_rejection():
    for t in (1.0, 1.5, 42.0):
        with pytest.raises(Hyp2F1DomainError):
            f21(0.25, -0.25, 0.5, t)


def test_lower_parameter_validation():
    for c in (0.0, -1.0, -2.0, -6.0):
        with pytest.raises(Hyp2F1DomainError):
            hyp2f1_values(1.0, 1.0, c, np.array([0.3]))
    assert np.isfinite(f21(1.0, 1.0, -0.5, 0.3))  # non-integer is fine


def test_gamma_spot_values():
    assert abs(cmath.exp(log_gamma(0.25)) - GAMMA_QUARTER) <= GAMMA_TOL
    assert abs(cmath.exp(log_gamma(0.5)) - math.sqrt(math.pi)) <= 1e-14
    assert abs(cmath.exp(log_gamma(1.0)) - 1.0) <= 1e-14
    assert abs(cmath.exp(log_gamma(6.0)) - 120.0) <= 120.0 * 1e-14


def test_gamma_recurrence():
    # Gamma(x+1) = x Gamma(x), including reflected and complex arguments
    for x in (0.25, -1.7, 0.3 + 0.4j, -0.6 + 1.1j, 3.2):
        lhs = cmath.exp(log_gamma(x + 1.0))
        rhs = x * cmath.exp(log_gamma(x))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_gamma_reflection():
    # Gamma(x) Gamma(1-x) = pi / sin(pi x) away from the poles
    for x in (0.25, 0.8, 0.3 + 0.9j, -0.35):
        lhs = cmath.exp(log_gamma(x)) * cmath.exp(log_gamma(1.0 - x))
        rhs = math.pi / cmath.sin(math.pi * x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


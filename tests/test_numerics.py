"""Quadrature, winding, and fitting utilities under the map layer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    # edge midpoints, points elsewhere on an edge, and nodes (or points within
    # 1e-12 scale of one) all touch
    for z in (1j, -1.0, -1j, 0.3 + 1j, 1 - 0.7j, 1 + 1j, -1 - 1j, (1 + 1j) * (1 + 1e-14)):
        with pytest.raises(ValueError):
            winding_number(SQUARE, z)
    # 1e-9 scale off an edge, on either side, is counted
    for edge_point, inward in ((1j, -1j), (-1.0, 1.0), (0.3 + 1j, -1j), (1 - 0.7j, -1.0)):
        scale = float(np.max(np.abs(SQUARE - edge_point)))
        assert winding_number(SQUARE, edge_point + 1e-9 * scale * inward) == 1
        assert winding_number(SQUARE, edge_point - 1e-9 * scale * inward) == 0
        assert winding_number(SQUARE[::-1], edge_point + 1e-9 * scale * inward) == -1


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


def crossing_number(pts, z):
    """Reference count of a simple polygon: even-odd ray casting, signed by orientation."""
    a = pts - z
    b = np.roll(a, -1)
    straddle = (a.imag > 0.0) != (b.imag > 0.0)
    a, b = a[straddle], b[straddle]
    x_cross = a.real - a.imag * (b.real - a.real) / (b.imag - a.imag)
    inside = int(np.count_nonzero(x_cross > 0.0)) % 2
    area = np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag)
    return inside * (1 if area > 0.0 else -1)


def polygon_distance(pts, z):
    """Distance from z to the closed polygon, by clipped projection on each edge."""
    a = pts - z
    step = np.roll(pts, -1) - pts
    t = np.clip(-np.real(a * np.conj(step)) / np.abs(step) ** 2, 0.0, 1.0)
    return float(np.min(np.abs(a + t * step)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=8, max_value=256),
    axes=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    amps=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
    reverse=st.booleans(),
    query=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    edge=st.tuples(st.integers(0, 255), st.floats(0.25, 0.75)),
    offset=st.sampled_from([1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3]),
)
# the query 1j is node 3 of the 14-node unit circle, which must be refused
# whichever test modules the run loaded to seed hypothesis's draws
@example(n=14, axes=(1.0, 1.0), amps=[0.0] * 4, reverse=False, query=(0.0, 1.0), edge=(0, 0.5), offset=1e-9)
def test_winding_star_polygon_matches_crossing_number(n, axes, amps, reverse, query, edge, offset):
    # a cos-perturbed ellipse, star-shaped about 0 and, for large amplitudes,
    # far from convex; queries anywhere, and just off one of its edges
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    rho = 1.0 / np.sqrt((np.cos(theta) / axes[0]) ** 2 + (np.sin(theta) / axes[1]) ** 2)
    for m, amp in enumerate(amps, start=2):
        rho *= 1.0 + amp * np.cos(m * theta)
    pts = rho * np.exp(1j * theta)
    if reverse:
        pts = pts[::-1]
    j, t = edge[0] % n, edge[1]
    step = pts[(j + 1) % n] - pts[j]
    near = pts[j] + t * step + offset * float(np.max(np.abs(pts))) * 1j * step / abs(step)
    for z in (complex(*query), near):
        try:
            count = winding_number(pts, z)
        except ValueError:
            # only a query on the polygon, to within rounding, may be refused
            assert polygon_distance(pts, z) <= 1e-10 * float(np.max(np.abs(pts - z)))
            continue
        assert count == crossing_number(pts, z)

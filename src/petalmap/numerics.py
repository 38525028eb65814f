"""Quadrature with algebraic endpoint singularities, winding counts, power-law fits.

Nothing in here knows about the map families; everything operates on plain
arrays of points.  Every Gauss-Legendre rule comes from one cached rule on
[0, 1] (`gauss_legendre_unit`).  A winding count rejects a node or query
that is not finite, and a query that touches its polyline: one on a node,
or one where an angle increment is within rounding of +-pi, i.e. on a
segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WINDING_DISTANCE_TOL = 1e-12   # node radius (relative to scale) and angle margin off +-pi
POWER_FIT_MIN_POINTS = 3


@functools.cache
def gauss_legendre_unit(n: int):
    """Gauss-Legendre nodes and weights on [0, 1], cached per node count.

    The arrays are shared between callers, so they are returned read-only.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (nodes + 1.0)
    du = 0.5 * wts
    u.flags.writeable = False
    du.flags.writeable = False
    return u, du


def singular_endpoint_quadrature(integrand, interval, exponents, n=200):
    """Integrate f over [a, b] where f ~ (x-a)^mu_a and ~ (b-x)^mu_b at the ends.

    Power substitutions x = a + (m-a) u^q with q = 2/(1+mu) flatten each
    algebraic endpoint, then Gauss-Legendre handles the smooth remainder.
    Exponents must be integrable (mu > -1).

    ``integrand`` is called once per half-interval with a 1-d float array of
    ``n`` nodes and must return an array whose last axis runs over them; the
    sum runs over that axis, so a (k, n) integrand gives k integrals.
    """
    a, b = float(interval[0]), float(interval[1])
    mu_a, mu_b = float(exponents[0]), float(exponents[1])
    if not b > a:
        raise ValueError("interval must satisfy a < b")
    if mu_a <= -1.0 or mu_b <= -1.0:
        raise ValueError("endpoint exponent below -1 is not integrable")
    mid = 0.5 * (a + b)
    u, du = gauss_legendre_unit(n)

    def piece(x, jac):
        values = np.asarray(integrand(x))
        if values.shape[-1:] != x.shape:
            raise ValueError("integrand's last axis must match its argument")
        return np.sum(values * jac * du, axis=-1)

    # left piece, substitution clustered at a
    q = 2.0 / (1.0 + mu_a)
    left = piece(a + (mid - a) * u**q, (mid - a) * q * u ** (q - 1.0))
    # right piece, mirrored
    q = 2.0 / (1.0 + mu_b)
    right = piece(b - (b - mid) * u**q, (b - mid) * q * u ** (q - 1.0))
    return left + right


def winding_number(points, z0) -> int:
    """Winding count of a closed polyline around z0.

    Accumulates the principal argument increment between consecutive nodes;
    the closed sum is an exact multiple of 2 pi.  A query is rejected when
    it sits on a node (within WINDING_DISTANCE_TOL of the largest node
    distance) or when an increment lies within WINDING_DISTANCE_TOL of
    +-pi, which is where z0 sits on (or within rounding of) a segment: only
    there can rounding flip an increment's sign and so change the count.
    A node or a query that is not finite is refused before any arithmetic.
    Finite nodes and query whose differences pass the float range are
    counted on a quarter of each: the count does not change under scaling,
    a quarter is exact above the subnormal range, and it keeps every
    difference and distance finite.
    """
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if not (np.isfinite(pts).all() and np.isfinite(z0)):
        raise ValueError("polyline nodes and query point must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        rel = pts - complex(z0)
        dist = np.abs(rel)
    if not np.isfinite(dist).all():
        rel = 0.25 * pts - 0.25 * complex(z0)
        dist = np.abs(rel)
    scale = float(np.max(dist))
    if scale == 0.0 or np.any(dist < WINDING_DISTANCE_TOL * scale):
        raise ValueError("query point touches the polyline")
    increments = np.angle(np.roll(rel, -1) / rel)
    if np.max(np.abs(increments)) > math.pi - WINDING_DISTANCE_TOL:
        raise ValueError("query point touches the polyline")
    return int(round(float(np.sum(increments)) / (2.0 * math.pi)))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit y ~ prefactor * x**exponent on log-log axes."""

    exponent: float
    prefactor: float
    residual: float            # rms misfit of log y


def fit_power_law(x, y) -> PowerLawFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if len(x) < POWER_FIT_MIN_POINTS:
        raise ValueError("need at least %d samples" % POWER_FIT_MIN_POINTS)
    # nan passes the positivity test below and inf its log
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("power-law fit needs finite data")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs positive data")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    rms = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return PowerLawFit(float(slope), float(math.exp(intercept)), rms)

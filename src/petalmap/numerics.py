"""Quadrature with algebraic endpoint singularities, winding counts, power-law fits.

Nothing in here knows about the map families; everything operates on plain
arrays of points.  Every Gauss-Legendre rule comes from one cached rule on
[0, 1] (`gauss_legendre_unit`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

WINDING_DISTANCE_TOL = 1e-12   # rejection radius (relative) for points on a segment
POWER_FIT_MIN_POINTS = 3


@functools.lru_cache(maxsize=16)
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
    the closed sum is an exact multiple of 2 pi.  Points sitting on (or
    nearly on) a segment make the count meaningless and are rejected.
    """
    pts = np.asarray(points, dtype=complex)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    z0 = complex(z0)
    rel = pts - z0
    scale = float(np.max(np.abs(rel)))
    if scale == 0.0 or np.any(np.abs(rel) < WINDING_DISTANCE_TOL * scale):
        raise ValueError("query point touches the polyline")
    nxt = np.roll(rel, -1)
    # distance from z0 to each segment, to reject near-crossings
    seg = nxt - rel
    seg_len2 = np.abs(seg) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.clip(-np.real(rel * np.conj(seg)) / np.where(seg_len2 == 0.0, 1.0, seg_len2), 0.0, 1.0)
    nearest = rel + frac * seg
    if np.min(np.abs(nearest)) < WINDING_DISTANCE_TOL * scale:
        raise ValueError("query point touches the polyline")
    increments = np.angle(nxt / rel)
    total = float(np.sum(increments))
    return int(round(total / (2.0 * math.pi)))


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
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs positive data")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    rms = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return PowerLawFit(float(slope), float(math.exp(intercept)), rms)

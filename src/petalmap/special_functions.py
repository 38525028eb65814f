"""Gauss hypergeometric function and log-gamma.

`hyp2f1_values` evaluates F(a, b; c; t) for real parameters on an array of
complex arguments; the map evaluators batch thousands of boundary points
through it at once.  Each point takes one of four routes:

- |t| > 1: the 1/t connection (A&S 15.3.7, DLMF 15.8.2), whose two inner
  functions of 1/t take one of the three routes below;
- otherwise whichever of the direct series, the Pfaff transformation
  t/(t - 1) and the 1 - t connection has the smallest argument.

The cut is [1, inf).  A point on it with a +0 imaginary part is rejected; a
-0.0 imaginary part means the limit from below, which is mpmath's value on
the cut and what numpy's signed-zero complex `log` gives.  `log_gamma` is a
Lanczos log-gamma that also feeds the connection coefficients.

A point's value does not depend on its batch.  numpy computes
``named * temporary`` as ``temporary *= named`` once the temporary reaches
256 KiB (16384 complex points), and the swapped complex product rounds
differently.  So complex products here name both array operands or put the
temporary on the left.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# ---- knobs ----
TRANSFORM_RADIUS = 0.95    # largest modulus any route is allowed to sum over
TERM_TOL = 1e-16           # series tail cutoff relative to the running sum
MAX_TERMS = 10_000
EULER_PARAM_GUARD = 0.02   # keep c-a-b this far from integers before using the 1-t formula
DEGENERATE_SHIFT = 1e-4    # a-b this close to an integer: average a +- shift, b -+ shift in the 1/t formula

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


class Hyp2F1DomainError(ValueError):
    """Argument not reachable: on the cut [1, inf) or past every transformation."""


class Hyp2F1ConvergenceError(RuntimeError):
    """Series failed to settle within the iteration cap."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def log_gamma(x) -> complex:
    """Principal-branch log of the gamma function, poles rejected.

    Lanczos approximation on Re x >= 0.5, reflection below.  Accurate to
    about 1e-13 relative over the parameter ranges used here.
    """
    z = complex(x)
    if z.imag == 0.0 and z.real == math.floor(z.real) and z.real <= 0.0:
        raise ValueError("log_gamma pole at non-positive integer %r" % (x,))
    if z.real < 0.5:
        # reflection keeps the recursion in the well-conditioned half plane
        return cmath.log(math.pi / cmath.sin(math.pi * z)) - log_gamma(1.0 - z)
    z = z - 1.0
    acc = complex(_LANCZOS_COEFFS[0])
    for k, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += coeff / (z + k)
    base = z + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (z + 0.5) * cmath.log(base) - base + cmath.log(acc)


def _gamma_quotient(numerators, denominators) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators).

    A pole in a denominator kills the quotient (reciprocal gamma is entire),
    so those return exactly 0.  A pole in a numerator is a caller bug.
    """
    for x in denominators:
        if _is_nonpositive_integer(x):
            return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for x in numerators:
        total += log_gamma(x)
    for x in denominators:
        total -= log_gamma(x)
    return cmath.exp(total)


def _series_sum(a: float, b: float, c: float, t: np.ndarray) -> np.ndarray:
    """Sum the Gauss series termwise for a batch of arguments.

    Callers guarantee every |t| is summable (< 1, or the series terminates
    because a or b is a non-positive integer).  Each point stops on its own
    once |term| <= TERM_TOL |partial sum|: the loop carries index, argument,
    term and partial-sum arrays for the live points only and writes a
    point's sum back when it converges, so a batch costs the sum of its
    series lengths, not its size times the longest one.
    """
    t = np.asarray(t, dtype=complex)
    out = np.ones(t.size, dtype=complex)
    index = np.arange(t.size)
    arg = t.reshape(-1)
    term = np.ones(t.size, dtype=complex)
    total = np.ones(t.size, dtype=complex)
    for n in range(1, MAX_TERMS + 1):
        if not index.size:
            break
        ratio = (a + n - 1.0) * (b + n - 1.0) / ((c + n - 1.0) * n)
        step = ratio * arg
        term = term * step
        total = total + term
        live = np.abs(term) > TERM_TOL * np.abs(total)
        if not live.all():
            out[index[~live]] = total[~live]
            index, arg, term, total = index[live], arg[live], term[live], total[live]
    if index.size:
        # name the worst point still summing, not one that settled long ago
        worst = arg[int(np.argmax(np.abs(arg)))]
        raise Hyp2F1ConvergenceError(
            "series did not settle in %d terms (argument near %r)" % (MAX_TERMS, worst)
        )
    return out.reshape(t.shape)


def _euler_blocked(a: float, b: float, c: float) -> bool:
    cab = c - a - b
    return abs(cab - round(cab)) < EULER_PARAM_GUARD


def _euler_connection(a: float, b: float, c: float, t: np.ndarray) -> np.ndarray:
    """Evaluate through the argument 1 - t; requires c - a - b off the integers."""
    cab = c - a - b
    one_minus = 1.0 - t
    coeff_direct = _gamma_quotient((c, cab), (c - a, c - b))
    coeff_power = _gamma_quotient((c, -cab), (a, b))
    first = _series_sum(a, b, a + b - c + 1.0, one_minus)
    second = _series_sum(c - a, c - b, cab + 1.0, one_minus)
    power = np.exp(cab * np.log(one_minus))
    return coeff_direct * first + coeff_power * power * second


def _terminates(a: float, b: float) -> bool:
    return _is_nonpositive_integer(a) or _is_nonpositive_integer(b)


def _inverse_connection(a: float, b: float, c: float, t: np.ndarray) -> np.ndarray:
    """Evaluate |t| > 1 through the argument 1/t; a - b is moved off the integers.

    At integer a - b the two exponents at infinity collide and Gamma(a - b)
    or Gamma(b - a) has a pole, so a window around them averages the
    symmetric offsets a +- shift, b -+ shift (even-order error in the
    shift).  Both offsets move a - b by twice the shift, out of the window.
    """
    amb = a - b
    if abs(amb - round(amb)) < DEGENERATE_SHIFT:
        lo = _inverse_connection(a - DEGENERATE_SHIFT, b + DEGENERATE_SHIFT, c, t)
        hi = _inverse_connection(a + DEGENERATE_SHIFT, b - DEGENERATE_SHIFT, c, t)
        return 0.5 * (lo + hi)
    inv = 1.0 / t
    log_minus = np.log(-t)
    # the inner functions go through the |t| <= 1 routes only: with |t| = 1
    # up to rounding, 1/t may again have modulus above 1
    power = np.exp(-a * log_minus)
    inner = _disk_values(a, a - c + 1.0, amb + 1.0, inv)
    first = _gamma_quotient((c, -amb), (b, c - a)) * power * inner
    power = np.exp(-b * log_minus)
    inner = _disk_values(b, b - c + 1.0, 1.0 - amb, inv)
    second = _gamma_quotient((c, amb), (a, c - b)) * power * inner
    return first + second


def _disk_values(a: float, b: float, c: float, t: np.ndarray) -> np.ndarray:
    """Route each point to the direct series, Pfaff t/(t-1) or the 1-t connection.

    The representation with the smallest effective argument wins; moduli up
    to ``TRANSFORM_RADIUS`` are accepted at the cost of a longer summation.
    """
    if _terminates(a, b):
        return _series_sum(a, b, c, t)
    out = np.empty(t.shape, dtype=complex)
    m_direct = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        pfaff_arg = t / (t - 1.0)
    m_pfaff = np.abs(pfaff_arg)
    m_euler = np.abs(1.0 - t)
    if _euler_blocked(a, b, c):
        m_euler = np.full(t.shape, np.inf)

    moduli = np.stack([m_direct, m_pfaff, m_euler])
    route = np.argmin(moduli, axis=0)
    best = np.min(moduli, axis=0)
    if np.any(best > TRANSFORM_RADIUS):
        raise Hyp2F1DomainError(
            "argument not reachable by any implemented transformation"
        )

    direct_mask = route == 0
    if direct_mask.any():
        out[direct_mask] = _series_sum(a, b, c, t[direct_mask])
    pfaff_mask = route == 1
    if pfaff_mask.any():
        u = pfaff_arg[pfaff_mask]
        prefactor = np.exp(-a * np.log(1.0 - t[pfaff_mask]))
        inner = _series_sum(a, c - b, c, u)
        out[pfaff_mask] = prefactor * inner
    euler_mask = route == 2
    if euler_mask.any():
        out[euler_mask] = _euler_connection(a, b, c, t[euler_mask])
    return out


def hyp2f1_values(a: float, b: float, c: float, t) -> np.ndarray:
    """Vectorized Gauss series with automatic argument transformations.

    Points with |t| > 1 take the 1/t connection, the rest `_disk_values`;
    terminating series (a or b a non-positive integer) are summed directly
    at every argument.
    """
    if _is_nonpositive_integer(c):
        raise Hyp2F1DomainError("lower parameter c = %r is a non-positive integer" % c)
    t = np.asarray(t, dtype=complex)
    if _terminates(a, b):
        return _series_sum(a, b, c, t)

    # t = 1 is the branch point; the rest of the cut has a side only with -0.0
    on_cut = (t.imag == 0.0) & ((t.real == 1.0) | ((t.real > 1.0) & ~np.signbit(t.imag)))
    if on_cut.any():
        raise Hyp2F1DomainError("argument on the cut [1, inf)")

    outer = np.abs(t) > 1.0
    if not outer.any():
        return _disk_values(a, b, c, t)
    out = np.empty(t.shape, dtype=complex)
    out[outer] = _inverse_connection(a, b, c, t[outer])
    if not outer.all():
        out[~outer] = _disk_values(a, b, c, t[~outer])
    return out

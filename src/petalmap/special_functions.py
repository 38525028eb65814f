"""Gauss hypergeometric function, and the branch power and domain error the maps share.

`hyp2f1_values` evaluates F(a, b; c; t) for real parameters on an array of
complex arguments; the map evaluators batch thousands of boundary points
through it at once.  Each point takes one route of this table:

- `_inverse_connection`, the 1/t connection (A&S 15.3.7), where |t| > 1,
  averaged over a +- shift, b -+ shift within ``DEGENERATE_SHIFT`` of
  integer a - b.  Its two inner functions of 1/t take the routes below.
- Elsewhere the route with the smallest modulus, at most ``TRANSFORM_RADIUS``:
  `_direct`, the series, by |t| (at every t where a or b is a non-positive
  integer and the series terminates); `_pfaff`, (1 - t)^-a F(a, c - b; c;
  t/(t - 1)) (A&S 15.3.4), by |t/(t - 1)|; `_euler_connection`, the 1 - t
  connection (A&S 15.3.6), by |1 - t|, but never at integer c - a - b and
  within 0.0061 of one only where neither series reaches.

Every route takes (a, b, c, t, one_minus, queue): it queues each series it
needs as (a, b, c, argument) and returns a finisher that assembles its
values from the sums.  `_hyp2f1_batch` and `_disk_values` pick a route for
each point, and `_dispatch` calls each route on its points (on the whole
arrays when it takes them all) and scatters their values.

`_hyp2f1_batch` takes a list of (a, b, c, t, one_minus) requests, queues
the series of all their routes, sums the whole queue in one term loop
(`_series_sums`) and applies the finishers: one array per request, with the
bits of that request alone.  `hyp2f1_values` is its one-request case.  The
partner solution's F and F' share one batch, and `maps._lockstep_values`,
the source of map values for every winding count's rounds, packs the map
requests of several two-petal families into batches of at most
`maps.ARC_BLOCK` points, so that a sweep's nodes share series loops.

The Pfaff and 1 - t routes, and the 1/t route's inner 1 - 1/t = -(1 - t)/t,
take their arguments from 1 - t, which a caller may pass factored
(``one_minus``): the two-petal map's d/p^2 keeps it within 2e-15 of mpmath
next to the base corners.

The cut is [1, inf), and the branch point t = 1 is where 1 - t is 0, so a
caller's factored 1 - t decides it: on the unit circle within 1.5e-8 rad of
w = +-1 the two-petal map's t = 4/p^2 rounds to 1, while its d/p^2 does not
vanish.  A point on the rest of the cut with a +0 imaginary part is
rejected; a -0.0 imaginary part means the limit from below, which is
mpmath's value on the cut and what numpy's signed-zero complex `log` gives.
Every fractional power, here and in the maps, is `_power`'s, under its one
cut convention, and `Hyp2F1DomainError` is a `MapDomainError`.  The connection coefficients are
real gamma quotients from the standard library's `math.lgamma`, memoized per
parameter set by `_gamma_quotient`.

A point's value does not depend on its batch.  numpy computes
``named * temporary`` as ``temporary *= named`` once the temporary reaches
256 KiB (16384 complex points), and the swapped complex product rounds
differently.  So complex products here name both array operands or put the
temporary on the left, and write to a new array: numpy's in-place complex
product of strided rows or of a single point, and its
``multiply.accumulate``, round differently from the contiguous ``*`` too.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable

import numpy as np

# ---- knobs ----
TRANSFORM_RADIUS = 0.95    # largest modulus any route is allowed to sum over
TERM_TOL = 1e-16           # series tail cutoff relative to the running sum
MAX_TERMS = 10_000
TAIL_BLOCK = 32            # terms per iteration once at most 4x this many points are live
DEGENERATE_SHIFT = 1e-4    # a-b this close to an integer: average a +- shift, b -+ shift in the 1/t formula


class MapDomainError(ValueError):
    """Point off the physical sheet, or on a branch locus."""


class Hyp2F1DomainError(MapDomainError):
    """Argument not reachable: non-finite, on the cut [1, inf) or past every transformation."""


class Hyp2F1ConvergenceError(RuntimeError):
    """Series failed to settle within the iteration cap."""


def _power(z, mu: float):
    """Principal power z**mu for real mu, real-negative bases taken from above.

    The package's one cut convention: every fractional power of the maps and
    the connection formulas is taken here.  Exponent 1/2 takes `np.sqrt`.
    """
    # adding +0j turns a -0 imaginary part into +0, so the cut is approached
    # from above whatever the sign of zero
    z = np.asarray(z, dtype=complex) + 0.0j
    if mu == 0.5:
        return np.sqrt(z)
    return np.exp(mu * np.log(z))


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


@functools.lru_cache(maxsize=256)
def _gamma_quotient(numerators, denominators) -> float:
    """prod Gamma(numerators) / prod Gamma(denominators) for real arguments.

    A pole in a denominator kills the quotient (reciprocal gamma is entire),
    so those return exactly 0.  A pole in a numerator is a caller bug.
    """
    if any(_is_nonpositive_integer(x) for x in denominators):
        return 0.0
    if any(_is_nonpositive_integer(x) for x in numerators):
        raise ValueError("gamma pole in numerator %r" % (numerators,))
    sign = 1.0
    total = 0.0
    for args, side in ((numerators, 1.0), (denominators, -1.0)):
        for x in args:
            total += side * math.lgamma(x)
            if x < 0.0 and math.floor(x) % 2:  # Gamma < 0 on (-2k-1, -2k)
                sign = -sign
    return sign * math.exp(total)


def _queued(queue: list, a: float, b: float, c: float, t) -> Callable:
    """Queue one Gauss series for `_series_sums`; the finisher picks out its sum."""
    queue.append((a, b, c, t))
    return operator.itemgetter(len(queue) - 1)


def _dispatch(routes: tuple, pick: np.ndarray, a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Call ``routes[k]`` on the points whose ``pick`` is k, or on the whole arrays if they all are.

    Returns that one route's finisher, or one that scatters the routes' values.
    """
    parts = []
    for k, call in enumerate(routes):
        mask = pick == k
        if mask.all():
            return call(a, b, c, t, one_minus, queue)
        if mask.any():
            parts.append((mask, call(a, b, c, t[mask], one_minus[mask], queue)))

    def finish(sums):
        out = np.empty(t.shape, dtype=complex)
        for mask, part in parts:
            out[mask] = part(sums)
        return out

    return finish


def _series_sums(queue: list) -> list:
    """Sum every queued Gauss series (a, b, c, t) termwise in one loop.

    Callers guarantee every |t| is summable (< 1, or the series terminates
    because a or b is a non-positive integer).  The points of all entries
    share the loop; a group index picks each point's term ratio from a
    (term, entry) table, made ``TAIL_BLOCK`` terms at a time.  Each point
    stops on its own at the first term with |term| <= TERM_TOL |partial
    sum|: the loop carries index, group, argument, term and partial-sum
    arrays for the live points only and writes a point's sum back when it
    converges.

    While more than 4 ``TAIL_BLOCK`` points are live, an iteration adds one
    term, so the array work is the sum of the series lengths.  With fewer,
    an iteration adds the table's remaining terms, ``TAIL_BLOCK`` once
    aligned, as a (terms, points) block: one binary product per row, the
    previous term times the row's step as in the one-term step, then one
    ``cumsum`` down the rows, which adds in order, and each point settles at
    its first row that meets the cutoff.  ``multiply.accumulate`` would save
    the Python products, but it rounds complex products differently from
    ``*`` (12104 of 20000 three-factor chains on numpy 2.4).  So a block
    gives every point the bits of the one-term step, and a call runs one
    Python iteration per term until few points are live and one per block
    after.  Blocks on large live sets cost more than they save: blocking
    every iteration slowed the benchmark's ``sweep`` and ``verify`` by 13%
    and 25% and grew their peak memory by 7-10 MB (one run each).  Returns
    one array per entry, shaped like its argument.
    """
    if not queue:
        return []
    args = [np.asarray(t, dtype=complex) for _, _, _, t in queue]
    sizes = [t.size for t in args]
    arg = np.concatenate([t.reshape(-1) for t in args])
    group = np.repeat(np.arange(len(args)), sizes)
    index = np.arange(arg.size)
    out = np.empty(arg.size, dtype=complex)
    term = np.ones(arg.size, dtype=complex)
    total = np.ones(arg.size, dtype=complex)
    a, b, c = np.array([entry[:3] for entry in queue], dtype=float).T
    table, first = [], 1  # ratios of terms first, first + 1, ... by entry
    n = 1  # the next term to add
    while index.size and n <= MAX_TERMS:
        if n == first + len(table):
            # (a + n - 1)(b + n - 1) / ((c + n - 1) n) for the next terms,
            # by the scalar expression's IEEE operations in its order
            m = np.arange(n, min(n + TAIL_BLOCK, MAX_TERMS + 1), dtype=float)[:, None]
            table, first = (a + m - 1.0) * (b + m - 1.0) / ((c + m - 1.0) * m), n
        if index.size > 4 * TAIL_BLOCK:
            step = table[n - first][group] * arg
            term = term * step
            total = total + term
            live = np.abs(term) > TERM_TOL * np.abs(total)
            settled = total
            n += 1
        else:
            # take lays the block out by rows ([:, group] would by columns),
            # so every product is of contiguous rows, as in the one-term step
            terms = np.take(table[n - first :], group, axis=1) * arg
            terms[0] = term * terms[0]
            for j in range(1, len(terms)):
                terms[j] = terms[j - 1] * terms[j]
            sums = np.cumsum(np.concatenate([total[None], terms]), axis=0)[1:]
            done = ~(np.abs(terms) > TERM_TOL * np.abs(sums))
            live = ~done.any(axis=0)
            settled = sums[done.argmax(axis=0), np.arange(index.size)]
            term, total = terms[-1], sums[-1]
            n = first + len(table)
        if not live.all():
            out[index[~live]] = settled[~live]
            # one array at a time, so the old and new copies never all coexist
            index = index[live]
            group = group[live]
            arg = arg[live]
            term = term[live]
            total = total[live]
    if index.size:
        # name the worst point still summing, not one that settled long ago
        worst = arg[int(np.argmax(np.abs(arg)))]
        raise Hyp2F1ConvergenceError(
            "series did not settle in %d terms (argument near %r)" % (MAX_TERMS, worst)
        )
    sums = np.split(out, np.cumsum(sizes)[:-1])
    return [total.reshape(t.shape) for total, t in zip(sums, args)]


def _direct(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Sum the series at t itself."""
    return _queued(queue, a, b, c, t)


def _pfaff(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Evaluate through the Pfaff transformation, (1 - t)^-a F(a, c - b; c; t/(t - 1))."""
    prefactor = _power(one_minus, -a)
    inner = _queued(queue, a, c - b, c, -t / one_minus)
    return lambda sums: prefactor * inner(sums)


def _euler_connection(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Evaluate through the argument ``one_minus`` = 1 - t; requires c - a - b off the integers.

    At a distance dist from an integer the two terms grow like 1/dist and
    cancel, and the rounding of c - a - b moves them apart: the value is
    good to about 6e-18/dist^2 (1.5e-13 at dist = 0.0064).
    """
    cab = c - a - b
    coeff_direct = _gamma_quotient((c, cab), (c - a, c - b))
    coeff_power = _gamma_quotient((c, -cab), (a, b))
    first = _queued(queue, a, b, a + b - c + 1.0, one_minus)
    second = _queued(queue, c - a, c - b, cab + 1.0, one_minus)
    power = _power(one_minus, cab)
    return lambda sums: coeff_direct * first(sums) + coeff_power * power * second(sums)


def _terminates(a: float, b: float) -> bool:
    return _is_nonpositive_integer(a) or _is_nonpositive_integer(b)


def _inverse_connection(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Evaluate |t| > 1 through the argument 1/t; a - b is moved off the integers.

    At integer a - b the two exponents at infinity collide and Gamma(a - b)
    or Gamma(b - a) has a pole, so a window around them averages the
    symmetric offsets a +- shift, b -+ shift (even-order error in the
    shift).  Each offset is evaluated directly: from the window's edge one
    offset lands just inside the window on the other side of the pole,
    where the plain formula still holds.
    """
    amb = a - b
    if abs(amb - round(amb)) < DEGENERATE_SHIFT:
        lo = _inverse_terms(a - DEGENERATE_SHIFT, b + DEGENERATE_SHIFT, c, t, one_minus, queue)
        hi = _inverse_terms(a + DEGENERATE_SHIFT, b - DEGENERATE_SHIFT, c, t, one_minus, queue)
        return lambda sums: 0.5 * (lo(sums) + hi(sums))
    return _inverse_terms(a, b, c, t, one_minus, queue)


def _inverse_terms(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """The 1/t connection (A&S 15.3.7) itself; a - b must not be an integer."""
    amb = a - b
    inv = 1.0 / t
    minus_t = -t
    inner_minus = one_minus / minus_t  # 1 - 1/t, as accurate as the caller's 1 - t
    # the inner functions go through the |t| <= 1 routes only: with |t| = 1
    # up to rounding, 1/t may again have modulus above 1
    power_a = _power(minus_t, -a)
    inner_a = _disk_values(a, a - c + 1.0, amb + 1.0, inv, inner_minus, queue)
    coeff_a = _gamma_quotient((c, -amb), (b, c - a))
    power_b = _power(minus_t, -b)
    inner_b = _disk_values(b, b - c + 1.0, 1.0 - amb, inv, inner_minus, queue)
    coeff_b = _gamma_quotient((c, amb), (a, c - b))
    return lambda sums: coeff_a * power_a * inner_a(sums) + coeff_b * power_b * inner_b(sums)


def _disk_values(a: float, b: float, c: float, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Pick the direct, Pfaff or 1 - t route for each point by the smallest modulus.

    Near integer c - a - b the 1-t connection, good to about 6e-18/dist^2,
    is a last resort where that is worse than the rounding bound of a series
    at the radius, one ulp for each of its n terms (1.6e-13, dist < 0.0061).
    """
    if _terminates(a, b):
        return _direct(a, b, c, t, one_minus, queue)
    with np.errstate(divide="ignore", invalid="ignore"):
        moduli = np.abs(np.stack([t, -t / one_minus, one_minus]))  # the routes' arguments, in order
    cab = c - a - b
    n = math.log(TERM_TOL) / math.log(TRANSFORM_RADIUS)
    if any(x == round(x) for x in (cab, a + b - c + 1.0)):
        moduli[2] = np.inf  # a pole; a + b - c + 1 can round onto one c - a - b misses
    elif 6e-18 / (cab - round(cab)) ** 2 > n * np.finfo(float).eps:
        moduli[2, np.min(moduli[:2], axis=0) <= TRANSFORM_RADIUS] = np.inf
    if np.any(np.min(moduli, axis=0) > TRANSFORM_RADIUS):
        raise Hyp2F1DomainError(
            "argument not reachable by any implemented transformation"
        )
    return _dispatch((_direct, _pfaff, _euler_connection), np.argmin(moduli, axis=0), a, b, c, t, one_minus, queue)


def hyp2f1_values(a: float, b: float, c: float, t, one_minus=None) -> np.ndarray:
    """Vectorized Gauss series, each point by a route of the module's table.

    ``one_minus`` (shaped like ``t``) is 1 - t in the caller's factored
    form; ``1.0 - t``, the default, cancels next to t = 1.
    """
    return _hyp2f1_batch([(a, b, c, t, one_minus)])[0]


def _hyp2f1_batch(requests) -> list:
    """`hyp2f1_values` for each (a, b, c, t, one_minus) request, all series summed in one loop.

    Every request is checked as `hyp2f1_values` checks it, and raises the
    same error, before any series is summed.  Returns one array per request,
    shaped like its t.
    """
    queue: list = []
    finishers, shapes = [], []
    for a, b, c, t, one_minus in requests:
        if _is_nonpositive_integer(c):
            raise Hyp2F1DomainError("lower parameter c = %r is a non-positive integer" % c)
        t = np.asarray(t, dtype=complex)
        one_minus = 1.0 - t if one_minus is None else np.asarray(one_minus, dtype=complex)
        # nan fails every route's modulus test, so it would pass for reachable
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(one_minus))):
            raise Hyp2F1DomainError("non-finite argument")
        shapes.append(t.shape)
        if _terminates(a, b):
            finishers.append(_queued(queue, a, b, c, t))
            continue

        # the branch point is where 1 - t is 0: a caller's factored 1 - t can
        # be nonzero where t rounds to 1; the rest of the cut has a side only with -0.0
        on_cut = (one_minus == 0.0) | ((t.imag == 0.0) & (t.real > 1.0) & ~np.signbit(t.imag))
        if on_cut.any():
            raise Hyp2F1DomainError("argument on the cut [1, inf)")

        # the routes take 1-d arrays: numpy computes on 0-d arrays with its
        # scalars, whose complex product rounds differently from the array loop's
        flat, one_minus = t.reshape(-1), np.reshape(one_minus, -1)
        routes = (_disk_values, _inverse_connection)
        finishers.append(_dispatch(routes, np.abs(flat) > 1.0, a, b, c, flat, one_minus, queue))
    sums = _series_sums(queue)
    return [finish(sums).reshape(shape) for finish, shape in zip(finishers, shapes)]

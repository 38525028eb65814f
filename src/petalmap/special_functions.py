"""Gauss hypergeometric function, and the branch power and domain error the maps share.

`hyp2f1_values` evaluates F(a, b; c; t) for real parameters, one set for
all points or one per point, on an array of complex arguments; the map
evaluators batch thousands of boundary points through it at once.  Each
point takes one route of this table:

- `_inverse_connection`, the 1/t connection (A&S 15.3.7), where |t| > 1,
  averaged over a +- shift, b -+ shift within ``DEGENERATE_SHIFT`` of
  integer a - b.  Its two inner functions of 1/t take the routes below.
- Elsewhere the route with the smallest modulus, at most ``TRANSFORM_RADIUS``:
  `_direct`, the series, by |t| (at every t where a or b is a non-positive
  integer and the series terminates); `_pfaff`, (1 - t)^-a F(a, c - b; c;
  t/(t - 1)) (A&S 15.3.4), by |t/(t - 1)|; `_euler_connection`, the 1 - t
  connection (A&S 15.3.6), by |1 - t|, but never at integer c - a - b and
  within 0.0061 of one only where neither series reaches.

Which route a point may take, and with which exponents and connection
coefficients, depends on its family's parameters; which of those routes it
takes depends on t alone.  So a call's points may belong to several
families: ``rows`` lists their parameter sets (a, b, c), and ``runs`` the
(row, count) runs of the points, in order, each family's points contiguous.
Every route takes (rows, runs, t, one_minus, queue).  It evaluates what
depends on the parameters once per run, in one family's scalar code
(`_per_family`), and what depends on t once for all the points, and returns
a finisher that assembles its values.  `_route` sends the points with
|t| > 1 to the 1/t route and defers the rest (`_defer`); the 1/t route
defers the |t| <= 1 evaluations of its two inner functions, two copies of
its points (and the window its two offsets, two copies again).  One
`_disk_values` call then picks the direct, Pfaff or 1 - t route of every
deferred point, and those routes queue each series they need as one
(a, b, c, argument) entry per run.  `_dispatch` calls each route on its
points (on the whole arrays when it takes them all) and scatters their
values.

`_hyp2f1_batch` takes a list of (a, b, c, t, one_minus) requests, whose
parameters are floats or arrays with one set per point (a run of equal
sets is one family).  It checks every request before it routes any, so a
bad request's error comes before any routing error, and it answers a
batch with no point at all with empty arrays at once.  Otherwise it routes
all their points with one `_route` pick, sums the whole queue in one term
loop (`_series_sums`) and applies the finisher: one array per request,
with the bits of that request alone.  The loop keeps a settled point beside the live ones, adding
exact zeros to its sum, until at most half its points are live.
`hyp2f1_values` is its one-request case.  The checks' batches are built by
`maps._samples`: each group of at most `maps.ARC_BLOCK` map points, of one
or several two-petal families, is one batch of one map request (map
values, and the arc stencil rows of derivative points) followed by its
plans' extra requests (each partner solution's F and F'), so that they
share one route pick and one series loop.  A two-petal battery's fixed
samples are one such batch, and so is each group of a sweep's or a
winding count's round.

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
real gamma quotients from the standard library's `math.lgamma`
(`_gamma_quotient`), computed once per family and call by `_per_family`.

A point's value does not depend on its batch.  An exponent array in
`_power`, and a coefficient array times a complex product, give each point
the bits of its own float, so a family's values do not depend on the
families beside it.  numpy computes ``named * temporary`` as
``temporary *= named`` once the temporary reaches 256 KiB (16384 complex
points), and the swapped complex product rounds differently.  So complex
products here name both array operands or put the temporary on the left,
and write to a new array: numpy's in-place complex product of strided rows
or of a single point, and its ``multiply.accumulate``, round differently
from the contiguous ``*`` too.
"""

from __future__ import annotations

import itertools
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
    """Argument not reachable: non-finite, on the cut [1, inf) or past every transformation; or a non-finite parameter."""


class Hyp2F1ConvergenceError(RuntimeError):
    """Series failed to settle within the iteration cap."""


def _power(z, mu):
    """Principal power z**mu for real mu, real-negative bases taken from above.

    The package's one cut convention: every fractional power of the maps and
    the connection formulas is taken here.  ``mu`` is a float or one
    exponent per point; exponent 1/2 takes `np.sqrt`.  An exponent array
    gives each point the bits of its own float exponent.
    """
    # adding +0j turns a -0 imaginary part into +0, so the cut is approached
    # from above whatever the sign of zero
    z = np.asarray(z, dtype=complex) + 0.0j
    if not isinstance(mu, np.ndarray):
        return np.sqrt(z) if mu == 0.5 else np.exp(mu * np.log(z))
    out = np.exp(mu * np.log(z))
    half = mu == 0.5
    if half.any():
        out[half] = np.sqrt(z[half])
    return out


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


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


def _per_family(rule: Callable, rows: list, runs: list):
    """``rule(a, b, c)`` of each point's family row, called once per run.

    Returns that one value when the points are one run, else the values per
    point (a rule that returns k values gives k arrays).  A rule is the
    scalar code of one family, so every point gets its family's decision,
    exponent or coefficient bit for bit.
    """
    if len(runs) == 1:
        return rule(*rows[runs[0][0]])
    return np.array([rule(*rows[row]) for row, _ in runs]).repeat([count for _, count in runs], axis=0).T


def _split(values: np.ndarray, sizes) -> list:
    """Consecutive slices of ``values`` with the given sizes, in order."""
    bounds = [0, *itertools.accumulate(sizes)]
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _queued(queue: list, rows: list, runs: list, t: np.ndarray) -> Callable:
    """Queue a Gauss series at every point, one `_series_sums` entry (a, b, c, t) per run.

    The finisher picks out the series' sums, joined in point order.
    """
    parts = _split(t, [count for _, count in runs])
    queue.append([(*rows[row], part) for (row, _), part in zip(runs, parts)])
    return operator.itemgetter(len(queue) - 1)


def _dispatch(routes: tuple, pick: np.ndarray, rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Call ``routes[k]`` on the points whose ``pick`` is k, or on the whole arrays if they all are.

    ``pick`` is one route index per point, or one for all of them.  One
    count of the points by (route, run) gives each route its runs.  Returns
    that one route's finisher, or one that scatters the routes' values.  A
    route is never called on no points.
    """
    if not isinstance(pick, np.ndarray):
        return routes[pick](rows, runs, t, one_minus, queue)
    which = pick
    if len(runs) > 1:
        which = pick * len(runs) + np.arange(len(runs)).repeat([count for _, count in runs])
    counts = np.bincount(which, minlength=len(routes) * len(runs)).reshape(len(routes), -1).tolist()
    parts = []
    for k, call in enumerate(routes):
        kept = [(row, n) for (row, _), n in zip(runs, counts[k]) if n]
        if kept == runs:
            return call(rows, runs, t, one_minus, queue)
        if kept:
            mask = pick == k
            parts.append((mask, call(rows, kept, t[mask], one_minus[mask], queue)))

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
    complex (term, entry) table, made ``TAIL_BLOCK`` terms at a time, with
    one more column of zeros.  Each point stops on its own at the first
    term with |term| <= TERM_TOL |partial sum|: the loop carries index,
    group, argument, term and partial-sum arrays, and writes a point's sum
    back when it cuts the settled points out of them.

    While more than 4 ``TAIL_BLOCK`` points are live, an iteration adds one
    term, and a point that settles is frozen instead of cut out: its group
    index moves to the zero column, so its later terms are exact +-0.  A
    sum starts at 1 + 0j and so never holds -0.0 (x + y is -0.0 only when
    both are), so adding those zeros leaves every bit of it as it was.  The
    arrays are cut down once at most half of their points are live, so the
    array work is less than twice the sum of the series lengths; cutting
    them at every settling would take about 40% of the loop on a two-petal
    battery's batch, whose points settle anywhere from term 2 to about 175.
    The table is complex because a product with a complex argument casts a
    float ratio to complex anyway: one cast per table, not one per term.

    Once at most 4 ``TAIL_BLOCK`` points are live, the arrays are cut down
    to them, and an iteration adds the table's remaining terms,
    ``TAIL_BLOCK`` once aligned, as a (terms, points) block: one binary
    product per row, the previous term times the row's step as in the
    one-term step, then one ``cumsum`` down the rows, which adds in order,
    and each point settles at its first row that meets the cutoff.
    ``multiply.accumulate`` would save the Python products, but it rounds
    complex products differently from ``*`` (12104 of 20000 three-factor
    chains on numpy 2.4).  So a block gives every point the bits of the
    one-term step, and a call runs one Python iteration per term until few
    points are live and one per block after.  Blocks on large live sets
    cost more than they save: blocking every iteration slowed the
    benchmark's ``sweep`` and ``verify`` by 13% and 25% and grew their peak
    memory by 7-10 MB (one run each).  Returns one array per entry, shaped
    like its argument.
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
    table, first = [], 1  # ratios of terms first, first + 1, ... by entry, and a zero column
    n = 1  # the next term to add
    count = arg.size  # points still summing; the rest of the arrays are frozen
    while count and n <= MAX_TERMS:
        if n == first + len(table):
            # (a + n - 1)(b + n - 1) / ((c + n - 1) n) for the next terms,
            # by the scalar expression's IEEE operations in its order, cast
            # to complex as a product with a complex argument casts it
            m = np.arange(n, min(n + TAIL_BLOCK, MAX_TERMS + 1), dtype=float)[:, None]
            table = np.zeros((m.size, len(args) + 1), dtype=complex)
            table[:, :-1] = (a + m - 1.0) * (b + m - 1.0) / ((c + m - 1.0) * m)
            first = n
        if index.size > 4 * TAIL_BLOCK:
            step = table[n - first][group] * arg
            term = term * step
            total = total + term
            live = np.abs(term) > TERM_TOL * np.abs(total)
            settled = total
            n += 1
            before, count = count, np.count_nonzero(live)
            if count == before:
                continue
            if 2 * count > index.size and count > 4 * TAIL_BLOCK:
                # freeze the settled points: from the zero column on their
                # terms are +-0, which leave every bit of their sums
                np.putmask(group, ~live, len(args))
                continue
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
            count = np.count_nonzero(live)
        if count < index.size:
            out[index[~live]] = settled[~live]
            # one array at a time, so the old and new copies never all coexist
            index = index[live]
            group = group[live]
            arg = arg[live]
            term = term[live]
            total = total[live]
    if count:
        # name the worst point still summing, not one that settled or froze
        summing = arg[group < len(args)]
        worst = summing[int(np.argmax(np.abs(summing)))]
        raise Hyp2F1ConvergenceError(
            "series did not settle in %d terms (argument near %r)" % (MAX_TERMS, complex(worst))
        )
    return [part.reshape(t.shape) for part, t in zip(_split(out, sizes), args)]


def _direct(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Sum the series at t itself."""
    return _queued(queue, rows, runs, t)


def _pfaff(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Evaluate through the Pfaff transformation, (1 - t)^-a F(a, c - b; c; t/(t - 1))."""
    prefactor = _power(one_minus, _per_family(lambda a, b, c: -a, rows, runs))
    inner = _queued(queue, [(a, c - b, c) for a, b, c in rows], runs, -t / one_minus)
    return lambda sums: prefactor * inner(sums)


def _euler_connection(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Evaluate through the argument ``one_minus`` = 1 - t; requires c - a - b off the integers.

    At a distance dist from an integer the two terms grow like 1/dist and
    cancel, and the rounding of c - a - b moves them apart: the value is
    good to about 6e-18/dist^2 (1.5e-13 at dist = 0.0064).
    """
    coeff_direct, coeff_power, cab = _per_family(_euler_terms, rows, runs)
    first = _queued(queue, [(a, b, a + b - c + 1.0) for a, b, c in rows], runs, one_minus)
    second = _queued(queue, [(c - a, c - b, c - a - b + 1.0) for a, b, c in rows], runs, one_minus)
    power = _power(one_minus, cab)
    return lambda sums: coeff_direct * first(sums) + coeff_power * power * second(sums)


def _euler_terms(a: float, b: float, c: float) -> tuple:
    """One family's gamma quotients of the 1 - t connection, and its exponent c - a - b."""
    cab = c - a - b
    return _gamma_quotient((c, cab), (c - a, c - b)), _gamma_quotient((c, -cab), (a, b)), cab


def _terminates(a: float, b: float) -> bool:
    return _is_nonpositive_integer(a) or _is_nonpositive_integer(b)


def _inverse_connection(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, deferred: list) -> Callable:
    """Evaluate |t| > 1 through the argument 1/t; a - b is moved off the integers.

    At integer a - b the two exponents at infinity collide and Gamma(a - b)
    or Gamma(b - a) has a pole, so a window around them averages the
    symmetric offsets a +- shift, b -+ shift (even-order error in the
    shift).  Each offset is evaluated directly: from the window's edge one
    offset lands just inside the window on the other side of the pole,
    where the plain formula still holds.
    """
    window = _per_family(lambda a, b, c: abs(a - b - round(a - b)) < DEGENERATE_SHIFT, rows, runs)
    return _dispatch((_inverse_terms, _window_average), window, rows, runs, t, one_minus, deferred)


def _window_average(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, deferred: list) -> Callable:
    """The mean of the 1/t connection at a -+ shift, b +- shift, for a - b in the window, both offsets in one call."""
    shift = DEGENERATE_SHIFT
    lo = [(a - shift, b + shift, c) for a, b, c in rows]
    both = _inverse_terms(*_two_copies(lo, [(a + shift, b - shift, c) for a, b, c in rows], runs, t, one_minus), deferred)

    def finish(inner_values):
        values = both(inner_values)
        return 0.5 * (values[: t.size] + values[t.size :])

    return finish


def _two_copies(first: list, second: list, runs: list, *arrays) -> tuple:
    """The rows ``first + second`` over two copies of the points, the second copy's runs after the first's."""
    runs = runs + [(row + len(first), count) for row, count in runs]
    return (first + second, runs, *(np.concatenate([x, x]) for x in arrays))


def _inverse_terms(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, deferred: list) -> Callable:
    """The 1/t connection (A&S 15.3.7) itself; a - b must not be an integer."""
    inv = 1.0 / t
    minus_t = -t
    inner_minus = one_minus / minus_t  # 1 - 1/t, as accurate as the caller's 1 - t
    # the inner functions, of a and of b, are two copies of the points for
    # the |t| <= 1 routes only: with |t| = 1 up to rounding, 1/t may again
    # have modulus above 1
    inner_a = [(a, a - c + 1.0, a - b + 1.0) for a, b, c in rows]
    inner = _defer(*_two_copies(inner_a, [(b, b - c + 1.0, 1.0 - (a - b)) for a, b, c in rows], runs, inv, inner_minus), deferred)
    exponent_a, coeff_a, exponent_b, coeff_b = _per_family(_inverse_coefficients, rows, runs)
    power_a = _power(minus_t, exponent_a)
    power_b = _power(minus_t, exponent_b)

    def finish(inner_values):
        values = inner(inner_values)
        return coeff_a * power_a * values[: t.size] + coeff_b * power_b * values[t.size :]

    return finish


def _inverse_coefficients(a: float, b: float, c: float) -> tuple:
    """One family's exponents -a, -b of -t in the 1/t connection, each with its gamma quotient."""
    amb = a - b
    return -a, _gamma_quotient((c, -amb), (b, c - a)), -b, _gamma_quotient((c, amb), (a, c - b))


def _disk_rule(a: float, b: float, c: float) -> tuple:
    """(direct, refused, last resort) of the |t| <= 1 routes for one family.

    A terminating series (a or b a non-positive integer) is summed directly
    at every t.  The 1 - t connection is refused at integer c - a - b, a
    pole.  Near one it is good to about 6e-18/dist^2, and a last resort
    where that is worse than the rounding bound of a series at the radius,
    one ulp for each of its n terms (1.6e-13, dist < 0.0061).
    """
    cab = c - a - b
    if any(x == round(x) for x in (cab, a + b - c + 1.0)):
        return _terminates(a, b), True, False  # a + b - c + 1 can round onto a pole c - a - b misses
    n = math.log(TERM_TOL) / math.log(TRANSFORM_RADIUS)
    return _terminates(a, b), False, 6e-18 / (cab - round(cab)) ** 2 > n * math.ulp(1.0)


def _disk_values(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, queue: list) -> Callable:
    """Pick the direct, Pfaff or 1 - t route for each point by the smallest modulus, under `_disk_rule`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        moduli = np.abs(np.array([t, -t / one_minus, one_minus]))  # the routes' arguments, in order
    # a flag that is False holds for no point
    direct, refused, last = _per_family(_disk_rule, rows, runs)
    if last is not False:
        refused = refused | (last & (moduli[:2].min(axis=0) <= TRANSFORM_RADIUS))
    if refused is not False:
        moduli[2, refused] = np.inf
    if direct is not False:
        moduli[0, direct] = 0.0
    if (moduli.min(axis=0) > TRANSFORM_RADIUS).any():
        raise Hyp2F1DomainError(
            "argument not reachable by any implemented transformation"
        )
    return _dispatch((_direct, _pfaff, _euler_connection), moduli.argmin(axis=0), rows, runs, t, one_minus, queue)


def hyp2f1_values(a, b, c, t, one_minus=None) -> np.ndarray:
    """Vectorized Gauss series, each point by a route of the module's table.

    ``a``, ``b`` and ``c`` are floats, or arrays that broadcast against
    ``t`` with one parameter set per point.  ``one_minus`` (shaped like
    ``t``) is 1 - t in the caller's factored form; ``1.0 - t``, the
    default, cancels next to t = 1.
    """
    return _hyp2f1_batch([(a, b, c, t, one_minus)])[0]


def _request_points(a, b, c, t, one_minus):
    """A request's family rows [(a, b, c), ...], the (row, count) runs of its points, and its flat t and 1 - t, checked.

    A run of points with equal parameters is one family, so float
    parameters make one row.  Raises the errors of `hyp2f1_values`.
    """
    t = np.asarray(t, dtype=complex)
    one_minus = 1.0 - t if one_minus is None else np.asarray(one_minus, dtype=complex)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) or isinstance(c, np.ndarray):
        params = np.empty((3, t.size))
        for row, x in zip(params, (a, b, c)):
            row.reshape(t.shape)[...] = x
        starts = np.flatnonzero((params[:, 1:] != params[:, :-1]).any(axis=0)) + 1
        starts = [0, *starts.tolist()] if t.size else []
        rows = list(zip(*params[:, starts].tolist()))
        runs = [(row, hi - lo) for row, (lo, hi) in enumerate(zip(starts, starts[1:] + [t.size]))]
    else:
        rows, runs = [(float(a), float(b), float(c))], [(0, t.size)] if t.size else []
    for row in rows:
        # the route rules round the parameters, which a nan or inf cannot take
        if not all(map(math.isfinite, row)):
            raise Hyp2F1DomainError("non-finite parameter in (a, b, c) = %r" % (row,))
        if _is_nonpositive_integer(row[2]):
            raise Hyp2F1DomainError("lower parameter c = %r is a non-positive integer" % row[2])
    # nan fails every route's modulus test, so it would pass for reachable
    if not (np.isfinite(t).all() and np.isfinite(one_minus).all()):
        raise Hyp2F1DomainError("non-finite argument")
    # the routes take 1-d arrays: numpy computes on 0-d arrays with its
    # scalars, whose complex product rounds differently from the array loop's
    t, one_minus = t.reshape(-1), np.reshape(one_minus, -1)
    # the branch point is where 1 - t is 0: a caller's factored 1 - t can
    # be nonzero where t rounds to 1; the rest of the cut has a side only
    # with -0.0, and a terminating series has none
    on_cut = (one_minus == 0.0) | ((t.imag == 0.0) & (t.real > 1.0) & ~np.signbit(t.imag))
    if on_cut.any() and (on_cut & _per_family(_has_cut, rows, runs)).any():
        raise Hyp2F1DomainError("argument on the cut [1, inf)")
    return rows, runs, t, one_minus


def _has_cut(a: float, b: float, c: float) -> bool:
    """Whether F(a, b; c; t) is cut along [1, inf) and takes the 1/t route past |t| = 1, unlike a polynomial."""
    return not _terminates(a, b)


def _joined(points: list) -> tuple:
    """One (rows, runs, t, 1 - t) point set of several, in order: the rows listed, the points joined."""
    rows, runs, t, one_minus = points[0]
    if len(points) > 1:
        rows, runs = [], []
        for more_rows, more_runs, _, _ in points:
            runs += [(row + len(rows), count) for row, count in more_runs]
            rows += more_rows
        t, one_minus = (np.concatenate([point[k] for point in points]) for k in (2, 3))
    return rows, runs, t, one_minus


def _defer(rows: list, runs: list, t: np.ndarray, one_minus: np.ndarray, deferred: list) -> Callable:
    """Defer points to the one `_disk_values` pick of their call; the finisher picks out their values."""
    deferred.append((rows, runs, t, one_minus))
    return operator.itemgetter(len(deferred) - 1)


def _route(points: list) -> tuple:
    """One route pick for the checked (rows, runs, t, 1 - t) points of several requests, and its queue.

    The requests' points are joined, so that each family's points stay one
    run under every mask.  Points with |t| > 1 whose series has a cut take
    `_inverse_connection`, which defers the |t| <= 1 evaluations of its
    inner functions; the rest are deferred as they are.  Then one
    `_disk_values` pick takes all the deferred points.  Returns the
    finisher of all the points and the queued series, one list of
    `_series_sums` entries each.
    """
    rows, runs, t, one_minus = _joined(points)
    far = (np.abs(t) > 1.0) & _per_family(_has_cut, rows, runs)
    deferred: list = []
    outside = _dispatch((_defer, _inverse_connection), far, rows, runs, t, one_minus, deferred)
    queue: list = []
    disk = _disk_values(*_joined(deferred), queue)
    return (lambda sums: outside(_split(disk(sums), [point[2].size for point in deferred]))), queue


def _hyp2f1_batch(requests) -> list:
    """`hyp2f1_values` for each (a, b, c, t, one_minus) request, routed once and summed in one loop.

    Every request is checked as `hyp2f1_values` checks it before any point
    is routed, so a bad request raises its check's error before any routing
    error of the requests before it, and before any series is summed.  A
    batch with no point at all returns its empty arrays at once.  Otherwise
    all the points take one `_route` pick, each family's coefficients are
    computed once per call, and the queued series, one `_series_sums` entry
    per (series, run), share one term loop.  Returns one array per request,
    shaped like its t, with the bits of that request alone.

    No caller in the package sees that order: `hyp2f1_values` sends one
    request, and the requests `maps._samples` builds cannot fail their
    check.  The map request's t = 4/p^2 is finite off the corners, with its
    imaginary part set to at most 0 (-0.0 on the axis); its 1 - t, d^2/p^2
    with d = w - 1/w, is nonzero off the corners; and the partner's
    requests take d^2/p^2 as their argument at probes off the axes, where
    it is finite and off the cut.
    """
    points = [_request_points(*request) for request in requests]
    if not any(point[2].size for point in points):
        return [np.empty(np.shape(request[3]), dtype=complex) for request in requests]
    finish, queue = _route(points)
    sums = iter(_series_sums([entry for series in queue for entry in series]))
    # a series of several runs joins their sums in point order
    values = finish([np.concatenate([next(sums) for _ in series]) if len(series) > 1 else next(sums) for series in queue])
    parts = _split(values, [point[2].size for point in points])
    return [part.reshape(np.shape(request[3])) for part, request in zip(parts, requests)]

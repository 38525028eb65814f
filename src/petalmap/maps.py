"""Exterior conformal maps for self-similar growth patterns in the half plane.

Two families are implemented.  The one-petal family sends the exterior of
the unit circle onto the exterior of a symmetric pair of petals meeting the
real axis at angle ``alpha``; it has an elementary closed form built from
powers of 1 -/+ 1/w.  The two-petal family adds a second corner pair on the
imaginary axis with half-angle ``beta`` and is hypergeometric.  Both maps
are odd, real on the real axis, and normalized to derivative 1 at infinity
before time scaling.

Evaluation is restricted to the physical sheet |w| >= 1; the continuation
across it that the conserved-ratio estimate needs is the partner of
`_partner_requests`.  `_samples` is the one batch builder for the checks:
it takes map values, derivatives and partners of several families at once,
each as a plan of `_plans`, in few series loops, with the bits of each
job's lone call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .special_functions import MapDomainError, _gamma_quotient, _hyp2f1_batch, _power, _split, hyp2f1_values

SHEET_SLACK = 1e-12          # corner pre-images reject this radius; |w| >= 1 - slack is on-sheet
FD_STEP_FRACTION = 1.0 / 12.0  # arc step as a fraction of corner distance
FD_MAX_STEP = 0.04
ARC_BLOCK = 2043             # map points per series loop: a lone evaluation's block or a `_samples` group (227 stencil centres x 9); bounds memory
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-10
HALLEY_RESIDUAL = 0.1        # Halley's step once |f(w) - z/r| <= this (1 + |z/r|); Newton's before


class CornerPreimageError(MapDomainError):
    """Evaluation exactly at a corner pre-image is undefined."""


class InversionError(RuntimeError):
    """Newton inversion failed or landed off the sheet."""

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


@dataclass(frozen=True)
class MapFamily:
    """Parameter bundle selecting one exact self-similar pattern."""

    kind: str
    alpha: float
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("one-petal", "two-petal"):
            raise ValueError("unknown family kind %r" % (self.kind,))
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise ValueError("alpha must lie in (0, pi/2)")
        if self.kind == "one-petal":
            if self.beta is not None:
                raise ValueError("one-petal family takes no beta")
        else:
            if self.beta is None or not 0.0 < self.beta < 0.5 * math.pi:
                raise ValueError("beta must lie in (0, pi/2)")

    @classmethod
    def one_petal(cls, alpha: float) -> "MapFamily":
        return cls("one-petal", float(alpha))

    @classmethod
    def two_petal(cls, alpha: float, beta: float) -> "MapFamily":
        return cls("two-petal", float(alpha), float(beta))

    @property
    def gamma(self) -> float:
        """Corner exponent offset 2 alpha/pi - 1/2 of the one-petal family."""
        if self.kind != "one-petal":
            raise ValueError("gamma is a one-petal parameter")
        return 2.0 * self.alpha / math.pi - 0.5

    @property
    def delta(self) -> float:
        """Top-corner exponent 2 beta/pi of the two-petal family."""
        if self.kind != "two-petal":
            raise ValueError("delta is a two-petal parameter")
        return 2.0 * self.beta / math.pi

    @property
    def corner_preimages(self) -> tuple[complex, ...]:
        if self.kind == "one-petal":
            return (1.0 + 0.0j, -1.0 + 0.0j)
        return (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)

    def label(self) -> str:
        if self.kind == "one-petal":
            return "one-petal(alpha=%.6f)" % self.alpha
        return "two-petal(alpha=%.6f, beta=%.6f)" % (self.alpha, self.beta)


@dataclass(frozen=True)
class TimeState:
    """Growth time T and conserved ratio A; the scale factor is r = T/A."""

    T: float
    A: float = 1.0

    def __post_init__(self):
        # nan fails every comparison; the scale T/A must not overflow or underflow
        finite = 0.0 < self.T < math.inf and 0.0 < self.A < math.inf
        if not (finite and 0.0 < self.r < math.inf):
            raise ValueError("T, A and the scale T/A must be positive and finite")

    @property
    def r(self) -> float:
        return self.T / self.A


@dataclass(frozen=True)
class BoundaryTrace:
    """Physical boundary samples z_j = r f(e^{i phi_j}) on a half-offset grid."""

    phis: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class LaurentCoefficients:
    """Leading expansion data of the scaled map at infinity.

    ``conformal_radius`` is the w-coefficient, ``coefficients[k]`` the
    1/w^k coefficient divided by the radius (k >= 0), and ``capacity`` the
    1/z coefficient of the composed upper map, which must stay positive.
    """

    conformal_radius: float
    coefficients: np.ndarray
    capacity: float


# ---------------------------------------------------------------------------
# sheet checks


def _as_points(w):
    arr = np.asarray(w, dtype=complex)
    return arr.reshape(-1), arr.shape, np.isscalar(w) or arr.shape == ()


def _check_regular(family: MapFamily, pts: np.ndarray):
    """Refuse non-finite 1-d points and the corner pre-images, where neither the map nor V is defined."""
    # nan fails every comparison below, so non-finite points are refused first
    if not np.all(np.isfinite(pts)):
        raise MapDomainError("non-finite point")
    touched = np.any(_corner_gaps(family, pts) < SHEET_SLACK, axis=0)
    if touched.any():
        xi = family.corner_preimages[np.argmax(touched)]
        raise CornerPreimageError("evaluation at corner pre-image %r" % (xi,))


def _corner_gaps(family: MapFamily, pts: np.ndarray) -> np.ndarray:
    """|w - xi| for 1-d points w (rows) and the corner pre-images xi (columns, in family order)."""
    return np.abs(pts[:, None] - np.array(family.corner_preimages))


def _check_sheet(family: MapFamily, pts: np.ndarray):
    _check_regular(family, pts)
    if np.any(np.abs(pts) < 1.0 - SHEET_SLACK):
        raise MapDomainError("point inside the unit circle is off the sheet")


# ---------------------------------------------------------------------------
# one-petal family


def _one_petal_terms(g: float, minus: np.ndarray, plus: np.ndarray):
    """The bracket's terms minus^g plus^(1-g) and plus^g minus^(1-g), minus/plus = 1 -/+ a."""
    # each term is `_power`'s exp(mu log z), whose exact-path exponent 1/2
    # neither g nor 1 - g can take here: two logs serve all four
    lo, hi = (np.log(np.asarray(z, dtype=complex) + 0.0j) for z in (minus, plus))
    return np.exp(g * lo) * np.exp((1.0 - g) * hi), np.exp(g * hi) * np.exp((1.0 - g) * lo)


def _one_petal_bracket(g: float, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Half-sum of minus^g plus^(1-g) and its mirror plus^g minus^(1-g).

    With minus/plus = 1 -/+ 1/w this is the one-petal map divided by its
    trunk.  Exactly 1 at g = 0, where the two terms merge.
    """
    if g == 0.0:
        return np.ones(minus.shape, dtype=complex)
    left, right = _one_petal_terms(g, minus, plus)
    return 0.5 * (left + right)


def _one_petal_values(family: MapFamily, w: np.ndarray) -> np.ndarray:
    """Closed form, valid on the whole plane cut along [-1, 1].

    All fractional powers act on 1 -/+ 1/w, so every cut stays inside the
    unit disk and the two bracket terms swap under w -> -w, making the sum
    exactly odd.  1 -/+ 1/w is taken as (w -/+ 1)/w: the rounding of 1/w
    would cost ~1e-16/|w -/+ 1| of relative accuracy next to the corners.
    """
    minus, plus = (w - 1.0) / w, (w + 1.0) / w
    # a named factor: numpy would reuse a large temporary right operand in
    # place, swapping the complex product's operands and so its rounding
    trunk = np.sqrt(minus * plus)
    return w * trunk * _one_petal_bracket(family.gamma, minus, plus)


def _one_petal_derivatives(family: MapFamily, w: np.ndarray):
    """(f, f', f'') of the closed form; f is `_one_petal_values`' expression, so its bits.

    With a = 1/w, T = sqrt(1 - a^2) and B the bracket, f = T B / a, so
    f' = B/T - a T B' and f'' = -a^2 d/da f' = a^3 (T B'' - 2 a B'/T - B/T^3).
    A bracket term t has d log t/da = s, with s = (1-g)/(1+a) - g/(1-a) for
    the first term and g/(1+a) - (1-g)/(1-a) for its mirror, so t' = t s and
    t'' = t (s^2 + ds/da).  1 -/+ a is (w -/+ 1)/w, as in the value.
    """
    a = 1.0 / w
    minus, plus = (w - 1.0) / w, (w + 1.0) / w
    trunk = np.sqrt(minus * plus)
    g = family.gamma
    if g == 0.0:
        bracket = np.ones(w.shape, dtype=complex)
        slope = curve = np.zeros(w.shape, dtype=complex)
    else:
        left, right = _one_petal_terms(g, minus, plus)
        bracket = 0.5 * (left + right)
        s_left = (1.0 - g) / plus - g / minus
        s_right = g / plus - (1.0 - g) / minus
        ds_left = -(g / (minus * minus) + (1.0 - g) / (plus * plus))
        ds_right = -(g / (plus * plus) + (1.0 - g) / (minus * minus))
        slope = 0.5 * (left * s_left + right * s_right)
        curve = 0.5 * (left * (s_left * s_left + ds_left) + right * (s_right * s_right + ds_right))
    f_prime = bracket / trunk - a * trunk * slope
    f_second = a * a * a * (trunk * curve - 2.0 * a * slope / trunk - bracket / (trunk * trunk * trunk))
    return w * trunk * bracket, f_prime, f_second


# ---------------------------------------------------------------------------
# two-petal family


def _two_petal_parameters(alpha, beta):
    """The upper parameters a, b of the two-petal map's F(a, b; 1/2; 4/p^2), for one family or per point."""
    return (alpha + beta) / math.pi - 0.5, (alpha - beta) / math.pi


def _two_petal_request(alpha, beta, w: np.ndarray):
    """The two-petal pattern Z(p) = p (1 - t)^(alpha/pi) F(a, b; 1/2; t), t = 4/p^2, p = w + 1/w, around F.

    Returns the (a, b, c, t, one_minus) request for `hyp2f1_values` or
    `_hyp2f1_batch` at 1-d sheet points w, and the step that finishes Z
    from F's values.  ``alpha`` and ``beta`` are one family's floats, or
    arrays of each point's family's angles, so that one request carries
    several families.

    p, 1 - t and t are `_sheet_p`'s: 1 - t, the power's base and F's 1 - t,
    is (p^2 - 4)/p^2 with p^2 - 4 factored, so that it stays accurate next
    to the branch points.  The formula is taken on the closed first
    quadrant: points with Im w < 0 are reflected, Z(conj p) = conj Z(p),
    and points with Re p < 0 folded by oddness, Z(-conj p) = -conj Z(p).
    The folds change only the sign of Im p^2, and on the first quadrant
    Im(1 - t) = 8 Re p Im p / |p|^4 >= 0 and Im t <= 0, so both are set
    exactly.  Real p in the band |p| < 2 is the limit from above: there
    t = 4/p^2 takes F's 1/t route with a -0.0 imaginary part.
    """
    p, _, one_minus, t, lower = _sheet_p(w)
    left = p.real < 0.0
    mirror = lower != left
    folded = one_minus.real + 1j * np.abs(one_minus.imag)
    aa, bb = _two_petal_parameters(alpha, beta)

    def finish(hyp):
        power = _power(folded, alpha / math.pi)
        out = (np.abs(p.real) + 1j * np.abs(p.imag)) * power * hyp
        out = np.where(mirror, np.conj(out), out)
        return np.where(left, -out, out)

    return (aa, bb, 0.5, np.conj(t.real + 1j * np.abs(t.imag)), folded), finish


def _sheet_p(w: np.ndarray):
    """The two-petal variables (p, d, 1 - t, t, lower) at 1-d sheet points w, for the map and its partner alike.

    p = w + 1/w, d = (w - 1)(w + 1)/w = w - 1/w, 1 - t = d^2/p^2 and
    t = 4/p^2: d^2 is p^2 - 4 factored, so 1 - t stays accurate next to the
    base corners w = +-1.  Where |p| < 1, next to the top corners w = +-i,
    p is factored too, as (w - i)(w + i)/w: w + 1/w would cancel there,
    while w -/+ i is exact.  Where p^2 or d^2 overflows (|w| past about
    1e154), d is w - 1/w and 1 - t and t are (d/p)^2 and (2/p)^2, so every
    variable stays finite up to the largest floats; elsewhere they are the
    plain products.  ``lower`` flags Im w < 0, which `_two_petal_request`
    reflects.
    """
    p = w + 1.0 / w
    top = np.abs(p) < 1.0
    if top.any():
        p[top] = (w[top] - 1j) * (w[top] + 1j) / w[top]
    with np.errstate(over="ignore", invalid="ignore"):
        d = (w - 1.0) * (w + 1.0) / w
        d2, p2 = d * d, p * p
        one_minus, t = d2 / p2, 4.0 / p2
    far = ~(np.isfinite(d2) & np.isfinite(p2))
    if far.any():
        d[far] = w[far] - 1.0 / w[far]
        ratio, half = d[far] / p[far], 2.0 / p[far]
        one_minus[far], t[far] = ratio * ratio, half * half
    return p, d, one_minus, t, w.imag < 0.0


def _two_petal_values(family: MapFamily, w: np.ndarray) -> np.ndarray:
    """Evaluate on the sheet through p = w + 1/w, reflecting Im w < 0."""
    request, finish = _two_petal_request(family.alpha, family.beta, w)
    return finish(hyp2f1_values(*request))


def _partner_requests(family: MapFamily, w: np.ndarray):
    """The two-petal partner's plan at 1-d points w: no map points, two 2F1 requests, and the finish that takes their values to (h, h').

    t = 4/p^2 crosses F's cut at t > 1, where (DLMF 15.2.3) the
    continuation is e^{-2i alpha} (f + 2 pi i K J), K = Gamma(c) / (Gamma(a)
    Gamma(b) Gamma(c-a-b+1)), J = p X^(alpha/pi) (-X)^(c-a-b) F(c-a, c-b;
    c-a-b+1; X) and X = 1 - t.  A multiple of f or a constant phase leaves
    the Wronskian's modulus unchanged, so h = 2 pi |K| J, analytic where t
    lies in the lower half plane (the first quadrant off the axes).  h'
    takes d/dX F = ((c-a)(c-b)/(c-a-b+1)) F(c-a+1, c-b+1; c-a-b+2; X) (DLMF
    15.5.1) and dX/dw = 8 p'/p^3, p' = 1 - 1/w^2; where p^3 overflows
    (|w| past about 1e102) dX/dw is 2 t p'/p, with `_sheet_p`'s t, which
    stays finite, so every finite value keeps its bits.
    """
    a, b = _two_petal_parameters(family.alpha, family.beta)
    cab = 0.5 - a - b  # c - a - b with c = 1/2
    mu = family.alpha / math.pi
    scale = 2.0 * math.pi * abs(_gamma_quotient((0.5,), (a, b, cab + 1.0)))
    p, d, x, t, _ = _sheet_p(w)  # x = 1 - t, factored as the map's
    dp = d / w  # p' = 1 - 1/w^2
    with np.errstate(over="ignore", invalid="ignore"):
        cube = p * p * p
        dx = np.where(np.isfinite(cube), 8.0 * dp / cube, 2.0 * t * dp / p)

    def finish(_, extra):
        hyp, slope = extra
        slope = (0.5 - a) * (0.5 - b) / (cab + 1.0) * slope
        outer = scale * p * _power(x, mu) * _power(-x, cab)
        h = outer * hyp
        return h, h * (dp / p + (mu + cab) * dx / x) + outer * slope * dx

    return w[:0], [(0.5 - a, 0.5 - b, cab + 1.0, x, t), (1.5 - a, 1.5 - b, cab + 2.0, x, t)], finish


# ---------------------------------------------------------------------------
# generic evaluation and derivatives


def evaluate_map(family: MapFamily, w):
    """Normalized map of the family on the sheet |w| >= 1."""
    pts, shape, scalar = _as_points(w)
    _check_sheet(family, pts)
    vals = _values_on_sheet(family, pts)
    return complex(vals[0]) if scalar else vals.reshape(shape)


def _values_on_sheet(family: MapFamily, pts: np.ndarray) -> np.ndarray:
    """The map at 1-d sheet points; two petals in blocks of at most ``ARC_BLOCK`` points, one series loop each.

    A point's value does not depend on its block, so the blocks only bound
    the memory of a lone evaluation, however many points it takes.
    """
    if family.kind == "one-petal":
        return _one_petal_values(family, pts)
    out = np.empty(pts.shape, dtype=complex)
    for lo in range(0, pts.size, ARC_BLOCK):
        out[lo : lo + ARC_BLOCK] = _two_petal_values(family, pts[lo : lo + ARC_BLOCK])
    return out


def _arc_stencil(family: MapFamily, pts: np.ndarray):
    """The arc stencil's plan around 1-d points: its (9, n) rows as 9 n map points, no 2F1 request, and the finish that takes their map values to (f, f', f'').

    Stencil points w e^{is} keep |w| fixed, so a stencil centered on an
    evaluable ring never leaves it.  The step h is ``FD_STEP_FRACTION`` of
    the distance to the nearest corner pre-image, at most ``FD_MAX_STEP``.
    Three Richardson levels on the 4-point (resp. 5-point) central rule
    leave an O(h^8) truncation error.

    The rows are the arc offsets -2, -1, -1/2, -1/4, 1/4, 1/2, 1, 2 (times
    h) and the centre, so level k (step h / 2^k) reads rows k, k + 1,
    6 - k and 7 - k, and each rule is one expression over the three levels.
    The centre row is ``pts`` itself: pts e^{0i} could flip the sign of a
    zero component.  Every point's derivatives depend on its own column
    alone.
    """
    h = np.minimum(FD_MAX_STEP, FD_STEP_FRACTION * np.min(_corner_gaps(family, pts), axis=1))
    scales = np.array([[-2.0], [-1.0], [-0.5], [-0.25], [0.25], [0.5], [1.0], [2.0]])
    rows = np.append(pts * np.exp(1j * (scales * h)), pts[None], axis=0)

    def finish(values, _):
        values = values.reshape(rows.shape)
        lo2, lo1, hi1, hi2, g_0 = values[0:3], values[1:4], values[6:3:-1], values[7:4:-1], values[8]
        step = np.array([[1.0], [0.5], [0.25]]) * h
        rules = np.array([(lo2 - 8.0 * lo1 + 8.0 * hi1 - hi2) / (12.0 * step), (-lo2 + 16.0 * lo1 - 30.0 * g_0 + 16.0 * hi1 - hi2) / (12.0 * step * step)])
        # successive O(h^4) -> O(h^6) -> O(h^8) eliminations for step halving
        levels = (16.0 * rules[:, 1:] - rules[:, :-1]) / 15.0
        first, second = (64.0 * levels[:, 1] - levels[:, 0]) / 63.0
        iw = 1j * pts
        f_prime = first / iw
        curl = -second + 1j * first
        with np.errstate(over="ignore", invalid="ignore"):
            f_second = curl / (pts * pts)
        # w^2 overflows past |w| ~ 1e154; there the quotient divides by w twice
        far = ~np.isfinite(f_second)
        if far.any():
            f_second[far] = curl[far] / pts[far] / pts[far]
        return g_0, f_prime, f_second

    return rows.ravel(), [], finish


def _arc_derivatives(family: MapFamily, pts: np.ndarray):
    """(f, f', f'') at 1-d points by `_arc_stencil`'s arc-direction finite differences, its plan applied alone.

    All the stencil rows go to one `_values_on_sheet` call, which blocks
    them, so a scalar derivative costs one series loop and an n-point ring
    ceil(9 n / ``ARC_BLOCK``).
    """
    rows, _, finish = _arc_stencil(family, pts)
    return finish(_values_on_sheet(family, rows), [])


def _plans(jobs) -> list:
    """Each (family, points, what) job's plan, after one sheet check of all its values and derivatives points.

    A plan is (map points, extra 2F1 requests, finish(map values, extra
    values)): the finish takes the map's values at the 1-d map points and
    the extra requests' values, in order, to the job's samples.  ``what``
    is "values" (f, as `evaluate_map` gives it), "derivatives" ((f, f',
    f'') as `_tangential_derivatives` gives them) or "partner" ((h, h'),
    the map continued across the unit circle, a second oscillator
    solution).  For two petals a values job is (points, [], its values), a
    derivatives job `_arc_stencil`'s plan and a partner job
    `_partner_requests`'; one petal takes the closed forms, the partner
    h(w) = f(1/w), as a plan with neither map points nor requests.

    The values and derivatives points are checked together, a failure
    raised by the first failing job's own check; partner probes are not,
    since the partner is the map continued across the circle.
    """
    checked = [(family, points) for family, points, what in jobs if what != "partner"]
    if checked:
        # one kind has one set of corners, so every job passes its check
        # exactly when all the points together pass
        try:
            _check_sheet(checked[0][0], np.concatenate([points for _, points in checked]))
        except MapDomainError:
            for family, points in checked:
                _check_sheet(family, points)
            raise
    plans = []
    for family, points, what in jobs:
        if family.kind == "one-petal":
            if what == "partner":
                h, f_prime, _ = _one_petal_derivatives(family, 1.0 / points)
                samples = h, -f_prime / (points * points)
            else:
                samples = (_one_petal_values if what == "values" else _one_petal_derivatives)(family, points)
            plans.append((points[:0], [], lambda *_, samples=samples: samples))
        elif what == "values":
            plans.append((points, [], lambda values, _: values))
        else:
            plans.append((_arc_stencil if what == "derivatives" else _partner_requests)(family, points))
    return plans


def _samples(jobs) -> list:
    """The samples of each (family, points, what) job of `_plans`, all jobs of one kind, in few series loops.

    Every value keeps the bits of its job's lone call: a point's value does
    not depend on its batch.  The jobs' plans are packed, consecutive ones
    together, into groups of at most ``ARC_BLOCK`` map points.  A plan opens
    a new group only when the open group holds map points and the plan's
    own would take it past ``ARC_BLOCK``: a plan with no map points (an
    empty job, a partner) joins the open group, and a larger plan shares
    its group only with such plans.  Each group with a map point or a
    request is one `_hyp2f1_batch`, built and evaluated one group at a
    time: one `_two_petal_request` over its plans' map points joined, each
    carrying its family's angles (floats when the group is one family),
    then each plan's extra requests, so one route pick and one series loop
    per group.  Each plan is finished from its slices of the map values and
    of the extra values.
    """
    groups, size = [], 0
    for (family, _, _), plan in zip(jobs, _plans(jobs)):
        weight = plan[0].size
        if not groups or size and weight and size + weight > ARC_BLOCK:
            groups.append([])
            size = 0
        groups[-1].append((family, *plan))
        size += weight
    out = []
    for group in groups:
        sizes, counts = [points.size for _, points, _, _ in group], [len(requests) for _, _, requests, _ in group]
        values, extra = np.empty(0, dtype=complex), []
        if sum(sizes) + sum(counts):
            alpha, beta = group[0][0].alpha, group[0][0].beta
            if len({family for family, _, _, _ in group}) > 1:
                alpha, beta = np.repeat([(family.alpha, family.beta) for family, _, _, _ in group], sizes, axis=0).T
            request, finish = _two_petal_request(alpha, beta, np.concatenate([points for _, points, _, _ in group]))
            hyp, *extra = _hyp2f1_batch([request, *(more for _, _, requests, _ in group for more in requests)])
            values = finish(hyp)
        out += [done(vals, more) for vals, more, (_, _, _, done) in zip(_split(values, sizes), _split(extra, counts), group)]
    return out


def _tangential_derivatives(family: MapFamily, pts: np.ndarray):
    """Sheet-checked (f, f', f'') at 1-d points: closed form for one petal, arc stencil for two."""
    _check_sheet(family, pts)
    if family.kind == "one-petal":
        return _one_petal_derivatives(family, pts)
    return _arc_derivatives(family, pts)


def map_derivative(family: MapFamily, w):
    """df/dw of the normalized map: closed form for one petal, arc stencil for two."""
    pts, shape, scalar = _as_points(w)
    _, f_prime, _ = _tangential_derivatives(family, pts)
    return complex(f_prime[0]) if scalar else f_prime.reshape(shape)


def scaled_map(family: MapFamily, state: TimeState, w):
    """Physical map r f(w) at growth state ``state``."""
    return state.r * evaluate_map(family, w)


def invert_map(family: MapFamily, z, state: TimeState | None = None):
    """Newton inversion of the scaled map, finished by Halley steps; returns the pre-image w.

    A root of r f(w) = z is a root of f(w) = z / r, so the scale enters
    once: Newton solves f(w) = z / r on the normalized map, and converges
    when |f(w) - z / r| <= ``NEWTON_TOL`` (1 + |z / r|), in map units at
    every scale.  It starts from z / r, moved out to radius 1.2 if it lies
    inside the unit circle.  An iterate that steps inside the unit circle is
    mirrored to 1/conj(w), so every iterate, and the root returned, lies on
    the sheet |w| >= 1.
    Each step makes one `_tangential_derivatives` call (one arc stencil for
    two petals, the closed form for one): its value serves the convergence
    test, its f' the step and its f'' the correction.  With s = (f - z/r)/f'
    the step is Newton's, w - s, until the residual is at most
    ``HALLEY_RESIDUAL`` (1 + |z / r|); from there on it is Halley's,
    w - s/(1 - q) with q = s f''/(2 f'), wherever |q| <= 1/2.  So until
    an iterate is within the gate the iterates are Newton's, bit for bit.
    A step depends on w alone, so an iterate that repeats starts a cycle
    that never converges: the loop raises at once rather than running on to
    ``NEWTON_MAX_ITER``, with that iterate as the last one.
    """
    target = complex(z) / (state.r if state is not None else 1.0)
    w = target
    if abs(w) < 1.0:
        w = 1.5 + 0.5j if w == 0.0 else 1.2 * w / abs(w)
    tol = NEWTON_TOL * (1.0 + abs(target))
    gate = HALLEY_RESIDUAL * (1.0 + abs(target))
    seen = set()
    for _ in range(NEWTON_MAX_ITER):
        if w in seen:
            raise InversionError("iterate repeats without converging", root=w)
        seen.add(w)
        try:
            try:
                values, derivs, seconds = _tangential_derivatives(family, np.array([w]))
            except MapDomainError:
                # a stencil point can leave the evaluable region while the
                # centre converges; the centre's own error comes first
                if abs(evaluate_map(family, w) - target) <= tol:
                    return w
                raise
            val, deriv = complex(values[0]), complex(derivs[0])
            if abs(val - target) <= tol:
                return w
        except MapDomainError as exc:
            raise InversionError("iteration left the evaluable region: %s" % exc, root=w) from exc
        if deriv == 0.0:
            raise InversionError("stationary point reached", root=w)
        step = (val - target) / deriv
        if abs(val - target) <= gate:
            q = step * complex(seconds[0]) / (2.0 * deriv)
            if abs(q) <= 0.5:
                step = step / (1.0 - q)
        w = w - step
        if abs(w) < 1.0:
            # mirror it back onto the sheet; a shortened step could stop
            # within SHEET_SLACK inside the circle, where the values are not
            # the analytic continuation Newton steps along
            w = 1.0 / w.conjugate()
    raise InversionError("no convergence in %d iterations" % NEWTON_MAX_ITER, root=w)


def pressure(family: MapFamily, state: TimeState, z) -> float:
    """Harmonic pressure Im p(z) of the growth problem at a physical point."""
    w = invert_map(family, z, state=state)
    return float((state.r * (w + 1.0 / w)).imag)


def potential_V(family: MapFamily, w):
    """Rational potential of the self-similar oscillator equation, also inside the unit circle.

    V(1/w) = V(w), so where (w^2 -/+ 1)^2 overflows, past |w| ~ 1e77, V is
    taken at 1/w, and stays finite and nonzero up to the largest floats; a
    point whose denominators are finite keeps the bits of the plain
    quotients.
    """
    pts, shape, scalar = _as_points(w)
    _check_regular(family, pts)
    frac_a = family.alpha / math.pi
    with np.errstate(over="ignore", invalid="ignore"):
        w2 = pts * pts
        dens = [(w2 - 1.0) ** 2]
        vals = 16.0 * frac_a * (1.0 - frac_a) * w2 / dens[0]
        if family.kind == "two-petal":
            frac_b = family.beta / math.pi
            dens.append((w2 + 1.0) ** 2)
            vals = vals - 8.0 * frac_b * (1.0 - 2.0 * frac_b) * w2 / dens[1]
    far = ~np.all(np.isfinite([vals, *dens]), axis=0)
    if far.any():
        vals[far] = potential_V(family, 1.0 / pts[far])
    return complex(vals[0]) if scalar else vals.reshape(shape)


# ---------------------------------------------------------------------------
# boundary sampling and expansion data


def _circle_angles(n: int) -> np.ndarray:
    """Half-offset grid (k + 1/2) 2 pi/n, k < n: clear of every corner pre-image when 4 | n."""
    return (np.arange(n) + 0.5) * (2.0 * math.pi / n)


def _unfold_quadrant(*quarters):
    """All n values on an n-point half-offset ring from those on its first quadrant.

    ``quarters`` are f, f', f'' (or a leading part of that list) at the
    first n/4 points of any ring r e^{i phi}, phi from `_circle_angles(n)`;
    n is four times their common length.  In that order the other points
    are the quadrant's mirrors pi - phi_k (-conj w, reversed), pi + phi_k
    (-w) and 2 pi - phi_k (conj w, reversed).  Both families are odd and
    real on the real axis, so f and f'' are odd and f' is even under
    w -> -w, and all three commute with conjugation: each value is its
    quadrant value conjugated, negated or reversed, exactly.  Returns a
    tuple of full rings, one per quarter.
    """
    if len({len(quarter) for quarter in quarters}) != 1:
        raise ValueError("quarters of one ring must have equal lengths")
    full = []
    for order, quarter in enumerate(quarters):
        back = np.conj(quarter[::-1])
        if order % 2:  # f' is even
            full.append(np.concatenate([quarter, back, quarter, back]))
        else:
            full.append(np.concatenate([quarter, -back, -quarter, back]))
    return tuple(full)


def boundary_trace(family: MapFamily, state: TimeState | None = None, n: int = 2048) -> BoundaryTrace:
    """Sample the physical boundary on a half-offset circle grid.

    ``n`` must be a multiple of 4 so the grid is symmetric under both
    reflections while never landing on a corner pre-image.  The map is
    evaluated at the first n/4 points and unfolded onto the other three
    quadrants by symmetry (`_unfold_quadrant`); the trace keeps all n.
    The points are scaled by r = T/A once, here; a `ValueError` refuses a
    scaled point, or an extent of their real or imaginary parts, that is
    not finite.
    """
    if n < 16 or n % 4 != 0:
        raise ValueError("n must be a multiple of 4, at least 16")
    if state is None:
        state = TimeState(1.0, 1.0)
    phis = _circle_angles(n)
    ring = np.exp(1j * phis)
    (values,) = _unfold_quadrant(_values_on_sheet(family, ring[: n // 4]))
    with np.errstate(over="ignore", invalid="ignore"):
        points = state.r * values
        spans = np.ptp(points.real), np.ptp(points.imag)
    if not (np.isfinite(points).all() and np.isfinite(spans).all()):
        raise ValueError("the scaled boundary lies outside the float range")
    return BoundaryTrace(phis, points)


def _laurent_ring() -> np.ndarray:
    """The first-quadrant 64 points of `laurent_coefficients`' 256-point ring at radius 2.5."""
    return 2.5 * np.exp(1j * _circle_angles(256))[:64]


@functools.cache
def _laurent_basis():
    """e^{-i phi} and the 17 x 256 e^{i k phi} of the Laurent ring's angles, built once per process."""
    phis = _circle_angles(256)
    basis = np.exp(-1j * phis), np.exp(1j * np.arange(17)[:, None] * phis)
    for part in basis:
        part.flags.writeable = False
    return basis


def _laurent_data(quadrant: np.ndarray) -> LaurentCoefficients:
    """`laurent_coefficients` from the map's values at the points of `_laurent_ring`."""
    radius = 2.5
    (vals,) = _unfold_quadrant(quadrant)
    lead_basis, basis = _laurent_basis()
    lead = np.mean(vals * lead_basis) / radius
    conformal_radius = float(lead.real)
    coefficients = (np.mean(vals * basis, axis=1) * radius ** np.arange(17)).real
    # composing with the inverse of z = r w + r c1 / w + ... gives the
    # half-plane capacity r (r - c1) as the 1/z coefficient
    capacity = conformal_radius * (conformal_radius - coefficients[1])
    return LaurentCoefficients(conformal_radius, coefficients, capacity)


def laurent_coefficients(family: MapFamily) -> LaurentCoefficients:
    """Expansion data at infinity from 256-point circle averages at radius 2.5.

    The sampling circle stays well away from the corners, so truncation
    aliasing of the coefficients through 1/w^16 is below double rounding.
    The map is evaluated on the first quadrant, 64 points (`_laurent_ring`),
    by `evaluate_map`, and unfolded onto all 256 (`_unfold_quadrant`).
    """
    return _laurent_data(evaluate_map(family, _laurent_ring()))

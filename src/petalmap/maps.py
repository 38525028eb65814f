"""Exterior conformal maps for self-similar growth patterns in the half plane.

Two families are implemented.  The one-petal family sends the exterior of
the unit circle onto the exterior of a symmetric pair of petals meeting the
real axis at angle ``alpha``; it has an elementary closed form built from
powers of 1 -/+ 1/w.  The two-petal family adds a second corner pair on the
imaginary axis with half-angle ``beta`` and is hypergeometric.  Both maps
are odd, real on the real axis, and normalized to derivative 1 at infinity
before time scaling.

Evaluation is restricted to the physical sheet |w| >= 1; the continuation
across it that the conserved-ratio estimate needs is `_partner_derivatives`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import MapDomainError, _gamma_quotient, _hyp2f1_batch, _power, hyp2f1_values

SHEET_SLACK = 1e-12          # corner pre-images reject this radius; |w| >= 1 - slack is on-sheet
FD_STEP_FRACTION = 1.0 / 12.0  # arc step as a fraction of corner distance
FD_MAX_STEP = 0.04
ARC_BLOCK = 2043             # map points per series loop: 227 stencil centres x 9 rows, or a lockstep group; bounds memory
NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-10


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


def _two_petal_parameters(family: MapFamily) -> tuple[float, float]:
    """The upper parameters a, b of the two-petal map's F(a, b; 1/2; 4/p^2)."""
    return (family.alpha + family.beta) / math.pi - 0.5, (family.alpha - family.beta) / math.pi


def _two_petal_request(family: MapFamily, p: np.ndarray, d: np.ndarray, lower: np.ndarray):
    """The two-petal pattern Z(p) = p (d/p^2)^(alpha/pi) F(a, b; 1/2; 4/p^2), p = w + 1/w, around F.

    Returns the (a, b, c, t, one_minus) request for `hyp2f1_values` or
    `_hyp2f1_batch`, and the step that finishes Z from F's values.

    ``d`` is the branch factor p^2 - 4, factored by the caller so that d/p^2,
    the power's base and F's 1 - t, stays accurate next to the branch points.
    The formula is taken on the closed first quadrant: points flagged
    ``lower`` are reflected, Z(conj p) = conj Z(p), and points with Re p < 0
    folded by oddness, Z(-conj p) = -conj Z(p).  The folds change only the
    sign of Im p^2, and on the first quadrant Im(d/p^2) =
    8 Re p Im p / |p|^4 >= 0 and Im(4/p^2) <= 0, so both are set exactly.
    Real p in the band |p| < 2 is the limit from above: there t = 4/p^2
    takes F's 1/t route with a -0.0 imaginary part.
    """
    left = p.real < 0.0
    mirror = lower != left
    p2 = p * p
    ratio = d / p2
    t = 4.0 / p2
    folded = ratio.real + 1j * np.abs(ratio.imag)
    aa, bb = _two_petal_parameters(family)

    def finish(hyp):
        power = _power(folded, family.alpha / math.pi)
        out = (np.abs(p.real) + 1j * np.abs(p.imag)) * power * hyp
        out = np.where(mirror, np.conj(out), out)
        return np.where(left, -out, out)

    return (aa, bb, 0.5, np.conj(t.real + 1j * np.abs(t.imag)), folded), finish


def _sheet_p(w: np.ndarray):
    """`_two_petal_request`'s p, d and lower for sheet points w, with d from (w - 1)(w + 1)/w."""
    d = (w - 1.0) * (w + 1.0) / w
    return w + 1.0 / w, d * d, w.imag < 0.0


def _two_petal_values(family: MapFamily, w: np.ndarray) -> np.ndarray:
    """Evaluate on the sheet through p = w + 1/w, reflecting Im w < 0."""
    request, finish = _two_petal_request(family, *_sheet_p(w))
    return finish(hyp2f1_values(*request))


def _partner_derivatives(family: MapFamily, w: np.ndarray):
    """(h, h') of the map continued across the unit circle, a second oscillator solution.

    For one petal h(w) = f(1/w), the closed form.  For two petals t = 4/p^2
    crosses F's cut at t > 1, where (DLMF 15.2.3) the continuation is
    e^{-2i alpha} (f + 2 pi i K J), K = Gamma(c) / (Gamma(a) Gamma(b)
    Gamma(c-a-b+1)), J = p X^(alpha/pi) (-X)^(c-a-b) F(c-a, c-b; c-a-b+1; X)
    and X = 1 - t.  A multiple of f or a constant phase leaves the
    Wronskian's modulus unchanged, so h = 2 pi |K| J, analytic where t lies
    in the lower half plane (the first quadrant off the axes).  h' takes
    d/dX F = ((c-a)(c-b)/(c-a-b+1)) F(c-a+1, c-b+1; c-a-b+2; X) (DLMF 15.5.1)
    and dX/dw = 8 p'/p^3, p' = 1 - 1/w^2.
    """
    if family.kind == "one-petal":
        h, f_prime, _ = _one_petal_derivatives(family, 1.0 / w)
        return h, -f_prime / (w * w)
    a, b = _two_petal_parameters(family)
    cab = 0.5 - a - b  # c - a - b with c = 1/2
    mu = family.alpha / math.pi
    scale = 2.0 * math.pi * abs(_gamma_quotient((0.5,), (a, b, cab + 1.0)))
    p = w + 1.0 / w
    d = (w - 1.0) * (w + 1.0) / w
    dp = d / w  # p' = 1 - 1/w^2
    x = d * d / (p * p)  # 1 - t, kept factored like the map's
    t = 4.0 / (p * p)  # 1 - x
    dx = 8.0 * dp / (p * p * p)
    # the two functions' series are summed in one loop
    hyp, slope = _hyp2f1_batch([(0.5 - a, 0.5 - b, cab + 1.0, x, t), (1.5 - a, 1.5 - b, cab + 2.0, x, t)])
    slope = (0.5 - a) * (0.5 - b) / (cab + 1.0) * slope
    outer = scale * p * _power(x, mu) * _power(-x, cab)
    h = outer * hyp
    return h, h * (dp / p + (mu + cab) * dx / x) + outer * slope * dx


# ---------------------------------------------------------------------------
# generic evaluation and derivatives


def evaluate_map(family: MapFamily, w):
    """Normalized map of the family on the sheet |w| >= 1."""
    pts, shape, scalar = _as_points(w)
    _check_sheet(family, pts)
    vals = _values_on_sheet(family, pts)
    return complex(vals[0]) if scalar else vals.reshape(shape)


def _values_on_sheet(family: MapFamily, pts: np.ndarray) -> np.ndarray:
    if family.kind == "one-petal":
        return _one_petal_values(family, pts)
    return _two_petal_values(family, pts)


def _arc_derivatives(family: MapFamily, pts: np.ndarray):
    """(f, f', f'') at 1-d points by arc-direction finite differences with extrapolation.

    Stencil points w e^{is} keep |w| fixed, so a stencil centered on an
    evaluable ring never leaves it.  The step h is ``FD_STEP_FRACTION`` of
    the distance to the nearest corner pre-image, at most ``FD_MAX_STEP``.
    Three Richardson levels on the 4-point (resp. 5-point) central rule
    leave an O(h^8) truncation error.

    The rows are the arc offsets -2, -1, -1/2, -1/4, 1/4, 1/2, 1, 2 (times
    h) and the centre, so level k (step h / 2^k) reads rows k, k + 1,
    6 - k and 7 - k, and each rule is one expression over the three levels.
    The rows of ``ARC_BLOCK // 9`` centres go to `_values_on_sheet` as one
    array of at most ``ARC_BLOCK`` points, so a scalar derivative costs one
    map call and an n-point ring ceil(9 n / ARC_BLOCK).  The centre row is
    ``pts`` itself: pts e^{0i} could flip the sign of a zero component.
    """
    h = np.minimum(FD_MAX_STEP, FD_STEP_FRACTION * np.min(_corner_gaps(family, pts), axis=1))
    scales = np.array([[-2.0], [-1.0], [-0.5], [-0.25], [0.25], [0.5], [1.0], [2.0]])
    rows = np.append(pts * np.exp(1j * (scales * h)), pts[None], axis=0)
    values = np.empty(rows.shape, dtype=complex)
    width = ARC_BLOCK // len(rows)
    for lo in range(0, pts.size, width):
        block = rows[:, lo : lo + width]
        values[:, lo : lo + width] = _values_on_sheet(family, block.ravel()).reshape(block.shape)
    lo2, lo1, hi1, hi2, g_0 = values[0:3], values[1:4], values[6:3:-1], values[7:4:-1], values[8]
    step = np.array([[1.0], [0.5], [0.25]]) * h
    first = _richardson3(*((lo2 - 8.0 * lo1 + 8.0 * hi1 - hi2) / (12.0 * step)))
    second = _richardson3(*((-lo2 + 16.0 * lo1 - 30.0 * g_0 + 16.0 * hi1 - hi2) / (12.0 * step * step)))
    iw = 1j * pts
    f_prime = first / iw
    f_second = (-second + 1j * first) / (pts * pts)
    return g_0, f_prime, f_second


def _lockstep_values(jobs) -> list:
    """`evaluate_map` at the points of each (family, points) job, all of one kind, in few series loops.

    Every job's points are sheet-checked first.  One-petal jobs then take
    the closed form.  Two-petal jobs are packed, consecutive ones together,
    into groups of at most ``ARC_BLOCK`` points (a larger job goes alone),
    and each group's requests go to one `_hyp2f1_batch`: one series loop per
    group, built and evaluated one group at a time.  Every value keeps the
    bits of `evaluate_map` at its point.
    """
    groups, size = [], 0
    for family, points in jobs:
        _check_sheet(family, points)
        if not groups or size + points.size > ARC_BLOCK:
            groups.append([])
            size = 0
        groups[-1].append((family, points))
        size += points.size
    if jobs and jobs[0][0].kind == "one-petal":
        return [_one_petal_values(family, points) for family, points in jobs]
    out = []
    for group in groups:
        steps = [_two_petal_request(family, *_sheet_p(points)) for family, points in group]
        values = _hyp2f1_batch([request for request, _ in steps])
        out.extend(finish(hyp) for (_, finish), hyp in zip(steps, values))
    return out


def _richardson3(coarse, mid, fine):
    # successive O(h^4) -> O(h^6) -> O(h^8) eliminations for step halving
    level1 = (16.0 * mid - coarse) / 15.0
    level2 = (16.0 * fine - mid) / 15.0
    return (64.0 * level2 - level1) / 63.0


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
    """Newton inversion of the scaled map; returns the pre-image w.

    Newton starts from z / r, moved out to radius 1.2 if it lies inside the
    unit circle.  An iterate that steps inside the unit circle is mirrored
    to 1/conj(w), so every iterate, and the root returned, lies on the sheet
    |w| >= 1.
    Each step makes one `_tangential_derivatives` call (one arc stencil for
    two petals): its value serves the convergence test and its f' the step.
    """
    r = state.r if state is not None else 1.0
    target = complex(z) / r
    w = target
    if abs(w) < 1.0:
        w = 1.5 + 0.5j if w == 0.0 else 1.2 * w / abs(w)
    tol = NEWTON_TOL * (1.0 + abs(z))
    for _ in range(NEWTON_MAX_ITER):
        try:
            try:
                values, derivs, _ = _tangential_derivatives(family, np.array([w]))
            except MapDomainError:
                # a stencil point can leave the evaluable region while the
                # centre converges; the centre's own error comes first
                if abs(evaluate_map(family, w) * r - complex(z)) <= tol:
                    return w
                raise
            val, deriv = complex(values[0]), complex(derivs[0])
            if abs(val * r - complex(z)) <= tol:
                return w
        except MapDomainError as exc:
            raise InversionError("iteration left the evaluable region: %s" % exc, root=w) from exc
        if deriv == 0.0:
            raise InversionError("stationary point reached", root=w)
        w = w - (val - target) / deriv
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
    """Rational potential of the self-similar oscillator equation, also inside the unit circle."""
    pts, shape, scalar = _as_points(w)
    _check_regular(family, pts)
    frac_a = family.alpha / math.pi
    w2 = pts * pts
    vals = 16.0 * frac_a * (1.0 - frac_a) * w2 / (w2 - 1.0) ** 2
    if family.kind == "two-petal":
        frac_b = family.beta / math.pi
        vals = vals - 8.0 * frac_b * (1.0 - 2.0 * frac_b) * w2 / (w2 + 1.0) ** 2
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
    """
    if n < 16 or n % 4 != 0:
        raise ValueError("n must be a multiple of 4, at least 16")
    if state is None:
        state = TimeState(1.0, 1.0)
    phis = _circle_angles(n)
    ring = np.exp(1j * phis)
    (values,) = _unfold_quadrant(_values_on_sheet(family, ring[: n // 4]))
    return BoundaryTrace(phis, state.r * values)


def laurent_coefficients(family: MapFamily) -> LaurentCoefficients:
    """Expansion data at infinity from 256-point circle averages at radius 2.5.

    The sampling circle stays well away from the corners, so truncation
    aliasing of the coefficients through 1/w^16 is below double rounding.
    The map is evaluated on the first quadrant, 64 points, and unfolded
    onto all 256 (`_unfold_quadrant`).
    """
    radius = 2.5
    phis = _circle_angles(256)
    ring = np.exp(1j * phis)
    (vals,) = _unfold_quadrant(_values_on_sheet(family, radius * ring[:64]))

    lead = np.mean(vals * np.exp(-1j * phis)) / radius
    conformal_radius = float(lead.real)
    k = np.arange(17)
    coefficients = (np.mean(vals * np.exp(1j * k[:, None] * phis), axis=1) * radius**k).real
    # composing with the inverse of z = r w + r c1 / w + ... gives the
    # half-plane capacity r (r - c1) as the 1/z coefficient
    capacity = conformal_radius * (conformal_radius - coefficients[1])
    return LaurentCoefficients(conformal_radius, coefficients, capacity)

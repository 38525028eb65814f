"""Residual checks, conserved quantities, and pattern diagnostics.

Most checks here are cross-examinations: values produced by the closed-form
maps are pushed through an independent route (the governing oscillator
equation, the boundary dynamical identity, a Cauchy integral, a 2-D moment
integral) and the mismatch is reported as a residual that the caller
compares against a pinned tolerance.  One battery check is not:
`darcy_mismatch` is `dynamical_residual`'s defect over |w - 1/w|.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .maps import (
    BoundaryTrace,
    MapFamily,
    TimeState,
    _circle_angles,
    _laurent_data,
    _laurent_ring,
    _one_petal_bracket,
    _samples,
    _tangential_derivatives,
    _two_petal_parameters,
    _unfold_quadrant,
    evaluate_map,
    potential_V,
)
from .numerics import (
    fit_power_law,
    gauss_legendre_unit,
    singular_endpoint_quadrature,
    winding_number,
)

RING_ODE = 1.5               # sampling ring for the oscillator residual
CONFORMAL_RING_EPS = 1e-3
WINDING_SPLIT = 8            # equal steps a winding round splits a step next to a wide vertex into
CORNER_FIT_RANGE = (1e-11, 1e-10)
CORNER_FIT_POINTS = 12
WIDTH_DEGENERATE_FRACTION = 1e-3
MOMENT_MIN_INDEX = 2
INTERIOR_MARGIN = 0.02       # Cauchy samples stay this fraction of diameter off the curve
ORIGIN_MARGIN = 0.02         # raw traces keep this fraction of their scale clear of the origin
# Wronskian probes rho e^{i theta}, theta-major: a first-quadrant wedge clear
# of the corners, the only region where the partner's branches are checked
WRONSKIAN_THETAS = np.linspace(0.35, 1.15, 4)
WRONSKIAN_RHOS = np.array([1.7, 2.1])
# integral-identity probes: 12 on the real axis, 8 scattered off it
INTEGRAL_PROBES = np.concatenate(
    [
        np.linspace(1.05, 5.0, 12).astype(complex),
        [
            1.3 * cmath.exp(0.4j),
            1.6 * cmath.exp(1.1j),
            2.2 * cmath.exp(0.8j),
            3.0 * cmath.exp(2.3j),
            1.4 * cmath.exp(-0.7j),
            2.6 * cmath.exp(-1.9j),
            1.9 * cmath.exp(2.9j),
            4.1 * cmath.exp(-2.5j),
        ],
    ]
)

DEFAULT_TOLERANCES = {
    "ode_residual": 1e-7,
    "ratio_spread": 1e-6,
    "dynamical_residual": 1e-7,
    "darcy_mismatch": 1e-6,
    "conformality": 0.0,
    "corner_exponent_base": 0.02,
    "corner_exponent_top": 0.02,
    "integral_equation": 1e-6,
    "capacity_sign": 0.0,
}


class VerificationError(RuntimeError):
    """A check could not be carried out (as opposed to failing its bound)."""


class DegenerateTraceError(ValueError):
    """Trace touches the origin; its harmonic moments are ill-defined."""


@dataclass(frozen=True)
class RatioEstimate:
    """Conserved-ratio estimate with its relative spread across probes."""

    value: float
    spread: float
    samples: np.ndarray


@dataclass(frozen=True)
class MFunctionSample:
    point: complex
    value: complex
    side: str


@dataclass(frozen=True)
class CheckResult:
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    family_label: str
    checks: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tolerance: float, detail: str = ""):
        self.checks[name] = CheckResult(
            float(residual), float(tolerance), bool(residual <= tolerance), detail
        )

    def add_error(self, name: str, tolerance: float, message: str):
        self.checks[name] = CheckResult(
            math.inf, float(tolerance), False, "error: %s" % message
        )

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def has_errors(self) -> bool:
        return any(c.detail.startswith("error:") for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "family": self.family_label,
            "all_passed": self.all_passed,
            "checks": {
                name: {
                    # a check that could not run has no residual, and an
                    # inf tolerance switches a check off; JSON has no inf
                    "residual": c.residual if math.isfinite(c.residual) else None,
                    "tolerance": c.tolerance if math.isfinite(c.tolerance) else None,
                    "pass": c.passed,
                    "detail": c.detail,
                }
                for name, c in self.checks.items()
            },
        }


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    beta: float
    winding: int | None
    conformal: bool | None
    degenerate: bool | None
    error: str | None = None


# ---------------------------------------------------------------------------
# oscillator equation


def ode_residual(family: MapFamily) -> float:
    """Worst normalized residual of the self-similar oscillator equation at 64 ring points.

    f, f' and f'' are evaluated at the ring's 16 first-quadrant points and
    unfolded onto all 64 by symmetry (`_unfold_quadrant`).
    """
    return _ode_defect(family, _tangential_derivatives(family, _ode_ring()[:16]))


def _ode_ring() -> np.ndarray:
    return RING_ODE * np.exp(1j * _circle_angles(64))


def _ode_defect(family: MapFamily, quarters) -> float:
    """`ode_residual` from f, f' and f'' at the first 16 points of `_ode_ring`."""
    pts = _ode_ring()
    f, fp, fpp = _unfold_quadrant(*quarters)
    v = potential_V(family, pts)
    lhs = pts * pts * fpp - (2.0 * pts / (pts * pts - 1.0)) * fp + v * f
    return float(np.max(np.abs(lhs) / (1.0 + np.abs(v * f))))


# ---------------------------------------------------------------------------
# conserved ratio via the Wronskian of the solution basis


def estimate_A(family: MapFamily) -> RatioEstimate:
    """Conserved ratio from the Wronskian of the two oscillator solutions.

    The Wronskian combination w (f' h - f h') of the map with its partner
    equals the ratio times |w - 1/w| in modulus at every off-axis probe;
    agreement across probes is the self-consistency measure.  A collapsed
    pattern, F's a or b zero to within the rounding of their computation
    (a = -5.6e-17 at (3 pi/36, 15 pi/36)), has a partner that is a multiple
    of the map and no ratio, and raises `VerificationError`.  f, f' and the
    partner's h, h' at the probes come from one `_samples` call, for two
    petals one 2F1 batch.
    """
    _reject_collapsed(family)
    w = _wronskian_probes()
    return _ratio_estimate(w, *_samples([(family, w, "derivatives"), (family, w, "partner")]))


def _collapsed(family: MapFamily) -> bool:
    return family.kind == "two-petal" and min(map(abs, _two_petal_parameters(family.alpha, family.beta))) <= 4.0 * math.ulp(1.0)


def _reject_collapsed(family: MapFamily):
    if _collapsed(family):
        raise VerificationError(
            "%s is a collapsed pattern (beta = alpha or alpha + beta = pi/2): "
            "the map's continuation across the unit circle is a multiple of the "
            "map, so the Wronskian ratio is undefined" % family.label()
        )


def _wronskian_probes() -> np.ndarray:
    return (WRONSKIAN_RHOS[None, :] * np.exp(1j * WRONSKIAN_THETAS)[:, None]).ravel()


def _ratio_estimate(w: np.ndarray, derivatives, partner) -> RatioEstimate:
    """`estimate_A` of a family that is not collapsed, from f and f', and the partner's h and h', at the probes w."""
    f, fp, _ = derivatives
    h, hp = partner
    samples = np.abs(w * (fp * h - f * hp)) / np.abs(w - 1.0 / w)
    mean = float(np.mean(samples))
    spread = float((np.max(samples) - np.min(samples)) / mean)
    return RatioEstimate(mean, spread, samples)


# ---------------------------------------------------------------------------
# boundary identities


def dynamical_residual(family: MapFamily) -> float:
    """Worst mismatch of the boundary evolution identity, per unit scale.

    The ratio is `estimate_A`'s.  The identity is taken at 128 points of
    the unit circle, whose f and f' are evaluated at the 32 first-quadrant
    ones and unfolded by symmetry (`_unfold_quadrant`).  Both sides grow
    linearly with the scale factor, so the residual is reported for the
    normalized map; it is invariant under time scaling.
    """
    return _dynamical_defect(estimate_A(family).value, _tangential_derivatives(family, _unit_ring(128)[:32]))


def _unit_ring(n: int) -> np.ndarray:
    return np.exp(1j * _circle_angles(n))


def _dynamical_defect(ratio: float, quarters) -> float:
    """`dynamical_residual` from f and f' at the first 32 points of the 128-point unit ring."""
    ring = _unit_ring(128)
    f, fp, _ = _unfold_quadrant(*quarters)
    lhs = (2.0 / ratio) * np.real(ring * fp * np.conj(f))
    rhs = np.abs(ring - 1.0 / ring)
    return float(np.max(np.abs(lhs - rhs)))


def darcy_check(family: MapFamily) -> float:
    """Relative mismatch of kinematic and Darcy normal velocities at 256 boundary points.

    Pointwise it is `dynamical_residual`'s defect over |w - 1/w| (5e-14 apart): no new evidence.
    The ratio is `estimate_A`'s; f and f' are evaluated at the 64
    first-quadrant points and unfolded (`_unfold_quadrant`).
    """
    return _darcy_defect(estimate_A(family).value, _tangential_derivatives(family, _unit_ring(256)[:64]))


def _darcy_defect(ratio: float, quarters) -> float:
    """`darcy_check` from f and f' at the first 64 points of the 256-point unit ring."""
    ring = _unit_ring(256)
    f, fp, _ = _unfold_quadrant(*quarters)
    speed = np.abs(fp)
    v_kinematic = np.imag(np.conj(f) * 1j * ring * fp) / (ratio * speed)
    v_darcy = np.abs(1.0 - 1.0 / (ring * ring)) / (2.0 * speed)
    return float(np.max(np.abs(v_kinematic - v_darcy) / v_darcy))


# ---------------------------------------------------------------------------
# conformality


def conformality_check(family: MapFamily):
    """Count zeros of f' outside the unit circle by its winding on a tight ring.

    Returns (winding, ok); the map is locally invertible on the exterior iff
    the winding vanishes.  Both map families are odd and real on the real
    axis, so f'(-w) = f'(w) and f'(conj w) = conj f'(w): the ring
    |w| = e^eps is four mirror images of its quadrant arg w in [0, pi/2],
    each turning arg f' by the same amount, and f' is real at both ends of
    the quadrant, where it meets the axes.  The quadrant's turn is thus a
    whole multiple of pi and a quarter of the ring's, so the winding is
    2 round(turn / pi).  Along w = R e^{i phi} the image's tangent is
    df/dphi = i w f', so arg f' = arg(df/dphi) - phi - pi/2: the turn of
    arg f' is that of the image polygon f(arc), less the pi/2 that phi
    turns, and the count needs map values only.  The arc starts from
    angles graded toward the corner pre-images (`_conformality_arc`) and is
    refined until the polygon turns by at most pi/4 at each vertex
    (`_winding`), so the summed turns cannot alias.  A refined step is
    split into WINDING_SPLIT equal steps, so the collapsed
    (5 pi/36, 5 pi/36) takes 3 values calls (109 points).  An arc that
    cannot be resolved raises `VerificationError`.
    """
    phis, points = _conformality_arc(family.kind)
    (((winding, ok),), _) = _winding([(family, phis, *_samples([(family, points, "values")]))])
    return winding, ok


def _conformality_arc(kind: str):
    """Angles in [0, pi/2], ends included, graded toward the corners, and their points on |w| = e^eps.

    The corner pre-images after arg w = 0 sit at pi/2 (two petals) or at pi
    (one petal).  At angular distance d from the nearest corner the spacing
    is at most min(max(d, eps)/4, 0.05): uniform within eps of a corner,
    geometric with ratio 5/4 out to d = 0.2, uniform beyond.  The arc from
    0 to the next corner is filled from both ends, the offsets shrunk to
    meet at its midpoint, so its points are symmetric about that midpoint;
    with the next corner at pi the quadrant ends at that midpoint.  The arc
    depends on the family's ``kind`` alone.
    """
    gap = 0.5 * math.pi if kind == "two-petal" else math.pi
    offsets = [0.0]
    while offsets[-1] < 0.5 * gap:
        offsets.append(offsets[-1] + min(0.25 * max(offsets[-1], CONFORMAL_RING_EPS), 0.05))
    phis = np.array(offsets) * (0.5 * gap / offsets[-1])
    phis[-1] = 0.5 * gap
    if kind == "two-petal":
        phis = np.concatenate([phis, gap - phis[-2::-1]])
    return phis, math.exp(CONFORMAL_RING_EPS) * np.exp(1j * phis)


def _winding(nodes, jobs=()):
    """`conformality_check` for each (family, `_conformality_arc` angles, map values at their points), in lockstep.

    The families are all of one kind.  The chords C_k = f(w_{k+1}) - f(w_k)
    of the image polygon are extended at each end by the chord the mirror
    image of the quadrant meets: -conj C_0 across the real axis and
    conj C_last across the imaginary one.  The polygon's exterior angles
    then sum to the quadrant's turn of arg(df/dphi), with half of each end
    vertex's angle, whose other half is the mirror's; less the pi/2 that
    phi turns, that is the turn of arg f'.  Both steps next to a vertex
    whose angle exceeds pi/4 (the one step next to an end vertex) are split
    into WINDING_SPLIT equal steps, all of whose new points join the
    polygon, until no vertex turns that far.  Raises `VerificationError`
    when a chord nearly vanishes against the arc's step, |C| / dphi below
    1e-9 of the first round's median, or a step next to a vertex that still
    turns too far is too short to split in floating point: either way a
    zero of f' lies within rounding of the ring.

    A round makes one `_samples` call, one values job per node still
    refining.  ``jobs``, values jobs of the nodes' kind, ride at the head
    of the first call (alone if no node refines).  Returns the (winding,
    ok) of each node and the values of ``jobs``.
    """
    arcs = [[family, phis, values] for family, phis, values in nodes]
    scales = [float(np.median(np.abs(np.diff(values)) / np.diff(phis))) for _, phis, values in nodes]
    out = [None] * len(nodes)
    fractions = np.arange(1, WINDING_SPLIT) / WINDING_SPLIT
    jobs, riders = list(jobs), []
    while True:
        splits = []
        for k, (family, phis, values) in enumerate(arcs):
            if out[k] is not None:
                continue
            chords = np.diff(values)
            if not (scales[k] > 0.0 and float(np.min(np.abs(chords) / np.diff(phis))) >= 1e-9 * scales[k]):
                raise VerificationError("derivative winding could not be resolved")
            ends = np.concatenate([-np.conj(chords[:1]), chords, np.conj(chords[-1:])])
            turns = np.angle(ends[1:] / ends[:-1])
            wide = np.abs(turns) > 0.25 * math.pi
            if not wide.any():
                turn = float(np.sum(turns)) - 0.5 * float(turns[0] + turns[-1])
                winding = 2 * int(round(turn / math.pi - 0.5))
                out[k] = (winding, winding == 0)
                continue
            # step j joins vertices j and j + 1
            steps = np.flatnonzero(wide[:-1] | wide[1:])
            lo, hi = phis[steps, None], phis[steps + 1, None]
            angles = lo + (hi - lo) * fractions
            if np.any(np.diff(np.hstack([lo, angles, hi])) <= 0.0):
                raise VerificationError("derivative winding could not be resolved")
            splits.append((k, np.repeat(steps + 1, WINDING_SPLIT - 1), angles.ravel()))
        if splits or jobs:
            ring = math.exp(CONFORMAL_RING_EPS)
            got = _samples(jobs + [(arcs[k][0], ring * np.exp(1j * angles), "values") for k, _, angles in splits])
            riders += got[: len(jobs)]
            got, jobs = got[len(jobs) :], []
        if not splits:
            return out, riders
        for (k, at, angles), new in zip(splits, got):
            family, phis, values = arcs[k]
            arcs[k] = [family, np.insert(phis, at, angles), np.insert(values, at, new)]


# ---------------------------------------------------------------------------
# corner exponents


def corner_exponent(family: MapFamily, corner: complex):
    """Power-law fit of |f| along the circle approaching a corner pre-image."""
    corner = complex(corner)
    if corner not in family.corner_preimages:
        raise ValueError("%r is not a corner pre-image of %s" % (corner, family.label()))
    d, pts = _corner_arc(corner)
    return fit_power_law(d, np.abs(evaluate_map(family, pts)))


def _corner_arc(corner: complex):
    """Distances d along the unit circle from ``corner`` and the points there."""
    d = np.geomspace(CORNER_FIT_RANGE[0], CORNER_FIT_RANGE[1], CORNER_FIT_POINTS)
    return d, np.exp(1j * (cmath.phase(corner) + d))


# ---------------------------------------------------------------------------
# one-petal integral identity


def integral_equation_residual(family: MapFamily) -> float:
    """Worst defect of the singular integral identity for the petal profile.

    The profile g satisfies g(w) = 1 + coeff * I(w) with I the inverse-slit
    integral and coeff proportional to the sine of pi times the corner
    offset; at the symmetric family the coefficient vanishes identically and
    the residual is exactly zero.  The integral over x in (0, 1) is taken in
    s = 1 - x, so the distance to the singular end x = 1 is exact: in x the
    quadrature node next to it would round to 1 for g near -1/2.
    """
    if family.kind != "one-petal":
        raise ValueError("the integral identity applies to one-petal families")
    g = family.gamma
    coeff = -2.0 * math.sin(math.pi * g) / math.pi
    w = INTEGRAL_PROBES[:, None]

    def integrand(s):
        # at a = x = 1 - s the bracket is the profile at 1/x, the same for every probe
        return _one_petal_bracket(g, s, 2.0 - s) / ((1.0 - s) ** 2 - w * w)

    values = _one_petal_bracket(g, 1.0 - 1.0 / INTEGRAL_PROBES, 1.0 + 1.0 / INTEGRAL_PROBES)
    integrals = singular_endpoint_quadrature(integrand, (0.0, 1.0), (g, 0.0), n=220)
    return float(np.max(np.abs(values - 1.0 + coeff * integrals)))


# ---------------------------------------------------------------------------
# Cauchy transform of the imaginary part


@functools.cache
def _cauchy_ring() -> np.ndarray:
    """The 16384 nodes e^{i phi} of `m_plus_samples`' trapezoid sum, built once per process."""
    ring = np.exp(1j * _circle_angles(16384))
    ring.flags.writeable = False
    return ring


def m_plus_samples(family: MapFamily, state: TimeState, zs):
    """Cauchy transform of |Im| over the pattern boundary at interior points.

    The pattern at scale r = T/A is r f, so M_T(z) = r M_1(z / r): each
    point z is screened and summed at zeta = z / r against the normalized
    boundary f, and the sum is scaled by r once.  A zeta that is not finite
    is not inside the pattern; a value r M_1 past the float range raises.
    The boundary integral is a 16384-node trapezoid sum on a ring built once
    per process (`_cauchy_ring`).  f and f' are evaluated at its 4096
    first-quadrant nodes and unfolded onto the rest by symmetry
    (`_unfold_quadrant`); the sum runs over all 16384, and everything but
    f - zeta is computed once per call, not once per point.  The margin
    and winding screens read the polygon of those nodes with the origin
    inserted at each corner: every corner pre-image maps to the origin, and
    next to w = +-i the nodes stay far from it, so without it the polygon
    would close the fluid wedge between two petals with a chord.
    """
    ring = _cauchy_ring()
    f, fp = _unfold_quadrant(*_tangential_derivatives(family, ring[:4096])[:2])
    dz_dphi = fp * 1j * ring
    abs_im = np.abs(f.imag)
    width = float(np.max(f.real) - np.min(f.real))
    height = float(np.max(f.imag) - np.min(f.imag))
    diameter = max(width, height)
    weight = 2.0 * math.pi / len(f)
    # the corner pre-images are k equally spaced points from w = 1, so the
    # nodes j n/k - 1 and j n/k straddle the j-th (the n-th is node 0)
    k = len(family.corner_preimages)
    polygon = np.insert(f, np.arange(1, k + 1) * (len(f) // k), 0.0)
    out = []
    for z in np.atleast_1d(np.asarray(zs, dtype=complex)):
        z = complex(z)
        zeta = z / state.r
        if not cmath.isfinite(zeta):
            raise ValueError("sample point %r is not inside the pattern" % (z,))
        rel = f - zeta
        # the polygon's nodes are f's and the origin
        if min(float(np.min(np.abs(rel))), abs(zeta)) < INTERIOR_MARGIN * diameter:
            raise ValueError("sample point %r too close to the boundary" % (z,))
        if winding_number(polygon, zeta) != 1:
            raise ValueError("sample point %r is not inside the pattern" % (z,))
        value = state.r * complex(np.sum(abs_im / rel * dz_dphi) * weight / (1j * math.pi))
        if not cmath.isfinite(value):
            raise ValueError("the Cauchy sum at %r lies outside the float range" % (z,))
        side = "upper" if z.imag > 0.0 else "lower"
        out.append(MFunctionSample(z, value, side))
    return out


# ---------------------------------------------------------------------------
# harmonic moments


def _reject_degenerate(points: np.ndarray):
    """Refuse traces whose exterior region reaches the origin.

    The moments integrate z**(-k) over the region complementary to the
    pattern in the upper half plane, so they exist only when the pattern
    covers a neighborhood of the origin from above, the way a fat slit with
    anchors x- < 0 < x+ does.  A pattern pinched at the origin leaves
    exterior wedges there and its moments diverge.  No segment of the closed
    trace may come within R = ORIGIN_MARGIN * scale of the origin (nearest
    point of each segment by clipped projection; a repeated sample is a
    segment of length zero, at its point's distance).  The disk |z| <= R
    then lies in one complementary component, so one winding count about
    the origin decides for all of it: zero is the exterior.
    """
    scale = float(np.max(np.abs(points)))
    if scale <= 0.0:
        raise DegenerateTraceError("trace collapses to the origin")
    steps = np.roll(points, -1) - points
    square = np.abs(steps) ** 2
    # each segment's parameter of the point nearest the origin, unclipped
    along = np.divide(-np.real(np.conj(steps) * points), square, out=np.zeros(len(points)), where=square > 0.0)
    nearest = float(np.min(np.abs(points + np.clip(along, 0.0, 1.0) * steps)))
    # with the disk clear, the origin cannot touch the polyline for winding_number
    if nearest <= ORIGIN_MARGIN * scale or winding_number(points, 0.0) == 0:
        raise DegenerateTraceError(
            "trace must keep %g of its scale clear of the origin and wind around it, "
            "or its exterior may reach the origin, where the moments are ill-defined" % ORIGIN_MARGIN
        )


@dataclass(frozen=True)
class _ScreenedTrace:
    """Trace points that `_screened_points` has already found admissible.

    Each moment route's k-independent geometry is built on first use and
    kept with the trace, so every moment of one screened trace shares it.
    """

    points: np.ndarray

    @functools.cached_property
    def contour_route(self):
        """(|Im|, midpoints, steps) of the trace's closing polygon."""
        nxt = np.roll(self.points, -1)
        mids = 0.5 * (self.points + nxt)
        return np.abs(mids.imag), mids, nxt - self.points

    @functools.cached_property
    def area_route(self):
        """(angles, rho at them, weights) of the 512-node Gauss rule on (0, pi), or the message refusing the trace."""
        upper = self.points[self.points.imag > 0.0]
        if len(upper) < 8:
            return "trace has too few upper-half samples"
        theta = np.angle(upper)
        # angle steps in trace order, across the wrap: a fold adds sign changes
        steps = np.diff(theta, append=theta[0])
        turns = np.sign(steps[steps != 0.0])
        theta, first = np.unique(theta, return_index=True)
        rho = np.abs(upper)[first]
        if len(theta) < 8 or np.count_nonzero(turns != np.roll(turns, 1)) > 2:
            return "trace is not star-shaped about the origin"
        u, du = gauss_legendre_unit(512)
        th = math.pi * u
        return th, np.interp(th, theta, rho, left=rho[0], right=rho[-1]), du


def _screened_points(trace) -> _ScreenedTrace:
    """The trace's points as a `_ScreenedTrace`, rejected if their moments are ill-defined.

    This is the one gate for moment inputs: a family's `BoundaryTrace`
    (self-similar, so hanging at the origin), a trace that is not a finite
    1-d array of at least 16 points, and one whose exterior reaches the
    origin are refused here.  A trace screened before passes through as it
    is, so a caller that takes several moments of one trace screens it once.
    """
    if isinstance(trace, _ScreenedTrace):
        return trace
    if isinstance(trace, BoundaryTrace):
        # every family trace has both slit anchors at the origin
        raise DegenerateTraceError(
            "self-similar pattern hangs at the origin (x- = x+ = 0); "
            "its moments are ill-defined"
        )
    points = np.asarray(trace, dtype=complex)
    if points.ndim != 1 or len(points) < 16:
        raise ValueError("trace must be a 1-d array of at least 16 points")
    if not np.all(np.isfinite(points)):
        raise ValueError("trace points must be finite")
    _reject_degenerate(points)
    return _ScreenedTrace(points)


def harmonic_moment(trace, k: int) -> complex:
    """Exterior harmonic moment from the boundary line integral."""
    if k < MOMENT_MIN_INDEX:
        raise ValueError("moment index must be >= %d" % MOMENT_MIN_INDEX)
    abs_im, mids, steps = _screened_points(trace).contour_route
    # the screen keeps every midpoint off the origin, so z**-k is finite
    # unless it overflows
    with np.errstate(over="ignore", invalid="ignore"):
        integrand = abs_im * mids ** (-k)
        return _finite_moment(complex(np.sum(integrand * steps) / (1j * math.pi * k)), k)


def harmonic_moment_area(trace, k: int) -> complex:
    """Same moment from the complementary-region area integral.

    The region outside the pattern in the upper half plane is described in
    polar form r > rho(theta), so the trace must be star-shaped about the
    origin: in trace order, the angles of its upper samples turn one way,
    but for the one step that closes the loop.  The radial integral of
    r**(1 - k) over r > rho is rho**(2 - k)/(k - 2), or -log rho at k = 2,
    whose logarithmic horizon term integrates to zero over (0, pi); the
    angular one takes 512 Gauss nodes.  The angles, rho at them and the
    weights are built once per screened trace and reused for every k, and
    so is a refusal: a trace that fails the screens fails every call.
    """
    if k < MOMENT_MIN_INDEX:
        raise ValueError("moment index must be >= %d" % MOMENT_MIN_INDEX)
    route = _screened_points(trace).area_route
    if isinstance(route, str):
        raise ValueError(route)
    th, rho_th, du = route
    with np.errstate(over="ignore", invalid="ignore"):
        radial = -np.log(rho_th) if k == 2 else rho_th ** (2 - k) / (k - 2)
        return _finite_moment(complex(-2.0 * np.sum(np.sin(k * th) * radial * du) / k), k)


def _finite_moment(value: complex, k: int) -> complex:
    """A moment's value, refused when it lies outside the float range (a trace close to the origin, k large)."""
    if not cmath.isfinite(value):
        raise ValueError("moment T%d lies outside the float range" % k)
    return value


# ---------------------------------------------------------------------------
# parameter sweep


def _ray_distance(z: np.ndarray, angle: float) -> np.ndarray:
    rot = z * cmath.exp(-1j * angle)
    return np.where(rot.real >= 0.0, np.abs(rot.imag), np.abs(z))


def petal_width(family: MapFamily) -> float:
    """Largest distance from the first-quadrant boundary arc to its corner rays.

    The arc is sampled at the 128 first-quadrant angles of the 512-point
    half-offset grid.  The two-petal pattern collapses onto the slit through
    angle alpha when beta reaches alpha, so this width is the degeneracy
    measure.
    """
    return _width(family, evaluate_map(family, _width_arc()))


def _width_arc() -> np.ndarray:
    return np.exp(1j * _circle_angles(512)[:128])


def _width(family: MapFamily, pts: np.ndarray) -> float:
    """The width from the map's values at points of `_width_arc`: all of them give `petal_width`, fewer a lower bound."""
    distance = _ray_distance(pts, family.alpha)
    if family.kind == "two-petal":
        distance = np.minimum(distance, _ray_distance(pts, 0.5 * math.pi - family.beta))
    return float(np.max(distance))


def sweep(alphas, betas) -> tuple[SweepRow, ...]:
    """Conformality and degeneracy classification over a parameter grid.

    One `SweepRow` per node, alpha-major, all the nodes in one lockstep
    (`_sweep_rows`).  A node's degenerate flag is `petal_width`'s, exactly:
    an 8-point probe of the width arc that reaches WIDTH_DEGENERATE_FRACTION
    settles it, since the width is a maximum over the arc, and a node the
    probe leaves below takes the whole arc.  A node settled by its probe
    never evaluates the arc's other points, so an error there would not
    show in its row.  The whole arcs ride in the first refinement call.  A
    node that cannot be evaluated comes back with
    winding/conformal/degenerate set to None and its error as "Type: message".
    """
    return tuple(_sweep_rows([(float(alpha), float(beta)) for alpha in alphas for beta in betas]))


def _sweep_rows(nodes) -> list:
    """The `SweepRow`s of (alpha, beta) nodes, all in one lockstep.

    A node counts its winding as `conformality_check` does and is degenerate
    when its `petal_width` is below WIDTH_DEGENERATE_FRACTION, with the bits
    of those calls.  The first `_samples` call takes every node's
    first arc followed by a probe of 8 of the width arc's 128 points, and
    a node whose probe reaches the threshold is not degenerate: the width
    is a maximum over the arc's points, at least the probe's, and every
    lockstep value has `evaluate_map`'s bits.  Only the nodes the probe
    leaves below it (on the default grid the 33 collapsed ones, alpha =
    beta or alpha + beta = pi/2) take the full width arc, as jobs at the
    head of `_winding`'s first call, and their flag is `petal_width`'s.  A
    node settled by its probe never evaluates its other 120 width points,
    so an error there would not show in its row; in 3000 random families
    (alpha and beta uniform in [0.005, pi/2 - 0.005]) no width-arc point
    raised.  `_winding` refines all the nodes' arcs together, at most one
    call a round.  Each call packs its jobs into groups of at most
    ``maps.ARC_BLOCK`` map points, 22 first-round nodes a group, and each
    group is one 2F1 batch with one route pick and one series loop, so the
    default grid takes 3 calls and 19 loops, 0.07 a node, against 2.79 for
    the calls one by one.

    If a call of several nodes raises, its nodes are split in halves and
    each half runs in lockstep again, so the other nodes keep their rows and
    one bad node among n costs about 2 log2(n) more lockstep runs; a single
    node that raises, its `MapFamily` included, gets the error row.
    """
    try:
        families = [MapFamily.two_petal(*node) for node in nodes]
        phis, points = _conformality_arc("two-petal")
        width = _width_arc()
        job = np.append(points, width[8::16])
        first = _samples([(family, job, "values") for family in families])
        degenerate = [
            _width(family, values[phis.size :]) < WIDTH_DEGENERATE_FRACTION for family, values in zip(families, first)
        ]
        open_nodes = [k for k, flag in enumerate(degenerate) if flag]
        # copies, and rebinding, free the probe values before the refinement rounds
        first = [(family, phis, values[: phis.size].copy()) for family, values in zip(families, first)]
        windings, full = _winding(first, [(families[k], width, "values") for k in open_nodes])
        for k, values in zip(open_nodes, full):
            degenerate[k] = _width(families[k], values) < WIDTH_DEGENERATE_FRACTION
    except Exception as exc:  # noqa: BLE001 - sweep must keep going
        if len(nodes) > 1:
            half = len(nodes) // 2
            return _sweep_rows(nodes[:half]) + _sweep_rows(nodes[half:])
        return [SweepRow(*nodes[0], None, None, None, "%s: %s" % (type(exc).__name__, exc))]
    return [SweepRow(*node, *winding, flag) for node, winding, flag in zip(nodes, windings, degenerate)]


# ---------------------------------------------------------------------------
# bundled report


def _evaluated_once(family: MapFamily, samples: dict):
    """Lookup by key of the battery's fixed samples, from one `maps._samples` call on all of them.

    ``samples`` maps each key to (points, what), one `_samples` job of
    ``family``: "derivatives" gives (f, f', f''), "values" f and "partner"
    (h, h').  The call takes one job per key, in key order, so a key reads
    its own job's result, whose bits are those of its lone call.  If the
    call raises, each key is evaluated alone when it is read, as its own
    `_samples` job, whose error is the one its public check raises, so the
    error is charged to the checks that read it, as if the checks had run
    one by one.
    """
    jobs = {key: (family, points, what) for key, (points, what) in samples.items()}
    try:
        return dict(zip(jobs, _samples(list(jobs.values())))).__getitem__
    except Exception:  # noqa: BLE001 - each reader raises its own error
        return lambda key: _samples([jobs[key]])[0]


def run_standard_checks(family: MapFamily, tolerances: dict | None = None) -> VerificationReport:
    """Run the family-appropriate checks and collect them into a report.

    Each result has the bits of the public check called alone, but the
    checks' fixed samples are evaluated together (`_evaluated_once`), one
    `maps._samples` job per key: the four derivative rings, the first
    conformality arc, the corner fits' points, the Laurent ring and, unless
    the family is collapsed, the Wronskian partner.  Two petals take them
    from one 2F1 batch, one petal from the closed forms.  Each check name
    maps to a callable that returns (residual, detail); one that raises is
    recorded as that check's error, not raised, and the other checks still
    run.  The three growth checks share one Wronskian ratio, so its error
    is each one's.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError("unknown tolerance overrides: %s" % sorted(unknown))
        tol.update(tolerances)

    corners = {"corner_exponent_base": (_corner_arc(1.0 + 0.0j), 2.0 * family.alpha / math.pi)}
    if family.kind == "two-petal":
        # two_petal(alpha, beta) is two_petal(alpha, pi/2 - beta), so the
        # leading local exponent at w = i is the smaller of delta and 1 - delta
        corners["corner_exponent_top"] = (_corner_arc(1.0j), min(family.delta, 1.0 - family.delta))
    arc_phis, arc_points = _conformality_arc(family.kind)
    probes = _wronskian_probes()
    samples = {
        "ode": (_ode_ring()[:16], "derivatives"),
        "wronskian": (probes, "derivatives"),
        "dynamical": (_unit_ring(128)[:32], "derivatives"),
        "darcy": (_unit_ring(256)[:64], "derivatives"),
        "conformality": (arc_points, "values"),
        **{name: (points, "values") for name, ((_, points), _) in corners.items()},
        "laurent": (_laurent_ring(), "values"),
    }
    # a collapsed family has no partner, and its ratio raises before reading one
    if not _collapsed(family):
        samples["partner"] = (probes, "partner")
    sample = _evaluated_once(family, samples)

    @functools.cache
    def ratio():
        _reject_collapsed(family)
        return _ratio_estimate(probes, sample("wronskian"), sample("partner"))

    def conformality():
        (((winding, _ok),), _) = _winding([(family, arc_phis, sample("conformality"))])
        return abs(winding), "winding=%d" % winding

    def corner_fit(name, d, target):
        fit = fit_power_law(d, np.abs(sample(name)))
        return abs(fit.exponent - target) / target, "fit=%.6f target=%.6f" % (fit.exponent, target)

    def capacity():
        value = _laurent_data(sample("laurent")).capacity
        return max(0.0, -value), "capacity=%.12g" % value

    checks = {
        "ode_residual": lambda: (_ode_defect(family, sample("ode")), ""),
        "ratio_spread": lambda: (ratio().spread, "A=%.12g" % ratio().value),
        "dynamical_residual": lambda: (_dynamical_defect(ratio().value, sample("dynamical")), ""),
        "darcy_mismatch": lambda: (_darcy_defect(ratio().value, sample("darcy")), ""),
        "conformality": conformality,
        **{name: functools.partial(corner_fit, name, d, target) for name, ((d, _), target) in corners.items()},
    }
    if family.kind == "one-petal":
        checks["integral_equation"] = lambda: (integral_equation_residual(family), "")
    checks["capacity_sign"] = capacity
    report = VerificationReport(family.label())
    for name, check in checks.items():
        try:
            residual, detail = check()
        except Exception as exc:  # noqa: BLE001 - a crashing check is recorded, not raised
            report.add_error(name, tol[name], str(exc))
        else:
            report.add(name, residual, tol[name], detail=detail)
    return report

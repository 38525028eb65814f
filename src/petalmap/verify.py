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
import math
from dataclasses import dataclass, field

import numpy as np

from .maps import (
    BoundaryTrace,
    MapFamily,
    TimeState,
    _circle_angles,
    _lockstep_derivatives,
    _one_petal_bracket,
    _partner_derivatives,
    _tangential_derivatives,
    _two_petal_parameters,
    _unfold_quadrant,
    evaluate_map,
    laurent_coefficients,
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
CORNER_FIT_RANGE = (1e-6, 1e-3)
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
                    # a check that could not run has no residual; JSON has no inf
                    "residual": c.residual if math.isfinite(c.residual) else None,
                    "tolerance": c.tolerance,
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
    of the map and no ratio, and raises `VerificationError`.
    """
    _reject_collapsed(family)
    return _ratio_estimate(family, _tangential_derivatives(family, _wronskian_probes()))


def _reject_collapsed(family: MapFamily):
    if family.kind == "two-petal" and min(map(abs, _two_petal_parameters(family))) <= 4.0 * math.ulp(1.0):
        raise VerificationError(
            "%s is a collapsed pattern (beta = alpha or alpha + beta = pi/2): "
            "the map's continuation across the unit circle is a multiple of the "
            "map, so the Wronskian ratio is undefined" % family.label()
        )


def _wronskian_probes() -> np.ndarray:
    return (WRONSKIAN_RHOS[None, :] * np.exp(1j * WRONSKIAN_THETAS)[:, None]).ravel()


def _ratio_estimate(family: MapFamily, derivatives) -> RatioEstimate:
    """`estimate_A` of a family that is not collapsed, from f and f' at `_wronskian_probes`."""
    w = _wronskian_probes()
    f, fp, _ = derivatives
    h, hp = _partner_derivatives(family, w)
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
    2 round(turn / pi).  The arc starts from angles graded toward the
    corner pre-images (`_conformality_arc`) and is bisected until arg f'
    turns by at most pi/4 between neighbours (`_winding`), so the summed
    turns cannot alias.  An arc that cannot be resolved raises
    `VerificationError`.
    """
    phis, points = _conformality_arc(family)
    # points[:0]: no points to take values at
    ((f_prime, _),) = _lockstep_derivatives([(family, points, points[:0])])
    ((winding, ok),) = _winding([(family, phis, f_prime)])
    return winding, ok


def _conformality_arc(family: MapFamily):
    """Angles in [0, pi/2], ends included, graded toward the corners, and their points on |w| = e^eps.

    The corner pre-images after arg w = 0 sit at pi/2 (two petals) or at pi
    (one petal).  At angular distance d from the nearest corner the spacing
    is at most min(max(d, eps)/4, 0.05): uniform within eps of a corner,
    geometric with ratio 5/4 out to d = 0.2, uniform beyond.  The arc from
    0 to the next corner is filled from both ends, the offsets shrunk to
    meet at its midpoint, so its points are symmetric about that midpoint;
    with the next corner at pi the quadrant ends at that midpoint.
    """
    gap = 0.5 * math.pi if family.kind == "two-petal" else math.pi
    offsets = [0.0]
    while offsets[-1] < 0.5 * gap:
        offsets.append(offsets[-1] + min(0.25 * max(offsets[-1], CONFORMAL_RING_EPS), 0.05))
    phis = np.array(offsets) * (0.5 * gap / offsets[-1])
    phis[-1] = 0.5 * gap
    if family.kind == "two-petal":
        phis = np.concatenate([phis, gap - phis[-2::-1]])
    return phis, math.exp(CONFORMAL_RING_EPS) * np.exp(1j * phis)


def _winding(nodes) -> list:
    """`conformality_check` for each (family, `_conformality_arc` angles, f' at their points), in lockstep.

    The families are all of one kind.  Every step whose turn of arg f'
    exceeds pi/4 is bisected until none does.  A round takes f' at the
    midpoints of all nodes still refining from one `_lockstep_derivatives`
    call.  Raises `VerificationError` when f' nearly vanishes on an arc, or
    a step that still turns too far is too short to split in floating
    point: either way a zero of f' lies within rounding of the ring.
    """
    arcs = [[family, phis, fp, fp] for family, phis, fp in nodes]
    scales = [float(np.median(np.abs(fp))) for _, _, fp in nodes]
    ring = math.exp(CONFORMAL_RING_EPS)
    out = [None] * len(nodes)
    while True:
        asks = []
        for k, (family, phis, fp, new) in enumerate(arcs):
            if out[k] is not None:
                continue
            if not (scales[k] > 0.0 and float(np.min(np.abs(new))) >= 1e-9 * scales[k]):
                raise VerificationError("derivative winding could not be resolved")
            turns = np.angle(fp[1:] / fp[:-1])
            wide = np.flatnonzero(np.abs(turns) > 0.25 * math.pi)
            if wide.size == 0:
                winding = 2 * int(round(float(np.sum(turns)) / math.pi))
                out[k] = (winding, winding == 0)
                continue
            lo, hi = phis[wide], phis[wide + 1]
            mids = 0.5 * (lo + hi)
            if np.any((mids <= lo) | (mids >= hi)):
                raise VerificationError("derivative winding could not be resolved")
            asks.append((k, wide, mids))
        if not asks:
            return out
        # mids[:0]: no points to take values at
        news = _lockstep_derivatives([(arcs[k][0], ring * np.exp(1j * mids), mids[:0]) for k, _, mids in asks])
        for (k, wide, mids), (new, _) in zip(asks, news):
            family, phis, fp, _ = arcs[k]
            arcs[k] = [family, np.insert(phis, wide + 1, mids), np.insert(fp, wide + 1, new), new]


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


def m_plus_samples(family: MapFamily, state: TimeState, zs):
    """Cauchy transform of |Im| over the pattern boundary at interior points.

    The boundary integral is a 16384-node trapezoid sum.  f and f' are
    evaluated at its 4096 first-quadrant nodes and unfolded onto the rest by
    symmetry (`_unfold_quadrant`); the sum runs over all 16384.
    """
    ring = np.exp(1j * _circle_angles(16384))
    f, fp, _ = _unfold_quadrant(*_tangential_derivatives(family, ring[:4096]))
    points = state.r * f
    dz_dphi = state.r * fp * 1j * ring
    width = float(np.max(points.real) - np.min(points.real))
    height = float(np.max(points.imag) - np.min(points.imag))
    diameter = max(width, height)
    weight = 2.0 * math.pi / len(points)
    out = []
    for z in np.atleast_1d(np.asarray(zs, dtype=complex)):
        z = complex(z)
        rel = points - z
        if float(np.min(np.abs(rel))) < INTERIOR_MARGIN * diameter:
            raise ValueError("sample point %r too close to the boundary" % (z,))
        if winding_number(points, z) != 1:
            raise ValueError("sample point %r is not inside the pattern" % (z,))
        value = complex(np.sum(np.abs(points.imag) / rel * dz_dphi) * weight / (1j * math.pi))
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
    """Trace points that `_screened_points` has already found admissible."""

    points: np.ndarray


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
    points = _screened_points(trace).points
    nxt = np.roll(points, -1)
    mids = 0.5 * (points + nxt)
    steps = nxt - points
    # the screen keeps every midpoint off the origin, so z**-k is finite
    integrand = np.abs(mids.imag) * mids ** (-k)
    return complex(np.sum(integrand * steps) / (1j * math.pi * k))


def harmonic_moment_area(trace, k: int) -> complex:
    """Same moment from the complementary-region area integral.

    The region outside the pattern in the upper half plane is described in
    polar form r > rho(theta), so the trace must be star-shaped about the
    origin: in trace order, the angles of its upper samples turn one way,
    but for the one step that closes the loop.  The radial integral of
    r**(1 - k) over r > rho is rho**(2 - k)/(k - 2), or -log rho at k = 2,
    whose logarithmic horizon term integrates to zero over (0, pi); the
    angular one takes 512 Gauss nodes.
    """
    if k < MOMENT_MIN_INDEX:
        raise ValueError("moment index must be >= %d" % MOMENT_MIN_INDEX)
    points = _screened_points(trace).points
    upper = points[points.imag > 0.0]
    if len(upper) < 8:
        raise ValueError("trace has too few upper-half samples")
    theta = np.angle(upper)
    # angle steps in trace order, across the wrap: a fold adds sign changes
    steps = np.diff(theta, append=theta[0])
    turns = np.sign(steps[steps != 0.0])
    theta, first = np.unique(theta, return_index=True)
    rho = np.abs(upper)[first]
    if len(theta) < 8 or np.count_nonzero(turns != np.roll(turns, 1)) > 2:
        raise ValueError("trace is not star-shaped about the origin")

    u, du = gauss_legendre_unit(512)
    th = math.pi * u
    rho_th = np.interp(th, theta, rho, left=rho[0], right=rho[-1])
    radial = -np.log(rho_th) if k == 2 else rho_th ** (2 - k) / (k - 2)
    return complex(-2.0 * np.sum(np.sin(k * th) * radial * du) / k)


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
    """`petal_width` from the map's values at the points of `_width_arc`."""
    d_base = _ray_distance(pts, family.alpha)
    if family.kind == "two-petal":
        d_top = _ray_distance(pts, 0.5 * math.pi - family.beta)
    else:
        d_top = np.full(pts.shape, np.inf)
    return float(np.max(np.minimum(d_base, d_top)))


def sweep(alphas, betas) -> tuple[SweepRow, ...]:
    """Conformality and degeneracy classification over a parameter grid.

    One `SweepRow` per node, alpha-major, all the nodes in one lockstep
    (`_sweep_rows`).  A node that cannot be evaluated comes back with
    winding/conformal/degenerate set to None and its error as "Type: message".
    """
    return tuple(_sweep_rows([(float(alpha), float(beta)) for alpha in alphas for beta in betas]))


def _sweep_rows(nodes) -> list:
    """The `SweepRow`s of (alpha, beta) nodes, all in one lockstep.

    A node counts its winding as `conformality_check` does and is degenerate
    when its `petal_width` is below WIDTH_DEGENERATE_FRACTION, with the bits
    of those calls.  The first `_lockstep_derivatives` call takes every
    node's first arc stencil and width arc, whose values are reduced to the
    node's degenerate flag at once; `_winding` then bisects all the nodes'
    arcs together, one call a round.  Each call packs its jobs into series
    loops of at most ``maps.ARC_BLOCK`` map points, so a default-grid node
    costs 0.53 loops against 3.67 for the calls one by one.

    If a call of several nodes raises, each node runs alone, at the cost of
    the shared loops, so the other nodes keep their rows; a single node that
    raises, its `MapFamily` included, gets the error row.
    """
    try:
        families = [MapFamily.two_petal(*node) for node in nodes]
        arcs = [_conformality_arc(family) for family in families]
        first = _lockstep_derivatives([(family, points, _width_arc()) for family, (_, points) in zip(families, arcs)])
        degenerate = [
            _width(family, values) < WIDTH_DEGENERATE_FRACTION for family, (_, values) in zip(families, first)
        ]
        # rebinding frees the width values before the bisection rounds
        first = [(family, phis, fp) for family, (phis, _), (fp, _) in zip(families, arcs, first)]
        windings = _winding(first)
    except Exception as exc:  # noqa: BLE001 - sweep must keep going
        if len(nodes) > 1:
            return [row for node in nodes for row in _sweep_rows([node])]
        return [SweepRow(*nodes[0], None, None, None, "%s: %s" % (type(exc).__name__, exc))]
    return [SweepRow(*node, *winding, flag) for node, winding, flag in zip(nodes, windings, degenerate)]


# ---------------------------------------------------------------------------
# bundled report


def _evaluated_once(evaluate, samples: dict):
    """Lookup of ``evaluate(samples[key])`` by key, from one ``evaluate`` call on all samples.

    ``evaluate`` maps a 1-d point array to a tuple of arrays, point by point
    and with each point's bits independent of its batch, so a key's slices
    are the bits of its own call.  If the merged call raises, each key is
    evaluated alone when it is read, so the error is charged to the check
    that reads it, as if the checks had run one by one.
    """
    try:
        merged = evaluate(np.concatenate(list(samples.values())))
    except Exception:  # noqa: BLE001 - each reader raises its own error
        return lambda key: evaluate(samples[key])
    ends = dict(zip(samples, np.cumsum([len(points) for points in samples.values()])))
    return lambda key: tuple(part[ends[key] - len(samples[key]) : ends[key]] for part in merged)


def run_standard_checks(family: MapFamily, tolerances: dict | None = None) -> VerificationReport:
    """Run the family-appropriate checks and collect them into a report.

    Each result has the bits of the public check called alone, but the
    checks' fixed samples are evaluated together (`_evaluated_once`): one
    derivative call for the rings and the first conformality arc, one value
    call for the corner fits.  Each stage yields (name, residual, detail)
    for the names it owes; a stage that raises is recorded against each of
    its names not yet reported, not raised.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError("unknown tolerance overrides: %s" % sorted(unknown))
        tol.update(tolerances)

    corners = {"corner_exponent_base": (1.0 + 0.0j, 2.0 * family.alpha / math.pi)}
    if family.kind == "two-petal":
        # two_petal(alpha, beta) is two_petal(alpha, pi/2 - beta), so the
        # leading local exponent at w = i is the smaller of delta and 1 - delta
        corners["corner_exponent_top"] = (1.0j, min(family.delta, 1.0 - family.delta))
    corner_arcs = {name: _corner_arc(corner) for name, (corner, _) in corners.items()}
    arc_phis, arc_points = _conformality_arc(family)
    derivatives = _evaluated_once(
        lambda points: _tangential_derivatives(family, points),
        {
            "ode": _ode_ring()[:16],
            "wronskian": _wronskian_probes(),
            "dynamical": _unit_ring(128)[:32],
            "darcy": _unit_ring(256)[:64],
            "conformality": arc_points,
        },
    )
    values = _evaluated_once(
        lambda points: (evaluate_map(family, points),),
        {name: points for name, (_, points) in corner_arcs.items()},
    )

    def ode():
        yield "ode_residual", _ode_defect(family, derivatives("ode")), ""

    def growth():
        _reject_collapsed(family)
        ratio = _ratio_estimate(family, derivatives("wronskian"))
        yield "ratio_spread", ratio.spread, "A=%.12g" % ratio.value
        yield "dynamical_residual", _dynamical_defect(ratio.value, derivatives("dynamical")), ""
        yield "darcy_mismatch", _darcy_defect(ratio.value, derivatives("darcy")), ""

    def conformality():
        ((winding, _ok),) = _winding([(family, arc_phis, derivatives("conformality")[1])])
        yield "conformality", abs(winding), "winding=%d" % winding

    def corner_fits():
        for name, (_, target) in corners.items():
            (vals,) = values(name)
            fit = fit_power_law(corner_arcs[name][0], np.abs(vals))
            yield name, abs(fit.exponent - target) / target, "fit=%.6f target=%.6f" % (fit.exponent, target)

    def integral():
        yield "integral_equation", integral_equation_residual(family), ""

    def capacity():
        value = laurent_coefficients(family).capacity
        yield "capacity_sign", max(0.0, -value), "capacity=%.12g" % value

    stages = [
        (("ode_residual",), ode),
        (("ratio_spread", "dynamical_residual", "darcy_mismatch"), growth),
        (("conformality",), conformality),
        (tuple(corners), corner_fits),
    ]
    if family.kind == "one-petal":
        stages.append((("integral_equation",), integral))
    stages.append((("capacity_sign",), capacity))
    report = VerificationReport(family.label())
    for names, results in stages:
        try:
            for name, residual, detail in results():
                report.add(name, residual, tol[name], detail=detail)
        except Exception as exc:  # noqa: BLE001 - a crashing check is recorded, not raised
            for name in names:
                if name not in report.checks:
                    report.add_error(name, tol[name], str(exc))
    return report

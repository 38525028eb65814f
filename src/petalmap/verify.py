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
    _graded_angles,
    _one_petal_bracket,
    _partner_derivatives,
    _tangential_derivatives,
    _two_petal_parameters,
    _unfold_quadrant,
    _values_on_sheet,
    laurent_coefficients,
    map_derivative,
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
PROBE_RADIUS_FRACTION = 0.02  # origin probe ring radius relative to the trace scale
PROBE_ANGLES = 17             # upper half-ring probes, 10 degrees apart
INTERIOR_MARGIN = 0.02       # Cauchy samples stay this fraction of diameter off the curve
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


@dataclass(frozen=True)
class SweepResult:
    alphas: np.ndarray
    betas: np.ndarray
    rows: tuple


# ---------------------------------------------------------------------------
# oscillator equation


def ode_residual(family: MapFamily) -> float:
    """Worst normalized residual of the self-similar oscillator equation at 64 ring points.

    f, f' and f'' are evaluated at the ring's 16 first-quadrant points and
    unfolded onto all 64 by symmetry (`_unfold_quadrant`).
    """
    pts = RING_ODE * np.exp(1j * _circle_angles(64))
    f, fp, fpp = _unfold_quadrant(64, *_tangential_derivatives(family, pts[:16]))
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
    if family.kind == "two-petal" and min(map(abs, _two_petal_parameters(family))) <= 4.0 * math.ulp(1.0):
        raise VerificationError(
            "%s is a collapsed pattern (beta = alpha or alpha + beta = pi/2): "
            "the map's continuation across the unit circle is a multiple of the "
            "map, so the Wronskian ratio is undefined" % family.label()
        )
    w = (WRONSKIAN_RHOS[None, :] * np.exp(1j * WRONSKIAN_THETAS)[:, None]).ravel()
    f, fp, _ = _tangential_derivatives(family, w)
    h, hp = _partner_derivatives(family, w)
    samples = np.abs(w * (fp * h - f * hp)) / np.abs(w - 1.0 / w)
    mean = float(np.mean(samples))
    spread = float((np.max(samples) - np.min(samples)) / mean)
    return RatioEstimate(mean, spread, samples)


# ---------------------------------------------------------------------------
# boundary identities


def dynamical_residual(family: MapFamily, ratio: float | None = None) -> float:
    """Worst mismatch of the boundary evolution identity, per unit scale.

    It is taken at 128 points of the unit circle, whose f and f' are
    evaluated at the 32 first-quadrant ones and unfolded by symmetry
    (`_unfold_quadrant`).  Both sides grow linearly with the scale factor,
    so the residual is reported for the normalized map; it is invariant
    under time scaling.
    """
    if ratio is None:
        ratio = estimate_A(family).value
    ring = np.exp(1j * _circle_angles(128))
    f, fp, _ = _unfold_quadrant(128, *_tangential_derivatives(family, ring[:32]))
    lhs = (2.0 / ratio) * np.real(ring * fp * np.conj(f))
    rhs = np.abs(ring - 1.0 / ring)
    return float(np.max(np.abs(lhs - rhs)))


def darcy_check(family: MapFamily, ratio: float | None = None) -> float:
    """Relative mismatch of kinematic and Darcy normal velocities at 256 boundary points.

    Pointwise it is `dynamical_residual`'s defect over |w - 1/w| (5e-14 apart): no new evidence.
    f and f' are evaluated at the 64 first-quadrant points and unfolded
    (`_unfold_quadrant`).
    """
    if ratio is None:
        ratio = estimate_A(family).value
    ring = np.exp(1j * _circle_angles(256))
    f, fp, _ = _unfold_quadrant(256, *_tangential_derivatives(family, ring[:64]))
    speed = np.abs(fp)
    v_kinematic = np.imag(np.conj(f) * 1j * ring * fp) / (ratio * speed)
    v_darcy = np.abs(1.0 - 1.0 / (ring * ring)) / (2.0 * speed)
    return float(np.max(np.abs(v_kinematic - v_darcy) / v_darcy))


# ---------------------------------------------------------------------------
# conformality


def _ring_turns(family: MapFamily, radius: float, phis: np.ndarray):
    """Turns of arg f' between neighbours on the arc radius e^{i phi}, none above pi/4.

    ``phis`` increase along an open arc.  Every step whose turn exceeds
    pi/4 is bisected, one `map_derivative` call per round of midpoints,
    until none does.  Returns None when the arc cannot be resolved: f'
    nearly vanishes on it, or a step that still turns too far is too short
    to split in floating point.
    """
    fp = map_derivative(family, radius * np.exp(1j * phis))
    scale = float(np.median(np.abs(fp)))
    new = fp
    while True:
        if not (scale > 0.0 and float(np.min(np.abs(new))) >= 1e-9 * scale):
            return None
        turns = np.angle(fp[1:] / fp[:-1])
        wide = np.flatnonzero(np.abs(turns) > 0.25 * math.pi)
        if wide.size == 0:
            return turns
        lo = phis[wide]
        hi = phis[wide + 1]
        mids = 0.5 * (lo + hi)
        if np.any((mids <= lo) | (mids >= hi)):
            return None
        new = map_derivative(family, radius * np.exp(1j * mids))
        phis = np.insert(phis, wide + 1, mids)
        fp = np.insert(fp, wide + 1, new)


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
    corner pre-images and is bisected until arg f' turns by at most pi/4
    between neighbours (`_ring_turns`), so the summed turns cannot alias.
    The corner pre-images sit exactly on |w| = 1; an arc that cannot be
    resolved is pushed out once before giving up.
    """
    corners = np.angle(np.array(family.corner_preimages))
    for ring_eps in (CONFORMAL_RING_EPS, 2.0 * CONFORMAL_RING_EPS):
        turns = _ring_turns(family, math.exp(ring_eps), _graded_angles(corners, ring_eps))
        if turns is not None:
            winding = 2 * int(round(float(np.sum(turns)) / math.pi))
            return winding, winding == 0
    raise VerificationError("derivative winding could not be resolved")


# ---------------------------------------------------------------------------
# corner exponents


def corner_exponent(family: MapFamily, corner: complex):
    """Power-law fit of |f| along the circle approaching a corner pre-image."""
    corner = complex(corner)
    if corner not in family.corner_preimages:
        raise ValueError("%r is not a corner pre-image of %s" % (corner, family.label()))
    theta_c = cmath.phase(corner)
    d = np.geomspace(CORNER_FIT_RANGE[0], CORNER_FIT_RANGE[1], CORNER_FIT_POINTS)
    pts = np.exp(1j * (theta_c + d))
    vals = np.abs(_values_on_sheet(family, pts))
    return fit_power_law(d, vals)


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
    f, fp, _ = _unfold_quadrant(16384, *_tangential_derivatives(family, ring[:4096]))
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


def m_plus_time_derivative(family: MapFamily, state: TimeState, z) -> complex:
    """Central difference of the Cauchy transform in the growth time, step 1e-3 T."""
    h = 1e-3 * state.T
    (m_hi,) = m_plus_samples(family, TimeState(state.T + h, state.A), [z])
    (m_lo,) = m_plus_samples(family, TimeState(state.T - h, state.A), [z])
    return (m_hi.value - m_lo.value) / (2.0 * h)


# ---------------------------------------------------------------------------
# harmonic moments


def _reject_degenerate(points: np.ndarray):
    """Refuse traces whose exterior region reaches the origin.

    The moments integrate z**(-k) over the region complementary to the
    pattern in the upper half plane, so they exist only when the pattern
    covers a neighborhood of the origin from above, the way a fat slit with
    anchors x- < 0 < x+ does.  A pattern pinched at the origin leaves
    exterior wedges there and its moments diverge.  Probe points on a small
    upper half ring decide between the two by winding number.
    """
    mags = np.abs(points)
    scale = float(np.max(mags))
    if scale <= 0.0:
        raise DegenerateTraceError("trace collapses to the origin")
    radius = PROBE_RADIUS_FRACTION * scale
    thetas = np.linspace(math.pi / 18.0, math.pi * 17.0 / 18.0, PROBE_ANGLES)
    decided = False
    for theta in thetas:
        probe = radius * cmath.exp(1j * theta)
        try:
            turns = winding_number(points, probe)
        except ValueError:
            continue  # probe sits on the trace itself; neighbors decide
        decided = True
        if turns == 0:
            raise DegenerateTraceError(
                "exterior region reaches the origin (open at angle %.0f deg); "
                "the moments of such a domain are ill-defined" % math.degrees(theta)
            )
    if not decided:
        raise DegenerateTraceError("trace overruns the origin probe ring")


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
    # |Im z| vanishes on the real axis, killing the z**-k blowup there
    integrand = np.zeros_like(mids)
    live = mids.imag != 0.0
    integrand[live] = np.abs(mids[live].imag) * mids[live] ** (-k)
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
    order = np.argsort(theta)
    theta = theta[order]
    rho = np.abs(upper)[order]
    if np.any(np.diff(theta) <= 0.0):
        keep = np.concatenate([[True], np.diff(theta) > 0.0])
        theta, rho = theta[keep], rho[keep]
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
    pts = _values_on_sheet(family, np.exp(1j * _circle_angles(512)[:128]))
    d_base = _ray_distance(pts, family.alpha)
    if family.kind == "two-petal":
        d_top = _ray_distance(pts, 0.5 * math.pi - family.beta)
    else:
        d_top = np.full(pts.shape, np.inf)
    return float(np.max(np.minimum(d_base, d_top)))


def sweep(alphas, betas) -> SweepResult:
    """Conformality and degeneracy classification over a parameter grid.

    Each node counts the winding with `conformality_check`, as the battery
    does, and is degenerate when its `petal_width` is below
    WIDTH_DEGENERATE_FRACTION.

    Nodes that cannot be evaluated record their failure and the sweep moves
    on; they come back with winding/conformal/degenerate set to None.
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    rows = []
    for alpha in alphas:
        for beta in betas:
            try:
                family = MapFamily.two_petal(alpha, beta)
                winding, ok = conformality_check(family)
                width = petal_width(family)
                degenerate = width < WIDTH_DEGENERATE_FRACTION
                rows.append(SweepRow(float(alpha), float(beta), winding, ok, degenerate))
            except Exception as exc:  # noqa: BLE001 - sweep must keep going
                reason = "%s: %s" % (type(exc).__name__, exc)
                rows.append(SweepRow(float(alpha), float(beta), None, None, None, reason))
    return SweepResult(alphas, betas, tuple(rows))


# ---------------------------------------------------------------------------
# bundled report


def run_standard_checks(family: MapFamily, tolerances: dict | None = None) -> VerificationReport:
    """Run the family-appropriate checks and collect them into a report."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ValueError("unknown tolerance overrides: %s" % sorted(unknown))
        tol.update(tolerances)
    report = VerificationReport(family.label())

    def stage(names, body):
        # a crashing check is recorded against every name it owes, not raised
        try:
            body()
        except Exception as exc:  # noqa: BLE001
            for name in names:
                if name not in report.checks:
                    report.add_error(name, tol[name], str(exc))

    def check_ode():
        report.add("ode_residual", ode_residual(family), tol["ode_residual"])

    def check_growth():
        ratio = estimate_A(family)
        report.add(
            "ratio_spread",
            ratio.spread,
            tol["ratio_spread"],
            detail="A=%.12g" % ratio.value,
        )
        report.add(
            "dynamical_residual", dynamical_residual(family, ratio.value), tol["dynamical_residual"]
        )
        report.add("darcy_mismatch", darcy_check(family, ratio.value), tol["darcy_mismatch"])

    def check_conformality():
        winding, _ok = conformality_check(family)
        report.add("conformality", abs(winding), tol["conformality"], detail="winding=%d" % winding)

    corners = [("corner_exponent_base", 1.0 + 0.0j, 2.0 * family.alpha / math.pi)]
    if family.kind == "two-petal":
        corners.append(("corner_exponent_top", 1.0j, family.delta))

    def check_corners():
        for name, corner, target in corners:
            fit = corner_exponent(family, corner)
            report.add(
                name,
                abs(fit.exponent - target) / target,
                tol[name],
                detail="fit=%.6f target=%.6f" % (fit.exponent, target),
            )

    def check_integral():
        report.add("integral_equation", integral_equation_residual(family), tol["integral_equation"])

    def check_laurent():
        coeffs = laurent_coefficients(family)
        report.add(
            "capacity_sign",
            max(0.0, -coeffs.capacity),
            tol["capacity_sign"],
            detail="capacity=%.12g" % coeffs.capacity,
        )

    stage(("ode_residual",), check_ode)
    stage(("ratio_spread", "dynamical_residual", "darcy_mismatch"), check_growth)
    stage(("conformality",), check_conformality)
    stage([name for name, _, _ in corners], check_corners)
    if family.kind == "one-petal":
        stage(("integral_equation",), check_integral)
    stage(("capacity_sign",), check_laurent)
    return report

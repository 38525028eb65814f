"""Acceptance battery for the self-similar growth families.

Eleven criteria, one per test, each printing a single PASS or FAIL line.
Tolerances are the frozen contract for this package; loosening them is a
bug, not a fix.
"""

import cmath
import math

import numpy as np
import pytest

from petalmap import (
    DegenerateTraceError,
    MapFamily,
    TimeState,
    boundary_trace,
    conformality_check,
    corner_exponent,
    darcy_check,
    dynamical_residual,
    estimate_A,
    evaluate_map,
    harmonic_moment,
    harmonic_moment_area,
    integral_equation_residual,
    laurent_coefficients,
    m_plus_samples,
    map_derivative,
    ode_residual,
    sweep,
)
from petalmap.special_functions import hyp2f1_values

LEMNISCATE_TOL = 1e-10
IDENTITY_TOL = 1e-12
ODE_TOL = 1e-7
DYNAMICAL_TOL = 1e-7
SPREAD_TOL = 1e-6
RATIO_TOL = 1e-8
DARCY_TOL = 1e-6
TOP_SPEED_TOL = 1e-8
CORNER_REL_TOL = 0.02
INTEGRAL_TOL = 1e-6
M_PLUS_TOL = 1e-3
MOMENT_TOL = 1e-4
MOMENT_EVEN_TOL = 1e-10
LAURENT_TOL = 1e-10

LEMNISCATE = MapFamily.one_petal(math.pi / 4.0)

# nine base angles spanning the open one-petal range, via gamma = 2a/pi - 1/2
ODE_GAMMAS = np.linspace(-0.44, 0.44, 9)
CONFORMAL_GAMMAS = np.linspace(-0.48, 0.48, 9)

# six admissible two-petal pairs: two per region of the parameter wedge,
# covering both the generic continuation and the elementary alpha = pi/4 path
TWO_PETAL_PAIRS = (
    (math.pi / 8, math.pi / 16),
    (math.pi / 8, math.pi / 32),
    (math.pi / 4, math.pi / 8),
    (math.pi / 4, math.pi / 16),
    (5 * math.pi / 16, math.pi / 16),
    (3 * math.pi / 8, math.pi / 32),
)

GRID_STEP = math.pi / 36.0

# T3 of the upper half-disk, done by hand in polar coordinates
HALF_DISK_T3 = -4.0 / (9.0 * math.pi)


def one_petal_from_gamma(gamma: float) -> MapFamily:
    return MapFamily.one_petal((gamma + 0.5) * math.pi / 2.0)


def sampled_families():
    families = [one_petal_from_gamma(g) for g in ODE_GAMMAS]
    families += [MapFamily.two_petal(a, b) for a, b in TWO_PETAL_PAIRS]
    return families


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = "%s  criterion %02d  %s" % ("PASS" if ok else "FAIL", num, label)
    if detail:
        line += "  (%s)" % detail
    print(line)


def test_criterion_01_lemniscate_identity():
    trace = boundary_trace(LEMNISCATE, n=2048)
    x, y = trace.points.real, trace.points.imag
    residual = np.max(np.abs((x * x + y * y) ** 2 - 2.0 * (y * y - x * x)))
    ok = residual <= LEMNISCATE_TOL
    report(1, "lemniscate boundary identity", ok, "max residual %.3e" % residual)
    assert ok


def test_criterion_02_elementary_hypergeometric_identity():
    rng = np.random.default_rng(73)
    gammas = rng.uniform(-0.5, 0.5, size=1000)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size=1000))
    zs = radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=1000))
    worst = 0.0
    for g, z in zip(gammas, zs):
        lhs = complex(hyp2f1_values(g, g - 0.5, 0.5, np.array([z * z]))[0])
        rhs = 0.5 * ((1.0 + z) ** (1.0 - 2.0 * g) + (1.0 - z) ** (1.0 - 2.0 * g))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= IDENTITY_TOL
    report(2, "elementary hypergeometric identity", ok, "worst rel %.3e" % worst)
    assert ok


def test_criterion_03_ode_residual():
    worst = max(ode_residual(family) for family in sampled_families())
    ok = worst <= ODE_TOL
    report(3, "governing ODE residual on |w| = 1.5", ok, "worst %.3e" % worst)
    assert ok


def test_criterion_04_dynamical_equation():
    worst_dyn = worst_spread = 0.0
    for family in sampled_families():
        est = estimate_A(family)
        worst_spread = max(worst_spread, est.spread)
        worst_dyn = max(worst_dyn, dynamical_residual(family))
    ratio_err = abs(estimate_A(LEMNISCATE).value - 1.0)
    ok = worst_dyn <= DYNAMICAL_TOL and worst_spread <= SPREAD_TOL and ratio_err <= RATIO_TOL
    report(
        4,
        "dilatation dynamics r(T) = T/A",
        ok,
        "residual %.3e spread %.3e lemniscate |A-1| %.3e" % (worst_dyn, worst_spread, ratio_err),
    )
    assert ok


def test_criterion_05_darcy_kinematics():
    worst = max(darcy_check(family) for family in sampled_families())
    # hand value at the petal tip: V_n = Im(conj(f) i w f') / (A |f'|) at w = i
    w = 1j
    f = evaluate_map(LEMNISCATE, w)
    fp = map_derivative(LEMNISCATE, w)
    ratio = estimate_A(LEMNISCATE).value
    v_top = (np.conj(f) * 1j * w * fp).imag / (ratio * abs(fp))
    top_err = abs(v_top - math.sqrt(2.0))
    ok = worst <= DARCY_TOL and top_err <= TOP_SPEED_TOL
    report(5, "Darcy speed vs kinematics", ok, "worst %.3e tip |V - sqrt2| %.3e" % (worst, top_err))
    assert ok


def test_criterion_06_corner_exponents():
    one_petal = [MapFamily.one_petal(a) for a in
                 (math.pi / 8, 3 * math.pi / 16, math.pi / 4, 5 * math.pi / 16, 3 * math.pi / 8)]
    two_petal = [MapFamily.two_petal(a, b) for a, b in TWO_PETAL_PAIRS[:5]]
    worst = 0.0
    for family in one_petal:
        target = 2.0 * family.alpha / math.pi
        for corner in (1.0 + 0j, -1.0 + 0j):
            fit = corner_exponent(family, corner)
            worst = max(worst, abs(fit.exponent - target) / target)
    for family in two_petal:
        base_target = 2.0 * family.alpha / math.pi
        for corner, target in ((1.0 + 0j, base_target), (-1.0 + 0j, base_target),
                               (1j, family.delta), (-1j, family.delta)):
            fit = corner_exponent(family, corner)
            worst = max(worst, abs(fit.exponent - target) / target)
    ok = worst <= CORNER_REL_TOL
    report(6, "corner exponents at w = +-1, +-i", ok, "worst rel %.4f" % worst)
    assert ok


def test_criterion_07_conformality_and_case_map():
    failures = []
    for g in CONFORMAL_GAMMAS:
        _, conf = conformality_check(one_petal_from_gamma(g))
        if not conf:
            failures.append("one-petal gamma %.2f" % g)
    _, conf = conformality_check(MapFamily.two_petal(math.pi / 8, math.pi / 16))
    if not conf:
        failures.append("(pi/8, pi/16) should be conformal")
    _, conf = conformality_check(MapFamily.two_petal(math.pi / 8, math.pi / 6))
    if conf:
        failures.append("(pi/8, pi/6) should fail")

    grid = [k * GRID_STEP for k in range(1, 18)]
    result = sweep(grid, grid)
    rows = {(round(r.alpha / GRID_STEP), round(r.beta / GRID_STEP)): r for r in result}
    for i in range(1, 10):
        for j in range(1, 18):
            row = rows[(i, j)]
            if row.error is not None:
                failures.append("grid (%d,%d) errored: %s" % (i, j, row.error))
                continue
            if j < i and not (row.conformal and not row.degenerate):
                failures.append("grid (%d,%d) should be a clean case A/B node" % (i, j))
            if j == i and not row.degenerate:
                failures.append("grid (%d,%d) should flag petal-width degeneracy" % (i, j))
            if i < 9 and i < j < 18 - i and row.conformal:
                failures.append("grid (%d,%d) should be nonconformal" % (i, j))
    # the alpha > pi/4 half is reported, never asserted
    case_c = [r for r in result if r.alpha > math.pi / 4 + 1e-12 and r.error is None]
    c_conformal = sum(1 for r in case_c if r.conformal and not r.degenerate)
    ok = not failures
    report(
        7,
        "conformality case map on the 17x17 grid",
        ok,
        "case C (reported only): %d of %d nodes conformal" % (c_conformal, len(case_c)),
    )
    assert ok, failures


def test_criterion_08_integral_equation():
    residuals = {
        "pi/8": integral_equation_residual(MapFamily.one_petal(math.pi / 8)),
        "pi/4": integral_equation_residual(LEMNISCATE),
        "3pi/8": integral_equation_residual(MapFamily.one_petal(3 * math.pi / 8)),
    }
    ok = all(v <= INTEGRAL_TOL for v in residuals.values()) and residuals["pi/4"] == 0.0
    report(
        8,
        "petal profile integral equation",
        ok,
        " ".join("%s %.2e" % (k, v) for k, v in residuals.items()),
    )
    assert ok


def test_criterion_09_m_function():
    state = TimeState(1.0, 1.0)
    # ten interior points along the fat middle of the petal, clear of the
    # near-boundary exclusion band of the quadrature
    thetas = np.linspace(0.38 * math.pi, 0.62 * math.pi, 10)
    radii = 0.6 * np.sqrt(-2.0 * np.cos(2.0 * thetas))
    points = radii * np.exp(1j * thetas)
    samples = m_plus_samples(LEMNISCATE, state, list(points))
    sin2 = math.sin(LEMNISCATE.alpha) ** 2
    worst = max(abs(s.value - (-2j * sin2 * s.point + state.T)) for s in samples)
    # dM/dT by a central difference in the growth time, step 1e-3 T
    h = 1e-3 * state.T
    (m_hi,) = m_plus_samples(LEMNISCATE, TimeState(state.T + h, state.A), [0.8j])
    (m_lo,) = m_plus_samples(LEMNISCATE, TimeState(state.T - h, state.A), [0.8j])
    dt_err = abs((m_hi.value - m_lo.value) / (2.0 * h) - 1.0)
    ok = worst <= M_PLUS_TOL and dt_err <= M_PLUS_TOL
    report(9, "Cauchy M-function", ok, "worst %.3e dT err %.3e" % (worst, dt_err))
    assert ok


def test_criterion_10_harmonic_moments():
    n = 4096
    phis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    trace = np.exp(1j * phis)  # symmetric double of the half-disk boundary
    worst_gap = worst_even = 0.0
    for k in range(2, 7):
        contour_val = harmonic_moment(trace, k)
        area_val = harmonic_moment_area(trace, k)
        worst_gap = max(worst_gap, abs(contour_val - area_val))
        if k % 2 == 0:
            worst_even = max(worst_even, abs(contour_val), abs(area_val))
    t3_err = abs(harmonic_moment(trace, 3) - HALF_DISK_T3)
    rejected = False
    try:
        harmonic_moment(boundary_trace(LEMNISCATE, n=64), 3)
    except DegenerateTraceError:
        rejected = True
    ok = (
        worst_gap <= MOMENT_TOL
        and worst_even <= MOMENT_EVEN_TOL
        and t3_err <= MOMENT_TOL
        and rejected
    )
    report(
        10,
        "harmonic moments, contour vs area",
        ok,
        "route gap %.3e even %.3e T3 err %.3e degenerate rejected %s"
        % (worst_gap, worst_even, t3_err, rejected),
    )
    assert ok


def test_criterion_11_laurent_capacity():
    data = laurent_coefficients(LEMNISCATE)
    errs = (
        abs(data.conformal_radius - 1.0),
        abs(data.coefficients[1] + 0.5),
        abs(data.capacity - 1.5),
    )
    positives = all(
        laurent_coefficients(family).capacity > 0.0 for family in sampled_families()
    )
    ok = max(errs) <= LAURENT_TOL and positives
    report(
        11,
        "Laurent data and capacity",
        ok,
        "lemniscate errs %.2e %.2e %.2e capacity>0 %s" % (*errs, positives),
    )
    assert ok

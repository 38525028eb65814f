"""Verification layer: residuals, growth-law checks, moments, reports."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petalmap import (
    BoundaryTrace,
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
    m_plus_samples,
    ode_residual,
    petal_width,
    run_standard_checks,
    sweep,
)
from petalmap import maps, special_functions, verify
from petalmap.maps import _tangential_derivatives
from petalmap.numerics import winding_number
from petalmap.verify import VerificationError, VerificationReport

ODE_TOL = 1e-7
GROWTH_TOL = 1e-7
DARCY_TOL = 1e-6
MOMENT_ORACLE_TOL = 1e-4
MOMENT_EVEN_TOL = 1e-10
M_PLUS_TOL = 1e-3

LEMNISCATE = MapFamily.one_petal(math.pi / 4.0)

# the RK4 oracle carries the arc stencil's error in its seed f, f' to every
# probe: it sits 1.0-1.2e-12 from estimate_A, 40-digit mpmath agrees with
# estimate_A, and doubling REFERENCE_STEPS leaves the gap as it is
RK4_RATIO_TOL = 3e-12
ORACLE_RATIO_TOL = 1e-12
# one petal: f' and h' both closed form, 0.4-1.7e-15 off 40-digit mpmath
ONE_PETAL_RATIO_TOL = 1e-14
# beta = pi/4 puts a - b on an integer, where hyp2f1_values averages two
# parameter offsets (DEGENERATE_SHIFT) at an error of about 5e-8
DEGENERATE_RATIO_TOL = 1e-7
REFERENCE_STEPS = 1600
TRANSPORT_FAMILIES = (
    MapFamily.two_petal(math.pi / 4, math.pi / 8),
    MapFamily.two_petal(math.pi / 8, math.pi / 16),
)

# T3 of the upper half-disk, radial and angular factors done by hand
HALF_DISK_T3 = -4.0 / (9.0 * math.pi)


def unit_circle_trace(n=4096):
    # symmetric double of the half-disk boundary
    phis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return np.exp(1j * phis)


# ---------------------------------------------------------------------------
# residuals


def test_ode_residual_families():
    assert ode_residual(LEMNISCATE) <= 1e-9
    assert ode_residual(MapFamily.one_petal(math.pi / 8)) <= ODE_TOL
    assert ode_residual(MapFamily.two_petal(math.pi / 4, math.pi / 8)) <= ODE_TOL


def test_ode_residual_is_a_real_check(monkeypatch):
    # one-petal f'' is the closed form's own, never taken from the oscillator
    # equation, so the residual is near rounding and a 1e-6 change of the
    # potential shows far above it
    family = MapFamily.one_petal(0.3)
    assert ode_residual(family) <= 1e-13
    inner = verify.potential_V
    monkeypatch.setattr(verify, "potential_V", lambda fam, w: inner(fam, w) * (1.0 + 1e-6))
    assert ode_residual(family) >= 1e-7


def test_estimate_A_lemniscate():
    est = estimate_A(LEMNISCATE)
    assert abs(est.value - 1.0) <= 1e-10
    assert est.spread <= 1e-10
    assert len(est.samples) >= 4


def reference_transport(family, theta, rho):
    """Scalar fixed-step RK4 transport of the reflected solution along one ray."""
    w0 = cmath.exp(1j * theta)
    pts = np.array([w0])
    f0, fp0, _ = _tangential_derivatives(family, pts)
    h = np.conj(f0[0])
    hp = -np.conj(fp0[0]) / (w0 * w0)

    frac_a = family.alpha / math.pi
    frac_b = family.beta / math.pi if family.beta is not None else None

    def second_derivative(w, y0, y1):
        w2 = w * w
        pot = 16.0 * frac_a * (1.0 - frac_a) * w2 / (w2 - 1.0) ** 2
        if frac_b is not None:
            pot -= 8.0 * frac_b * (1.0 - 2.0 * frac_b) * w2 / (w2 + 1.0) ** 2
        return (2.0 / (w * (w2 - 1.0))) * y1 - pot * y0 / w2

    span = w0 * (rho - 1.0)
    ds = 1.0 / REFERENCE_STEPS
    y0, y1 = h, hp
    for k in range(REFERENCE_STEPS):
        s = k * ds
        w = w0 + span * s

        def rhs(y0_, y1_, w_):
            return span * y1_, span * second_derivative(w_, y0_, y1_)

        k1a, k1b = rhs(y0, y1, w)
        k2a, k2b = rhs(y0 + 0.5 * ds * k1a, y1 + 0.5 * ds * k1b, w + 0.5 * ds * span)
        k3a, k3b = rhs(y0 + 0.5 * ds * k2a, y1 + 0.5 * ds * k2b, w + 0.5 * ds * span)
        k4a, k4b = rhs(y0 + ds * k3a, y1 + ds * k3b, w + ds * span)
        y0 = y0 + (ds / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        y1 = y1 + (ds / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return y0, y1


def relative_gap(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)) / np.abs(want)))


@pytest.mark.parametrize("family", TRANSPORT_FAMILIES, ids=("pi4-pi8", "pi8-pi16"))
def test_partner_matches_scalar_rk4(family):
    # the closed-form partner against an independent solve of the oscillator
    # equation: the ratio rebuilt probe by probe from the scalar transport
    samples = []
    for theta in verify.WRONSKIAN_THETAS:
        for rho in verify.WRONSKIAN_RHOS:
            ref_h, ref_hp = reference_transport(family, theta, rho)
            w = rho * cmath.exp(1j * theta)
            f, fp, _ = _tangential_derivatives(family, np.array([w]))
            wronskian = w * (complex(fp[0]) * ref_h - complex(f[0]) * ref_hp)
            samples.append(abs(wronskian) / abs(w - 1.0 / w))
    est = estimate_A(family)
    assert relative_gap(est.samples, samples) <= RK4_RATIO_TOL
    assert relative_gap(est.value, np.mean(samples)) <= RK4_RATIO_TOL


def reference_solutions(family):
    """The map f and its partner h as mpmath functions of w; call at 40 digits."""
    alpha = mp.mpf(family.alpha)
    if family.kind == "one-petal":
        g = 2 * alpha / mp.pi - mp.mpf(1) / 2

        def f(w):
            u = 1 / w
            bracket = (1 - u) ** g * (1 + u) ** (1 - g) + (1 + u) ** g * (1 - u) ** (1 - g)
            return w * mp.sqrt(1 - u * u) * bracket / 2

        def h(w):
            return f(1 / w)

        return f, h
    beta = mp.mpf(family.beta)
    a = (alpha + beta) / mp.pi - mp.mpf(1) / 2
    b = (alpha - beta) / mp.pi
    c = mp.mpf(1) / 2
    jump = 2 * mp.pi * abs(mp.gamma(c) / (mp.gamma(a) * mp.gamma(b) * mp.gamma(c - a - b + 1)))

    def f(w):
        p = w + 1 / w
        t = 4 / p**2
        return p * (1 - t) ** (alpha / mp.pi) * mp.hyp2f1(a, b, c, t)

    def h(w):
        # the jump of F across its cut at t > 1 (DLMF 15.2.3)
        p = w + 1 / w
        t = 4 / p**2
        cont = (t - 1) ** (c - a - b) * mp.hyp2f1(c - a, c - b, c - a - b + 1, 1 - t)
        return jump * p * (1 - t) ** (alpha / mp.pi) * cont

    return f, h


def reference_wronskian_samples(family):
    """The Wronskian samples of `estimate_A` at 40 digits, f' and h' by mp.diff."""
    with mp.workdps(40):
        f, h = reference_solutions(family)
        samples = []
        for theta in verify.WRONSKIAN_THETAS:
            for rho in verify.WRONSKIAN_RHOS:
                w = mp.mpf(rho) * mp.expj(mp.mpf(theta))
                wronskian = w * (mp.diff(f, w) * h(w) - f(w) * mp.diff(h, w))
                samples.append(float(abs(wronskian) / abs(w - 1 / w)))
    return np.array(samples)


# every oracle family off beta = pi/4, where F's parameter window dominates
PARTNER_FAMILIES = (
    MapFamily.one_petal(math.pi / 8),
    MapFamily.two_petal(math.pi / 4, math.pi / 8),
    MapFamily.two_petal(math.pi / 5, math.pi / 9),
    MapFamily.two_petal(1.2, 0.2),
    MapFamily.two_petal(0.3, 1.0),
)


@pytest.mark.parametrize("family", PARTNER_FAMILIES, ids=lambda f: f.label())
def test_partner_derivative_against_mpmath(family):
    # h' is closed form: the one-petal f' at 1/w, or F's contiguous function
    # (DLMF 15.5.1); mp.diff differentiates the 40-digit reference h
    w = (verify.WRONSKIAN_RHOS[None, :] * np.exp(1j * verify.WRONSKIAN_THETAS)[:, None]).ravel()
    ((h, hp),) = maps._samples([(family, w, "partner")])
    with mp.workdps(40):
        _, ref_h = reference_solutions(family)
        want_h = np.array([complex(ref_h(mp.mpc(x))) for x in w])
        want_hp = np.array([complex(mp.diff(ref_h, mp.mpc(x))) for x in w])
    assert relative_gap(h, want_h) <= 1e-13
    assert relative_gap(hp, want_hp) <= 1e-13


@pytest.mark.parametrize(
    "family, tol",
    [
        (MapFamily.one_petal(math.pi / 8), ORACLE_RATIO_TOL),
        (MapFamily.one_petal(0.3), ONE_PETAL_RATIO_TOL),
        (MapFamily.one_petal(1.2), ONE_PETAL_RATIO_TOL),
        (MapFamily.two_petal(math.pi / 4, math.pi / 8), ORACLE_RATIO_TOL),
        (MapFamily.two_petal(math.pi / 5, math.pi / 9), ORACLE_RATIO_TOL),
        (MapFamily.two_petal(1.2, 0.2), ORACLE_RATIO_TOL),
        (MapFamily.two_petal(0.3, 1.0), ORACLE_RATIO_TOL),
        (MapFamily.two_petal(math.pi / 3, math.pi / 4), DEGENERATE_RATIO_TOL),
    ],
    ids=lambda x: x.label() if isinstance(x, MapFamily) else None,
)
def test_estimate_A_against_mpmath(family, tol):
    want = reference_wronskian_samples(family)
    est = estimate_A(family)
    assert relative_gap(est.samples, want) <= tol
    assert relative_gap(est.value, np.mean(want)) <= tol


def test_two_petal_estimate_A_takes_one_stencil(monkeypatch, patch_stencil):
    # only the map's own f' comes from the arc stencil, whose 9 rows at the
    # 8 probes make one map request; the partner's h' is closed form, its F
    # and F' two requests at the probes.  All three are one 2F1 batch, and
    # `_arc_derivatives`, which evaluates its rows alone, is not called
    def unused(*args):
        raise AssertionError("estimate_A evaluated the arc stencil alone")

    patch_stencil(unused)
    batches = []
    batch = maps._hyp2f1_batch
    monkeypatch.setattr(maps, "_hyp2f1_batch", lambda requests: batches.append([np.size(r[3]) for r in requests]) or batch(requests))
    estimate_A(MapFamily.two_petal(math.pi / 5, math.pi / 9))
    probes = verify.WRONSKIAN_THETAS.size * verify.WRONSKIAN_RHOS.size
    assert batches == [[9 * probes, probes, probes]]


# the last two grid nodes of the alpha + beta = pi/2 line compute
# a = (alpha + beta)/pi - 1/2 as -5.55e-17, not 0
@pytest.mark.parametrize(
    "alpha, beta",
    [(0.5, 0.5), (math.pi / 3, math.pi / 6), (3 * math.pi / 36, 15 * math.pi / 36), (15 * math.pi / 36, 3 * math.pi / 36)],
)
def test_estimate_A_rejects_collapsed_pattern(alpha, beta):
    # beta = alpha or alpha + beta = pi/2 zeroes the connection coefficient:
    # the partner is a multiple of the map and the Wronskian vanishes
    family = MapFamily.two_petal(alpha, beta)
    with pytest.raises(VerificationError, match="collapsed pattern"):
        estimate_A(family)
    report = run_standard_checks(family)
    assert report.has_errors
    assert report.checks["ratio_spread"].detail.startswith("error:")


def test_estimate_A_matches_closed_form_on_grid():
    # two petals: A = 8 pi^2 / |Gamma(a) Gamma(b) Gamma(1/2 - a) Gamma(1/2 - b)|
    # with F's a = (alpha + beta)/pi - 1/2 and b = (alpha - beta)/pi; the
    # formula vanishes where the pattern collapses (a or b = 0)
    grid = [k * math.pi / 36 for k in range(1, 18)]
    for i, alpha in enumerate(grid, 1):
        for j, beta in enumerate(grid, 1):
            family = MapFamily.two_petal(alpha, beta)
            if i == j or i + j == 18:
                with pytest.raises(VerificationError):
                    estimate_A(family)
                continue
            a, b = (alpha + beta) / math.pi - 0.5, (alpha - beta) / math.pi
            want = 8.0 * math.pi**2 / abs(math.gamma(a) * math.gamma(b) * math.gamma(0.5 - a) * math.gamma(0.5 - b))
            # off beta = pi/4 measured 3.1e-13 over 240 nodes; on that row a - b
            # is 0 and the 1/t route averages over a +- DEGENERATE_SHIFT (ROADMAP
            # item 7), measured 6.5e-8: the row stays in so the defect stays visible
            tol = 1e-7 if j == 9 else 1e-12
            assert abs(estimate_A(family).value - want) <= tol * want, family.label()
    # one petal: A = 2 sin 2 alpha (1 - 2 alpha/pi), measured 1.4e-13
    for alpha in np.linspace(0.02, 1.55, 60):
        want = 2.0 * math.sin(2.0 * alpha) * (1.0 - 2.0 * alpha / math.pi)
        assert abs(estimate_A(MapFamily.one_petal(alpha)).value - want) <= 1e-12 * want, alpha


@pytest.mark.parametrize("alpha, beta", [(3 * math.pi / 36, 15 * math.pi / 36 - 1e-3), (15 * math.pi / 36 - 1e-3, 3 * math.pi / 36)])
def test_estimate_A_next_to_collapse(alpha, beta):
    # 1e-3 off the alpha + beta = pi/2 line the ratio is small but real
    est = estimate_A(MapFamily.two_petal(alpha, beta))
    assert math.isfinite(est.value) and est.value > 0.0
    assert est.spread <= verify.DEFAULT_TOLERANCES["ratio_spread"]


@pytest.mark.parametrize("alpha", [math.pi / 16, 0.3, math.pi / 4, 1.2])
def test_two_petal_tends_to_one_petal_as_beta_nears_pi_half(alpha):
    # at beta = pi/2, F has b = a - 1/2 and DLMF 15.4.11 reduces it to the
    # one-petal bracket, so two_petal(alpha, pi/2 - eps) tends to
    # one_petal(alpha) linearly in eps; the Richardson value 2 v(eps) - v(2 eps)
    # cancels that term and checks both evaluators and both Wronskian partners
    eps = 1e-6
    w = np.concatenate(
        [
            [1.3 + 0.4j, -2.2 + 1.1j, 0.1 + 1.05j, 4.0 - 3.0j, 1.7j],
            np.exp(1j * np.array([0.3, 1.2, 2.0, 2.9, -0.8])),
        ]
    )
    near = MapFamily.two_petal(alpha, 0.5 * math.pi - eps)
    nearer = MapFamily.two_petal(alpha, 0.5 * math.pi - 2.0 * eps)
    one = MapFamily.one_petal(alpha)
    values = 2.0 * evaluate_map(near, w) - evaluate_map(nearer, w)
    want = evaluate_map(one, w)
    assert np.max(np.abs(values - want) / np.abs(want)) <= 1e-10
    ratio = 2.0 * estimate_A(near).value - estimate_A(nearer).value
    assert abs(ratio - estimate_A(one).value) <= 1e-10


def test_growth_law_lemniscate():
    assert dynamical_residual(LEMNISCATE) <= 1e-9
    assert darcy_check(LEMNISCATE) <= 1e-8


def test_growth_law_generic():
    for family in (
        MapFamily.one_petal(math.pi / 8),
        MapFamily.one_petal(3 * math.pi / 8),
        MapFamily.two_petal(math.pi / 4, math.pi / 8),
    ):
        assert dynamical_residual(family) <= GROWTH_TOL
        assert darcy_check(family) <= DARCY_TOL


def test_conformality_check():
    winding, ok = conformality_check(LEMNISCATE)
    assert (winding, ok) == (0, True)
    winding, ok = conformality_check(MapFamily.two_petal(math.pi / 8, math.pi / 16))
    assert (winding, ok) == (0, True)
    winding, ok = conformality_check(MapFamily.two_petal(math.pi / 8, math.pi / 6))
    assert ok is False
    assert winding != 0


def test_conformality_counts_the_top_corner_pair():
    # f' has a critical pair on the imaginary axis at w = +-1.0031i, about
    # 0.002 outside the ring; a uniform 1024- or 2048-point ring read -4
    winding, ok = conformality_check(MapFamily.two_petal(4 * math.pi / 36, 6 * math.pi / 36))
    assert (winding, ok) == (-6, False)


@pytest.mark.parametrize("alpha, beta, winding", [(0.023560, 1.503677, -6), (1.542014, 0.624270, -4)])
def test_conformality_edge_alpha(alpha, beta, winding):
    # c - a - b = 1 - 2 alpha/pi within 0.02 of an integer: the ring next to
    # w = +-1 needs F's 1 - t connection; a uniform 32768-point ring agrees
    assert conformality_check(MapFamily.two_petal(alpha, beta)) == (winding, False)


def test_battery_conformality_agrees_with_sweep():
    family = MapFamily.two_petal(4 * math.pi / 36, 5 * math.pi / 36)
    (row,) = sweep([family.alpha], [family.beta])
    check = run_standard_checks(family).checks["conformality"]
    assert row.winding == -6
    assert check.detail == "winding=-6"


def record_ring(monkeypatch):
    """Log every (points, values) pair the conformality count asks `_samples` for.

    Only calls whose jobs all ask for values are logged: the check's first
    arc and the winding's refinement calls, not the battery's merged call.
    """
    calls = []
    inner = verify._samples

    def recording(jobs):
        out = inner(jobs)
        if all(what == "values" for _, _, what in jobs):
            calls.extend((points, values) for (_, points, _), values in zip(jobs, out))
        return out

    monkeypatch.setattr(verify, "_samples", recording)
    return calls


def forbid_stencil(patch_stencil):
    """Make every call of `maps._arc_derivatives` fail the test."""

    def unused(*args):
        raise AssertionError("arc stencil called by a winding count")

    patch_stencil(unused)


def test_conformality_ring_work(monkeypatch, patch_stencil):
    calls = record_ring(monkeypatch)
    forbid_stencil(patch_stencil)
    step = math.pi / 36
    # (family, winding, points, values calls): one job a call, the first arc
    # and then one call per round.  Each refined step is split into
    # WINDING_SPLIT equal steps, 7 new points, so (5,5) takes 109 points in
    # 3 calls where plain bisection took 95 in 7, and (4,6) 95 in 2 where it
    # took 83 in 2
    cases = {
        "collapsed (5,5)": (MapFamily.two_petal(5 * step, 5 * step), None, 109, 3),
        "top pair (4,6)": (MapFamily.two_petal(4 * step, 6 * step), -6, 95, 2),
        "conformal (6,3)": (MapFamily.two_petal(6 * step, 3 * step), 0, 81, 1),
        "one-petal": (MapFamily.one_petal(0.3), 0, 57, 1),
    }
    for name, (family, expected, points, rounds) in cases.items():
        calls.clear()
        winding, _ = conformality_check(family)
        assert expected is None or winding == expected, name
        assert len(calls) == rounds, (name, len(calls))
        w = np.concatenate([c[0] for c in calls])
        values = np.concatenate([c[1] for c in calls])
        assert w.size <= points, (name, w.size)
        # one arc, the first quadrant of one ring, no push-out
        assert np.allclose(np.abs(w), math.exp(verify.CONFORMAL_RING_EPS), rtol=1e-14, atol=0.0), name
        args = np.angle(w)
        assert np.all((args >= 0.0) & (args <= 0.5 * math.pi)), name
        # no vertex of the image polygon of every evaluated point (each one
        # is a vertex of the count's polygon), closed at each end by the
        # chord its mirror image meets, turns by more than pi/4, and
        # its turn, less the pi/2 that arg w turns, is a quarter of the winding
        chords = np.diff(values[np.argsort(args)])
        ends = np.concatenate([-np.conj(chords[:1]), chords, np.conj(chords[-1:])])
        turns = np.angle(ends[1:] / ends[:-1])
        assert np.max(np.abs(turns)) <= 0.25 * math.pi, name
        turn = float(np.sum(turns)) - 0.5 * float(turns[0] + turns[-1])
        assert 2 * round(turn / math.pi - 0.5) == winding, name


def closed_graded_ring(corners, floor):
    """The whole ring's graded angles in [0, 2 pi), filled arc by arc between corners."""
    offsets = [0.0]
    while offsets[-1] < math.pi:
        offsets.append(offsets[-1] + min(0.25 * max(offsets[-1], floor), 0.05))
    offsets = np.array(offsets)
    starts = np.sort(np.mod(np.asarray(corners, dtype=float), 2.0 * math.pi))
    gaps = np.diff(np.append(starts, starts[0] + 2.0 * math.pi))
    pieces = []
    for start, gap in zip(starts, gaps):
        k = int(np.searchsorted(offsets, 0.5 * gap))
        side = offsets[: k + 1] * (0.5 * gap / offsets[k])
        pieces.append(start + np.concatenate([side, gap - side[k - 1 : 0 : -1]]))
    return np.sort(np.mod(np.concatenate(pieces), 2.0 * math.pi))


def closed_ring_winding(family):
    """Winding of f' around the whole ring, arcs bisected to pi/4, the last one wrapping round."""
    corners = np.angle(np.array(family.corner_preimages))
    for ring_eps in (verify.CONFORMAL_RING_EPS, 2.0 * verify.CONFORMAL_RING_EPS):
        radius = math.exp(ring_eps)
        phis = closed_graded_ring(corners, ring_eps)
        fp = maps.map_derivative(family, radius * np.exp(1j * phis))
        scale = float(np.median(np.abs(fp)))
        new = fp
        while scale > 0.0 and float(np.min(np.abs(new))) >= 1e-9 * scale:
            turns = np.angle(np.roll(fp, -1) / fp)
            wide = np.flatnonzero(np.abs(turns) > 0.25 * math.pi)
            if wide.size == 0:
                return int(round(float(np.sum(turns)) / (2.0 * math.pi)))
            lo = phis[wide]
            hi = np.append(phis[1:], phis[0] + 2.0 * math.pi)[wide]
            mids = 0.5 * (lo + hi)
            if np.any((mids <= lo) | (mids >= hi)):
                break
            new = maps.map_derivative(family, radius * np.exp(1j * mids))
            phis = np.insert(phis, wide + 1, mids)
            fp = np.insert(fp, wide + 1, new)
    raise VerificationError("closed ring unresolved")


def oracle_families():
    rng = np.random.default_rng(2009)
    draws = rng.uniform(0.02, 0.5 * math.pi - 0.02, size=(24, 2))
    yield from (MapFamily.two_petal(alpha, beta) for alpha, beta in draws)
    yield MapFamily.two_petal(0.023560, 1.503677)
    yield MapFamily.two_petal(1.542014, 0.624270)
    # collapsed default-grid nodes next to alpha = pi/2, of the most refinement rounds (2; 6 by plain bisection)
    yield MapFamily.two_petal(17 * math.pi / 36, 17 * math.pi / 36)
    yield MapFamily.two_petal(17 * math.pi / 36, math.pi / 36)
    # alpha next to 0: these wind -2
    yield MapFamily.two_petal(1e-5, 0.1)
    yield MapFamily.two_petal(1e-6, 1.4)
    yield from (MapFamily.one_petal(alpha) for alpha in (0.1, 0.3, 0.7, 1.2, 1.5))


@pytest.mark.parametrize("family", list(oracle_families()), ids=lambda f: f.label())
def test_quadrant_winding_matches_closed_ring(family):
    winding, ok = conformality_check(family)
    assert winding == closed_ring_winding(family)
    assert ok == (winding == 0)


def plain_bisection(family):
    """The winding of `conformality_check` by plain bisection, one midpoint a refined step and one call a round.

    The reference count: refinement changes the polygon, never its winding.
    """
    phis, points = verify._conformality_arc(family.kind)
    values = evaluate_map(family, points)
    scale = float(np.median(np.abs(np.diff(values)) / np.diff(phis)))
    ring = math.exp(verify.CONFORMAL_RING_EPS)
    while True:
        chords = np.diff(values)
        if not (scale > 0.0 and float(np.min(np.abs(chords) / np.diff(phis))) >= 1e-9 * scale):
            raise VerificationError("derivative winding could not be resolved")
        ends = np.concatenate([-np.conj(chords[:1]), chords, np.conj(chords[-1:])])
        turns = np.angle(ends[1:] / ends[:-1])
        wide = np.abs(turns) > 0.25 * math.pi
        if not wide.any():
            turn = float(np.sum(turns)) - 0.5 * float(turns[0] + turns[-1])
            return 2 * int(round(turn / math.pi - 0.5))
        steps = np.flatnonzero(wide[:-1] | wide[1:])
        lo, hi = phis[steps], phis[steps + 1]
        mids = 0.5 * (lo + hi)
        if np.any((mids <= lo) | (mids >= hi)):
            raise VerificationError("derivative winding could not be resolved")
        phis = np.insert(phis, steps + 1, mids)
        values = np.insert(values, steps + 1, evaluate_map(family, ring * np.exp(1j * mids)))


def collapsed_grid_nodes():
    """The default grid's 33 collapsed nodes, alpha = beta or alpha + beta = pi/2."""
    nodes = [(k, k) for k in range(1, 18)] + [(k, 18 - k) for k in range(1, 18) if k != 9]
    return [MapFamily.two_petal(i * math.pi / 36, j * math.pi / 36) for i, j in nodes]


# the oracle families hold two of the collapsed nodes, (17, 17) and (17, 1)
@pytest.mark.parametrize("family", list(dict.fromkeys([*oracle_families(), *collapsed_grid_nodes()])), ids=lambda f: f.label())
def test_lookahead_keeps_the_plain_bisection_polygon(family):
    # splitting a refined step into WINDING_SPLIT steps gives the winding
    # of plain bisection
    want = plain_bisection(family)
    assert conformality_check(family) == (want, want == 0)


def test_refinement_matches_plain_bisection():
    # 400 random families off the oracle's: every winding is plain bisection's
    draws = np.random.default_rng(11).uniform(0.02, 0.5 * math.pi - 0.02, size=(400, 2))
    for alpha, beta in draws:
        family = MapFamily.two_petal(alpha, beta)
        want = plain_bisection(family)
        assert conformality_check(family) == (want, want == 0), family.label()


@pytest.mark.parametrize(
    "family, tol",
    [
        (MapFamily.two_petal(4 * math.pi / 36, 6 * math.pi / 36), 1e-12),
        (MapFamily.two_petal(0.3, 1.0), 1e-12),
        # next to w = +-1 the 1 - t connection's two terms cancel when alpha
        # is this close to 0; measured 3.8e-12 at arg w = 0.131
        (MapFamily.two_petal(0.023560, 1.503677), 1e-11),
        (MapFamily.two_petal(1.542014, 0.624270), 1e-12),
        (MapFamily.one_petal(0.3), 1e-12),
        (MapFamily.one_petal(1.5), 1e-12),
    ],
    ids=lambda v: v.label() if isinstance(v, MapFamily) else None,
)
def test_derivative_mirror_symmetry(family, tol):
    # the quadrant count rests on f'(-w) = f'(w) and f'(conj w) = conj f'(w)
    eps = verify.CONFORMAL_RING_EPS
    w = math.exp(eps) * np.exp(1j * closed_graded_ring(np.angle(np.array(family.corner_preimages)), eps))
    fp = maps.map_derivative(family, w)
    assert np.max(np.abs(maps.map_derivative(family, -w) - fp) / np.abs(fp)) <= tol
    assert np.max(np.abs(maps.map_derivative(family, np.conj(w)) - np.conj(fp)) / np.abs(fp)) <= tol


def test_conformality_unresolved_ring_raises(monkeypatch):
    family = MapFamily.two_petal(math.pi / 8, math.pi / 16)
    inner = verify._samples
    ring = math.exp(verify.CONFORMAL_RING_EPS)
    wider = math.exp(1.5 * verify.CONFORMAL_RING_EPS)
    radii = []

    def constant_near_i(jobs):
        # f is constant next to w = i on the ring only, so f' vanishes there:
        # a zero within rounding of it, which a wider ring would not see
        out = []
        for (_, w, _), values in zip(jobs, inner(jobs)):
            radii.append(np.abs(w))
            out.append(np.where((np.abs(w) < wider) & (np.abs(w - 1j) < 0.01), 0.5j, values))
        return out

    monkeypatch.setattr(verify, "_samples", constant_near_i)
    with pytest.raises(VerificationError, match="could not be resolved"):
        conformality_check(family)
    # every values call stays on |w| = e^eps
    assert np.allclose(np.concatenate(radii), ring, rtol=1e-14, atol=0.0)

    rate = 0.5 * math.pi / (2.0 - 0.5 * math.pi)

    def fold(jobs):
        # the image runs along the unit circle from 1 to -i, meeting both
        # axes square, but turns back where arg w crosses 1: no bisection
        # resolves that vertex
        return [np.exp(1j * rate * (np.abs(np.angle(w) - 1.0) - 1.0)) for _, w, _ in jobs]

    monkeypatch.setattr(verify, "_samples", fold)
    with pytest.raises(VerificationError, match="could not be resolved"):
        conformality_check(family)


def test_corner_exponent_fits():
    fam = MapFamily.one_petal(3 * math.pi / 8)
    target = 2.0 * fam.alpha / math.pi
    for corner in (1.0 + 0j, -1.0 + 0j):
        fit = corner_exponent(fam, corner)
        assert abs(fit.exponent - target) / target <= 0.02
    two = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    for corner in (1j, -1j):
        fit = corner_exponent(two, corner)
        assert abs(fit.exponent - two.delta) / two.delta <= 0.02
    with pytest.raises(ValueError):
        corner_exponent(fam, 1j)


# corner fits on the deepest decade, 10-100 x SHEET_SLACK off the corner,
# where the second power's bias d^(1 - 2 delta) is smallest: measured
# errors 4.9e-6, 1.7e-4, 1.3e-3 and 1.7e-2 at the top corner, at most 9e-3
# at the one-petal base corner (against 7.8e-3 to 0.28 and 6.2e-2 on
# [1e-6, 1e-3])
@pytest.mark.parametrize(
    "family, corner",
    [(MapFamily.two_petal(math.pi / 5, ratio * math.pi / 5), 1j) for ratio in (0.5, 0.75, 0.85, 0.95)]
    + [(MapFamily.one_petal(alpha), 1.0) for alpha in (1e-6, 1e-3, 1.5)]
    + [
        pytest.param(
            MapFamily.two_petal(1.5, 0.75),
            1j,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 24: delta = 0.477 next to 1/2 reads 3.7% off"),
        )
    ],
    ids=lambda x: x.label() if isinstance(x, MapFamily) else repr(x),
)
def test_corner_exponent_on_the_deepest_decade(family, corner):
    target = 2.0 * family.alpha / math.pi if corner == 1.0 else min(family.delta, 1.0 - family.delta)
    assert abs(corner_exponent(family, corner).exponent - target) / target <= 0.02


def test_integral_equation():
    # the driving coefficient is sin(pi * gamma), identically zero at the
    # symmetric family, so that residual is exact
    assert integral_equation_residual(LEMNISCATE) == 0.0
    assert integral_equation_residual(MapFamily.one_petal(math.pi / 8)) <= 1e-6
    assert integral_equation_residual(MapFamily.one_petal(3 * math.pi / 8)) <= 1e-6
    # g near -1/2: in x the node next to the singular end x = 1 would round
    # to 1 and make the residual nan; in s = 1 - x its distance is exact
    for alpha in (1e-4, 0.02, 0.1, 0.2):
        assert integral_equation_residual(MapFamily.one_petal(alpha)) <= 1e-12, alpha
    with pytest.raises(ValueError):
        integral_equation_residual(MapFamily.two_petal(math.pi / 4, math.pi / 8))


def test_integral_equation_profile_once_per_node_array(monkeypatch):
    # only 1/(x^2 - w^2) depends on the probe, so the profile is taken once
    # per half-interval node array, plus once at all 20 probes for the left side
    sizes = []
    inner = verify._one_petal_bracket

    def counting(g, minus, plus):
        sizes.append(minus.size)
        return inner(g, minus, plus)

    monkeypatch.setattr(verify, "_one_petal_bracket", counting)
    assert integral_equation_residual(MapFamily.one_petal(math.pi / 8)) <= 1e-6
    assert sorted(sizes) == [20, 220, 220]


# ---------------------------------------------------------------------------
# harmonic moments


def test_half_disk_moment_oracle():
    trace = unit_circle_trace()
    contour_val = harmonic_moment(trace, 3)
    area_val = harmonic_moment_area(trace, 3)
    assert abs(contour_val - HALF_DISK_T3) <= MOMENT_ORACLE_TOL
    assert abs(area_val - HALF_DISK_T3) <= MOMENT_ORACLE_TOL
    assert abs(contour_val - area_val) <= MOMENT_ORACLE_TOL
    # the radial integral is closed form, so on rho = 1 only the angular
    # Gauss rule is left: odd T_k = -4/(pi k^2 (k - 2)) to rounding
    for k in (3, 5, 7):
        want = -4.0 / (math.pi * k * k * (k - 2))
        assert abs(harmonic_moment_area(trace, k) - want) <= 1e-12, k


def test_moment_routes_agree_on_thin_ellipse():
    # a 30:1 polar-graph ellipse, semi-axes 3 and 0.1: r**(1 - k) varies too
    # fast along its short rays for anything but the closed-form radial integral
    n = 4096
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    rho = 1.0 / np.sqrt((np.cos(theta) / 3.0) ** 2 + (np.sin(theta) / 0.1) ** 2)
    trace = rho * np.exp(1j * theta)
    for k in range(2, 7):
        assert abs(harmonic_moment(trace, k) - harmonic_moment_area(trace, k)) <= MOMENT_ORACLE_TOL, k


def test_area_route_refuses_folded_trace():
    # conjugation-symmetric and origin-covering, but its angle folds back
    # (d theta/ds = -0.4 at s = pi/2): sorted by angle it would be a
    # zig-zag rho(theta), not the curve
    s = (np.arange(2048) + 0.5) * (math.pi / 2048)
    upper = (1.0 + 0.5 * np.sin(s)) * np.exp(1j * (s + 0.7 * np.sin(2.0 * s) * np.sin(s) ** 2))
    folded = np.concatenate([upper, np.conj(upper[::-1])])
    harmonic_moment(folded, 3)  # the contour route takes it
    with pytest.raises(ValueError, match="not star-shaped"):
        harmonic_moment_area(folded, 3)
    # a screened trace keeps the refusal with its area geometry: every k
    # raises it, and the contour route still takes every k
    screened = verify._screened_points(folded)
    for k in range(2, 7):
        with pytest.raises(ValueError, match="not star-shaped"):
            harmonic_moment_area(screened, k)
        assert cmath.isfinite(harmonic_moment(screened, k))
    # a star-shaped trace passes in either direction from any starting sample
    circle = unit_circle_trace(256)
    for start in (0, 1, 64, 100, 128, 200, 255):
        for trace in (np.roll(circle, start), np.roll(circle[::-1], start)):
            assert abs(harmonic_moment_area(trace, 3) - HALF_DISK_T3) <= MOMENT_ORACLE_TOL


def test_even_moments_vanish():
    trace = unit_circle_trace()
    for k in (2, 4, 6):
        assert abs(harmonic_moment(trace, k)) <= MOMENT_EVEN_TOL
        assert abs(harmonic_moment_area(trace, k)) <= MOMENT_EVEN_TOL


def test_moment_routes_agree_through_k6():
    trace = unit_circle_trace()
    for k in range(2, 7):
        mismatch = abs(harmonic_moment(trace, k) - harmonic_moment_area(trace, k))
        assert mismatch <= MOMENT_ORACLE_TOL, k


def test_family_trace_moments_rejected():
    # every self-similar trace hangs at the origin, so the moment integrals
    # diverge no matter how finely it is sampled
    trace = boundary_trace(LEMNISCATE, n=64)
    assert isinstance(trace, BoundaryTrace)
    with pytest.raises(DegenerateTraceError):
        harmonic_moment(trace, 3)
    with pytest.raises(DegenerateTraceError):
        harmonic_moment_area(trace, 3)
    two = boundary_trace(MapFamily.two_petal(math.pi / 4, math.pi / 8), n=64)
    with pytest.raises(DegenerateTraceError):
        harmonic_moment(two, 2)


def test_raw_trace_origin_screening():
    # a floating domain leaves the whole origin neighborhood exterior
    floating = 2j + 0.5 * unit_circle_trace(256)
    with pytest.raises(DegenerateTraceError):
        harmonic_moment(floating, 3)
    # a quarter disk covers only part of the upper neighborhood
    arc = np.exp(1j * np.linspace(0.0, math.pi / 2.0, 128))
    quarter = np.concatenate([arc, np.linspace(1j, 0.0, 32)[1:], np.linspace(0.0, 1.0, 32)[1:-1]])
    with pytest.raises(DegenerateTraceError):
        harmonic_moment(quarter, 3)
    # near-collapse of the whole trace
    with pytest.raises(DegenerateTraceError):
        harmonic_moment(np.zeros(32, dtype=complex), 2)
    # the area route screens its own input too
    for trace in (floating, quarter, np.zeros(32, dtype=complex)):
        with pytest.raises(DegenerateTraceError):
            harmonic_moment_area(trace, 3)


@pytest.mark.parametrize("radius", [0.0, 0.003, 0.015])
def test_notch_into_origin_disk_refused(notch_trace, radius):
    # 17 winding probes at 10-degree steps on the 2% half ring passed all
    # three, and the routes then disagreed (T6 0.0397 against 1.2e-18 at
    # radius 0, 5.4e5 against 1.75e6 at 0.003)
    trace = notch_trace(radius)
    for route in (harmonic_moment, harmonic_moment_area):
        with pytest.raises(DegenerateTraceError, match="clear of the origin"):
            route(trace, 6)


def test_slab_edges_near_origin_refused():
    # every node is at least 0.5 from the origin, but the two long edges
    # pass 0.01 from it, inside the 2% disk: the screen measures segments
    xs = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, -0.5, -0.6, -0.7, -0.8, -0.9, -1.0]
    upper = np.array(xs) + 0.01j
    slab = np.concatenate([[1.0], upper, [-1.0], np.conj(upper[::-1])])
    assert len(slab) == 26 and np.min(np.abs(slab)) >= 0.5
    for route in (harmonic_moment, harmonic_moment_area):
        with pytest.raises(DegenerateTraceError):
            route(slab, 3)


def test_repeated_sample_changes_no_moment():
    # a repeated sample is a zero-length segment for the screen and the
    # contour route, and a repeated angle for the area route
    theta = (np.arange(512) + 0.5) * (2.0 * math.pi / 512)
    trace = (1.0 + 0.2 * np.cos(3.0 * theta)) * np.exp(1j * theta)
    repeated = np.insert(trace, 40, trace[40])
    for k in range(2, 7):
        for route in (harmonic_moment, harmonic_moment_area):
            assert abs(route(repeated, k) - route(trace, k)) <= 1e-15, (route.__name__, k)


def test_screened_trace_is_screened_once(monkeypatch):
    trace = unit_circle_trace()
    want = [(harmonic_moment(trace, k), harmonic_moment_area(trace, k)) for k in range(2, 7)]
    screens = []
    inner = verify._reject_degenerate

    def counting(points):
        screens.append(len(points))
        return inner(points)

    monkeypatch.setattr(verify, "_reject_degenerate", counting)
    screened = verify._screened_points(trace)
    assert verify._screened_points(screened) is screened
    got = [(harmonic_moment(screened, k), harmonic_moment_area(screened, k)) for k in range(2, 7)]
    assert got == want
    assert screens == [len(trace)]
    harmonic_moment(trace, 3)  # a bare trace is screened again
    assert screens == [len(trace)] * 2


def test_screened_trace_builds_each_route_once(monkeypatch):
    trace = unit_circle_trace()
    want = [(harmonic_moment(trace, k), harmonic_moment_area(trace, k)) for k in range(2, 7)]
    calls = []

    def counting(name, inner):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(verify, "gauss_legendre_unit", counting("rule", verify.gauss_legendre_unit))
    screened = verify._screened_points(trace)
    monkeypatch.setattr(np, "roll", counting("roll", np.roll))
    got = [(harmonic_moment(screened, k), harmonic_moment_area(screened, k)) for k in range(2, 7)]
    monkeypatch.undo()
    # the bits of bare-trace calls from one build of each route: one Gauss
    # rule, one roll for the midpoints and one for the fold test
    assert got == want
    assert sorted(calls) == ["roll", "roll", "rule"]


def test_moment_outside_the_float_range_raises():
    # 0.5 cos phi + 0.05i sin phi: T_k grows like 20^k, past the float
    # range from k = 237 on the contour route and k = 239 on the area route
    phis = (np.arange(4096) + 0.5) * (2.0 * math.pi / 4096)
    trace = 0.5 * np.cos(phis) + 0.05j * np.sin(phis)
    assert cmath.isfinite(harmonic_moment(trace, 236))
    assert cmath.isfinite(harmonic_moment_area(trace, 238))
    with pytest.raises(ValueError, match="T237 lies outside the float range"):
        harmonic_moment(trace, 237)
    with pytest.raises(ValueError, match="T239 lies outside the float range"):
        harmonic_moment_area(trace, 239)


def test_moment_argument_validation():
    trace = unit_circle_trace(64)
    with pytest.raises(ValueError):
        harmonic_moment(trace, 1)
    with pytest.raises(ValueError):
        harmonic_moment_area(trace, 1)
    with pytest.raises(ValueError):
        harmonic_moment(trace[:4], 2)
    # a 16-gon with its two axis vertices exactly real keeps 7 upper samples
    gon = np.exp(1j * np.arange(16) * (math.pi / 8.0))
    gon[0], gon[8] = 1.0, -1.0
    harmonic_moment(gon, 3)  # the contour route takes it
    with pytest.raises(ValueError, match="too few upper-half samples"):
        harmonic_moment_area(gon, 3)


# ---------------------------------------------------------------------------
# M-function samples


def test_m_plus_interior_formula():
    state = TimeState(1.0, 1.0)
    samples = m_plus_samples(LEMNISCATE, state, [0.8j, 0.5j, 0.2 + 0.6j])
    sin2 = math.sin(LEMNISCATE.alpha) ** 2
    for s in samples:
        want = -2j * sin2 * s.point + state.T
        assert abs(s.value - want) <= M_PLUS_TOL
        assert s.side == "upper"


def test_m_plus_lower_mirror():
    state = TimeState(1.0, 1.0)
    (s,) = m_plus_samples(LEMNISCATE, state, [-0.5j])
    sin2 = math.sin(LEMNISCATE.alpha) ** 2
    assert s.side == "lower"
    assert abs(s.value - (2j * sin2 * s.point + state.T)) <= M_PLUS_TOL


def test_m_plus_outside_pattern_rejected():
    with pytest.raises(ValueError):
        m_plus_samples(LEMNISCATE, TimeState(1.0, 1.0), [5.0 + 5.0j])
    # 0.014 below the petal tip 2 sin(pi/4) i, inside the 2% margin
    with pytest.raises(ValueError, match="too close to the boundary"):
        m_plus_samples(LEMNISCATE, TimeState(1.0, 1.0), [1.40j])


def test_m_plus_non_finite_point_rejected():
    with pytest.raises(ValueError, match="is not inside the pattern"):
        m_plus_samples(MapFamily.one_petal(0.7), TimeState(1.0, 1.0), [math.nan])


def test_m_plus_scale_covariance():
    # M_T(z) = r M_1(z / r), summed on the normalized boundary: the same
    # M / T at every scale, up to 1e305 where the physical-scale sum overflowed
    family = MapFamily.one_petal(0.7)
    (unit,) = m_plus_samples(family, TimeState(1.0, 1.0), [0.6j])
    for T in (1e-300, 1e-6, 1e6, 1e303, 1e305):
        (s,) = m_plus_samples(family, TimeState(T, 1.0), [0.6j * T])
        assert s.point == 0.6j * T
        assert abs(s.value / T - unit.value) <= 1e-14 * abs(unit.value), T


def test_m_plus_two_petal_ring():
    # the first-quadrant ring, unfolded, and its arc stencil in ARC_BLOCK
    # blocks against the trapezoid sum over a directly evaluated full ring;
    # z = 0 is the image of every corner pre-image, a node of the screens'
    # polygon, so it is refused
    family = MapFamily.two_petal(math.pi / 5, math.pi / 10)
    state = TimeState(1.0, 1.0)
    with pytest.raises(ValueError, match="too close to the boundary"):
        m_plus_samples(family, state, 0.0)
    zs = [0.5 + 0.5j, -0.6 - 0.6j]
    ring = np.exp(1j * maps._circle_angles(16384))
    f, fp, _ = _tangential_derivatives(family, ring)
    dz_dphi = fp * 1j * ring
    for z, s in zip(zs, m_plus_samples(family, state, zs)):
        want = np.sum(np.abs(f.imag) / (f - z) * dz_dphi) * (2.0 * math.pi / len(ring)) / (1j * math.pi)
        assert s.point == z
        assert abs(s.value - want) <= 1e-12


@pytest.mark.parametrize(
    "family, zs",
    [
        (MapFamily.one_petal(0.7), [0.2j, 0.5j, 0.9j, -0.4j]),
        (MapFamily.two_petal(math.pi / 5, math.pi / 10), [0.5 + 0.5j, -0.6 - 0.6j, 0.5 - 0.5j, -0.4 + 0.6j]),
    ],
    ids=["one-petal", "two-petal"],
)
def test_m_plus_points_share_one_ring_bit_for_bit(family, zs):
    # the ring, f, f' and |Im f| are built once per call: each point of a
    # batch gets the bits it gets alone
    state = TimeState(1.3, 0.9)
    together = m_plus_samples(family, state, zs)
    alone = [s for z in zs for s in m_plus_samples(family, state, [z])]
    assert together == alone


def test_cauchy_ring_is_shared_read_only():
    ring = verify._cauchy_ring()
    assert verify._cauchy_ring() is ring and len(ring) == 16384
    with pytest.raises(ValueError):
        ring[0] = 0.0


@pytest.mark.parametrize(
    "family",
    [MapFamily.two_petal(0.9, 0.2), MapFamily.two_petal(math.pi / 5, math.pi / 10), MapFamily.two_petal(1.2, 0.3)],
    ids=lambda f: f.label(),
)
def test_m_plus_refuses_the_fluid_wedge_below_the_chord(family):
    # images of exterior points next to w = i lie in the fluid wedge between
    # the petals; those below the chord joining the two nodes next to w = i
    # are inside the polygon of the nodes alone and clear of its margin, and
    # the screens, whose polygon reaches the origin, must refuse them
    n = 16384
    f = evaluate_map(family, np.exp(1j * maps._circle_angles(n)))
    margin = verify.INTERIOR_MARGIN * max(np.ptp(f.real), np.ptp(f.imag))
    rng = np.random.default_rng(23)
    s = 10.0 ** rng.uniform(-11.0, -3.0, 200)
    fluid = evaluate_map(family, 1j * np.exp(s + 1j * s * rng.uniform(-3.0, 3.0, 200)))
    wedge = [
        z for z in fluid
        if z.imag < f[n // 4].imag and abs(z) >= margin and np.min(np.abs(f - z)) >= margin and winding_number(f, z) == 1
    ]
    assert len(wedge) >= 4
    for z in wedge[:4]:
        with pytest.raises(ValueError, match="not inside the pattern"):
            m_plus_samples(family, TimeState(1.0, 1.0), [z])


# ---------------------------------------------------------------------------
# widths, sweep, bundled report


def quadrant_trace_width(family):
    """Width of the first quadrant of a 512-point `boundary_trace`."""
    trace = boundary_trace(family, n=512)
    pts = trace.points[(trace.phis > 0.0) & (trace.phis < 0.5 * math.pi)]
    d = verify._ray_distance(pts, family.alpha)
    if family.kind == "two-petal":
        d = np.minimum(d, verify._ray_distance(pts, 0.5 * math.pi - family.beta))
    return float(np.max(d))


def test_petal_width_degeneracy():
    lemniscate = petal_width(LEMNISCATE)
    collapsed = petal_width(MapFamily.two_petal(math.pi / 4, math.pi / 4))
    generic = petal_width(MapFamily.two_petal(math.pi / 4, math.pi / 8))
    assert lemniscate > 0.5
    assert collapsed <= 1e-10
    assert generic > 1e-3
    # the quadrant alone gives the trace's quadrant bit for bit
    assert lemniscate == quadrant_trace_width(LEMNISCATE)
    assert collapsed == quadrant_trace_width(MapFamily.two_petal(math.pi / 4, math.pi / 4))
    assert generic == quadrant_trace_width(MapFamily.two_petal(math.pi / 4, math.pi / 8))


def test_sweep_error_keeps_exception_type():
    # beta = 1.6 lies outside (0, pi/2), so building the family fails
    (row,) = sweep([0.3], [1.6])
    assert row.winding is None and row.conformal is None
    assert row.error.startswith("ValueError: ")


def test_sweep_small_grid():
    alphas = [math.pi / 8, math.pi / 4]
    betas = [math.pi / 16, math.pi / 6]
    rows = sweep(alphas, betas)
    assert len(rows) == 4
    by_node = {(row.alpha, row.beta): row for row in rows}
    ok_node = by_node[(math.pi / 8, math.pi / 16)]
    assert ok_node.error is None and ok_node.conformal and not ok_node.degenerate
    bad_node = by_node[(math.pi / 8, math.pi / 6)]
    assert bad_node.error is None and bad_node.conformal is False


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def record_lockstep(monkeypatch):
    """Log every (jobs, results) pair of the sweep's lockstep rounds, its `_samples` calls."""
    calls = []
    inner = verify._samples

    def recording(jobs):
        out = inner(jobs)
        calls.append((jobs, out))
        return out

    monkeypatch.setattr(verify, "_samples", recording)
    return calls


def test_sweep_lockstep_keeps_the_bits_of_one_node_calls(monkeypatch, patch_stencil):
    # every round of the default grid: the values have the bits of
    # evaluate_map at their points.  The first round's 8-point width probe
    # settles every node but the 33 collapsed ones (alpha = beta or
    # alpha + beta = pi/2), which alone take the full width arc, at the head
    # of the first refinement call, with the width of petal_width; the whole
    # grid, one lockstep, takes 19 series loops (806 for the nodes' calls
    # one by one) and no arc stencil
    calls = record_lockstep(monkeypatch)
    forbid_stencil(patch_stencil)
    loops = []
    sums = special_functions._series_sums
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(len(queue)) or sums(queue))
    # one route pick per series loop routes every family of a group together
    # (the default grid made 757 routings, one per family request, before)
    picks = []
    route = special_functions._route
    monkeypatch.setattr(special_functions, "_route", lambda points: picks.append(len(points)) or route(points))
    grid = [k * math.pi / 36 for k in range(1, 18)]
    rows = sweep(grid, grid)
    monkeypatch.undo()
    assert all(row.error is None for row in rows)
    assert len(loops) <= 21
    assert len(picks) <= len(loops)
    width = verify._width_arc()
    first = list(zip(*calls[0]))
    # the full width arcs lead the first refinement call, whose other jobs,
    # and every later call's, refine the conformality ring
    riding = [same_bits(points, width) for _, points, _ in calls[1][0]]
    n_full = riding.index(False)
    assert not any(riding[n_full:])
    full = list(zip(*calls[1]))[:n_full]
    refinements = list(zip(*calls[1]))[n_full:] + [job for jobs, out in calls[2:] for job in zip(jobs, out)]
    assert [(family.alpha, family.beta) for (family, _, _), _ in first] == [(row.alpha, row.beta) for row in rows]
    for (family, points, _), _ in refinements:
        assert np.allclose(np.abs(points), math.exp(verify.CONFORMAL_RING_EPS), rtol=1e-14, atol=0.0), family.label()
    for (family, points, what), values in first + full + refinements:
        assert what == "values"
        assert same_bits(values, evaluate_map(family, points)), family.label()
    left_open = []
    for ((family, points, _), values), row in zip(first, rows):
        assert same_bits(points[-8:], width[8::16]), family.label()
        assert row.degenerate == (petal_width(family) < verify.WIDTH_DEGENERATE_FRACTION), family.label()
        if verify._width(family, values[-8:]) < verify.WIDTH_DEGENERATE_FRACTION:
            left_open.append(family)
    collapsed = [
        family
        for (family, _, _), _ in first
        if math.isclose(family.alpha, family.beta) or math.isclose(family.alpha + family.beta, 0.5 * math.pi)
    ]
    assert [family for (family, _, _), _ in full] == left_open == collapsed
    assert len(collapsed) == 33
    for (family, points, _), values in full:
        assert verify._width(family, values).hex() == petal_width(family).hex(), family.label()


def sweep_row_alone(alpha, beta):
    """A sweep row from `conformality_check` and `petal_width`, node by node."""
    try:
        family = MapFamily.two_petal(alpha, beta)
        winding, ok = conformality_check(family)
        degenerate = petal_width(family) < verify.WIDTH_DEGENERATE_FRACTION
        return verify.SweepRow(alpha, beta, winding, ok, degenerate)
    except Exception as exc:  # noqa: BLE001 - the row records it
        return verify.SweepRow(alpha, beta, None, None, None, "%s: %s" % (type(exc).__name__, exc))


ANGLES = st.floats(0.01, 0.5 * math.pi - 0.01)
NEAR_COLLAPSE = 0.5014  # beta for alpha = 0.5: the width probe alone would call the node degenerate


@given(st.lists(ANGLES, min_size=1, max_size=3), st.lists(ANGLES, min_size=1, max_size=3))
@example([1.2, 0.9], [0.3, 1.1, 0.8])
# a width probe below the threshold whose full arc reaches it
@example([0.5], [NEAR_COLLAPSE])
@settings(max_examples=12, deadline=None, derandomize=True)
def test_sweep_lockstep_matches_node_by_node(alphas, betas):
    # off the grid, alpha > pi/4 included; an example of 6 nodes packs them
    # into three batches of two
    want = tuple(sweep_row_alone(alpha, beta) for alpha in alphas for beta in betas)
    assert sweep(alphas, betas) == want


def test_sweep_width_probe_below_the_threshold_takes_the_full_arc(monkeypatch):
    # off the grid, next to the collapse at beta = alpha: the probe's 8
    # points reach 9.73e-4, below WIDTH_DEGENERATE_FRACTION, but the full
    # arc reaches 1.010e-3, so the node is not degenerate
    family = MapFamily.two_petal(0.5, NEAR_COLLAPSE)
    width = verify._width_arc()
    assert verify._width(family, evaluate_map(family, width[8::16])) < verify.WIDTH_DEGENERATE_FRACTION
    assert petal_width(family) >= verify.WIDTH_DEGENERATE_FRACTION
    calls = record_lockstep(monkeypatch)
    (row,) = sweep([family.alpha], [family.beta])
    assert row.error is None and row.degenerate is False
    # the full arc is the first job of the first refinement call
    node, points, _ = calls[1][0][0]
    assert node == family and same_bits(points, width)


def test_sweep_node_raising_in_a_merged_round_leaves_other_rows(monkeypatch):
    step = math.pi / 36
    alphas, betas = [4 * step, 6 * step], [3 * step, 6 * step, 9 * step]
    want = sweep(alphas, betas)
    target = MapFamily.two_petal(6 * step, 9 * step)
    inner = verify._samples
    raised = []

    def failing(merged_only):
        calls = []

        def lockstep(jobs):
            # the sweep's first call is its first round and its second the
            # first refinement round, led by the full width arc of (6, 6), the
            # one node its probe leaves open; every later call refines, or
            # starts a half's run again
            calls.append(jobs)
            if len(calls) > 1 and any(family == target for family, _, _ in jobs) and (len(jobs) > 1 or not merged_only):
                raised.append(len(jobs))
                raise RuntimeError("forced")
            return inner(jobs)

        return lockstep

    # raised only while merged: the first refinement call holds (6, 6)'s
    # width arc and the five nodes still refining, and raises; the halves
    # of the six nodes run again, and the target's half is halved again, 3
    # and then 2 nodes, until the node runs alone and gets its own row back
    monkeypatch.setattr(verify, "_samples", failing(True))
    assert sweep(alphas, betas) == want
    assert raised == [6, 3, 2]
    # raised alone too: that node records the error, and the others, (6, 6)
    # bisected in the same rounds among them, keep their rows
    del raised[:]
    monkeypatch.setattr(verify, "_samples", failing(False))
    got = sweep(alphas, betas)
    assert raised == [6, 3, 2, 1]
    assert got[:5] == want[:5]
    assert got[5] == verify.SweepRow(target.alpha, target.beta, None, None, None, "RuntimeError: forced")


def test_sweep_halves_a_failing_lockstep(monkeypatch):
    # one node that raises in every call, among 12: the lockstep is halved
    # around it, 12, 6, 3, 2 and 1 nodes, so the sweep makes 9 lockstep
    # runs (one, and two per halving) where running each node alone took 13
    step = math.pi / 36
    alphas, betas = [4 * step, 6 * step, 8 * step], [3 * step, 5 * step, 7 * step, 9 * step]
    want = sweep(alphas, betas)
    target = MapFamily.two_petal(alphas[1], betas[3])  # node 7
    values = verify._samples
    rows = verify._sweep_rows
    raised, runs = [], []

    def lockstep(jobs):
        if any(family == target for family, _, _ in jobs):
            raised.append(len(jobs))
            raise RuntimeError("forced")
        return values(jobs)

    monkeypatch.setattr(verify, "_samples", lockstep)
    monkeypatch.setattr(verify, "_sweep_rows", lambda nodes: runs.append(len(nodes)) or rows(nodes))
    got = sweep(alphas, betas)
    assert raised == [12, 6, 3, 2, 1]
    assert runs == [12, 6, 6, 3, 1, 2, 1, 1, 3]
    assert got[:7] + got[8:] == want[:7] + want[8:]
    assert got[7] == verify.SweepRow(target.alpha, target.beta, None, None, None, "RuntimeError: forced")


def test_run_standard_checks_lemniscate():
    report = run_standard_checks(LEMNISCATE)
    assert report.all_passed
    assert not report.has_errors
    assert "integral_equation" in report.checks
    assert "corner_exponent_top" not in report.checks
    payload = report.to_dict()
    assert payload["all_passed"] is True
    one = payload["checks"]["ode_residual"]
    assert set(one) == {"residual", "tolerance", "pass", "detail"}


def test_run_standard_checks_two_petal():
    report = run_standard_checks(MapFamily.two_petal(math.pi / 8, math.pi / 16))
    assert report.all_passed
    assert "corner_exponent_top" in report.checks
    assert "integral_equation" not in report.checks


def test_run_standard_checks_check_set():
    one = {
        "ode_residual", "ratio_spread", "dynamical_residual", "darcy_mismatch",
        "conformality", "corner_exponent_base", "integral_equation", "capacity_sign",
    }
    two = one - {"integral_equation"} | {"corner_exponent_top"}
    assert set(run_standard_checks(MapFamily.one_petal(0.3)).checks) == one
    assert set(run_standard_checks(MapFamily.two_petal(math.pi / 4, math.pi / 8)).checks) == two
    assert one | two == set(verify.DEFAULT_TOLERANCES)


def test_run_standard_checks_flags_bad_family():
    report = run_standard_checks(MapFamily.two_petal(math.pi / 8, math.pi / 6))
    assert not report.all_passed
    assert not report.checks["conformality"].passed


def test_tolerance_override_validation():
    with pytest.raises(ValueError):
        run_standard_checks(LEMNISCATE, {"not_a_check": 1.0})
    report = run_standard_checks(LEMNISCATE, {"ode_residual": 0.5})
    assert report.checks["ode_residual"].tolerance == 0.5


def test_report_error_recording():
    report = VerificationReport("probe")
    report.add("fine", 0.0, 1.0)
    report.add_error("broken", 1.0, "simulated blowup")
    assert report.has_errors
    assert not report.all_passed
    assert report.checks["broken"].residual == math.inf
    assert report.checks["broken"].detail.startswith("error:")


# ---------------------------------------------------------------------------
# the battery shares its evaluations, and its results are the checks' own

BATTERY_FAMILIES = (
    MapFamily.one_petal(math.pi / 5),
    MapFamily.two_petal(math.pi / 5, math.pi / 9),
    MapFamily.two_petal(math.pi / 8, math.pi / 6),  # nonconformal
    MapFamily.two_petal(0.5, 0.5),  # collapsed: estimate_A raises
    MapFamily.two_petal(math.pi / 6, math.pi / 4),  # a - b inside the DEGENERATE_SHIFT window
)


def checks_alone(family):
    """The battery's report, each check taken by calling its public function alone."""
    tol = verify.DEFAULT_TOLERANCES

    def ratio_spread():
        ratio = estimate_A(family)
        return ratio.spread, "A=%.12g" % ratio.value

    def conformality():
        winding, _ = conformality_check(family)
        return abs(winding), "winding=%d" % winding

    def corner_fit(corner, target):
        fit = corner_exponent(family, corner)
        return abs(fit.exponent - target) / target, "fit=%.6f target=%.6f" % (fit.exponent, target)

    def capacity():
        value = maps.laurent_coefficients(family).capacity
        return max(0.0, -value), "capacity=%.12g" % value

    checks = {
        "ode_residual": lambda: (ode_residual(family), ""),
        "ratio_spread": ratio_spread,
        "dynamical_residual": lambda: (dynamical_residual(family), ""),
        "darcy_mismatch": lambda: (darcy_check(family), ""),
        "conformality": conformality,
        "corner_exponent_base": lambda: corner_fit(1.0 + 0.0j, 2.0 * family.alpha / math.pi),
    }
    if family.kind == "two-petal":
        checks["corner_exponent_top"] = lambda: corner_fit(1.0j, min(family.delta, 1.0 - family.delta))
    else:
        checks["integral_equation"] = lambda: (integral_equation_residual(family), "")
    checks["capacity_sign"] = capacity
    report = VerificationReport(family.label())
    for name, check in checks.items():
        try:
            residual, detail = check()
        except Exception as exc:  # noqa: BLE001 - recorded as the battery records it
            report.add_error(name, tol[name], str(exc))
        else:
            report.add(name, residual, tol[name], detail=detail)
    return report


def bits(check):
    return (check.residual.hex(), check.tolerance.hex(), check.passed, check.detail)


def assert_same_checks(got, want):
    assert list(got.checks) == list(want.checks)
    for name in want.checks:
        assert bits(got.checks[name]) == bits(want.checks[name]), name


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.3), (math.pi / 5, math.pi / 9), (math.pi / 4, math.pi / 8)])
def test_top_corner_target_of_the_mirrored_family(alpha, beta):
    # two_petal(alpha, beta) and two_petal(alpha, pi/2 - beta) are one map:
    # past beta = pi/4 the top corner's target is 1 - delta, and the report
    # line is the mirror's
    mirror = run_standard_checks(MapFamily.two_petal(alpha, beta)).checks["corner_exponent_top"]
    family = MapFamily.two_petal(alpha, 0.5 * math.pi - beta)
    assert family.beta > 0.25 * math.pi
    check = run_standard_checks(family).checks["corner_exponent_top"]
    assert check.passed and mirror.passed
    assert check.detail == mirror.detail
    assert check.detail.endswith("target=%.6f" % (1.0 - family.delta))


@pytest.mark.parametrize("family", BATTERY_FAMILIES, ids=lambda f: f.label())
def test_battery_equals_checks_alone(family):
    # residual, tolerance and detail bit for bit, errors included
    assert_same_checks(run_standard_checks(family), checks_alone(family))


@pytest.mark.parametrize(
    "ring, names",
    [
        ("_ode_ring", ("ode_residual",)),
        ("_wronskian_probes", ("ratio_spread", "dynamical_residual", "darcy_mismatch")),
        # both boundary rings leave the sheet; ratio_spread keeps its bits
        ("_unit_ring", ("dynamical_residual", "darcy_mismatch")),
    ],
)
@pytest.mark.parametrize("family", BATTERY_FAMILIES[:2], ids=lambda f: f.label())
def test_shared_evaluation_error_charged_to_its_check(monkeypatch, family, ring, names):
    # a ring that leaves the sheet makes the merged evaluation raise; only
    # the checks that read that ring, themselves or through the shared
    # Wronskian ratio, carry the error, with the message the first public
    # check to read it raises alone, and every other check keeps its bits
    clean = run_standard_checks(family)
    inner = getattr(verify, ring)
    monkeypatch.setattr(verify, ring, lambda *args: 0.5 * inner(*args))
    report = run_standard_checks(family)
    want = checks_alone(family)
    assert_same_checks(report, want)
    assert {name for name, c in report.checks.items() if c.detail.startswith("error:")} == set(names)
    alone = {"_ode_ring": ode_residual, "_wronskian_probes": estimate_A, "_unit_ring": dynamical_residual}[ring]
    with pytest.raises(maps.MapDomainError) as info:
        alone(family)
    for name in names:
        assert report.checks[name].detail == "error: %s" % info.value, name
    for name in set(clean.checks) - set(names):
        assert bits(report.checks[name]) == bits(clean.checks[name]), name


def test_shared_values_error_charged_to_its_corner(monkeypatch):
    # a top-corner sample that is not finite fails the merged corner values;
    # the base fit is still made, as when the corners are fitted one by one
    family = MapFamily.two_petal(math.pi / 5, math.pi / 9)
    clean = run_standard_checks(family)
    inner = verify._corner_arc

    def broken(corner):
        d, pts = inner(corner)
        return d, (pts + complex("nan") if corner == 1j else pts)

    monkeypatch.setattr(verify, "_corner_arc", broken)
    report = run_standard_checks(family)
    assert_same_checks(report, checks_alone(family))
    assert [name for name, c in report.checks.items() if c.detail.startswith("error:")] == ["corner_exponent_top"]
    assert bits(report.checks["corner_exponent_base"]) == bits(clean.checks["corner_exponent_base"])


def test_ring_error_spares_the_next_growth_check(monkeypatch):
    # only the 128-point ring of the dynamical residual leaves the sheet:
    # darcy_mismatch, read from the 256-point ring, keeps the bits it has
    # when darcy_check is called alone
    family = MapFamily.two_petal(math.pi / 5, math.pi / 9)
    clean = run_standard_checks(family)
    inner = verify._unit_ring
    monkeypatch.setattr(verify, "_unit_ring", lambda n: (0.5 if n == 128 else 1.0) * inner(n))
    report = run_standard_checks(family)
    assert_same_checks(report, checks_alone(family))
    assert [name for name, c in report.checks.items() if c.detail.startswith("error:")] == ["dynamical_residual"]
    assert bits(report.checks["darcy_mismatch"]) == bits(clean.checks["darcy_mismatch"])


def test_corner_error_spares_the_other_corner(monkeypatch):
    # a base-corner sample that is not finite fails only the base fit; the
    # top corner keeps the fit that corner_exponent makes alone
    family = MapFamily.two_petal(math.pi / 5, math.pi / 9)
    inner = verify._corner_arc

    def broken(corner):
        d, pts = inner(corner)
        return d, (pts + complex("nan") if corner == 1.0 else pts)

    monkeypatch.setattr(verify, "_corner_arc", broken)
    report = run_standard_checks(family)
    assert_same_checks(report, checks_alone(family))
    assert report.checks["corner_exponent_base"].detail.startswith("error: non-finite point")
    assert report.checks["corner_exponent_top"].detail == "fit=0.222224 target=0.222222"


@pytest.mark.parametrize(
    "family",
    [MapFamily.two_petal(math.pi / 5, math.pi / 9), MapFamily.two_petal(math.pi / 8, math.pi / 6), MapFamily.two_petal(0.5, 0.5)],
    ids=lambda f: f.label(),
)
def test_battery_merges_its_fixed_evaluations(monkeypatch, patch_stencil, family):
    # one 2F1 batch for the fixed samples, one `_samples` job per key: one
    # map request over the arc stencil rows of each ring's centres (ode 16,
    # Wronskian 8, dynamical 32, darcy 64; one stencil each), the first
    # conformality arc (81 points), both corner arcs (12 each) and the
    # Laurent ring (64), then the partner's two requests at the 8 Wronskian
    # probes, none for a collapsed family: one route pick and one series
    # loop, and one of each per refinement call
    forbid_stencil(patch_stencil)
    stencils = []
    stencil = maps._arc_stencil
    monkeypatch.setattr(maps, "_arc_stencil", lambda family, pts: stencils.append(pts.size) or stencil(family, pts))
    rounds = record_ring(monkeypatch)
    picks, loops = [], []
    route = special_functions._route
    sums = special_functions._series_sums
    monkeypatch.setattr(special_functions, "_route", lambda points: picks.append([p[2].size for p in points]) or route(points))
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(len(queue)) or sums(queue))
    run_standard_checks(family)
    assert stencils == [16, 8, 32, 64]
    assert picks[0] == [9 * 120 + 81 + 12 + 12 + 64] + ([] if verify._collapsed(family) else [8, 8])
    assert len(picks) == len(loops) == 1 + len(rounds)
    if family == MapFamily.two_petal(math.pi / 5, math.pi / 9):
        assert rounds == []  # no refinement round: the whole battery is one batch


@given(st.floats(0.02, 0.5 * math.pi - 0.02), st.floats(0.02, 0.5 * math.pi - 0.02))
@example(math.pi / 6, math.pi / 4)  # a - b inside the DEGENERATE_SHIFT window
@example(0.5, 0.5)  # collapsed
@settings(max_examples=15, deadline=None, derandomize=True)
def test_battery_equals_checks_alone_off_the_grid(alpha, beta):
    family = MapFamily.two_petal(alpha, beta)
    assert_same_checks(run_standard_checks(family), checks_alone(family))


def test_laurent_ring_error_charged_to_capacity(monkeypatch):
    # a Laurent ring point at the corner pre-image w = 1 fails the merged
    # evaluation; only capacity_sign reads the ring, and it records the
    # error that laurent_coefficients raises alone, whose evaluate_map
    # refuses the corner pre-image
    family = MapFamily.two_petal(math.pi / 5, math.pi / 9)
    clean = run_standard_checks(family)
    ring = maps._laurent_ring
    for module in (maps, verify):
        monkeypatch.setattr(module, "_laurent_ring", lambda: np.append(1.0, ring()[1:]))
    report = run_standard_checks(family)
    assert_same_checks(report, checks_alone(family))
    assert [name for name, c in report.checks.items() if c.detail.startswith("error:")] == ["capacity_sign"]
    with pytest.raises(maps.CornerPreimageError) as info:
        maps.laurent_coefficients(family)
    assert report.checks["capacity_sign"].detail == "error: %s" % info.value
    for name in set(clean.checks) - {"capacity_sign"}:
        assert bits(report.checks[name]) == bits(clean.checks[name]), name


def test_partner_error_charged_to_the_growth_checks(monkeypatch):
    # a non-finite parameter in the partner's second request fails the
    # merged batch; only the three growth checks read the partner, through
    # the shared ratio, and each records the error estimate_A raises alone
    family = MapFamily.two_petal(math.pi / 5, math.pi / 9)
    clean = run_standard_checks(family)
    requests = maps._partner_requests

    def broken(*args):
        points, (first, (_, *rest)), finish = requests(*args)
        return points, [first, (math.nan, *rest)], finish

    monkeypatch.setattr(maps, "_partner_requests", broken)
    report = run_standard_checks(family)
    assert_same_checks(report, checks_alone(family))
    growth = {"ratio_spread", "dynamical_residual", "darcy_mismatch"}
    assert {name for name, c in report.checks.items() if c.detail.startswith("error:")} == growth
    with pytest.raises(special_functions.Hyp2F1DomainError, match="non-finite parameter") as info:
        estimate_A(family)
    for name in growth:
        assert report.checks[name].detail == "error: %s" % info.value, name
    for name in set(clean.checks) - growth:
        assert bits(report.checks[name]) == bits(clean.checks[name]), name

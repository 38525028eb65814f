"""Map families: closed forms, continuation, inversion, traces, scaling.

Oracles: hand-derived exact values for the alpha = pi/4 one-petal family
(f(w) = sqrt(w^2 - 1)), a hypergeometric closed form for generic one-petal
families, frozen 40-digit mpmath continuation values for the two-petal
family inside the band |p| < 2, and live 40-digit mpmath values of its far
branch next to the base corners.
"""

import cmath
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from petalmap import (
    CornerPreimageError,
    InversionError,
    MapDomainError,
    MapFamily,
    TimeState,
    boundary_trace,
    evaluate_map,
    invert_map,
    laurent_coefficients,
    map_derivative,
    potential_V,
    pressure,
    run_standard_checks,
    scaled_map,
)
from petalmap import maps, special_functions, verify
from petalmap.special_functions import Hyp2F1DomainError, _gamma_quotient, hyp2f1_values

EXACT_TOL = 1e-13
CROSS_ORACLE_TOL = 1e-12
BAND_TOL = 1e-12
SYMMETRY_TOL = 1e-12
INVERSION_TOL = 1e-10
NORMALIZATION_TOL = 1e-6

LEMNISCATE = MapFamily.one_petal(math.pi / 4.0)
DATA = pathlib.Path(__file__).parent / "data"

# f(1.2 e^{i pi/5}) for the (pi/4, pi/8) family, frozen from mpmath
TWO_PETAL_OFF_SPOT = complex(0.9677613220258633, 0.9691054942768280)
# |f(e^{i pi/5})| on the equal-angle diagonal alpha = beta = pi/4
TWO_PETAL_DIAG_SPOT = 1.3791711397032302

# band continuation values (alpha, beta, p, f) frozen from 40-digit mpmath;
# real p in (-2, 2) means the boundary limit from the upper side
BAND_VALUES = [
    (math.pi / 8, math.pi / 16, 0.3, complex(0.36764450855618541, 0.42198332046879233)),
    (math.pi / 8, math.pi / 16, 1.0, complex(0.90414700576736817, 0.56311065332062171)),
    (math.pi / 8, math.pi / 16, 1.9, complex(1.2172285592805556, 0.53084532196013923)),
    (math.pi / 8, math.pi / 16, -1.0, complex(-0.90414700576736817, 0.56311065332062171)),
    (math.pi / 8, math.pi / 16, 0.5 + 0.4j, complex(0.47185311080660464, 0.81389969668104967)),
    (math.pi / 4, math.pi / 8, 0.3, complex(0.46766547424063964, 0.75613656833322151)),
    (math.pi / 4, math.pi / 8, 1.0, complex(0.78740710740486608, 1.0261689211255218)),
    (math.pi / 4, math.pi / 8, 1.9, complex(0.69010351342967646, 0.73776428972407215)),
    (math.pi / 4, math.pi / 8, -1.0, complex(-0.78740710740486608, 1.0261689211255218)),
    (math.pi / 4, math.pi / 8, 0.5 + 0.4j, complex(0.45253055241128598, 1.1354936385847811)),
    (math.pi * 3 / 8, math.pi / 32, 0.3, complex(0.19031623434260286, 1.6131545262640876)),
    (math.pi * 3 / 8, math.pi / 32, 1.0, complex(0.24568763469184074, 1.553476938336052)),
    (math.pi * 3 / 8, math.pi / 32, 1.9, complex(0.17439308304480364, 0.67693447292780073)),
    (math.pi * 3 / 8, math.pi / 32, -1.0, complex(-0.24568763469184074, 1.553476938336052)),
    (math.pi * 3 / 8, math.pi / 32, 0.5 + 0.4j, complex(0.22079647429996022, 1.7339994249870212)),
]


def principal_power(base, exponent):
    return cmath.exp(exponent * cmath.log(base))


def one_petal_closed_form(family, w):
    # sqrt(2) ((w^2-1)/2)^(1/2) (1 - w^-2)^g F(g, g - 1/2; 1/2; w^-2),
    # valid for Re w > 0 where no branch cut interferes
    g = family.gamma
    w = complex(w)
    t = w**-2
    head = math.sqrt(2.0) * principal_power((w * w - 1.0) / 2.0, 0.5)
    hyp = complex(hyp2f1_values(g, g - 0.5, 0.5, np.array([t]))[0])
    return head * principal_power(1.0 - t, g) * hyp


# ---------------------------------------------------------------------------
# exact lemniscate values


def test_lemniscate_spot_values():
    assert abs(evaluate_map(LEMNISCATE, 2.0) - math.sqrt(3.0)) <= EXACT_TOL
    assert abs(evaluate_map(LEMNISCATE, 1j) - 1j * math.sqrt(2.0)) <= EXACT_TOL
    assert abs(evaluate_map(LEMNISCATE, -2.0) + math.sqrt(3.0)) <= EXACT_TOL


def test_lemniscate_square_identity():
    # f(w)^2 = w^2 - 1 everywhere on the sheet
    rng = np.random.default_rng(11)
    w = (1.05 + 2.0 * rng.random(64)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 64))
    f = evaluate_map(LEMNISCATE, w)
    assert np.max(np.abs(f * f - (w * w - 1.0))) <= 1e-12


def test_lemniscate_gamma_is_zero():
    assert LEMNISCATE.gamma == 0.0
    assert LEMNISCATE.kind == "one-petal"


# ---------------------------------------------------------------------------
# symmetries and the hypergeometric cross-oracle


def test_map_is_odd_and_reflection_symmetric():
    phis = (np.arange(36) + 0.5) * (2 * math.pi / 36)
    ring = 1.4 * np.exp(1j * phis)
    for family in (MapFamily.one_petal(math.pi / 8), MapFamily.two_petal(math.pi / 4, math.pi / 8)):
        vals = evaluate_map(family, ring)
        assert np.max(np.abs(vals + evaluate_map(family, -ring))) <= SYMMETRY_TOL
        assert np.max(np.abs(np.conj(evaluate_map(family, np.conj(ring))) - vals)) <= SYMMETRY_TOL


def test_one_petal_matches_closed_form():
    # right half plane only; the closed form picks a different branch on the
    # left, where oddness already pins the package values
    ws = [1.3 * cmath.exp(0.9j), 2.0 + 1.5j, 1.1 * cmath.exp(-1.2j), 4.0 + 0.2j]
    for alpha in (math.pi / 8, math.pi / 3, 3 * math.pi / 8, 0.23 * math.pi):
        family = MapFamily.one_petal(alpha)
        for w in ws:
            got = evaluate_map(family, w)
            want = one_petal_closed_form(family, w)
            assert abs(got - want) <= CROSS_ORACLE_TOL * max(1.0, abs(want)), (alpha, w)


def z_of_p(family, p):
    """The two-petal pattern in p = w + 1/w; real p in the band is the limit from above.

    It is taken at the sheet point w = p/2 + (p/2 - 1)^(1/2) (p/2 + 1)^(1/2),
    |w| >= 1, whose principal roots put real p in the band on the upper
    half of the unit circle.
    """
    pts = np.atleast_1d(np.asarray(p, dtype=complex))
    half = 0.5 * pts
    request, finish = maps._two_petal_request(family.alpha, family.beta, half + np.sqrt(half - 1.0) * np.sqrt(half + 1.0))
    out = finish(hyp2f1_values(*request))
    return out if np.ndim(p) else complex(out[0])


def test_two_petal_frozen_spots():
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    got = evaluate_map(fam, 1.2 * cmath.exp(1j * math.pi / 5))
    assert abs(got - TWO_PETAL_OFF_SPOT) <= BAND_TOL
    diag = MapFamily.two_petal(math.pi / 4, math.pi / 4)
    got = evaluate_map(diag, cmath.exp(1j * math.pi / 5))
    assert abs(abs(got) - TWO_PETAL_DIAG_SPOT) <= BAND_TOL


def test_band_continuation_frozen_values():
    for alpha, beta, p, want in BAND_VALUES:
        fam = MapFamily.two_petal(alpha, beta)
        got = z_of_p(fam, p)
        assert abs(got - want) <= BAND_TOL, (alpha, beta, p)


def test_z_of_p_consistent_with_map():
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    phis = (np.arange(24) + 0.5) * (2 * math.pi / 24)
    for rho in (1.05, 1.6):
        w = rho * np.exp(1j * phis)
        direct = evaluate_map(fam, w)
        via_p = np.array([z_of_p(fam, complex(ww + 1.0 / ww)) for ww in w])
        assert np.max(np.abs(direct - via_p)) <= 1e-10


def near_corner_reference(alpha, beta, w):
    # w (1 - w^-2)^(2 alpha/pi) (1 + w^-2)^(1 - 2 alpha/pi) F(a, b; 1/2; 4/p^2)
    # at 40 digits, the far-branch formula on the whole of |w + 1/w| > 2
    with mp.workdps(40):
        w = mp.mpc(w)
        mu = 2 * mp.mpf(alpha) / mp.pi
        a = (mp.mpf(alpha) + mp.mpf(beta)) / mp.pi - mp.mpf(1) / 2
        b = (mp.mpf(alpha) - mp.mpf(beta)) / mp.pi
        p = w + 1 / w
        u = w**-2
        return complex(w * (1 - u) ** mu * (1 + u) ** (1 - mu) * mp.hyp2f1(a, b, mp.mpf(1) / 2, 4 / p**2))


def quarter_column_reference(beta, w):
    """(f, f') of two_petal(pi/4, beta) in closed form, for w in the open first quadrant, |w| > 1.

    At alpha = pi/4, b = -a with a = beta/pi - 1/4, and F(a, -a; 1/2; t) =
    cos(2a arcsin sqrt t) (DLMF 15.4(iii)).  With s = (w - 1)(w + 1)/w,
    p = (w - i)(w + i)/w (both w -/+ 1/w, factored) and u = (s + 2i)/p =
    e^{i arcsin(2/p)}, Z = p (s/p)^(1/2) (u^(2a) + u^(-2a))/2, and by
    d log u/dw = -2i/(w p), f' = Z (s/p + p/s)/(2w) - 2ia (s/p)^(1/2)
    (u^(2a) - u^(-2a))/w.  u^(-2a) is exp(-2a log u), never (s - 2i)/p, so
    no difference cancels, and double precision is enough: an oracle
    independent of the package's 2F1 routes.
    """
    a = beta / math.pi - 0.25
    s = (w - 1.0) * (w + 1.0) / w
    p = (w - 1j) * (w + 1j) / w
    root = np.sqrt(s / p)
    log_u = np.log((s + 2j) / p)
    up, down = np.exp(2.0 * a * log_u), np.exp(-2.0 * a * log_u)
    z = p * root * 0.5 * (up + down)
    return z, z * (s / p + p / s) / (2.0 * w) - 2j * a * root * (up - down) / w


def quarter_column_second_solution(beta, w):
    """(g, g') of the second solution g = p (s/p)^(1/2) sin(2a arcsin(2/p)) on the alpha = pi/4 column.

    F(1/2 + a, 1/2 - a; 3/2; t) t^(1/2) is sin(2a arcsin sqrt t)/(2a)
    (DLMF 15.4(iii)), so g solves the map's equation; with the names of
    `quarter_column_reference`, g = p (s/p)^(1/2) (u^(2a) - u^(-2a))/(2i)
    and g' = g (s/p + p/s)/(2w) - 2a (s/p)^(1/2) (u^(2a) + u^(-2a))/w.
    """
    a = beta / math.pi - 0.25
    s = (w - 1.0) * (w + 1.0) / w
    p = (w - 1j) * (w + 1j) / w
    root = np.sqrt(s / p)
    log_u = np.log((s + 2j) / p)
    up, down = np.exp(2.0 * a * log_u), np.exp(-2.0 * a * log_u)
    g = p * root * (up - down) / 2j
    return g, g * (s / p + p / s) / (2.0 * w) - 2.0 * a * root * (up + down) / w


def p_plane_reference(alpha, beta, w):
    """f at a double w by 40-digit mpmath in p = w + 1/w, following the package's side rule.

    w is folded into the closed first quadrant and p into |Re p| + i |Im p|,
    where Z = p (1 - 4/p^2)^(alpha/pi) F(a, b; 1/2; 4/p^2) takes principal
    branches (real p in the band is the limit from above, mpmath's value on
    F's cut); the value is unfolded by f(conj w) = conj f(w) and
    f(-w) = -f(w).  So a double w on |w| = 1 that rounds inside the circle
    takes the side the package takes.
    """
    with mp.workdps(40):
        q = mp.mpc(abs(w.real), abs(w.imag))
        p = q + 1 / q
        p = mp.mpc(abs(p.real), abs(p.imag))
        a = (mp.mpf(alpha) + mp.mpf(beta)) / mp.pi - mp.mpf(1) / 2
        b = (mp.mpf(alpha) - mp.mpf(beta)) / mp.pi
        z = complex(p * (1 - 4 / p**2) ** (mp.mpf(alpha) / mp.pi) * mp.hyp2f1(a, b, mp.mpf(1) / 2, 4 / p**2))
    if w.imag < 0.0:
        z = z.conjugate()
    return -z.conjugate() if w.real < 0.0 else z


@pytest.mark.parametrize(
    "alpha, beta",
    [
        (math.pi / 5, math.pi / 9),
        (math.pi / 8, math.pi / 16),
        (math.pi / 4, math.pi / 8),
        (3 * math.pi / 8, math.pi / 32),
    ],
)
def test_two_petal_near_corner_against_mpmath(alpha, beta):
    # the far branch next to the base corners w = +-1, where 1 - 4/p^2 is
    # of order eps^2 and must not be formed by cancellation: the map hands
    # its factored d/p^2 to F's 1 - t connection
    fam = MapFamily.two_petal(alpha, beta)
    worst = 0.0
    for eps in (1e-4, 1e-5, 1e-6, 1e-7):
        for theta in (-0.6, -0.2, 0.3, 0.7):
            for sign in (1.0, -1.0):
                w = sign * (1.0 + eps * cmath.exp(1j * theta))
                assert abs(w + 1.0 / w) > 2.0
                want = near_corner_reference(alpha, beta, w)
                worst = max(worst, abs(evaluate_map(fam, w) - want) / abs(want))
    assert worst <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_unit_circle_next_to_base_corner_against_mpmath(sign):
    # within 1.5e-8 rad of w = +-1 on the unit circle, t = 4/p^2 rounds to 1
    # while the factored 1 - t = d/p^2 is about -phi^2: the point is on the
    # cut, approached from below, not at the branch point.  Measured: at most
    # 1.7e-15 off for phi from 1e-11 to 3e-8
    fam = MapFamily.two_petal(math.pi / 5, math.pi / 10)
    for phi in np.geomspace(1e-9, 1e-11, 5):
        for w in (sign * cmath.exp(1j * phi), sign * cmath.exp(-1j * phi)):
            want = near_corner_reference(fam.alpha, fam.beta, w)
            assert abs(evaluate_map(fam, w) - want) <= 4e-15 * abs(want), (phi, w)


@pytest.mark.parametrize("alpha, beta", [(0.025, 1.2), (0.01, 0.3), (math.pi / 2 - 0.01, 0.6)])
def test_two_petal_edge_alpha_against_mpmath(alpha, beta):
    # c - a - b = 1 - 2 alpha/pi lies within 0.02 of an integer, so F's
    # 1 - t connection nearly cancels; it is the only route next to t = 1.
    # On the first quadrant the reference's principal branches are the map's.
    fam = MapFamily.two_petal(alpha, beta)
    worst = 0.0
    for rho in (1.001, 1.01, 1.1, 1.5, 2.2, 3.0):
        for theta in (0.01, 0.3, 0.6, 0.95, 1.25, 1.56):
            w = rho * cmath.exp(1j * theta)
            want = near_corner_reference(alpha, beta, w)
            worst = max(worst, abs(evaluate_map(fam, w) - want) / abs(want))
    assert worst <= 1e-12


@pytest.mark.parametrize("alpha", [1e-6, math.pi / 2 - 1e-6])
def test_two_petal_extreme_alpha_off_the_corners_against_mpmath(alpha):
    # c - a - b = 1 - 2 alpha/pi is within 1e-6 of an integer, where the
    # 1 - t connection loses ~6e-18/dist^2; at t = 4/p^2 in (0.5, 0.8) it
    # has the smallest argument but the direct series reaches too
    fam = MapFamily.two_petal(alpha, 0.6)
    worst = 0.0
    for w in (2.1, 1.8, 2.1 * cmath.exp(0.2j), 1.9 * cmath.exp(0.5j)):
        want = near_corner_reference(alpha, 0.6, w)
        worst = max(worst, abs(evaluate_map(fam, w) - want) / abs(want))
    assert worst <= 1e-14


def near_corner_derivative_reference(alpha, beta, w):
    # f' of `near_corner_reference` by the chain rule at 40 digits, with
    # F' = 2ab F(a+1, b+1; 3/2; t) (DLMF 15.5.1) and dt/dw = -8 (1 - w^-2)/p^3
    with mp.workdps(40):
        w = mp.mpc(w)
        mu = 2 * mp.mpf(alpha) / mp.pi
        a = (mp.mpf(alpha) + mp.mpf(beta)) / mp.pi - mp.mpf(1) / 2
        b = (mp.mpf(alpha) - mp.mpf(beta)) / mp.pi
        p = w + 1 / w
        u = w**-2
        t = 4 / p**2
        g = w * (1 - u) ** mu * (1 + u) ** (1 - mu)
        dg = g * (1 / w + 2 * mu * u / (w * (1 - u)) - 2 * (1 - mu) * u / (w * (1 + u)))
        dF = 2 * a * b * mp.hyp2f1(a + 1, b + 1, mp.mpf(3) / 2, t)
        return complex(dg * mp.hyp2f1(a, b, mp.mpf(1) / 2, t) - g * dF * 8 * (1 - u) / p**3)


@st.composite
def first_quadrant_sheet_points(draw):
    """(family, w): a two-petal family and w in the open first quadrant, log-uniform 1 < |w| < 5, 1e-6 off every corner."""
    family = MapFamily.two_petal(draw(st.floats(*ANGLE_RANGE)), draw(st.floats(*ANGLE_RANGE)))
    radius = math.exp(draw(st.floats(0.0, math.log(5.0), exclude_min=True, exclude_max=True)))
    w = cmath.rect(radius, draw(st.floats(0.0, 0.5 * math.pi, exclude_min=True, exclude_max=True)))
    assume(abs(w) > 1.0 and min(abs(w - xi) for xi in family.corner_preimages) >= 1e-6)
    return family, w


@given(first_quadrant_sheet_points())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_first_quadrant_sheet_against_mpmath(item):
    # the whole sheet, measured at 582 seeded draws: f at most 1.7e-14 and
    # f' at most 3.9e-11 (the arc stencil) relative, no refusal.  No point
    # is refused: F's quadratic route reaches the blind spot near
    # t = e^{-i pi/3} for every family drawn here.  Within 0.01 of
    # a - b = 0 (beta within 0.0157 of pi/4) the 1/t connection cancels: f
    # is 7.5e-13 off at |a - b| = 5e-4, and 7.8e-13 for two_petal(0.1,
    # 0.775) at w = 1.19 e^{1.57i}, so that window is left out here
    family, w = item
    assume(abs(family.delta - 0.5) >= 0.01)
    f, fp = evaluate_map(family, w), map_derivative(family, w)
    want = near_corner_reference(family.alpha, family.beta, w)
    assert abs(f - want) <= 1e-12 * abs(want)
    want = near_corner_derivative_reference(family.alpha, family.beta, w)
    assert abs(fp - want) <= 1e-10 * abs(want)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 5: 1.4e-6 off the base corner the arc stencil's f' is 4.05e-9 off mpmath, over the 1e-10 bound")
def test_first_quadrant_sheet_next_to_the_base_corner():
    # the point test_first_quadrant_sheet_against_mpmath draws when
    # tests/test_maps.py is run alone, under its bounds, pinned so that the
    # stencil's defect shows whichever test files are collected; f is
    # 3.9e-16 off
    family, w = MapFamily.two_petal(0.29485136277208784, 1.5), 1.000001 + 1.000001e-6j
    want = near_corner_reference(family.alpha, family.beta, w)
    assert abs(evaluate_map(family, w) - want) <= 1e-12 * abs(want)
    want = near_corner_derivative_reference(family.alpha, family.beta, w)
    assert abs(map_derivative(family, w) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("alpha, beta", [(math.pi / 5, math.pi / 10), (math.pi / 5, math.pi / 20), (1.2, 0.4)])
def test_top_corner_factored_p_against_mpmath(alpha, beta):
    # within 1e-4 of w = +-i, p = w + 1/w -> 0 cancels, by about
    # delta ulp/|p| relative; (w - i)(w + i)/w does not.  Points just off the
    # circle, and on it, where the double w may round inside: the reference
    # then takes the package's side.  Measured: at most 3.2e-15 off, where
    # w + 1/w was 8.0e-10 off
    fam = MapFamily.two_petal(alpha, beta)
    worst = 0.0
    for corner in (1j, -1j):
        for side in (1.0, -1.0):
            for psi in np.geomspace(1e-11, 1e-4, 6):
                for gap in (0.0, 1e-12, 1e-9, 1e-6):
                    w = corner * (1.0 + gap) * cmath.exp(1j * side * psi)
                    want = p_plane_reference(alpha, beta, w)
                    worst = max(worst, abs(evaluate_map(fam, w) - want) / abs(want))
    assert worst <= 1e-14


QUARTER_BETAS = (0.1, 0.3, 0.6, 1.0, 1.3, 1.5)
CORNER_GAPS = (1e-12, 1e-9, 1e-6)


def quarter_column_points(rng):
    """The first-quadrant test points of one beta on the alpha = pi/4 column, by region."""
    psi = np.geomspace(1e-11, 1e-2, 10)
    offsets = np.repeat(1.0 + np.array(CORNER_GAPS), psi.size) * np.exp(1j * np.tile(psi, len(CORNER_GAPS)))
    return {
        "bulk": np.exp(rng.uniform(math.log(1.01), math.log(6.0), 45)) * np.exp(1j * rng.uniform(0.01, 1.56, 45)),
        "far field": np.exp(rng.uniform(math.log(10.0), math.log(1e8), 20)) * np.exp(1j * rng.uniform(0.0, 0.5 * math.pi, 20)),
        "base corner": offsets,
        "top corner": 1j * np.conj(offsets),
        "blind spot": rng.uniform(1.8, 2.05, 25) * np.exp(1j * np.radians(rng.uniform(40.0, 50.0, 25))),
    }


@pytest.fixture(scope="module")
def quarter_column():
    """Per region, (w, closed-form f and f', and the package's (f, f') or its refusal) on the column, six betas."""
    rng = np.random.default_rng(30)
    rows = {}
    for beta in QUARTER_BETAS:
        fam = MapFamily.two_petal(math.pi / 4, beta)
        for region, ws in quarter_column_points(rng).items():
            for w, f, fp in zip(ws, *quarter_column_reference(beta, ws)):
                try:
                    got = evaluate_map(fam, w), map_derivative(fam, w)
                except Hyp2F1DomainError as exc:
                    got = exc
                rows.setdefault(region, []).append((w, f, fp, got))
    return rows


def quarter_column_errors(rows):
    """The worst f and f' errors of the evaluated rows (f' against max(|f'|, |f|/|w|)) and the refusals."""
    worst_f = worst_fp = 0.0
    refused = 0
    for w, f, fp, got in rows:
        if isinstance(got, Exception):
            refused += 1
            continue
        worst_f = max(worst_f, abs(got[0] - f) / abs(f))
        worst_fp = max(worst_fp, abs(got[1] - fp) / max(abs(fp), abs(f) / abs(w)))
    return worst_f, worst_fp, refused


def test_quarter_column_against_closed_form(quarter_column):
    # 900 points, measured: f at most 1.7e-15 in the bulk, 6.6e-16 in the
    # far field, 1.9e-15 at the base and 3.3e-15 at the top corner (1.9e-9
    # with p = w + 1/w unfactored next to +-i); f' at most 1.3e-11 in the
    # bulk, 5.1e-14 in the far field and 1.5e-13 in the blind-spot box.  No
    # point is refused: F's quadratic route reaches the box, where before
    # it 1 of 270 bulk points and 64 of 150 in the box were refused
    for region, rows in quarter_column.items():
        worst_f, worst_fp, refused = quarter_column_errors(rows)
        assert worst_f <= 1e-12, region
        if "corner" not in region:
            assert worst_fp <= 1e-10, region
        assert refused == 0, region


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the arc stencil's f' is 1.0e-8 off next to the corners")
def test_quarter_column_corner_derivatives(quarter_column):
    for region in ("base corner", "top corner"):
        assert quarter_column_errors(quarter_column[region])[1] <= 1e-10, region


def test_quarter_column_blind_spot_evaluates(quarter_column):
    # every point of the box around t = e^{-i pi/3}, where each Mobius
    # route's modulus is about 1, takes F's quadratic route
    assert quarter_column_errors(quarter_column["blind spot"])[2] == 0


def test_quarter_column_ratio_in_closed_form():
    # A = 8 pi^2/|Gamma(a) Gamma(-a) Gamma(1/2 - a) Gamma(1/2 + a)| =
    # 4 |a sin 2 pi a| on the column; estimate_A measured within 1.4e-14
    for beta in QUARTER_BETAS:
        a = beta / math.pi - 0.25
        want = 4.0 * abs(a * math.sin(2.0 * math.pi * a))
        assert abs(verify.estimate_A(MapFamily.two_petal(math.pi / 4, beta)).value - want) <= 1e-13 * want, beta


def test_quarter_column_partner_is_one_combination():
    # the partner at the Wronskian probes is c f + d g for one pair (c, d):
    # fitted from (h, h') at the first probe, it holds h and h' at the
    # other seven within 5e-14 relative (measured at most 1.0e-14)
    w = verify._wronskian_probes()
    for beta in QUARTER_BETAS:
        ((h, hp),) = maps._samples([(MapFamily.two_petal(math.pi / 4, beta), w, "partner")])
        f, fp = quarter_column_reference(beta, w)
        g, gp = quarter_column_second_solution(beta, w)
        c, d = np.linalg.solve([[f[0], g[0]], [fp[0], gp[0]]], [h[0], hp[0]])
        assert np.max(np.abs(c * f + d * g - h) / np.abs(h)) <= 5e-14, beta
        assert np.max(np.abs(c * fp + d * gp - hp) / np.abs(hp)) <= 5e-14, beta


# families of the quadratic route's accuracy test, each with its bound on
# f's relative error, about twice its measured worst: a plain family, small
# angles, c - a - b = 0.0132 (the 1 - t connection's coefficients, which the
# quadratic route takes, cancel by about 1/0.0132) and a - b = -0.0066 (the
# 1/t route, which alone reaches next to the top corners, cancels by about
# 1/0.0066)
QUADRATIC_FAMILIES = {(math.pi / 5, math.pi / 10): 4e-15, (0.05, 0.02): 4e-15, (1.55, 0.7): 2e-14, (0.1, 0.775): 2e-14}


def quadratic_route_points(rng):
    """Seeded first-quadrant points by region: the band next to the circle, the base corner and the blind-spot box."""
    psi = np.geomspace(1e-7, 1e-2, 6)
    gaps = np.repeat(1.0 + np.array(CORNER_GAPS), psi.size)
    return {
        "band": (1.0 + 10.0 ** rng.uniform(-6.0, -0.5, 20)) * np.exp(1j * rng.uniform(0.01, 0.5 * math.pi - 0.01, 20)),
        "base corner": gaps * np.exp(1j * np.tile(psi, len(CORNER_GAPS))),
        "blind spot": rng.uniform(1.875, 1.99, 20) * np.exp(1j * np.radians(rng.uniform(43.0, 47.0, 20))),
    }


@pytest.mark.parametrize("alpha, beta", list(QUADRATIC_FAMILIES), ids=lambda x: "%.4f" % x)
def test_quadratic_route_against_mpmath(alpha, beta):
    # F's quadratic route takes most points next to the unit circle and all
    # of the blind-spot box, where no Mobius route reaches.  Measured worst
    # by family (band, base corner, box): 7.6e-16, 1.7e-15, 5.5e-16;
    # 1.3e-15, 3.5e-16, 7.2e-16; 7.7e-15, 2.4e-15, 1.1e-14; 9.8e-15 (on the
    # 1/t route next to the top corners), 4.5e-16, 2.6e-15.  Before the
    # route they were 1.0e-15, 1.1e-15, 1.1e-15; 1.4e-15, 8.1e-16, 1.4e-15;
    # 5.8e-14, 2.0e-14, 6.2e-14; 2.9e-14, 3.5e-14, 7.8e-14, with 10 of 20
    # box points refused in each family
    fam = MapFamily.two_petal(alpha, beta)
    rng = np.random.default_rng(49)
    for region, ws in quadratic_route_points(rng).items():
        got = evaluate_map(fam, ws)
        want = np.array([near_corner_reference(alpha, beta, w) for w in ws])
        assert np.max(np.abs(got - want) / np.abs(want)) <= QUADRATIC_FAMILIES[(alpha, beta)], region


# families whose F takes the quadratic route only as a last resort: a - b in
# the 1/t route's window (beta = pi/4, alpha any) and c - a - b within
# 0.0061 of an integer (alpha near 0 or pi/2)
WINDOW_FAMILIES = [(alpha, beta) for beta in (math.pi / 4, math.pi / 4 + 3e-5) for alpha in (0.1, 0.6, 1.2)]
NEAR_INTEGER_FAMILIES = [
    (alpha, beta) for alpha in (1e-6, 1e-4, 3e-3, 0.009, math.pi / 2 - 0.009, math.pi / 2 - 1e-5) for beta in (0.3, 1.2)
]


@pytest.mark.parametrize("alpha, beta", WINDOW_FAMILIES + NEAR_INTEGER_FAMILIES, ids=lambda x: "%.6g" % x)
def test_last_resort_families_refuse_no_sheet_point(alpha, beta):
    # 60 radii from 1 + 1e-9 to 4 by 60 angles over the closed first
    # quadrant, the blind spot near t = e^{-i pi/3} among them: every value
    # is finite.  Before the last resort each family refused 4 points
    radii, angles = np.meshgrid(np.linspace(1.0 + 1e-9, 4.0, 60), np.linspace(0.0, 0.5 * math.pi, 60))
    values = evaluate_map(MapFamily.two_petal(alpha, beta), (radii * np.exp(1j * angles)).ravel())
    assert np.all(np.isfinite(values))


def last_resort_points():
    """The band and base corner of `quadratic_route_points`, the blind spot's core and a polar grid.

    The core is a 4 x 4 box, abs(w) 1.9-1.96 and arg w 44-46 degrees,
    where t = 4/p^2 is within 5% of e^{-i pi/3} and no direct or Pfaff
    series, of t or of 1/t, sums at modulus ``TRANSFORM_RADIUS`` or below.
    The polar grid is 6 x 6, abs(w) - 1 from 1e-3 to 2 and arg w from 0.01
    to 1.56.
    """
    points = quadratic_route_points(np.random.default_rng(49))
    radii, angles = np.meshgrid(np.linspace(1.9, 1.96, 4), np.radians(np.linspace(44.0, 46.0, 4)))
    points["box"] = (radii * np.exp(1j * angles)).ravel()
    radii, angles = np.meshgrid(1.0 + np.geomspace(1e-3, 2.0, 6), np.linspace(0.01, 1.56, 6))
    points["polar grid"] = (radii * np.exp(1j * angles)).ravel()
    return points


def last_resort_errors(alpha, beta, regions):
    """The worst relative error of f against 40-digit mpmath in each region."""
    fam = MapFamily.two_petal(alpha, beta)
    points = last_resort_points()
    errors = {}
    for region in regions:
        got = evaluate_map(fam, points[region])
        want = np.array([near_corner_reference(alpha, beta, w) for w in points[region]])
        errors[region] = np.max(np.abs(got - want) / np.abs(want))
    return errors


# bounds on f's relative error where the last resort now serves, about 4x
# the measured worst: window families at the base corner and in the box
# (measured at most 2.0e-15; before, 4.1e-8 to 6.8e-8 at the base corner
# from the window average, and all 16 box points refused), and
# two_petal(1e-4, 0.6), c - a - b = 1 - 6.4e-5 (measured 1.2e-14, 8.4e-13
# and 3.6e-14; before, 7.0e-11, all 16 refused and 3.0e-13)
LAST_RESORT_BOUNDS = {
    (math.pi / 3, math.pi / 4): {"base corner": 8e-15, "box": 8e-15},
    (0.6, math.pi / 4): {"base corner": 8e-15, "box": 8e-15},
    (math.pi / 5, math.pi / 4 + 5e-5): {"base corner": 8e-15, "box": 8e-15},
    (1e-4, 0.6): {"band": 5e-14, "box": 3.5e-12, "polar grid": 1.5e-13},
}


@pytest.mark.parametrize("alpha, beta", list(LAST_RESORT_BOUNDS), ids=lambda x: "%.6g" % x)
def test_last_resort_against_mpmath(alpha, beta):
    bounds = LAST_RESORT_BOUNDS[(alpha, beta)]
    for region, error in last_resort_errors(alpha, beta, bounds).items():
        assert error <= bounds[region], region


@pytest.mark.xfail(strict=True, reason="ROADMAP item 35: integer a - b takes the window average, not the logarithmic connection")
@pytest.mark.parametrize("alpha", [math.pi / 3, 0.6], ids=lambda x: "%.4f" % x)
def test_window_average_against_mpmath(alpha):
    # where a Mobius route reaches, a window family's F averages the 1/t
    # connection at a +- 1e-4, b -+ 1e-4: measured 1.4e-7 and 1.8e-7 off in
    # the band, and 4.2e-7 and 1.1e-6 on the polar grid
    for region, error in last_resort_errors(alpha, math.pi / 4, ("band", "polar grid")).items():
        assert error <= 1e-12, region


def reference_elementary_continued(family, p):
    """The slit-map special case of `reference_band`, kept verbatim."""
    mu = family.alpha / math.pi
    out = np.empty(p.shape, dtype=complex)
    strict = p.imag > 0.0
    if strict.any():
        ps = p[strict]
        out[strict] = ps * maps._power(1.0 - 4.0 / (ps * ps), mu)
    flat = ~strict
    if flat.any():
        x = p[flat].real
        mag = np.abs(1.0 - 4.0 / (x * x)) ** mu
        phase = np.where(x > 0.0, cmath.exp(1j * family.alpha), cmath.exp(-1j * family.alpha))
        out[flat] = x * mag * phase
    return out


def reference_band(family, p):
    """The hand-written band form |p| < 2, Im p >= 0 that F's 1/t route replaced.

    Kept as it was, with its 1e-4 window constant written in.
    """
    alpha, beta = family.alpha, family.beta
    aa = (alpha + beta) / math.pi - 0.5
    bb = (alpha - beta) / math.pi
    if aa == 0.0 or bb == 0.0:
        return reference_elementary_continued(family, p)
    delta = family.delta
    if abs(delta - 0.5) < 1e-4:
        shift = math.pi * 1e-4
        lo = MapFamily.two_petal(alpha, beta - shift)
        hi = MapFamily.two_petal(alpha, beta + shift)
        return 0.5 * (reference_band(lo, p) + reference_band(hi, p))

    coeff_low = _gamma_quotient((0.5, 0.5 - delta), ((alpha - beta) / math.pi, 1.0 - (alpha + beta) / math.pi))
    coeff_high = _gamma_quotient((0.5, delta - 0.5), ((alpha + beta) / math.pi - 0.5, 0.5 - (alpha - beta) / math.pi))
    t = 0.25 * p * p
    first = hyp2f1_values((alpha + beta) / math.pi - 0.5, (alpha + beta) / math.pi, delta + 0.5, t)
    second = hyp2f1_values((alpha - beta) / math.pi + 0.5, (alpha - beta) / math.pi, 1.5 - delta, t)
    half = 0.5 * p
    prefactor = 2.0 * maps._power(1.0 - t, alpha / math.pi)
    term_low = 1j * cmath.exp(-1j * beta) * coeff_low * maps._power(half, delta) * first
    term_high = cmath.exp(1j * beta) * coeff_high * maps._power(half, 1.0 - delta) * second
    return prefactor * (term_low + term_high)


@pytest.mark.parametrize(
    "alpha, beta, tol",
    [
        (math.pi / 8, math.pi / 16, 1e-13),
        (math.pi / 5, math.pi / 9, 1e-13),
        (math.pi * 3 / 8, math.pi / 32, 1e-13),
        (math.pi / 4, math.pi / 4 - math.pi / 8, 1e-13),
        (0.4 * math.pi, 0.1 * math.pi, 1e-13),  # b = 0.3, a = 0: the slit map
        (math.pi / 3, math.pi / 4, 1e-10),  # delta = 1/2: both average a window
    ],
)
def test_band_matches_reference(alpha, beta, tol):
    # the far formula through F's 1/t route against the band form it replaced,
    # on the upper half of |p| < 2 and on the real segment (limit from above)
    fam = MapFamily.two_petal(alpha, beta)
    radii, angles = np.meshgrid(np.linspace(0.05, 1.85, 19), np.linspace(0.0, math.pi, 25))
    p = (radii * np.exp(1j * angles)).reshape(-1)
    p = np.where(np.abs(p.imag) < 1e-12, p.real + 0.0j, p)
    got = z_of_p(fam, p)
    want = reference_band(fam, p)
    assert np.max(np.abs(got - want) / np.abs(want)) <= tol


def test_window_edge_family_evaluates():
    # a - b = -9.999999999998899e-05 sits just inside the delta = 1/2 window,
    # and one of its parameter offsets rounds to just inside the other side
    fam = MapFamily.two_petal(0.3, 0.7852410837647688)
    for w in (0.3 + 1.2j, 1.1 + 0.2j):
        z = evaluate_map(fam, w)
        assert cmath.isfinite(z)
        for target in (z, 1.5 + 2.0j, 0.4 + 0.4j, 3.0j):
            try:
                root = invert_map(fam, target)
            except InversionError:
                continue
            assert abs(evaluate_map(fam, root) - target) <= INVERSION_TOL * (1.0 + abs(target))


def test_z_of_p_lower_half_conjugate():
    fam = MapFamily.two_petal(math.pi / 8, math.pi / 16)
    upper = z_of_p(fam, 0.5 + 0.4j)
    lower = z_of_p(fam, 0.5 - 0.4j)
    assert abs(lower - np.conj(upper)) <= 1e-13


def refusal_or_value(family, w):
    try:
        return evaluate_map(family, w)
    except MapDomainError as exc:
        return type(exc).__name__


def test_mirrored_two_petal_families_are_one_map():
    # beta -> pi/2 - beta swaps F's a = (alpha + beta)/pi - 1/2 and
    # b = (alpha - beta)/pi, so the two families are one map reached through
    # different arithmetic.  The pinned sweep's nodes (k, j) and (k, 18 - j)
    # agree in every column; values at seeded sheet points agree to 1e-10
    # (1.9e-13 here and 1.1e-11 at other draws next to beta = pi/4, where
    # a - b = 0 and the 1/t route averages a window; 7.4e-15 away from it);
    # and a point refused for one family is refused for its mirror: the
    # corners.  On the diagonal, where t = 4/p^2 = e^{-i pi/3}, every
    # family evaluates, through F's quadratic route, the two window
    # families as a last resort
    cases = [line.split(",")[2:] for line in (DATA / "sweep_default.csv").read_text().splitlines()[1:]]
    for k in range(17):
        assert [cases[17 * k + j] for j in range(17)] == [cases[17 * k + 16 - j] for j in range(17)], k + 1
    rng = np.random.default_rng(20)
    edge = 0.5 * (1.0 + math.sqrt(3.0))
    corners, diagonal = [1.0j, -1.0], [edge * (1.0 + 1.0j), edge * (-1.0 + 1.0j)]
    windows = [math.pi / 4 + 5e-5, math.pi / 4 - 1e-6]
    for beta in list(rng.uniform(0.0, 0.5 * math.pi, 20)) + windows:
        alpha = rng.uniform(0.0, 0.5 * math.pi)
        family, mirror = MapFamily.two_petal(alpha, beta), MapFamily.two_petal(alpha, 0.5 * math.pi - beta)
        ws = rng.uniform(1.01, 5.0, 12) * np.exp(1j * rng.uniform(-math.pi, math.pi, 12))
        for w in [*ws, *corners, *diagonal]:
            got, want = refusal_or_value(family, w), refusal_or_value(mirror, w)
            if isinstance(got, str) or isinstance(want, str) or w in corners:
                assert got == want and isinstance(got, str) and w in corners, (alpha, beta, w)
            else:
                assert abs(got - want) <= 1e-10 * abs(want), (alpha, beta, w)


# ---------------------------------------------------------------------------
# domain policing


def test_inside_disk_rejected():
    for family in (LEMNISCATE, MapFamily.two_petal(math.pi / 4, math.pi / 8)):
        with pytest.raises(MapDomainError):
            evaluate_map(family, 0.5)


def test_corner_preimages_rejected():
    with pytest.raises(CornerPreimageError):
        evaluate_map(LEMNISCATE, 1.0)
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    with pytest.raises(CornerPreimageError):
        evaluate_map(fam, 1j)
    assert LEMNISCATE.corner_preimages == (1 + 0j, -1 + 0j)
    assert fam.corner_preimages == (1 + 0j, -1 + 0j, 1j, -1j)


def test_potential_pole_is_a_corner_preimage_error():
    # the potential names the corner the way the map does, and stays a MapDomainError
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    for family, xi in ((LEMNISCATE, -1.0), (fam, 1j), (fam, np.array([1.5, -1j]))):
        with pytest.raises(CornerPreimageError, match="corner pre-image"):
            potential_V(family, xi)
    assert issubclass(CornerPreimageError, MapDomainError)


def test_gate_names_first_corner_in_family_order():
    # the gate names the first corner pre-image, in corner_preimages order,
    # that any point touches, whatever the points' own order
    two = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    cases = ((two, [2.0, -1j, 1.0], "(1+0j)"), (two, [2.0, -1j], "(-0-1j)"), (LEMNISCATE, [-1.0, 1.0], "(1+0j)"))
    for family, pts, name in cases:
        for fn in (evaluate_map, map_derivative, potential_V):
            with pytest.raises(CornerPreimageError) as info:
                fn(family, np.array(pts, dtype=complex))
            assert str(info.value) == "evaluation at corner pre-image " + name, (family.label(), pts, fn.__name__)
    # no points, no values
    for family in (LEMNISCATE, two):
        for shape in ((0,), (0, 3)):
            for fn in (evaluate_map, map_derivative):
                got = fn(family, np.empty(shape, dtype=complex))
                assert got.shape == shape and got.dtype == complex, (family.label(), shape, fn.__name__)


@pytest.mark.filterwarnings("error")
def test_potential_non_finite_point_is_a_map_domain_error():
    fam = MapFamily.two_petal(0.5, 0.3)
    for w in (complex("nan"), complex("inf"), complex(1.0, math.inf), np.array([1.5, math.nan])):
        with pytest.raises(MapDomainError, match="non-finite"):
            potential_V(fam, w)
    # V is rational: unlike the map it is defined inside the unit circle too
    w = 0.5 + 0.25j
    want = 16.0 * (0.5 / math.pi) * (1 - 0.5 / math.pi) * w**2 / (w**2 - 1) ** 2
    want -= 8.0 * (0.3 / math.pi) * (1 - 0.6 / math.pi) * w**2 / (w**2 + 1) ** 2
    assert abs(potential_V(fam, w) - want) <= 1e-14


ANGLE_RANGE = (0.01, 0.5 * math.pi - 0.01)


@st.composite
def petal_families(draw):
    """A one- or two-petal family, every angle in ANGLE_RANGE."""
    alpha = draw(st.floats(*ANGLE_RANGE))
    if draw(st.booleans()):
        return MapFamily.two_petal(alpha, draw(st.floats(*ANGLE_RANGE)))
    return MapFamily.one_petal(alpha)


@st.composite
def sheet_points(draw):
    """(family, w): a one- or two-petal family and a point 1 <= |w| <= 5, 1e-6 off every corner."""
    family = draw(petal_families())
    w = cmath.rect(draw(st.floats(1.0, 5.0)), draw(st.floats(-math.pi, math.pi)))
    assume(min(abs(w - xi) for xi in family.corner_preimages) >= 1e-6)
    return family, w


@given(sheet_points())
# no 2F1 route reaches 4/(w + 1/w)^2 at these points
@example((MapFamily.two_petal(math.pi / 4, math.pi / 8), 1.366 + 1.366j))
@example((MapFamily.two_petal(1.293062, 1.314267), -1.3521634487139695 - 1.361516210247208j))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sheet_point_finite_or_map_domain_error(item):
    # every sheet point off the corners evaluates or raises a MapDomainError;
    # the hypergeometric domain error is one, under its own name
    family, w = item
    assert issubclass(Hyp2F1DomainError, MapDomainError)
    try:
        value = evaluate_map(family, w)
    except MapDomainError:
        return
    assert cmath.isfinite(value)


@given(sheet_points())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sheet_symmetries(item):
    # the evaluators build the symmetries in, so a battery check of them could
    # not fail; they are pinned here over the whole sheet instead: w, -w and
    # conj(w) evaluate together or not at all, and f(-w) = -f(w),
    # f(conj w) = conj f(w)
    family, w = item
    points = np.array([w, -w, w.conjugate()])
    try:
        value = evaluate_map(family, w)
    except MapDomainError:
        for p in points[1:]:
            with pytest.raises(MapDomainError):
                evaluate_map(family, p)
        return
    odd, refl = evaluate_map(family, points[1:])
    scale = max(1.0, abs(value))
    assert abs(odd + value) <= SYMMETRY_TOL * scale
    assert abs(refl - value.conjugate()) <= SYMMETRY_TOL * scale


def test_non_finite_point_is_a_map_domain_error():
    fam = MapFamily.two_petal(0.5, 0.3)
    for w in (complex("nan"), complex("inf"), complex(1.0, math.inf)):
        for fn in (evaluate_map, map_derivative):
            with pytest.raises(MapDomainError, match="non-finite"):
                fn(fam, w)
    # refused at the first step, not after NEWTON_MAX_ITER of them
    with pytest.raises(InversionError) as info:
        invert_map(fam, complex("nan"))
    assert isinstance(info.value.__cause__, MapDomainError)


@pytest.mark.parametrize("radius", [1e155, 1e200, 1e300])
def test_far_field_is_finite(radius):
    # past |w| ~ 1e154, p^2 = (w + 1/w)^2 and w^2 overflow, and past 1e77
    # V's (w^2 -/+ 1)^2 does; there f(w) = w, f' = 1 and V = c/w^2 to double
    # precision, c = 16 mu (1 - mu) - 8 nu (1 - 2 nu), with mu = alpha/pi and
    # nu = beta/pi.  No numpy warning (the autouse fixture fails on one)
    fam = MapFamily.two_petal(math.pi / 5, math.pi / 10)
    mu, nu = fam.alpha / math.pi, fam.beta / math.pi
    c = 16.0 * mu * (1.0 - mu) - 8.0 * nu * (1.0 - 2.0 * nu)
    w = radius * np.exp(1j * np.array([0.0, 0.3, 1.2, 0.5 * math.pi, 2.5, math.pi, -0.7, -0.5 * math.pi]))
    assert np.max(np.abs(evaluate_map(fam, w) / w - 1.0)) <= 1e-15
    values, derivs, seconds = maps._tangential_derivatives(fam, w)
    assert np.max(np.abs(derivs - 1.0)) <= 1e-10 and np.all(np.isfinite(seconds))
    assert np.array_equal(map_derivative(fam, w), derivs)
    # V is subnormal at 1e155 and rounds to zero farther out
    v, want = potential_V(fam, w), c / w / w
    assert np.all(np.abs(v - want) <= 1e-15 * np.abs(want) + 16 * 5e-324)


def test_far_partner_is_finite():
    # past |w| ~ 1e102 the partner's p^3 overflows and dX/dw is 2 t p'/p,
    # and past 1e154 the outer factor times dF/dX's p/2 would overflow:
    # h ~ p, so w h'/h = 1 to double precision (no numpy warning)
    fam = MapFamily.two_petal(math.pi / 5, math.pi / 10)
    for radius in (1e50, 1e120, 1e200, 1e300):
        w = np.array([radius * cmath.exp(0.4j)])
        ((h, hp),) = maps._samples([(fam, w, "partner")])
        assert np.all(np.isfinite(h)) and abs(w[0] * hp[0] / h[0] - 1.0) <= 1e-15, radius


def test_potential_far_on_the_axes():
    # on the axes from |w| ~ 1.2e77, (w^2 -/+ 1)^2 overflows while the
    # quotient w^2/inf is a finite 0; V is taken at 1/w there, V(1/w) = V(w)
    fam = MapFamily.two_petal(math.pi / 5, math.pi / 10)
    for w in (1e100, 1e100j, -1e100, 1e150j):
        v = potential_V(fam, w)
        assert v != 0.0 and v == potential_V(fam, 1.0 / w), w


def test_z_of_p_on_circle_off_branch_points():
    # |p| = 2 away from +-2 is an ordinary point: p = 2i is w = i(1 + sqrt 2)
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    want = evaluate_map(fam, 1j * (1.0 + math.sqrt(2.0)))
    assert abs(want - 2.436385657650746j) <= 1e-13
    assert abs(z_of_p(fam, 2j) - want) <= 1e-13
    assert abs(z_of_p(fam, -2j) - np.conj(want)) <= 1e-13


def test_family_parameter_validation():
    for alpha in (0.0, math.pi / 2, -0.3, 2.0):
        with pytest.raises(ValueError):
            MapFamily.one_petal(alpha)
    with pytest.raises(ValueError):
        MapFamily.two_petal(math.pi / 4, 0.0)
    with pytest.raises(ValueError):
        MapFamily.two_petal(math.pi / 8, math.pi / 2)
    assert MapFamily.two_petal(math.pi / 4, math.pi / 8).delta == 0.25
    with pytest.raises(ValueError, match="unknown family kind"):
        MapFamily("three-petal", 0.5)
    with pytest.raises(ValueError, match="takes no beta"):
        MapFamily("one-petal", 0.5, 0.2)
    with pytest.raises(ValueError, match="one-petal parameter"):
        MapFamily.two_petal(math.pi / 4, math.pi / 8).gamma


def test_one_petal_takes_no_top_corner():
    with pytest.raises(ValueError):
        MapFamily.one_petal(math.pi / 8).delta


# ---------------------------------------------------------------------------
# inversion and pressure


def test_invert_exact_point():
    w = invert_map(LEMNISCATE, 2j)
    assert abs(w - 1j * math.sqrt(3.0)) <= INVERSION_TOL


def test_invert_round_trip():
    rng = np.random.default_rng(5)
    fam = MapFamily.one_petal(3 * math.pi / 8)
    for _ in range(12):
        w0 = (1.1 + 2.5 * rng.random()) * cmath.exp(1j * rng.uniform(0.15, math.pi - 0.15))
        z = evaluate_map(fam, w0)
        w = invert_map(fam, z)
        assert abs(w - w0) <= INVERSION_TOL * max(1.0, abs(w0))


def test_invert_off_sheet_rejected():
    # points inside the pattern (or its mirror) have no exterior pre-image
    for z in (0.7j, 0.3 + 0.4j, -0.7j):
        with pytest.raises(InversionError):
            invert_map(LEMNISCATE, z)


def test_invert_stationary_point_raises(monkeypatch):
    # f' = 0 at the iterate: no Newton step, and the iterate is the root reported
    def flat(family, pts):
        return np.full(pts.shape, 5.0 + 0j), np.zeros(pts.shape, complex), np.zeros(pts.shape, complex)

    monkeypatch.setattr(maps, "_tangential_derivatives", flat)
    with pytest.raises(InversionError, match="stationary point reached") as info:
        invert_map(LEMNISCATE, 2j)
    assert info.value.root == 2j


def test_invert_unreachable_hypergeometric_point():
    # Newton's iterates cross the 2F1 blind spot near t = e^{-i pi/3}, which
    # no Mobius route reaches and which raised an InversionError before F's
    # quadratic route; now the inversion converges there, and the pressure
    # is Im(r p) at its root
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    z = 1.3158 + 1.5j
    w = invert_map(fam, z)
    assert abs(w) > 1.0 and abs(evaluate_map(fam, w) - z) <= maps.NEWTON_TOL * (1.0 + abs(z))
    assert abs(w - (1.3158647862739472 + 1.4176197783761586j)) <= 1e-12
    assert pressure(fam, TimeState(1.0, 1.0), z) == (w + 1.0 / w).imag


@pytest.mark.parametrize(
    "family, w0", [(MapFamily.two_petal(0.6, 0.25), 1.5 + 0.5j), (MapFamily.one_petal(0.7), 1.2 + 0.9j)]
)
def test_invert_across_scales(family, w0):
    # r f(w) = z is solved as f(w) = z / r, converged in map units, so the
    # root is as close at every scale; a test in physical units, 1e-10
    # (1 + |z|), let the root drift 5e-2 off at r = 1e-9
    z = evaluate_map(family, w0)
    for r in (1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12):
        w = invert_map(family, r * z, TimeState(r, 1.0))
        assert abs(w - w0) <= 1e-8 * abs(w0), r


def test_pressure_values():
    state = TimeState(1.0, 1.0)
    assert abs(pressure(LEMNISCATE, state, 2j) - 2.0 / math.sqrt(3.0)) <= 1e-10
    boundary = evaluate_map(LEMNISCATE, cmath.exp(0.9j))
    assert abs(pressure(LEMNISCATE, state, boundary)) <= 1e-8
    # far field approaches |z| with a capacity correction of order u1/|z|
    assert abs(pressure(LEMNISCATE, state, 50j) / 50.0 - 1.0) <= 1e-3


# (family, pre-image, state) items of the seeded inverse benchmark inputs
# whose Newton iterates step inside the unit circle on the way
INVERT_RECOVERED = [
    (MapFamily.one_petal(0.6570944253796531), -0.9272563523612111 - 0.4467156452896528j, TimeState(1.9751132525952313, 0.739041581602009)),
    (MapFamily.one_petal(0.7706206029091929), -1.0085654260397146 + 0.134838427932595j, TimeState(1.5359246710919057, 1.6009851766451426)),
    (
        MapFamily.two_petal(0.44714447975352567, 0.31119462040647805),
        0.5391135568145281 - 0.8490857542475387j,
        TimeState(1.7118591709115134, 1.9177631946146667),
    ),
    (
        MapFamily.two_petal(0.7434352650243058, 0.13823675985029005),
        0.9561868981144797 - 0.3158264143931927j,
        TimeState(0.6945736431766356, 1.002278653765765),
    ),
    (
        MapFamily.two_petal(0.5729594813031641, 0.4390193037801428),
        -0.22274792284034914 - 0.9763737884311373j,
        TimeState(1.4681133219009002, 1.6852544386747845),
    ),
    (
        MapFamily.two_petal(0.6314771434939344, 0.18709676791043472),
        0.9686430183485993 + 0.33403376855731j,
        TimeState(1.7042986593153344, 1.6456263592556417),
    ),
]


def test_invert_recovers_sheet_points():
    # an iterate inside the circle is mirrored back onto the sheet, and
    # Newton still converges to the sheet pre-image
    for family, w0, state in INVERT_RECOVERED:
        z = scaled_map(family, state, w0)
        w = invert_map(family, z, state=state)
        assert abs(w - w0) <= 1e-8 * abs(w0), (family.label(), w0)


def reference_invert(family, z, state=None):
    """The two-call loop (`evaluate_map`, then `map_derivative`) that
    `invert_map`'s one-stencil step replaced, with the same Halley gate and
    q guard, its f'' from a third, separate stencil call, and the same stop
    at a repeated iterate.  Kept verbatim but for the convergence test,
    which is in map units as `invert_map`'s is."""
    r = state.r if state is not None else 1.0
    target = complex(z) / r
    w = target
    if abs(w) < 1.0:
        w = 1.5 + 0.5j if w == 0.0 else 1.2 * w / abs(w)
    tol = maps.NEWTON_TOL * (1.0 + abs(target))
    seen = set()
    for _ in range(maps.NEWTON_MAX_ITER):
        if w in seen:
            raise InversionError("iterate repeats without converging", root=w)
        seen.add(w)
        try:
            val = evaluate_map(family, w)
            err = abs(val - target)
            if err <= tol:
                return w
            deriv = map_derivative(family, w)
        except (MapDomainError, Hyp2F1DomainError) as exc:
            raise InversionError("iteration left the evaluable region: %s" % exc, root=w) from exc
        if deriv == 0.0:
            raise InversionError("stationary point reached", root=w)
        step = (val - target) / deriv
        if err <= maps.HALLEY_RESIDUAL * (1.0 + abs(target)):
            second = complex(maps._tangential_derivatives(family, np.array([w]))[2][0])
            q = step * second / (2.0 * deriv)
            if abs(q) <= 0.5:
                step = step / (1.0 - q)
        w = w - step
        if abs(w) < 1.0:
            # mirror it back onto the sheet; a shortened step could stop
            # within SHEET_SLACK inside the circle, where the values are not
            # the analytic continuation Newton steps along
            w = 1.0 / w.conjugate()
    raise InversionError("no convergence in %d iterations" % maps.NEWTON_MAX_ITER, root=w)


def outcome(invert, family, z, state):
    """The root, or the exception type, message and last iterate."""
    try:
        return invert(family, z, state=state)
    except InversionError as exc:
        return type(exc), str(exc), exc.root


# a two-petal item next to w = 1: after a mirroring, Newton walks along the
# circle until the iteration cap
INVERT_FAILING = [
    (
        MapFamily.two_petal(0.3139480760664852, 0.2063481626061987),
        1.0089726833452017 - 0.05656545847067075j,
        TimeState(1.5261641444420433, 1.6764625527767474),
    ),
]


def test_one_stencil_newton_matches_two_call_loop():
    # the stencil's centre value, f' and f'' are the bits evaluate_map,
    # map_derivative and a separate stencil call give, so roots and
    # failures must not move
    items = [(family, scaled_map(family, state, w0), state) for family, w0, state in INVERT_RECOVERED + INVERT_FAILING]
    items.append((MapFamily.two_petal(math.pi / 4, math.pi / 8), 1.3158 + 1.5j, None))
    items.append((LEMNISCATE, 0.3 + 0.4j, None))
    outcomes = []
    for family, z, state in items:
        got, want = outcome(invert_map, family, z, state), outcome(reference_invert, family, z, state)
        assert got == want, (family.label(), z)
        outcomes.append(got)
    # the (pi/4, pi/8) item crosses the blind spot that F's quadratic
    # route now reaches, and converges
    assert [isinstance(o, tuple) for o in outcomes] == [False] * len(INVERT_RECOVERED) + [True, False, True]
    assert "no convergence" in outcomes[len(INVERT_RECOVERED)][1]
    # next to the blind spot of the Mobius routes, a window family's
    # (beta = pi/4) stencil points take F's quadratic route as a last
    # resort, so the stencil evaluates where its centre does
    family, w0 = MapFamily.two_petal(math.pi / 8, math.pi / 4), 1.3525136496613666 + 1.423431662496373j
    evaluate_map(family, w0)
    assert np.isfinite(map_derivative(family, w0))


# an iterate that settles on a fixed point of step-and-mirror, which is not
# a root: its 86th iterate repeats its 14th
INVERT_REPEATING = (MapFamily.two_petal(0.862777, 0.677346), 0.7507641716509758 - 0.6605703282506898j, TimeState(1.0))


def test_invert_raises_at_the_first_repeated_iterate(monkeypatch):
    # a step depends on the iterate alone, so once one repeats the loop
    # cycles: it raises there after 85 stencil calls, not at the cap after
    # 100, with the frozen iterate as its last one.  The near-corner item
    # never repeats and still runs to the cap
    inner = maps._tangential_derivatives
    calls = []

    def recording(family, pts):
        calls.append(complex(pts[0]))
        return inner(family, pts)

    monkeypatch.setattr(maps, "_tangential_derivatives", recording)
    family, w0, state = INVERT_REPEATING
    z = scaled_map(family, state, w0)
    got = outcome(invert_map, family, z, state)
    frozen = 0.5839165793865755 - 0.8178481595609605j
    assert got == (InversionError, "iterate repeats without converging", frozen)
    assert len(calls) == len(set(calls)) == 85
    assert calls.index(frozen) == 13
    del calls[:]
    family, w0, state = INVERT_FAILING[0]
    got = outcome(invert_map, family, scaled_map(family, state, w0), state)
    assert got == (InversionError, "no convergence in 100 iterations", 0.6417102770327049 - 0.9540112567165343j)
    assert len(calls) == len(set(calls)) == maps.NEWTON_MAX_ITER
    monkeypatch.undo()
    assert outcome(reference_invert, family, scaled_map(family, state, w0), state) == got
    family, w0, state = INVERT_REPEATING
    z = scaled_map(family, state, w0)
    assert outcome(reference_invert, family, z, state) == outcome(invert_map, family, z, state)


def stencil_trajectory(monkeypatch, family, z, state):
    """The root `invert_map` returns and the (iterate, f) of each of its stencil calls."""
    inner = maps._tangential_derivatives
    calls = []

    def recording(family, pts):
        out = inner(family, pts)
        calls.append((complex(pts[0]), complex(out[0][0])))
        return out

    monkeypatch.setattr(maps, "_tangential_derivatives", recording)
    root = invert_map(family, z, state=state)
    monkeypatch.setattr(maps, "_tangential_derivatives", inner)
    return root, calls


def test_halley_steps_save_stencil_calls(monkeypatch):
    # the six items take 43 stencil calls with Halley's final steps against
    # 51 for the plain Newton loop (a gate no residual passes): 4, 6, 7, 5,
    # 16 and 5 against 5, 7, 8, 7, 18 and 6.  Above the gate every step is
    # Newton's, bit for bit: the two loops share their iterates up to the
    # first one inside the gate, which each item reaches after at least one
    # step
    halley, newton = [], []
    for family, w0, state in INVERT_RECOVERED:
        z = scaled_map(family, state, w0)
        target = z / state.r
        root, calls = stencil_trajectory(monkeypatch, family, z, state)
        with monkeypatch.context() as plain:
            plain.setattr(maps, "HALLEY_RESIDUAL", -1.0)
            newton_root, newton_calls = stencil_trajectory(monkeypatch, family, z, state)
        for w in (root, newton_root):
            assert abs(w - w0) <= 1e-8 * abs(w0), family.label()
        gate = maps.HALLEY_RESIDUAL * (1.0 + abs(target))
        first = next(k for k, (_, val) in enumerate(calls) if abs(val - target) <= gate)
        assert first >= 1
        assert [w for w, _ in calls[: first + 1]] == [w for w, _ in newton_calls[: first + 1]]
        assert len(calls) <= len(newton_calls), family.label()
        halley.append(len(calls))
        newton.append(len(newton_calls))
    assert (sum(halley), sum(newton)) == (43, 51)


@st.composite
def inversion_items(draw):
    """(family, w, state): a one- or two-petal family, a sheet point 1 < |w| <= 4
    at least 0.05 off every corner pre-image, and a growth state."""
    family = draw(petal_families())
    w = cmath.rect(draw(st.floats(1.0, 4.0, exclude_min=True)), draw(st.floats(-math.pi, math.pi)))
    assume(min(abs(w - xi) for xi in family.corner_preimages) >= 0.05)
    return family, w, TimeState(draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))


@given(inversion_items())
# the near-corner item Newton walks along the circle with (INVERT_FAILING)
@example(INVERT_FAILING[0])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_invert_raises_only_inversion_error(item):
    # wherever the map evaluates, inversion returns a sheet point whose
    # residual passes the convergence test, or raises InversionError: no
    # ZeroDivisionError or OverflowError leaks from a Newton or Halley step
    family, w, state = item
    try:
        z = scaled_map(family, state, w)
    except MapDomainError:
        return
    try:
        root = invert_map(family, z, state=state)
    except InversionError:
        return
    target = z / state.r
    assert abs(root) >= 1.0 - maps.SHEET_SLACK
    assert abs(evaluate_map(family, root) - target) <= maps.NEWTON_TOL * (1.0 + abs(target))


def test_newton_step_makes_one_stencil_call(monkeypatch):
    # away from the 2F1 blind spot a step is one 9-point map call, with no
    # separate value or derivative call
    family, w0, state = INVERT_RECOVERED[3]
    z = scaled_map(family, state, w0)
    sizes = []
    inner = maps._values_on_sheet

    def counting(family, pts):
        sizes.append(pts.size)
        return inner(family, pts)

    def unused(*args):
        raise AssertionError("separate value or derivative call")

    monkeypatch.setattr(maps, "_values_on_sheet", counting)
    monkeypatch.setattr(maps, "evaluate_map", unused)
    monkeypatch.setattr(maps, "map_derivative", unused)
    assert abs(invert_map(family, z, state=state) - w0) <= 1e-8 * abs(w0)
    assert sizes and set(sizes) == {9}


# ---------------------------------------------------------------------------
# scaling, traces, Laurent data


def test_scaled_map_dilatation():
    w = 1.7 + 0.3j
    for T, A in ((2.0, 1.0), (3.0, 2.0), (0.5, 4.0)):
        got = scaled_map(LEMNISCATE, TimeState(T, A), w)
        assert abs(got - (T / A) * evaluate_map(LEMNISCATE, w)) <= 1e-13


def test_time_state_validation():
    with pytest.raises(ValueError):
        TimeState(-1.0, 1.0)
    with pytest.raises(ValueError):
        TimeState(1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TimeState(bad, 1.0)
        with pytest.raises(ValueError):
            TimeState(1.0, bad)
    # the scale factor T/A overflows or underflows
    for T, A in ((1e300, 1e-300), (1e-300, 1e300)):
        with pytest.raises(ValueError):
            TimeState(T, A)


def test_boundary_trace_shape():
    trace = boundary_trace(LEMNISCATE, n=256)
    assert trace.points.shape == (256,)
    assert trace.phis.shape == (256,)
    # half-offset sampling keeps corner pre-images strictly between nodes
    assert np.min(np.abs(trace.phis)) > 0.0
    # full-circle image: the pattern together with its lower mirror
    assert np.max(trace.points.imag) == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert np.min(trace.points.imag) == pytest.approx(-math.sqrt(2.0), abs=1e-3)
    assert np.max(np.abs(np.conj(trace.points) - trace.points[::-1])) <= 1e-10
    with pytest.raises(ValueError):
        boundary_trace(LEMNISCATE, n=250)
    with pytest.raises(ValueError):
        boundary_trace(LEMNISCATE, n=8)


# the unfolded quadrant against a direct evaluation at the mirrored nodes,
# relative, point by point: the nodes' own rounding for the closed form
# (up to 1e-13 for f''), and the arc stencil's error for two petals, whose
# f'' is 5.9e-11 off mpmath and here up to 4.2e-11 off its mirror
UNFOLD_TOLS = (1e-13, 1e-12, 1e-10)


@pytest.mark.parametrize("family", [MapFamily.one_petal(0.3), MapFamily.two_petal(math.pi / 5, math.pi / 10)])
@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("radius", [math.exp(1e-3), 1.0, 1.5])
def test_unfold_quadrant(family, n, radius):
    ring = radius * np.exp(1j * maps._circle_angles(n))
    quarter = maps._tangential_derivatives(family, ring[: n // 4])
    unfolded = maps._unfold_quadrant(*quarter)
    k = np.arange(n // 4)
    # f and f'' are odd under w -> -w, f' is even; all three commute with conjugation
    for got, part, sign in zip(unfolded, quarter, (-1.0, 1.0, -1.0)):
        assert got.shape == (n,)
        assert np.array_equal(got[k], part)
        assert np.array_equal(got[n // 2 - 1 - k], sign * np.conj(part))  # -conj w
        assert np.array_equal(got[k + n // 2], sign * part)  # -w
        assert np.array_equal(got[n - 1 - k], np.conj(part))  # conj w
    direct = maps._tangential_derivatives(family, ring)
    for got, want, tol in zip(unfolded, direct, UNFOLD_TOLS):
        assert np.max(np.abs(got - want) / np.abs(want)) <= tol


def test_unfold_quadrant_refuses_a_ring_not_in_quadrants():
    with pytest.raises(ValueError, match="equal lengths"):
        maps._unfold_quadrant(np.ones(4, dtype=complex), np.ones(5, dtype=complex))


def test_boundary_trace_scaling():
    base = boundary_trace(LEMNISCATE, n=64)
    grown = boundary_trace(LEMNISCATE, state=TimeState(3.0, 1.0), n=64)
    assert np.max(np.abs(grown.points - 3.0 * base.points)) <= 1e-12


def test_laurent_lemniscate():
    data = laurent_coefficients(LEMNISCATE)
    assert abs(data.conformal_radius - 1.0) <= 1e-10
    assert abs(data.coefficients[1] + 0.5) <= 1e-10
    assert abs(data.capacity - 1.5) <= 1e-10
    # an odd map has no even-index coefficients; the high-k circle averages
    # amplify roundoff, so the bound is looser than the low-k exacts
    evens = data.coefficients[0::2]
    assert np.max(np.abs(evens)) <= 1e-8
    assert abs(data.coefficients[3] + 0.125) <= 1e-9
    assert abs(data.coefficients[5] + 0.0625) <= 1e-9


@pytest.mark.parametrize(
    "family", [LEMNISCATE, MapFamily.one_petal(0.1), MapFamily.two_petal(0.4, 0.9)], ids=lambda f: f.label()
)
def test_laurent_coefficients_equal_the_per_k_loop(family):
    # the 17 coefficients are one broadcast product over k; the loop over k
    # it replaced, with the same arithmetic, gives the same bits
    phis = maps._circle_angles(256)
    (vals,) = maps._unfold_quadrant(maps._values_on_sheet(family, 2.5 * np.exp(1j * phis[:64])))
    want = [(np.mean(vals * np.exp(1j * k * phis)) * 2.5**k).real for k in range(17)]
    assert np.array_equal(laurent_coefficients(family).coefficients, want)


def test_laurent_first_coefficient_closed_form():
    # two petals: Z = w + (1 + 8ab - 4 alpha/pi)/w + O(1/w^3), F's a and b;
    # measured 1.1e-15 over the grid's non-collapsed nodes
    grid = [k * math.pi / 36 for k in range(1, 18)]
    for i, alpha in enumerate(grid, 1):
        for j, beta in enumerate(grid, 1):
            if i == j or i + j == 18:
                continue
            a, b = (alpha + beta) / math.pi - 0.5, (alpha - beta) / math.pi
            c1 = laurent_coefficients(MapFamily.two_petal(alpha, beta)).coefficients[1]
            assert abs(c1 - (1.0 + 8.0 * a * b - 4.0 * alpha / math.pi)) <= 1e-14, (alpha, beta)
    # one petal: f = w - (1/2 + 2 gamma (1 - gamma))/w + ..., measured 3.3e-16
    for alpha in np.linspace(0.02, 1.55, 60):
        family = MapFamily.one_petal(alpha)
        g = family.gamma
        assert abs(laurent_coefficients(family).coefficients[1] + 0.5 + 2.0 * g * (1.0 - g)) <= 1e-14, alpha


def test_far_field_normalization():
    for family in (
        LEMNISCATE,
        MapFamily.one_petal(math.pi / 8),
        MapFamily.two_petal(math.pi / 4, math.pi / 8),
    ):
        w = 1.0e4
        assert abs(evaluate_map(family, w) / w - 1.0) <= NORMALIZATION_TOL


def test_potential_formulas():
    w = 1.5 + 0.2j
    alpha, beta = math.pi / 4, math.pi / 8
    v1 = 16.0 * (alpha / math.pi) * (1 - alpha / math.pi) * w**2 / (w**2 - 1) ** 2
    assert abs(potential_V(MapFamily.one_petal(alpha), w) - v1) <= 1e-14
    v2 = v1 - 8.0 * (beta / math.pi) * (1 - 2 * beta / math.pi) * w**2 / (w**2 + 1) ** 2
    assert abs(potential_V(MapFamily.two_petal(alpha, beta), w) - v2) <= 1e-14


def one_petal_mp_derivative(family, w, order):
    """mp.diff of the one-petal closed form at the exact w, 30 digits."""
    with mp.workdps(30):
        g = mp.mpf(family.gamma)

        def f(x):
            a = 1 / x
            bracket = (1 - a) ** g * (1 + a) ** (1 - g) + (1 + a) ** g * (1 - a) ** (1 - g)
            return x * mp.sqrt(1 - a * a) * bracket / 2

        return complex(mp.diff(f, mp.mpc(w), order))


def one_petal_probe_points():
    # a half-offset ring on |w| = 1 whose nodes next to w = +-1 sit
    # pi/32768 ~ 1e-4 from the corners, the same nodes at |w| = 1.5, and
    # seeded sheet points
    n = 32768
    ring = np.exp(1j * maps._circle_angles(n)[np.r_[0 : n : 2048, 1, n // 2 - 1, n // 2, n - 1]])
    rng = np.random.default_rng(23)
    sheet = (1.0 + rng.exponential(0.5, 24)) * np.exp(1j * rng.uniform(-math.pi, math.pi, 24))
    return np.concatenate([ring, 1.5 * ring, sheet])


@pytest.mark.parametrize("alpha", [math.pi / 8, 0.3, math.pi / 4, 1.2])
def test_one_petal_derivatives_against_mpmath(alpha):
    family = MapFamily.one_petal(alpha)
    pts = one_petal_probe_points()
    f, fp, fpp = maps._tangential_derivatives(family, pts)
    assert np.array_equal(f, maps._one_petal_values(family, pts))
    # the value takes 1 -/+ 1/w as (w -/+ 1)/w too, so it keeps its relative
    # accuracy pi/32768 from a corner
    for order, got, tol in ((0, f, 1e-14), (1, fp, 1e-13), (2, fpp, 1e-13)):
        want = np.array([one_petal_mp_derivative(family, w, order) for w in pts])
        assert np.max(np.abs(got - want) / np.abs(want)) <= tol, order
    # the arc stencil, which two-petal families still use, agrees to its own
    # truncation error
    _, fd1, fd2 = maps._arc_derivatives(family, pts)
    assert np.max(np.abs(fd1 - fp) / np.abs(fp)) <= 1e-9
    assert np.max(np.abs(fd2 - fpp) / np.abs(fpp)) <= 1e-7


def test_one_petal_derivatives_take_no_stencil(patch_stencil):
    def unused(*args):
        raise AssertionError("arc stencil called for a one-petal family")

    patch_stencil(unused)
    w = np.array([1.6 + 0.4j, -1.3 + 1.2j, 2.5j])
    # the lemniscate f, with f^2 = w^2 - 1, has f' = w / f and f'' = -1 / f^3
    f = evaluate_map(LEMNISCATE, w)
    assert np.max(np.abs(map_derivative(LEMNISCATE, w) - w / f)) <= EXACT_TOL
    _, _, fpp = maps._tangential_derivatives(LEMNISCATE, w)
    assert np.max(np.abs(fpp + 1.0 / f**3)) <= EXACT_TOL
    with pytest.raises(CornerPreimageError):
        map_derivative(LEMNISCATE, -1.0)
    # the battery, estimate_A's Wronskian partner included, runs without it
    report = run_standard_checks(MapFamily.one_petal(0.3))
    assert not report.has_errors


def test_one_petal_lockstep_keeps_the_bits_of_one_family_calls():
    # one-petal values jobs take the closed form: the values have the bits
    # of evaluate_map at each job's points
    jobs = [
        (MapFamily.one_petal(0.3), 1.001 * np.exp(1j * np.linspace(0.0, 1.5, 57)), "values"),
        (MapFamily.one_petal(0.3), np.exp(0.2j * np.arange(1, 8)), "values"),
        (LEMNISCATE, np.array([1.6 + 0.4j, -1.3 + 1.2j, 2.5j]), "values"),
        (LEMNISCATE, np.array([], dtype=complex), "values"),
        (MapFamily.one_petal(1.5), np.array([1.2 - 0.7j, 3.0 + 0.0j, -1.1j]), "values"),
    ]
    out = maps._samples(jobs)
    assert len(out) == len(jobs)
    for (family, points, _), values in zip(jobs, out):
        assert evaluate_map(family, points).tobytes() == values.tobytes()
    # a corner pre-image in any job refuses the call
    with pytest.raises(CornerPreimageError):
        maps._samples(jobs + [(LEMNISCATE, np.array([1.5j, -1.0 + 0.0j]), "values")])


def test_two_petal_lockstep_group_of_loci_keeps_the_bits(monkeypatch):
    # one group mixing the loci where F's routes turn on the family: a =
    # -5.6e-17 (alpha + beta = pi/2), a - b = 0 (beta = pi/4, the averaged
    # window), c - a - b 6.4e-4 from 1 (alpha = 1e-3, the 1 - t last
    # resort), b = 0 (beta = alpha, terminating) and a plain family, on arcs
    # of the conformality ring and off it; the group is one request, routed
    # once and summed in one series loop, and every job keeps the bits of
    # evaluate_map at its points
    loci = [(3 * math.pi / 36, 15 * math.pi / 36), (0.6, math.pi / 4), (1e-3, 0.7), (0.5, 0.5), (0.7, 0.3)]
    _, arc = verify._conformality_arc("two-petal")
    extra = np.array([1.05, 1.05 * np.exp(0.3j), 1.5j, 2.0 + 0.3j, -1.1 - 0.8j, 3.0 + 1j, -2.5j])
    jobs = [(MapFamily.two_petal(alpha, beta), np.append(arc[k::3], extra[k:]), "values") for k, (alpha, beta) in enumerate(loci)]
    jobs.insert(2, (MapFamily.two_petal(*loci[0]), np.array([], dtype=complex), "values"))
    assert sum(points.size for _, points, _ in jobs) <= maps.ARC_BLOCK
    picks, loops = [], []
    joined, sums = special_functions._joined, special_functions._series_sums
    monkeypatch.setattr(special_functions, "_joined", lambda points: picks.append(points) or joined(points))
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(queue) or sums(queue))
    out = maps._samples(jobs)
    monkeypatch.undo()
    assert len(picks) == 1 and len(loops) == 1
    assert len(out) == len(jobs)
    for (family, points, _), values in zip(jobs, out):
        assert values.shape == points.shape
        assert evaluate_map(family, points).tobytes() == values.tobytes(), family.label()


SAMPLE_FAMILIES = {
    "two-petal": (
        MapFamily.two_petal(0.5, 0.5),  # collapsed: F's b = 0, a partner of scale 0
        MapFamily.two_petal(0.6, math.pi / 4),  # a - b = 0, the averaged window
        MapFamily.two_petal(math.pi / 5, math.pi / 9),
        MapFamily.two_petal(1.2, 0.2),
    ),
    "one-petal": (LEMNISCATE, MapFamily.one_petal(0.3), MapFamily.one_petal(1.2)),
}
SAMPLE_JOBS = st.lists(
    st.tuples(st.sampled_from(("values", "derivatives", "partner")), st.integers(0, 3), st.integers(0, 40)),
    min_size=1,
    max_size=6,
)


def sample_job(kind, what, index, size, rng):
    """A (family, points, what) job of points the battery evaluates: partner probes drawn from the Wronskian probes.

    The other points lie on the battery's rings: the unit circle, the
    conformality ring, the oscillator ring and the Laurent ring, at angles
    of the 256-point half-offset grid, clear of the corners and of F's
    unreachable spots.
    """
    family = SAMPLE_FAMILIES[kind][index % len(SAMPLE_FAMILIES[kind])]
    if what == "partner":
        return family, rng.choice(verify._wronskian_probes(), size), what
    radii = rng.choice([1.0, math.exp(verify.CONFORMAL_RING_EPS), verify.RING_ODE, 2.5], size)
    return family, radii * np.exp(1j * rng.choice(maps._circle_angles(256), size)), what


def sample_alone(family, points, what):
    """A job's samples from its lone call: `evaluate_map`, `_tangential_derivatives` or a partner job alone."""
    if what == "values":
        return (evaluate_map(family, points),)
    if what == "derivatives":
        return maps._tangential_derivatives(family, points)
    return maps._samples([(family, points, what)])[0]


def sample_groups(jobs):
    """The number of `_samples` groups of two-petal jobs that sum a series: consecutive jobs, at most ARC_BLOCK map points each.

    A job with no map points never opens a group, and one that would take
    a group holding map points past ARC_BLOCK opens the next.  A group with
    no point at all sums no series.
    """
    groups, size = [], 0  # the points of each group, and the open group's map points
    for _, points, what in jobs:
        weight = points.size * {"values": 1, "derivatives": 9, "partner": 0}[what]
        if not groups or size and weight and size + weight > maps.ARC_BLOCK:
            groups.append(0)
            size = 0
        groups[-1] += points.size
        size += weight
    return sum(1 for count in groups if count)


# an empty job, then a derivatives job of 230 points (2070 map points) that
# shares its group only with jobs of no map points
SAMPLE_EXAMPLE = [("values", 0, 0), ("derivatives", 2, 230), ("partner", 1, 8), ("values", 3, 40), ("partner", 0, 5)]


def test_samples_jobs_without_map_points_open_no_group(monkeypatch):
    # the empty job and the partner after the oversized job join its group;
    # the values job opens the next: two route picks and two series loops
    rng = np.random.default_rng(1)
    jobs = [sample_job("two-petal", *spec, rng) for spec in SAMPLE_EXAMPLE]
    picks, loops = [], []
    joined = special_functions._joined
    sums = special_functions._series_sums
    monkeypatch.setattr(special_functions, "_joined", lambda points: picks.append([p[2].size for p in points]) or joined(points))
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(len(queue)) or sums(queue))
    maps._samples(jobs)
    assert picks == [[2070, 8, 8], [40, 5, 5]]
    assert len(loops) == sample_groups(jobs) == 2


@given(st.sampled_from(("two-petal", "one-petal")), SAMPLE_JOBS, st.integers(0, 2**16))
@example("two-petal", SAMPLE_EXAMPLE, 1)
@example("two-petal", [("values", 0, 0), ("partner", 1, 0), ("derivatives", 2, 0)], 3)
@example("one-petal", [("partner", 0, 8), ("values", 1, 0), ("derivatives", 2, 30)], 2)
@settings(max_examples=10, deadline=None, derandomize=True)
def test_samples_keep_the_bits_of_each_job_alone(kind, specs, seed):
    # values, derivatives and partners of several families in one call: each
    # job has the bits of its lone call, and two petals take one series loop
    # per group of consecutive jobs
    rng = np.random.default_rng(seed)
    jobs = [sample_job(kind, *spec, rng) for spec in specs]
    loops = []
    sums = special_functions._series_sums
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special_functions, "_series_sums", lambda queue: loops.append(len(queue)) or sums(queue))
        out = maps._samples(jobs)
    assert len(loops) == (sample_groups(jobs) if kind == "two-petal" else 0)
    assert len(out) == len(jobs)
    for job, got in zip(jobs, out):
        want = sample_alone(*job)
        got = (got,) if job[2] == "values" else got
        assert len(got) == len(want)
        for part, alone in zip(got, want):
            assert part.shape == job[1].shape and part.tobytes() == alone.tobytes(), (job[0].label(), job[2])
    # a failing later job raises its own check's error: a point inside the
    # circle, though the corner pre-image of the job after it is the error
    # that all the points checked together would raise
    family = jobs[0][0]
    inside, corner = np.array([2.0, 0.5 + 0.0j]), np.array([family.corner_preimages[-1]])
    with pytest.raises(CornerPreimageError):
        maps._check_sheet(family, np.append(inside, corner))
    with pytest.raises(MapDomainError) as alone:
        evaluate_map(family, inside)
    with pytest.raises(MapDomainError) as merged:
        maps._samples(jobs + [(family, inside, "values"), (family, corner, "derivatives")])
    assert type(merged.value) is type(alone.value) is MapDomainError
    assert str(merged.value) == str(alone.value)


def test_map_derivative_consistency():
    # central difference against the analytic derivative
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    h = 1e-6
    for w in (1.6 + 0.4j, -1.3 + 1.2j, 2.5j):
        fd = (evaluate_map(fam, w + h) - evaluate_map(fam, w - h)) / (2 * h)
        assert abs(map_derivative(fam, w) - fd) <= 1e-7 * max(1.0, abs(fd))


def reference_arc_derivatives(values_fn, pts, h):
    """The 9-call stencil that `maps._arc_derivatives` replaced, kept verbatim."""

    def richardson3(coarse, mid, fine):
        level1 = (16.0 * mid - coarse) / 15.0
        level2 = (16.0 * fine - mid) / 15.0
        return (64.0 * level2 - level1) / 63.0

    def arc(scale):
        return values_fn(pts * np.exp(1j * (scale * h)))

    g_m2, g_m1, g_p1, g_p2 = arc(-2.0), arc(-1.0), arc(1.0), arc(2.0)
    g_mh, g_ph = arc(-0.5), arc(0.5)
    g_mq, g_pq = arc(-0.25), arc(0.25)
    g_0 = values_fn(pts)

    def d1(step, lo2, lo1, hi1, hi2):
        return (lo2 - 8.0 * lo1 + 8.0 * hi1 - hi2) / (12.0 * step)

    def d2(step, lo2, lo1, mid, hi1, hi2):
        return (-lo2 + 16.0 * lo1 - 30.0 * mid + 16.0 * hi1 - hi2) / (12.0 * step * step)

    first = richardson3(
        d1(h, g_m2, g_m1, g_p1, g_p2),
        d1(0.5 * h, g_m1, g_mh, g_ph, g_p1),
        d1(0.25 * h, g_mh, g_mq, g_pq, g_ph),
    )
    second = richardson3(
        d2(h, g_m2, g_m1, g_0, g_p1, g_p2),
        d2(0.5 * h, g_m1, g_mh, g_0, g_ph, g_p1),
        d2(0.25 * h, g_mh, g_mq, g_0, g_pq, g_ph),
    )
    iw = 1j * pts
    f_prime = first / iw
    f_second = (-second + 1j * first) / (pts * pts)
    return g_0, f_prime, f_second


def reference_one_petal_bracket(g, a):
    """The four-power bracket `maps._one_petal_bracket` replaced, kept verbatim."""
    if g == 0.0:
        return np.ones(a.shape, dtype=complex)
    return 0.5 * (
        maps._power(1.0 - a, g) * maps._power(1.0 + a, 1.0 - g)
        + maps._power(1.0 + a, g) * maps._power(1.0 - a, 1.0 - g)
    )


def test_one_petal_bracket_two_logs():
    # log(1 - a) and log(1 + a) taken once each give the same bits
    rng = np.random.default_rng(17)
    for n in (1, 4095, 16384):
        w = (1.0 + rng.exponential(0.3, n)) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
        for g in (-0.4, -0.25, 0.1, 1.0 / 6.0, 0.45):
            a = 1.0 / w
            assert np.array_equal(maps._one_petal_bracket(g, 1.0 - a, 1.0 + a), reference_one_petal_bracket(g, a)), (n, g)
    x = np.linspace(-0.99, 0.99, 64)
    assert np.array_equal(maps._one_petal_bracket(0.2, 1.0 - x, 1.0 + x), reference_one_petal_bracket(0.2, x))


# 1000 points span five blocks of ARC_BLOCK // 9 centres, the last one short;
# 6000 span 27, and are the first size whose (3, n) level arrays pass numpy's
# 256 KiB threshold for reusing a temporary in place
STENCIL_RING_SIZES = (1, 7, 2048, 1000, 6000)
STENCIL_FAMILIES = [
    MapFamily.one_petal(math.pi / 3),
    MapFamily.one_petal(0.3),
    MapFamily.two_petal(math.pi / 4, math.pi / 8),
    MapFamily.two_petal(math.pi / 5, math.pi / 9),
    # beta = pi/4 is delta = 1/2, where the band averages two shifted families
    MapFamily.two_petal(math.pi / 3, math.pi / 4),
]


@pytest.mark.parametrize("family", STENCIL_FAMILIES, ids=lambda f: f.label())
def test_blocked_stencil_matches_nine_calls(family):
    def values(q):
        return maps._values_on_sheet(family, q)

    for n in STENCIL_RING_SIZES:
        ring = 1.07 * np.exp(1j * (np.arange(n) + 0.5) * (2.0 * math.pi / n))
        corner_distance = np.min(np.abs(ring[:, None] - np.array(family.corner_preimages)), axis=1)
        h = np.minimum(maps.FD_MAX_STEP, corner_distance * maps.FD_STEP_FRACTION)
        got = maps._arc_derivatives(family, ring)
        want = reference_arc_derivatives(values, ring, h)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (family.label(), n)


def test_stencil_map_calls(monkeypatch):
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    sizes = []
    inner = maps._two_petal_values

    def counting(family, pts):
        sizes.append(pts.size)
        return inner(family, pts)

    monkeypatch.setattr(maps, "_two_petal_values", counting)
    map_derivative(fam, 1.3 + 0.4j)
    assert sizes == [9]
    for n in STENCIL_RING_SIZES:
        del sizes[:]
        ring = 1.07 * np.exp(1j * (np.arange(n) + 0.5) * (2.0 * math.pi / n))
        map_derivative(fam, ring)
        assert len(sizes) == math.ceil(9 * n / maps.ARC_BLOCK), n
        assert sum(sizes) == 9 * n and max(sizes) <= maps.ARC_BLOCK


def test_lone_evaluations_are_blocked():
    # evaluate_map and boundary_trace sum a two-petal family's n points in
    # ceil(n / ARC_BLOCK) series loops of at most ARC_BLOCK points, with the
    # bits of one unblocked call
    family = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    w = 1.3 * np.exp(1j * (np.arange(5000) + 0.5) * (2.0 * math.pi / 5000))
    calls = [(w.size, lambda: evaluate_map(family, w)), (16384 // 4, lambda: boundary_trace(family, n=16384).points)]
    inner, sums = maps._two_petal_values, special_functions._series_sums
    for n, call in calls:
        sizes, loops = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(maps, "_two_petal_values", lambda family, pts: sizes.append(pts.size) or inner(family, pts))
            patch.setattr(special_functions, "_series_sums", lambda queue: loops.append(len(queue)) or sums(queue))
            blocked = call()
            assert len(loops) == len(sizes) == math.ceil(n / maps.ARC_BLOCK) > 1
            assert sum(sizes) == n and max(sizes) <= maps.ARC_BLOCK
            del sizes[:], loops[:]
            patch.setattr(maps, "ARC_BLOCK", n)
            whole = call()
            assert len(loops) == len(sizes) == 1
        assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "family",
    [
        MapFamily.one_petal(0.3),
        MapFamily.one_petal(math.pi / 3),
        MapFamily.two_petal(math.pi / 4, math.pi / 8),
        MapFamily.two_petal(math.pi / 3, math.pi / 4),
    ],
    ids=lambda f: f.label(),
)
def test_values_do_not_depend_on_batch_size(family):
    # numpy reuses a temporary of 16384 complex points in place, which must
    # not change a point's bits; on the unit circle every two-petal point
    # takes the same 1/t route, so each 2F1 array has all 16384 points
    n = 16384
    ring = np.exp(1j * (np.arange(n) + 0.5) * (2.0 * math.pi / n))
    for w in (ring, 1.3 * ring):
        full = maps._values_on_sheet(family, w)
        blocks = np.concatenate([maps._values_on_sheet(family, w[lo : lo + 128]) for lo in range(0, n, 128)])
        assert np.array_equal(full, blocks)
        alone = [maps._values_on_sheet(family, w[i : i + 1])[0] for i in range(0, n, 97)]
        assert np.array_equal(full[::97], alone)


@pytest.mark.parametrize("family", [MapFamily.one_petal(0.3), MapFamily.two_petal(0.4, 0.9)])
def test_graded_angles(family):
    floor = verify.CONFORMAL_RING_EPS
    corners = np.angle(np.array(family.corner_preimages))
    phis = verify._conformality_arc(family.kind)[0]
    # the first quadrant, both ends exact: f' is real there on the axes
    assert phis[0] == 0.0 and phis[-1] == 0.5 * math.pi and np.all(np.diff(phis) > 0.0)
    corner_at = np.mod(corners, 2.0 * math.pi)
    assert all(c in phis for c in corner_at if c <= 0.5 * math.pi)
    # the quadrant's mirror images under w -> -conj(w) and w -> -w close the
    # ring, and its spacing is at most min(max(d, floor)/4, 0.05) everywhere,
    # d the nearer end's corner distance, also where two images meet
    half = np.concatenate([phis, math.pi - phis[-2::-1]])
    ends = np.concatenate([half, math.pi + half[1:]])
    assert ends[-1] == 2.0 * math.pi and np.all(np.diff(ends) > 0.0)
    d = np.min(np.abs(np.angle(np.exp(1j * (ends[:, None] - corner_at[None, :])))), axis=1)
    bound = np.minimum(0.25 * np.maximum(np.minimum(d[:-1], d[1:]), floor), 0.05)
    assert np.all(np.diff(ends) <= bound * (1.0 + 1e-9))
    if len(corners) == 4:
        # filled from both corners, symmetric about the arc's midpoint pi/4
        assert np.allclose(0.5 * math.pi - phis[::-1], phis, rtol=0.0, atol=1e-15)

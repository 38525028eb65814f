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
from petalmap import maps, verify
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
    """The two-petal pattern in p = w + 1/w; real p in the band is the limit from above."""
    pts = np.atleast_1d(np.asarray(p, dtype=complex))
    request, finish = maps._two_petal_request(family, pts, (pts - 2.0) * (pts + 2.0), pts.imag < 0.0)
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
    # (2.0e-13 here and 1.1e-11 at other draws next to beta = pi/4, where
    # a - b = 0 and the 1/t route averages a window; 9.1e-15 away from it);
    # and a point refused for one family is refused for its mirror, as on
    # the diagonal where t = 4/p^2 = e^{-i pi/3} no route reaches
    cases = [line.split(",")[2:] for line in (DATA / "sweep_default.csv").read_text().splitlines()[1:]]
    for k in range(17):
        assert [cases[17 * k + j] for j in range(17)] == [cases[17 * k + 16 - j] for j in range(17)], k + 1
    rng = np.random.default_rng(20)
    edge = 0.5 * (1.0 + math.sqrt(3.0))
    refused = [1.0j, -1.0, edge * (1.0 + 1.0j), edge * (-1.0 + 1.0j)]
    betas = list(rng.uniform(0.0, 0.5 * math.pi, 20)) + [math.pi / 4 + 5e-5, math.pi / 4 - 1e-6]
    for beta in betas:
        alpha = rng.uniform(0.0, 0.5 * math.pi)
        family, mirror = MapFamily.two_petal(alpha, beta), MapFamily.two_petal(alpha, 0.5 * math.pi - beta)
        ws = rng.uniform(1.01, 5.0, 12) * np.exp(1j * rng.uniform(-math.pi, math.pi, 12))
        for w in [*ws, *refused]:
            got, want = refusal_or_value(family, w), refusal_or_value(mirror, w)
            if isinstance(got, str) or isinstance(want, str) or w in refused:
                assert got == want and isinstance(got, str), (alpha, beta, w)
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
def sheet_points(draw):
    """(family, w): a one- or two-petal family and a point 1 <= |w| <= 5, 1e-6 off every corner."""
    alpha = draw(st.floats(*ANGLE_RANGE))
    if draw(st.booleans()):
        family = MapFamily.two_petal(alpha, draw(st.floats(*ANGLE_RANGE)))
    else:
        family = MapFamily.one_petal(alpha)
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
    # Newton walks into the region no 2F1 transformation reaches; the
    # internal domain error must surface as the documented InversionError
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    z = 1.3158 + 1.5j
    with pytest.raises(InversionError):
        invert_map(fam, z)
    with pytest.raises(InversionError):
        pressure(fam, TimeState(1.0, 1.0), z)


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
    """The two-call Newton loop (`evaluate_map`, then `map_derivative`) that
    `invert_map`'s one-stencil step replaced, kept verbatim."""
    r = state.r if state is not None else 1.0
    target = complex(z) / r
    w = target
    if abs(w) < 1.0:
        w = 1.5 + 0.5j if w == 0.0 else 1.2 * w / abs(w)
    tol = maps.NEWTON_TOL * (1.0 + abs(z))
    for _ in range(maps.NEWTON_MAX_ITER):
        try:
            val = evaluate_map(family, w)
            err = abs(val * r - complex(z))
            if err <= tol:
                return w
            deriv = map_derivative(family, w)
        except (MapDomainError, Hyp2F1DomainError) as exc:
            raise InversionError("iteration left the evaluable region: %s" % exc, root=w) from exc
        if deriv == 0.0:
            raise InversionError("stationary point reached", root=w)
        w = w - (val - target) / deriv
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


def test_one_stencil_newton_matches_two_call_loop(monkeypatch):
    # the stencil's centre value and f' are the bits evaluate_map and
    # map_derivative give, so roots and failures must not move
    items = [(family, scaled_map(family, state, w0), state) for family, w0, state in INVERT_RECOVERED + INVERT_FAILING]
    items.append((MapFamily.two_petal(math.pi / 4, math.pi / 8), 1.3158 + 1.5j, None))
    items.append((LEMNISCATE, 0.3 + 0.4j, None))
    outcomes = []
    for family, z, state in items:
        got, want = outcome(invert_map, family, z, state), outcome(reference_invert, family, z, state)
        assert got == want, (family.label(), z)
        outcomes.append(got)
    assert [isinstance(o, tuple) for o in outcomes] == [False] * len(INVERT_RECOVERED) + [True] * 3
    assert "no convergence" in outcomes[len(INVERT_RECOVERED)][1]
    # next to the region no 2F1 route reaches a stencil point can be out of
    # reach while its centre is evaluable ...
    family, w0 = MapFamily.two_petal(math.pi / 4, math.pi / 8), 1.3525136496613666 + 1.423431662496373j
    evaluate_map(family, w0)
    with pytest.raises(Hyp2F1DomainError):
        map_derivative(family, w0)
    # ... and when that happens at a converged iterate, the root still returns
    family, z, state = items[0]
    root = outcomes[0]
    inner = maps._tangential_derivatives
    raised = []

    def out_of_reach_at_root(family, pts):
        if pts[0] == root:
            raised.append(root)
            raise Hyp2F1DomainError("stencil point out of reach")
        return inner(family, pts)

    monkeypatch.setattr(maps, "_tangential_derivatives", out_of_reach_at_root)
    assert outcome(invert_map, family, z, state) == outcome(reference_invert, family, z, state) == root
    assert raised == [root]


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
    # one-petal jobs take the closed form: the values have the bits of
    # evaluate_map at each job's points
    jobs = [
        (MapFamily.one_petal(0.3), 1.001 * np.exp(1j * np.linspace(0.0, 1.5, 57))),
        (MapFamily.one_petal(0.3), np.exp(0.2j * np.arange(1, 8))),
        (LEMNISCATE, np.array([1.6 + 0.4j, -1.3 + 1.2j, 2.5j])),
        (LEMNISCATE, np.array([], dtype=complex)),
        (MapFamily.one_petal(1.5), np.array([1.2 - 0.7j, 3.0 + 0.0j, -1.1j])),
    ]
    out = maps._lockstep_values(jobs)
    assert len(out) == len(jobs)
    for (family, points), values in zip(jobs, out):
        assert evaluate_map(family, points).tobytes() == values.tobytes()
    # a corner pre-image in any job refuses the call
    with pytest.raises(CornerPreimageError):
        maps._lockstep_values(jobs + [(LEMNISCATE, np.array([1.5j, -1.0 + 0.0j]))])


def test_map_derivative_consistency():
    # central difference against the analytic derivative
    fam = MapFamily.two_petal(math.pi / 4, math.pi / 8)
    h = 1e-6
    for w in (1.6 + 0.4j, -1.3 + 1.2j, 2.5j):
        fd = (evaluate_map(fam, w + h) - evaluate_map(fam, w - h)) / (2 * h)
        assert abs(map_derivative(fam, w) - fd) <= 1e-7 * max(1.0, abs(fd))


def reference_arc_derivatives(values_fn, pts, h):
    """The 9-call stencil that `maps._arc_derivatives` replaced, kept verbatim."""

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

    first = maps._richardson3(
        d1(h, g_m2, g_m1, g_p1, g_p2),
        d1(0.5 * h, g_m1, g_mh, g_ph, g_p1),
        d1(0.25 * h, g_mh, g_mq, g_pq, g_ph),
    )
    second = maps._richardson3(
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
    inner = maps._values_on_sheet

    def counting(family, pts):
        sizes.append(pts.size)
        return inner(family, pts)

    monkeypatch.setattr(maps, "_values_on_sheet", counting)
    map_derivative(fam, 1.3 + 0.4j)
    assert sizes == [9]
    for n in STENCIL_RING_SIZES:
        del sizes[:]
        ring = 1.07 * np.exp(1j * (np.arange(n) + 0.5) * (2.0 * math.pi / n))
        map_derivative(fam, ring)
        assert len(sizes) == math.ceil(9 * n / maps.ARC_BLOCK), n
        assert sum(sizes) == 9 * n and max(sizes) <= maps.ARC_BLOCK


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
    phis = verify._conformality_arc(family)[0]
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

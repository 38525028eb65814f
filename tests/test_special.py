"""Special-function layer: hypergeometric series and gamma quotients.

Frozen oracle values come from 40-digit mpmath evaluations or closed forms;
the live mpmath cross-checks stay in because it is a declared test
dependency.
"""

import cmath
import math
import re
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from petalmap import Hyp2F1DomainError, maps, special_functions
from petalmap.special_functions import Hyp2F1ConvergenceError, hyp2f1_values

SPOT_TOL = 1e-14
IDENTITY_TOL = 1e-12
MPMATH_TOL = 1e-12
GAMMA_TOL = 1e-14

# F(1/4, -1/4; 1/2; 1/4) = cos(pi/12), the quadratic-transformation spot value
SPOT_COS = 0.9659258262890683

# Gamma(1/4), frozen from mpmath at 40 digits
GAMMA_QUARTER = 3.6256099082219083


def f21(a, b, c, t):
    """F(a, b; c; t) at one point, through the vectorized evaluator."""
    return complex(hyp2f1_values(a, b, c, np.array([complex(t)]))[0])


def test_quadratic_spot_value():
    got = f21(0.25, -0.25, 0.5, 0.25)
    assert abs(got - SPOT_COS) <= SPOT_TOL
    assert abs(got - math.cos(math.pi / 12.0)) <= SPOT_TOL


def test_half_angle_identity_real():
    # F(g, g - 1/2; 1/2; z^2) = ((1+z)^(1-2g) + (1-z)^(1-2g)) / 2
    rng = np.random.default_rng(20251204)
    gs = rng.uniform(-0.49, 0.49, size=300)
    zs = rng.uniform(-0.9, 0.9, size=300)
    worst = 0.0
    for g, z in zip(gs, zs):
        lhs = f21(g, g - 0.5, 0.5, z * z)
        rhs = 0.5 * (
            cmath.exp((1.0 - 2.0 * g) * cmath.log(1.0 + z))
            + cmath.exp((1.0 - 2.0 * g) * cmath.log(1.0 - z))
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= IDENTITY_TOL


def test_half_angle_identity_complex():
    rng = np.random.default_rng(77)
    gs = rng.uniform(-0.49, 0.49, size=300)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, size=300))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=300)
    zs = radii * np.exp(1j * angles)
    worst = 0.0
    for g, z in zip(gs, zs):
        lhs = f21(g, g - 0.5, 0.5, z * z)
        rhs = 0.5 * ((1.0 + z) ** (1.0 - 2.0 * g) + (1.0 - z) ** (1.0 - 2.0 * g))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= IDENTITY_TOL


def test_binomial_reduction():
    # F(a, b; b; t) = (1-t)^(-a) regardless of b
    for a, b, t in [(0.35, 0.8, 0.6), (-0.7, 1.3, -0.4), (1.2, 0.5, 0.3 + 0.2j)]:
        got = f21(a, b, b, t)
        assert abs(got - (1.0 - t) ** (-a)) <= 1e-13


def test_polynomial_short_circuit():
    # a = -2 truncates the series to a quadratic, valid at any t
    a, b, c = -2.0, 0.7, 1.3
    for t in (0.9, 4.0, -7.5, 2.0 + 3.0j):
        explicit = 1.0 + a * b / c * t + a * (a + 1) * b * (b + 1) / (c * (c + 1)) / 2.0 * t * t
        assert abs(f21(a, b, c, t) - explicit) <= 1e-13 * abs(explicit)


def test_parameter_symmetry():
    # a and b play asymmetric roles in the connection formulas, so the
    # swapped evaluation may differ by rounding but nothing more
    for t in (0.4, -0.8, 0.2 + 0.6j):
        assert abs(f21(0.31, -0.12, 0.5, t) - f21(-0.12, 0.31, 0.5, t)) <= 1e-14


def test_routes_against_mpmath():
    # arguments chosen to exercise the direct series, the 1/t and 1-t
    # connections, and points just inside the summation guard
    cases = [
        (0.25, -0.25, 0.5, 0.3),
        (0.25, -0.25, 0.5, -8.0),
        (0.31, 0.07, 0.5, 0.93),
        (0.31, 0.07, 0.5, 0.6 + 0.7j),
        (-0.45, 0.2, 0.5, -0.94),
        (0.125, -0.375, 0.5, 1.0 + 0.3j),
        (0.125, -0.375, 0.5, 0.9999j),
        (0.4, 0.15, 0.5, -3.0),
    ]
    # c - a - b = 1 -/+ 0.015 and 0.015: next to t = 1 only the 1 - t
    # connection reaches, and its two terms nearly cancel
    for a, b, c in ((0.3425, 0.1425, 1.5), (0.3575, 0.1575, 1.5), (0.3425, 0.1425, 0.5)):
        cases += [(a, b, c, 0.97), (a, b, c, 0.99 + 0.05j), (a, b, c, 1.04 - 0.02j)]
    mp.mp.dps = 30
    for a, b, c, t in cases:
        got = f21(a, b, c, t)
        want = complex(mp.hyp2f1(a, b, c, t))
        assert abs(got - want) <= MPMATH_TOL * max(1.0, abs(want)), (a, b, c, t)


def test_one_minus_t_route_refused_at_a_pole():
    # c - a - b rounds to 1 - 1.1e-16 here, but the connection's lower
    # parameter a + b - c + 1 rounds to exactly 0; next to t = 1 no other
    # route reaches
    with pytest.raises(Hyp2F1DomainError):
        f21(0.35, 0.15, 1.5, 0.97)


@pytest.mark.parametrize("dist", [1e-4, 1e-8, 1e-10])
def test_one_minus_t_route_last_resort_near_integer(dist):
    # c - a - b = 1 - dist: the 1 - t connection, good to ~6e-18/dist^2,
    # serves only points no series route reaches; at these t it has the
    # smallest argument, but the direct or Pfaff series reaches them (for
    # 1.6 - 0.3i, the inner functions of 1/t)
    a, b, c = 0.35, 0.15, 1.5 - dist
    mp.mp.dps = 30
    for t in (0.6, 0.7 + 0.3j, 0.55 - 0.6j, 0.8, 1.6 - 0.3j):
        want = complex(mp.hyp2f1(a, b, mp.mpf(c), t))
        assert abs(f21(a, b, c, t) - want) <= 1e-14 * abs(want), t


def test_inverse_route_against_mpmath():
    # |t| > 1 goes through 1/t; the inner functions of 1/t take the direct,
    # Pfaff and 1 - t routes (0.957 e^{-0.29i} below is one of the latter)
    cases = [
        (0.125, -0.375, 0.5, 3.0 + 0.1j),
        (0.125, -0.375, 0.5, -25.0),
        (0.125, -0.375, 0.5, 1.5 - 0.7j),
        (0.125, -0.375, 0.5, 1.0 + 0.3j),
        (0.31, 0.07, 0.5, -1.02 + 0.4j),
        (0.4, 0.15, 0.5, 0.2 - 1.9j),
        (0.625, 0.375, 0.5, 1.0001j),
        (0.35, 0.8, 1.3, -2.5 - 2.5j),
    ]
    mp.mp.dps = 30
    for a, b, c, t in cases:
        got = f21(a, b, c, t)
        want = complex(mp.hyp2f1(a, b, c, t))
        assert abs(got - want) <= MPMATH_TOL * max(1.0, abs(want)), (a, b, c, t)


@pytest.mark.parametrize("a, b, c", [(0.5, 0.25, 2.5), (0.25, 0.75, 3.25), (1.5, -0.3, 3.5)])
def test_inverse_route_terminating_inner_function(a, b, c):
    # a - c + 1 is a non-positive integer, so the 1/t connection's inner
    # function F(a, a - c + 1; a - b + 1; 1/t) is a polynomial, summed directly
    mp.mp.dps = 40
    ts = np.array([3.0 + 1j, -5.0 + 0.2j, 2.0 - 3j, 1.5 + 0.01j, -1.2 - 0.4j, 10j])
    for got, t in zip(hyp2f1_values(a, b, c, ts), ts):
        want = complex(mp.hyp2f1(a, b, c, complex(t)))
        assert abs(got - want) <= 1e-13 * abs(want), t


def test_cut_from_below():
    # a -0.0 imaginary part is the limit from below, mpmath's value on the cut
    mp.mp.dps = 30
    for t in (1.5, 42.0):
        got = f21(0.25, -0.25, 0.5, complex(t, -0.0))
        want = complex(mp.hyp2f1(0.25, -0.25, 0.5, t))
        assert abs(got - want) <= 1e-14 * abs(want), t
        assert abs(got - f21(0.25, -0.25, 0.5, complex(t, -1e-300))) <= 1e-14 * abs(want)


def test_degenerate_window_averages():
    # a - b = 0 is the pole of the 1/t connection coefficients; the window
    # averages a +- 1e-4, b -+ 1e-4, an O(1e-8) error by construction.
    # (0.2, 0.2001) sits at the window's edge: one offset lands just inside
    # its other side and must be evaluated, not averaged again
    mp.mp.dps = 30
    for a, b in [(1.0 / 12.0, 1.0 / 12.0), (0.2, 0.2001)]:
        worst = 0.0
        for t in (1.3 + 2.1j, -3.0 + 1.0j, complex(2.5, -0.0), 1.5 + 1.0j):
            want = complex(mp.hyp2f1(a, b, 0.5, t.real if t.imag == 0.0 else t))
            worst = max(worst, abs(f21(a, b, 0.5, t) - want) / abs(want))
        assert worst <= 1e-7, (a, b)


@st.composite
def window_edge_parameters(draw):
    """(a, b, k) with c = 1/2 in reach: a - b within twice the shift of the integer k."""
    shift = special_functions.DEGENERATE_SHIFT
    a = draw(st.floats(-0.5, 0.7))
    k = draw(st.sampled_from([0, 1, -1]))
    return a, a - (k + draw(st.floats(-2.0 * shift, 2.0 * shift))), k


@given(window_edge_parameters())
@example((0.2, 0.2001, 0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_window_edges_finite_and_accurate(params):
    # on both sides of each window edge every value is finite; near 0, the
    # only integer the two-petal map reaches (a - b = delta - 1/2), it holds
    # the window's ~5e-8 against mpmath
    a, b, k = params
    t = 1.5 * np.exp(1j * np.array([-2.4, 0.6, 2.0]))
    got = hyp2f1_values(a, b, 0.5, t)
    assert np.all(np.isfinite(got))
    if k == 0:
        with mp.workdps(30):
            want = np.array([complex(mp.hyp2f1(a, b, 0.5, complex(x))) for x in t])
        assert np.max(np.abs(got - want)) <= 1e-7


def test_degenerate_window_is_mean_of_offsets():
    # both offset connections share the window's series loop; each summed in
    # a call of its own gives the same bits, and the window is their mean
    shift = special_functions.DEGENERATE_SHIFT
    t = 1.6 * np.exp(1j * np.linspace(-3.0, 3.0, 40))
    for a, b in [(0.25, 0.25), (1.0 / 12.0, 1.0 / 12.0), (0.4, -0.6)]:
        lo = hyp2f1_values(a - shift, b + shift, 0.5, t)
        hi = hyp2f1_values(a + shift, b - shift, 0.5, t)
        assert np.array_equal(hyp2f1_values(a, b, 0.5, t), 0.5 * (lo + hi)), (a, b)


def test_unreachable_argument_rejected():
    # |t| = 1 near e^{+-i pi/3}: no route, nor 1/t, brings these inside the
    # summation radius
    for t in (cmath.exp(1j * math.pi / 3), 1.02 * cmath.exp(-1j * math.pi / 3)):
        with pytest.raises(Hyp2F1DomainError):
            f21(0.125, -0.375, 0.5, t)


def test_cut_rejection():
    for t in (1.0, 1.5, 42.0):
        with pytest.raises(Hyp2F1DomainError):
            f21(0.25, -0.25, 0.5, t)


def test_non_finite_argument_rejected():
    # a nan modulus fails the reachability test, so it must be refused first;
    # the terminating series (a = -2) would otherwise sum it to nan
    for a in (-2.0, 0.125):
        for t in (complex("nan"), complex("inf"), complex(0.5, math.inf)):
            with pytest.raises(Hyp2F1DomainError, match="non-finite"):
                hyp2f1_values(a, -0.375, 0.5, np.array([0.3, t]))
            # a caller's factored 1 - t is refused the same way
            with pytest.raises(Hyp2F1DomainError, match="non-finite"):
                hyp2f1_values(a, -0.375, 0.5, np.array([0.3, 0.5]), one_minus=np.array([0.7, t]))


def test_lower_parameter_validation():
    for c in (0.0, -1.0, -2.0, -6.0):
        with pytest.raises(Hyp2F1DomainError):
            hyp2f1_values(1.0, 1.0, c, np.array([0.3]))
    assert np.isfinite(f21(1.0, 1.0, -0.5, 0.3))  # non-integer is fine


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("index", [0, 1, 2], ids=("a", "b", "c"))
@pytest.mark.parametrize("per_point", [False, True], ids=("float", "array"))
def test_non_finite_parameter_rejected(monkeypatch, bad, index, per_point):
    # the route rules round the parameters, which would raise ValueError or
    # OverflowError; a per-point parameter is bad at one point of three
    t = np.array([0.3, 0.5 + 0.2j, 2.0 - 1.0j])
    params = [0.3, -0.2, 0.5]
    if per_point:
        column = np.full(t.shape, params[index])
        column[1] = bad
        params[index] = column
    else:
        params[index] = bad
    with pytest.raises(Hyp2F1DomainError, match="non-finite parameter"):
        hyp2f1_values(*params, t)
    # second in a batch, after a good request, and before any series is summed
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: pytest.fail("series summed"))
    with pytest.raises(Hyp2F1DomainError, match="non-finite parameter"):
        special_functions._hyp2f1_batch([BATCH_REQUESTS[0], (*params, t, None), BATCH_REQUESTS[3]])


def reference_series_sum(a, b, c, t):
    """The all-points loop of a single series that `_series_sums` replaced, kept verbatim."""
    t = np.asarray(t, dtype=complex)
    total = np.ones(t.shape, dtype=complex)
    term = np.ones(t.shape, dtype=complex)
    active = np.ones(t.shape, dtype=bool)
    for n in range(1, special_functions.MAX_TERMS + 1):
        ratio = (a + n - 1.0) * (b + n - 1.0) / ((c + n - 1.0) * n)
        term = term * (ratio * t)
        total = total + np.where(active, term, 0.0)
        active &= np.abs(term) > special_functions.TERM_TOL * np.abs(total)
        if not active.any():
            return total
    raise AssertionError("reference loop did not settle")


def reference_series_sums(queue):
    """Each queued series summed alone by `reference_series_sum`.

    The reference loop on a 0-d argument runs on numpy scalars, whose
    complex product rounds differently from the array product; the merged
    loop sums a 0-d argument as a 1-element array, so compare to that.
    """
    return [reference_series_sum(a, b, c, np.reshape(t, -1)).reshape(np.shape(t)) for a, b, c, t in queue]


def assert_same_bits(got, want):
    """Equal shapes and bytes: `np.array_equal` alone takes -0.0 for +0.0."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def series_sum(a, b, c, t):
    """One series through the merged loop."""
    return special_functions._series_sums([(a, b, c, t)])[0]


def mixed_moduli(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.01, 0.95, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))


def test_series_sum_matches_all_points_loop():
    # converged points leave the loop early; their sums must not move a bit
    t = mixed_moduli(3000)
    for a, b, c in [(0.25, -0.25, 0.5), (0.31, 0.07, 0.5), (1.3, 0.6, 1.7)]:
        got = series_sum(a, b, c, t)
        assert_same_bits(got, reference_series_sum(a, b, c, t))
    # a = -3 terminates: every term past the cubic is exactly zero
    t = np.concatenate([t, [4.0, -7.5, 2.0 + 3.0j]])
    got = series_sum(-3.0, 0.7, 1.3, t)
    assert_same_bits(got, reference_series_sum(-3.0, 0.7, 1.3, t))


def test_merged_loop_matches_each_entry_alone():
    # one loop over a mixed queue gives every entry the bits of its own
    # loop: different (a, b, c), a terminating entry, an empty one, a 0-d
    # argument, and more than 16384 points in all
    queue = [
        (0.25, -0.25, 0.5, mixed_moduli(9000, seed=1)),
        (1.3, 0.6, 1.7, mixed_moduli(6000, seed=2).reshape(60, 100)),
        (-3.0, 0.7, 1.3, np.concatenate([mixed_moduli(40, seed=3), [4.0, -7.5, 2.0 + 3.0j]])),
        (0.31, 0.07, 0.5, np.zeros((0, 4), dtype=complex)),
        (0.45, 0.15, 0.5, np.asarray(0.35 - 0.4j)),
        (0.31, 0.07, 0.5, mixed_moduli(2000, seed=4)),
    ]
    assert sum(np.size(t) for *_, t in queue) > 16384
    got = special_functions._series_sums(queue)
    want = reference_series_sums(queue)
    assert len(got) == len(queue)
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    # and alone, where a 0-d argument is the loop's only point
    for entry, w in zip(queue, want):
        (g,) = special_functions._series_sums([entry])
        assert_same_bits(g, w)
    assert special_functions._series_sums([]) == []


def test_blocked_tail_matches_one_term_step():
    # more than 4 TAIL_BLOCK live points take one term per iteration, fewer
    # a block of TAIL_BLOCK terms: short series (|t| < 0.3) carry the live
    # count past the switch, and once they settle the long ones (|t| up to
    # 0.95, many blocks) and a terminating entry at |t| = 1e6 end in blocks
    switch = 4 * special_functions.TAIL_BLOCK
    queue = [
        (0.25, -0.25, 0.5, 0.3 * mixed_moduli(2 * switch, seed=5)),
        (0.45, 0.15, 0.5, 0.95 * np.exp(1j * np.linspace(-3.0, 3.0, switch // 2))),
        (1.3, 0.6, 1.7, mixed_moduli(switch // 4, seed=6)),
        (-3.0, 0.7, 1.3, 1e6 * np.exp(1j * np.linspace(0.1, 3.0, 5))),
    ]
    assert switch // 2 + switch // 4 + 5 <= switch < sum(np.size(t) for *_, t in queue)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special_functions._series_sums(queue)
    for g, w in zip(got, reference_series_sums(queue)):
        assert_same_bits(g, w)
    # a point summed alone is blocked from its first term; in 16384 points
    # it takes one term at a time until few are live
    a, b, c = 0.45, 0.15, 0.5
    points = 0.95 * np.exp(1j * np.linspace(-3.0, 3.0, 8))
    batch = series_sum(a, b, c, np.concatenate([mixed_moduli(16384 - points.size, seed=8), points]))
    for t, in_batch in zip(points, batch[-points.size :]):
        alone = series_sum(a, b, c, np.array([t]))
        assert_same_bits(alone, reference_series_sum(a, b, c, np.array([t])))
        assert alone.tobytes() == in_batch.tobytes()


def frozen_queue():
    """1056 points that settle from term 1 to term 577, many of them frozen beside live ones.

    While more than 4 ``TAIL_BLOCK`` points are live, a settled point stays
    in the loop's arrays until at most half of them are live: 1e-20 settles
    at term 1, the terminating entry at |t| = 1e6 at term 4, and the 0.95
    ring, over 500 terms, carries 91 frozen neighbours up to the switch into
    the block tail at term 571.  Real arguments come with +0.0 and -0.0
    imaginary parts.
    """
    switch = 4 * special_functions.TAIL_BLOCK
    real = np.linspace(-0.9, 0.9, switch // 2) + 0.0j
    return [
        (0.25, -0.25, 0.5, 1e-20 * mixed_moduli(switch, seed=12)),
        (0.31, 0.07, 0.5, mixed_moduli(4 * switch, seed=13)),
        (-3.0, 0.7, 1.3, 1e6 * np.exp(1j * np.linspace(-3.0, 3.0, switch // 4))),
        (1.3, 0.6, 1.7, np.concatenate([real, np.conj(real)])),
        (0.45, 0.15, 0.5, 0.95 * np.exp(1j * np.linspace(-3.0, 3.0, 2 * switch))),
    ]


def test_frozen_points_keep_their_sums():
    # a settled point's later terms are exact zeros, and adding them leaves
    # its sum's bytes as they were when it settled
    queue = frozen_queue()
    assert np.signbit(queue[3][3].imag).sum() == queue[3][3].size // 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = special_functions._series_sums(queue)
    want = reference_series_sums(queue)
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    for entry, w in zip(queue, want):
        (g,) = special_functions._series_sums([entry])
        assert_same_bits(g, w)


def test_convergence_error_names_no_frozen_point(monkeypatch):
    # geometric series (a = b = c = 1): 40 points at t = 0.01 settle at term
    # 8 and 150 at t = 0.9 at term 328, and all freeze beside the 200 at
    # t = -0.899, which settle at 353; at a cap of 340 the error names
    # -0.899, not the larger frozen modulus
    switch = 4 * special_functions.TAIL_BLOCK
    t = np.concatenate([np.full(150, 0.9), np.full(200, -0.899), np.full(40, 0.01)])
    assert 200 > switch and 2 * 200 > t.size
    monkeypatch.setattr(special_functions, "MAX_TERMS", 340)
    with pytest.raises(Hyp2F1ConvergenceError, match=r"-0\.899"):
        series_sum(1.0, 1.0, 1.0, t)
    # a cap of 353 sums them all
    monkeypatch.setattr(special_functions, "MAX_TERMS", 353)
    assert_same_bits(series_sum(1.0, 1.0, 1.0, t), reference_series_sum(1.0, 1.0, 1.0, t))


@pytest.mark.parametrize("a, b, c", [(0.25, -0.25, 0.5), (0.4, 0.15, 0.5), (0.25, 0.25, 0.5), (-3.0, 0.7, 1.3)])
def test_series_shapes_through_hyp2f1_values(monkeypatch, a, b, c):
    # (0.25, 0.25) has a - b = 0 and takes the averaged 1/t route
    grid = mixed_moduli(60, seed=11).reshape(6, 10) * 1.4
    scalar = np.asarray(0.35 - 0.4j)
    got = [hyp2f1_values(a, b, c, grid), hyp2f1_values(a, b, c, scalar)]
    queues = []

    def reference(queue):
        queues.append(len(queue))
        return reference_series_sums(queue)

    monkeypatch.setattr(special_functions, "_series_sums", reference)
    want = [hyp2f1_values(a, b, c, grid), hyp2f1_values(a, b, c, scalar)]
    assert len(queues) == 2 and min(queues) >= 1
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize(
    "radius, lo, hi",
    # each set takes one route at every point: direct, Pfaff, 1/t
    [(0.3, -1.2, 1.2), (0.5, 2.0, 4.2), (1.5, -math.pi, math.pi)],
    ids=("direct", "pfaff", "inverse"),
)
def test_values_do_not_depend_on_batch_size(radius, lo, hi):
    # numpy reuses a temporary of 16384 complex points in place, which must
    # not change a point's bits
    n = 16384
    t = radius * np.exp(1j * np.linspace(lo, hi, n))
    for a, b, c in [(0.3, -0.2, 0.5), (0.45, 0.15, 0.5)]:
        full = hyp2f1_values(a, b, c, t)
        blocks = np.concatenate([hyp2f1_values(a, b, c, t[k : k + 128]) for k in range(0, n, 128)])
        assert np.array_equal(full, blocks)


# two points for each route: direct, Pfaff, 1 - t (where |t| and |t/(t - 1)|
# are both above the radius, so also the last resort) and 1/t
MIXED_ROUTES = np.array([0.3 + 0.2j, 0.2 - 0.1j, -0.8 + 0.3j, -0.6 - 0.6j, 0.99 + 0.05j, 0.97 - 0.1j, 1.5 + 1.0j, -3.0 + 0.5j])


@pytest.mark.parametrize(
    "a, b, c",
    # (0.25, 0.25) takes the averaged 1/t route; c - a - b = 1.003 makes the
    # 1 - t connection a last resort
    [(0.3, -0.2, 0.5), (0.45, 0.15, 0.5), (0.25, 0.25, 0.7), (-0.4, 1.3, 1.7), (0.2, 0.3, 1.503)],
)
def test_mixed_routes_match_points_alone(monkeypatch, a, b, c):
    # one call scatters four routes' values; each point alone takes its
    # route on the whole array
    taken = set()
    for name in ("_direct", "_pfaff", "_euler_connection", "_inverse_connection"):
        route = getattr(special_functions, name)
        monkeypatch.setattr(special_functions, name, lambda *args, name=name, route=route: taken.add(name) or route(*args))
    mixed = hyp2f1_values(a, b, c, MIXED_ROUTES)
    assert taken == {"_direct", "_pfaff", "_euler_connection", "_inverse_connection"}
    alone = np.concatenate([hyp2f1_values(a, b, c, MIXED_ROUTES[k : k + 1]) for k in range(MIXED_ROUTES.size)])
    assert np.array_equal(mixed, alone)


def test_convergence_error_names_unsettled_point(monkeypatch):
    # geometric series (a = b = c = 1): t = 0.9 settles after 328 terms,
    # t = -0.899 after 353 and t = 0.01 after 8; with a cap of 340 only
    # -0.899 is still summing, although 0.9 has the larger modulus
    monkeypatch.setattr(special_functions, "MAX_TERMS", 340)
    t = np.array([0.01, 0.9, 0.01j, -0.899, -0.01])
    with pytest.raises(Hyp2F1ConvergenceError, match=r"-0\.899"):
        series_sum(1.0, 1.0, 1.0, t)
    # a mix of |t| = 0.01 and 0.9 under a 40-term cap names a 0.9 point;
    # 0.9 e^{i pi/3} is summed directly (|t| < |1 - t| < 1)
    monkeypatch.setattr(special_functions, "MAX_TERMS", 40)
    t = np.array([0.01, 0.9 * cmath.exp(1j * math.pi / 3), -0.01, 0.01j])
    with pytest.raises(Hyp2F1ConvergenceError) as info:
        hyp2f1_values(0.3, 0.2, 0.5, t)
    named = complex(re.search(r"([-+]?[0-9.e-]+[-+][0-9.e-]+j)", str(info.value)).group(1))
    assert named == t[1]
    assert "np." not in str(info.value)  # a plain complex, whatever the numpy version


def test_term_cap_is_exact_inside_a_block(monkeypatch):
    # the geometric series at t = 0.9 settles at term 328, not a multiple
    # of TAIL_BLOCK = 32: a cap of 328 sums it to 10, one term less does not
    t = np.array([0.9])
    monkeypatch.setattr(special_functions, "MAX_TERMS", 328)
    got = series_sum(1.0, 1.0, 1.0, t)
    assert np.array_equal(got, reference_series_sum(1.0, 1.0, 1.0, t))
    assert abs(got[0] - 10.0) <= 2e-15
    monkeypatch.setattr(special_functions, "MAX_TERMS", 327)
    with pytest.raises(Hyp2F1ConvergenceError, match=r"327 terms .*0\.9"):
        series_sum(1.0, 1.0, 1.0, t)


def test_empty_argument_returns_at_once(monkeypatch):
    # an empty batch must not step through the term cap before returning
    monkeypatch.setattr(special_functions, "MAX_TERMS", 10**5)
    start = time.perf_counter()
    for a in (-3.0, 0.3):
        out = hyp2f1_values(a, 0.7, 1.3, np.array([], dtype=complex))
        assert out.shape == (0,)
    assert series_sum(0.3, 0.7, 1.3, np.zeros((0, 4))).shape == (0, 4)
    assert time.perf_counter() - start < 1.0
    # a batch with no point at all is answered at its edge: it neither
    # routes nor sums, and gives complex empties shaped like each t
    monkeypatch.setattr(special_functions, "_route", lambda points: pytest.fail("routed"))
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: pytest.fail("series summed"))
    shapes = [(0,), (3, 0), (0, 2)]
    requests = [(0.3, 0.7, 1.3, np.zeros(shape, dtype=complex), None) for shape in shapes]
    requests.append((np.zeros((2, 0)), 0.7, 1.3, np.zeros((2, 0)), np.zeros((2, 0))))
    out = special_functions._hyp2f1_batch(requests)
    assert [(part.shape, part.dtype) for part in out] == [(shape, complex) for shape in shapes + [(2, 0)]]
    family = maps.MapFamily.two_petal(math.pi / 4, math.pi / 8)
    empty = np.zeros(0, dtype=complex)
    values, derivatives, partner = maps._samples([(family, empty, what) for what in ("values", "derivatives", "partner")])
    for part in (values, *derivatives, *partner):
        assert part.shape == (0,) and part.dtype == complex


def gamma(x):
    """Gamma at one real point, through the quotient."""
    return special_functions._gamma_quotient((x,), ())


def test_gamma_spot_values():
    assert abs(gamma(0.25) - GAMMA_QUARTER) <= GAMMA_TOL * GAMMA_QUARTER
    assert abs(gamma(0.5) - math.sqrt(math.pi)) <= 1e-14
    assert abs(gamma(1.0) - 1.0) <= 1e-14
    assert abs(gamma(6.0) - 120.0) <= 120.0 * 1e-14


def test_gamma_recurrence():
    # Gamma(x+1) = x Gamma(x), including negative arguments of both signs of Gamma
    for x in (0.25, -1.7, -0.6, -2.3, 3.2):
        lhs = gamma(x + 1.0)
        rhs = x * gamma(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        assert abs(special_functions._gamma_quotient((x + 1.0,), (x,)) - x) <= 1e-12 * max(1.0, abs(x))


def test_gamma_reflection():
    # Gamma(x) Gamma(1-x) = pi / sin(pi x) away from the poles
    for x in (0.25, 0.8, -0.35, -1.6, 2.7):
        lhs = special_functions._gamma_quotient((x, 1.0 - x), ())
        rhs = math.pi / math.sin(math.pi * x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        assert abs(gamma(x) * gamma(1.0 - x) - rhs) <= 1e-12 * abs(rhs)


def test_gamma_quotient_against_mpmath():
    # seeded draws in (-3.9, 4): on x < 0 Gamma alternates in sign from one
    # pole gap to the next, and the quotient carries that sign
    rng = np.random.default_rng(11)
    draws = [tuple(rng.uniform(-3.9, 4.0, size)) for size in (1, 2, 3) for _ in range(20)]
    cases = [((0.25,), ()), ((0.5, 6.0), (1.0,))]
    cases += [((-0.5 - k,), ()) for k in range(4)]
    cases += [(d[:1], d[1:]) for d in draws] + [(d[1:], d[:1]) for d in draws]
    signs = set()
    with mp.workdps(40):
        for numerators, denominators in cases:
            want = float(
                mp.fprod(mp.gamma(x) for x in numerators) / mp.fprod(mp.gamma(x) for x in denominators)
            )
            got = special_functions._gamma_quotient(numerators, denominators)
            assert isinstance(got, float)
            assert abs(got - want) <= GAMMA_TOL * abs(want), (numerators, denominators)
            signs.add(math.copysign(1.0, want))
    assert signs == {1.0, -1.0}
    # a denominator pole gives exactly 0 (1/Gamma is entire), even next to
    # a numerator pole; a numerator pole alone is an error
    assert special_functions._gamma_quotient((0.5,), (0.3, -2.0)) == 0.0
    assert special_functions._gamma_quotient((-1.0,), (0.0,)) == 0.0
    for numerators in ((-1.0,), (0.0, 0.5), (0.5, -3.0)):
        with pytest.raises(ValueError, match="pole"):
            special_functions._gamma_quotient(numerators, (0.5,))


# one request per route of the table, shapes and a caller's 1 - t included
BATCH_REQUESTS = [
    (0.3, -0.2, 0.5, np.array([0.3 + 0.2j, 0.2 - 0.1j]), None),  # direct
    (0.3, -0.2, 0.5, np.array([-0.8 + 0.3j, -0.6 - 0.6j]), None),  # Pfaff
    (0.2, 0.3, 1.503, np.array([0.99 + 0.05j, 0.97 - 0.1j]), np.array([0.01 - 0.05j, 0.03 + 0.1j])),  # 1 - t
    (0.3, -0.2, 0.5, np.array([[1.5 + 1.0j], [-3.0 + 0.5j]]), None),  # 1/t
    (0.25, 0.25, 0.5, 1.6 * np.exp(1j * np.linspace(-3.0, 3.0, 8)), None),  # integer a - b: the averaged window (delta = 1/2)
    (-2.0, 0.7, 1.3, np.array([[0.5, 3.0 + 1.0j], [-7.0, 1.5 + 0.0j]]), None),  # terminating
    (0.3, -0.2, 0.5, np.array([complex(1.5, -0.0), complex(3.0, -0.0), complex(1.0000001, -0.0)]), None),  # on the cut from below
    (0.45, 0.15, 0.5, np.asarray(0.4 - 0.3j), None),  # 0-d
    (0.45, 0.15, 0.5, np.array([], dtype=complex), None),
    (0.2, 0.3, 1.503, MIXED_ROUTES, None),
]


def test_batch_matches_single_calls(monkeypatch):
    # every request of one batch has the bits and shape of its own call,
    # and the whole batch is summed in one series loop
    taken = set()
    for name in ("_direct", "_pfaff", "_euler_connection", "_inverse_connection"):
        route = getattr(special_functions, name)
        monkeypatch.setattr(special_functions, name, lambda *args, name=name, route=route: taken.add(name) or route(*args))
    alone = [hyp2f1_values(a, b, c, t, one_minus=one_minus) for a, b, c, t, one_minus in BATCH_REQUESTS]
    loops = []
    sums = special_functions._series_sums
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(queue) or sums(queue))
    batch = special_functions._hyp2f1_batch(BATCH_REQUESTS)
    assert taken == {"_direct", "_pfaff", "_euler_connection", "_inverse_connection"}
    assert len(loops) == 1
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # and -0.0 imaginary parts where the single call has them
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize(
    "bad",
    [
        (0.3, -0.2, 0.5, np.array([0.3, complex("nan")]), None),
        (-2.0, -0.375, 0.5, np.array([0.3, complex(0.5, math.inf)]), None),
        (0.3, -0.2, 0.5, np.array([0.3, 0.5]), np.array([0.7, complex("inf")])),
        (0.3, -0.2, 0.5, np.array([0.3, 1.5 + 0.0j]), None),
        (0.3, -0.2, 0.5, np.array([complex(1.0, -0.0)]), None),
        (1.0, 1.0, -2.0, np.array([0.3]), None),
    ],
    ids=("nan", "terminating-inf", "one-minus-inf", "cut", "branch-point", "lower-parameter"),
)
def test_batch_raises_as_single_call(monkeypatch, bad):
    # a bad request anywhere in the batch raises the single call's error
    # before any series is summed
    with pytest.raises(Hyp2F1DomainError) as alone:
        hyp2f1_values(*bad[:4], one_minus=bad[4])
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: pytest.fail("series summed"))
    with pytest.raises(Hyp2F1DomainError) as batch:
        special_functions._hyp2f1_batch([BATCH_REQUESTS[0], bad, BATCH_REQUESTS[3]])
    assert str(batch.value) == str(alone.value)


# two-petal map requests on the loci where a family's routes turn on its
# parameters: a = -5.6e-17, zero up to rounding (alpha + beta = pi/2, the
# grid node (3 pi/36, 15 pi/36)); a - b = 0 and the averaged window (beta =
# pi/4); c - a - b = 1 - 2 alpha/pi, 6.4e-4 from 1, where the 1 - t
# connection is a last resort (alpha = 1e-3); b = 0 and a terminating
# series (beta = alpha); and a plain family
LOCI = [(3 * math.pi / 36, 15 * math.pi / 36), (0.6, math.pi / 4), (1e-3, 0.7), (0.5, 0.5), (0.7, 0.3)]
# t = 4/p^2 takes the 1/t route next to the unit circle, the 1 - t
# connection at w = 1.05 and the direct and Pfaff series farther out
LOCUS_POINTS = np.concatenate(
    [1.02 * np.exp(1j * np.linspace(0.05, 3.1, 7)), [1.05, 1.05 * np.exp(0.3j), 1.5j, 2.0 + 0.3j, -1.1 - 0.8j, 3.0 + 1j, -2.5j]]
)


def locus_request(alpha, beta, w):
    """F's request of the two-petal map at sheet points w; alpha and beta per family or per point."""
    request, _ = maps._two_petal_request(alpha, beta, np.reshape(w, -1))
    return request[:3] + tuple(np.reshape(x, np.shape(w)) for x in request[3:])


def spy_routes(monkeypatch):
    """Log the route functions taken and every `_route` pick, by the number of requests it routes."""
    taken, picks = set(), []
    for name in ("_direct", "_pfaff", "_euler_connection", "_inverse_connection", "_window_average"):
        route = getattr(special_functions, name)
        monkeypatch.setattr(special_functions, name, lambda *args, name=name, route=route: taken.add(name) or route(*args))
    route = special_functions._route
    monkeypatch.setattr(special_functions, "_route", lambda points: picks.append(len(points)) or route(points))
    return taken, picks


def test_batch_of_loci_routes_once(monkeypatch):
    # every locus, shaped 1-d, 2-d and 0-d, and one request whose points
    # carry three families (the first again after the second): each has
    # the bits and shape of its own call, and the batch takes one route
    # pick and one series loop
    w = LOCUS_POINTS
    requests = [locus_request(alpha, beta, w) for alpha, beta in LOCI]
    requests[1] = locus_request(*LOCI[1], w.reshape(2, 7))
    requests.append(locus_request(*LOCI[2], np.asarray(w[3])))
    sizes = [w.size, 5, 9]
    alpha, beta = (np.repeat([LOCI[k][i] for k in (0, 1, 0)], sizes) for i in (0, 1))
    mixed = np.concatenate([w, w[:5], w[2:11]])
    requests.append(locus_request(alpha, beta, mixed))
    alone = [hyp2f1_values(*request) for request in requests]
    bounds = np.cumsum([0] + sizes)
    segments = [hyp2f1_values(*locus_request(*LOCI[k], mixed[lo:hi])) for k, lo, hi in zip((0, 1, 0), bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(segments).view(np.uint64), alone[-1].view(np.uint64))
    taken, picks = spy_routes(monkeypatch)
    loops = []
    sums = special_functions._series_sums
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: loops.append(queue) or sums(queue))
    batch = special_functions._hyp2f1_batch(requests)
    assert taken == {"_direct", "_pfaff", "_euler_connection", "_inverse_connection", "_window_average"}
    assert picks == [len(requests)] and len(loops) == 1
    assert len(batch) == len(alone)
    for got, want in zip(batch, alone):
        assert got.shape == want.shape
        assert np.array_equal(np.ravel(got).view(np.uint64), np.ravel(want).view(np.uint64))


@pytest.mark.parametrize(
    "bad, later, raised",
    [
        ((0.3, -0.2, 0.5, np.array([0.3, complex("nan")]), None), (1.0, 1.0, -2.0, np.array([0.3]), None), 0),
        ((1.0, 1.0, -2.0, np.array([0.3]), None), (0.3, -0.2, 0.5, np.array([1.5 + 0.0j]), None), 0),
        # every request is checked before any is routed: a later request's
        # check error comes before an earlier request's routing error
        ((0.125, -0.375, 0.5, np.array([0.3, cmath.exp(1j * math.pi / 3)]), None), (0.3, -0.2, 0.5, np.array([complex("nan")]), None), 1),
    ],
    ids=("nan", "lower-parameter", "unreachable"),
)
def test_loci_batch_raises_the_first_bad_request(monkeypatch, bad, later, raised):
    errors = []
    for request in (bad, later):
        with pytest.raises(Hyp2F1DomainError) as alone:
            hyp2f1_values(*request)
        errors.append(str(alone.value))
    requests = [locus_request(alpha, beta, LOCUS_POINTS) for alpha, beta in LOCI]
    monkeypatch.setattr(special_functions, "_route", lambda points: pytest.fail("routed"))
    monkeypatch.setattr(special_functions, "_series_sums", lambda queue: pytest.fail("series summed"))
    with pytest.raises(Hyp2F1DomainError) as batch:
        special_functions._hyp2f1_batch(requests[:2] + [bad] + requests[2:] + [later])
    assert str(batch.value) == errors[raised]


@pytest.mark.parametrize("n", [1, 5, 2043, 16383, 16384, 20000])
def test_per_point_parameters_keep_the_scalar_bits(n):
    # the numpy property a batch of several families rests on: an exponent
    # array in _power, and a coefficient array times a complex product,
    # give each point the bits of its own float, on both sides of numpy's
    # 256 KiB (16384 complex point) temporary threshold
    rng = np.random.default_rng(n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    floats = [-0.2768647697851627, 0.5, 0.6180281365794511, 1.0 / 3.0, -5.551115123125783e-17]
    pick = rng.integers(len(floats), size=n)
    per_point = np.array(floats)[pick]
    powers = special_functions._power(z, per_point)
    products = per_point * x * y
    for k, mu in enumerate(floats):
        at = pick == k
        assert np.array_equal(powers[at].view(np.uint64), special_functions._power(z, mu)[at].view(np.uint64))
        assert np.array_equal(products[at].view(np.uint64), (mu * x * y)[at].view(np.uint64))


def test_per_point_parameters_match_single_calls():
    # a parameter set per point, every point its own family, has each
    # point's bits alone; t inside |t| < 1/2 or outside |t| > 2 is reachable
    # by every family
    rng = np.random.default_rng(32)
    n = 24
    a, b = rng.uniform(-1.0, 1.0, (2, n))
    c = rng.uniform(0.2, 2.0, n)
    t = np.where(rng.random(n) < 0.5, 0.45, 2.5) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    got = hyp2f1_values(a.reshape(4, 6), b.reshape(4, 6), c.reshape(4, 6), t.reshape(4, 6))
    assert got.shape == (4, 6)
    alone = np.concatenate([hyp2f1_values(a[k], b[k], c[k], t[k : k + 1]) for k in range(n)])
    assert np.array_equal(got.reshape(-1).view(np.uint64), alone.view(np.uint64))
    # a parameter broadcast along one axis
    rows = hyp2f1_values(a[:4, None], 0.3, 1.3, t.reshape(4, 6))
    for k in range(4):
        assert np.array_equal(rows[k].view(np.uint64), hyp2f1_values(a[k], 0.3, 1.3, t.reshape(4, 6)[k]).view(np.uint64))

import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from epidual import gammafn, measures
from epidual.gammafn import reg_gamma
from epidual.logdomain import NEG_INF
from epidual.measures import (
    VolumePair,
    delta,
    integrate_line,
    log_s_j_n,
    symmetrization_gap,
    vol_mu,
    vol_nu,
    vol_nu_direct,
    volume_pair,
)
from epidual.profile import (
    INF,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    j_transform,
    scale,
    to_radius,
)
from epidual.verify import ProfileSampler

ZERO = ConvexProfile(((0.0, 0.0),), 0.0)
ORIGIN = ConvexProfile(((0.0, 0.0),), INF)
INDICATOR = ConvexProfile(((0.0, 0.0), (1.0, 0.0)), INF)

PROFILES = [
    ConvexProfile(((0.0, 0.0), (0.5, 0.25), (2.0, 3.0)), INF),
    ConvexProfile(((0.0, 0.0), (0.5, 0.0), (1.0, 0.75), (4.0, 8.0)), 5.0),
    ConvexProfile(((0.0, 0.0), (2.0, 1.0)), 0.5),
    ConvexProfile(((0.0, 0.0), (0.25, 1.0), (1.5, 9.0)), 16.0),
]


def oracle_mu(rho, n):
    zs = [z for z, _ in rho.breakpoints]
    total = 0.0
    for z0, z1 in zip(zs, zs[1:]):
        val, _ = quad(
            lambda z: rho.evaluate(z) ** n * math.exp(-z), z0, z1,
            epsabs=1e-14, epsrel=1e-13,
        )
        total += val
    tail, _ = quad(
        lambda z: rho.evaluate(z) ** n * math.exp(-z), zs[-1], math.inf,
        epsabs=1e-14, epsrel=1e-13,
    )
    return total + tail


def oracle_nu_direct(rho, n):
    knots = [mp.mpf(z) for z, _ in rho.breakpoints]
    if knots[0] != 0:
        knots.insert(0, mp.mpf(0))

    def f(z):
        x = mp.mpf(rho.evaluate(float(z)))
        if x <= 0 or z <= 0:
            return mp.mpf(0)
        return x ** n * mp.e ** (-1 / z - (n + 2) * mp.log(z))

    with mp.workdps(30):
        return mp.quad(f, knots + [mp.inf])


def test_gauss_legendre_literals():
    # the rule is written out so that importing the package skips numpy
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert measures._GL_NODES == tuple(map(float, nodes))
    assert measures._GL_WEIGHTS == tuple(map(float, weights))


@pytest.mark.parametrize("n", [1, 3, 10, 50])
def test_vol_mu_of_indicator(n):
    assert vol_mu(to_radius(INDICATOR), n) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("n", [1, 3, 10, 50])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_vol_mu_of_linear(n, a):
    # psi = a r has radius z / a, so mu = n! / a^n
    p = ConvexProfile(((0.0, 0.0),), a)
    expect = math.lgamma(n + 1) - n * math.log(a)
    assert vol_mu(to_radius(p), n) == pytest.approx(expect, rel=1e-13, abs=1e-13)


def test_vol_mu_of_unit_tent():
    rho = RadiusFunction(((0.0, 0.0), (1.0, 1.0)), 0.0)
    assert vol_mu(rho, 1) == pytest.approx(math.log(1.0 - math.exp(-1.0)), abs=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_vol_mu_matches_quadrature(n):
    for p in PROFILES:
        rho = to_radius(p)
        expect = math.log(oracle_mu(rho, n))
        assert vol_mu(rho, n) == pytest.approx(expect, abs=2e-11), p


def mp_segment(n, s, z0, x0, z1):
    """log integral_z0^z1 (x0 + s (z - z0))^n e^(-z) dz at 80 digits."""
    with mp.workdps(80):
        n, s, z0, x0, z1 = (mp.mpf(v) for v in (n, s, z0, x0, z1))
        if s == 0:
            return float(n * mp.log(x0) + mp.log(mp.e ** -z0 - mp.e ** -z1))
        u0 = x0 / s
        u1 = u0 + (z1 - z0)
        # from the side whose ends do not cancel to the working precision
        if u0 < n + 1:
            piece = mp.gammainc(n + 1, 0, u1) - mp.gammainc(n + 1, 0, u0)
        else:
            piece = mp.gammainc(n + 1, u0) - mp.gammainc(n + 1, u1)
        return float(n * mp.log(s) + u0 - z0 + mp.log(piece))


@pytest.mark.parametrize(
    "n, s, z0, x0, z1",
    [
        (4, 0.0, 0.5, 1.7, 3.0),  # flat
        (4, 0.0, 0.5, 1.7, INF),  # flat tail
        (3, 0.0, 1.0, 0.0, 2.0),  # zero radius
        (3, 0.0, 1.0, 0.0, INF),
        (5, 2.0, 1.0, 0.5, INF),  # tail, u0 = 0.25 below the mode
        (5, 0.01, 1.0, 3.0, INF),  # tail, u0 = 300 past it
        (10**4, 1.0 / 9900.0, 0.0, 1.0, INF),  # tail just below the mode of a large n
        (7, 1.5, 0.2, 0.3, 4.0),  # finite, u0 = 0.2
        (7, 0.05, 2.0, 2.0, 5.0),  # finite, u0 = 40 >= n + 2
        (10, 1.0, 0.0, 5.0, 20.0),  # u from 5 to 25 straddles n + 2
        (3, 2.0, 0.0, 0.0, 1.5),  # starts at radius 0
        (1000, 0.1, 3.0, 50.0, 40.0),  # u0 = 500 below the mode of n = 1000
        (3, 1e-9, 0.0, 1.0, 1e-18),  # far narrower than its scale: one panel
        (3, 1.0, 0.0, 1.0, 1e-18),  # the same below the mode
    ],
)
def test_log_segment_matches_mpmath(n, s, z0, x0, z1):
    want = mp_segment(n, s, z0, x0, z1)
    assert measures._log_segment(n, s, z0, x0, z1) == pytest.approx(
        want, rel=4e-15, abs=4e-15
    )


def test_log_segment_factors_out_a_far_start():
    # past the mode the piece is carried in units of e^(-z0), and -z0 is
    # added once at the end, so the result near -1e9 is within one ulp
    # (1.2e-7) of the exact value.  Ends formed as separate terms near -z0
    # and -z1 would each round to that ulp before being subtracted, which
    # on a piece 2^-7 wide costs 33 ulps.
    n, s, z0, x0, w = 3, 1e-3, 1e9, 2.0, 2.0**-7
    with mp.workdps(60):
        u0 = mp.mpf(x0) / s
        piece = mp.gammainc(n + 1, u0) - mp.gammainc(n + 1, u0 + w)
        want = float(n * mp.log(s) + u0 + mp.log(piece) - z0)
    got = measures._log_segment(n, s, z0, x0, z0 + w)
    assert abs(got - want) <= math.ulp(want)


def mp_segment_binomial(n, s, z0, x0, z1):
    """mp_segment as a sum of positive terms: no difference of gammas.

    (x0 + s t)^n expands into C(n, k) x0^(n-k) s^k t^k, and t^k e^(-t)
    integrates over [0, w] to the lower gamma(k+1, w).
    """
    with mp.workdps(60):
        w = mp.mpf(z1) - mp.mpf(z0)
        x0, s = mp.mpf(x0), mp.mpf(s)
        total = mp.fsum(
            mp.binomial(n, k) * x0 ** (n - k) * s**k * mp.gammainc(k + 1, 0, w)
            for k in range(n + 1)
        )
        return float(mp.log(total) - z0)


@pytest.mark.parametrize(
    "n, s, x0, z0, w",
    [
        (n, s, x0, z0, w)
        for n in (3, 40)
        # u0 = 1 below the mode, u0 = 1e9 past it, and a start at radius 0
        for s, x0 in ((1.0, 1.0), (1e-9, 1.0), (1.0, 0.0))
        for z0 in (0.0, 9.24, 1e9)
        for w in (1e-13, 1e-10, 1e-6, 0.1, 1.0, math.sqrt(n))
        if z0 + w > z0  # no empty pieces under ulp(1e9)
    ],
)
def test_log_segment_of_any_width_matches_binomial_sum(n, s, x0, z0, w):
    # the ends of a piece far narrower than its integrand's scale
    # min(1, x0/(n s)) agree to about w, so a closed-form difference there
    # would cost up to 1.8e-4 relative (n = 3, s = 1e-9, w = 1e-13); the
    # panel holds such pieces to an ulp.  Below the mode
    # the closed form takes log P(n+1, u), which reg_gamma rounds in
    # proportion to lgamma(n+2) among other terms, and adds lgamma(n+1)
    # back, so the bound is in ulps of that as well.
    z1 = z0 + w
    want = mp_segment_binomial(n, s, z0, x0, z1)
    got = measures._log_segment(n, s, z0, x0, z1)
    assert abs(got - want) <= 4 * math.ulp(max(1.0, abs(want), math.lgamma(n + 2)))


def mp_segment_quad(n, s, z0, x0, z1):
    """log integral_z0^z1 (x0 + s (z - z0))^n e^(-z) dz at 40 digits.

    Integrated over the rounded width z1 - z0, as _log_segment sees it, by
    quadrature.
    """
    with mp.workdps(40):
        w = mp.mpf(z1) - mp.mpf(z0)
        x0, s = mp.mpf(x0), mp.mpf(s)

        def g(t):
            return n * mp.log(x0 + s * t) - t

        peak = max(g(0), g(w))
        return peak + mp.log(mp.quad(lambda t: mp.exp(g(t) - peak), [0, w])) - z0


@pytest.mark.parametrize("falling", [False, True])
@pytest.mark.parametrize("n", [1, 5, 64, 10**3, 10**4, 10**6])
def test_narrow_log_segment_matches_mpmath(n, falling):
    # pieces 1 to 8 of their integrand's scales wide, c = w (1 + n |s|/x_min),
    # split between the width and the slope in three ways; the closed form
    # took these below c = 8 and lost up to 32.6 ulps to cancellation at
    # n = 10^6, c = 6.  The panel's error is its node rounding, up to about
    # eps c/2 at c near 8, plus the rounding of its terms n log x0, -z0
    # and the panel's own log (_log_segment's docstring).  A radius never
    # falls, so the falling pieces, which the panel took, are now refused
    eps = sys.float_info.epsilon
    for c in (1.001, 2.5, 4.0, 6.0, 7.99):
        for r in (0.1, 1.0, 10.0):  # n |s| / x_min
            for x0, z0 in ((1.0, 0.5), (3.0, 2.0), (0.01, 7.3)):
                w = c / (1.0 + r)
                # a falling piece ends at x1 = x_min = x0 / (1 + r w / n)
                s = -r * x0 / (n + r * w) if falling else r * x0 / n
                z1 = z0 + w
                x_min = min(x0, x0 + s * (z1 - z0))
                assert 1.0 <= (z1 - z0) * (1.0 + n * abs(s) / x_min) < 8.0
                if falling:
                    with pytest.raises(ValueError, match="falling piece"):
                        measures._log_segment(n, s, z0, x0, z1)
                    continue
                want = mp_segment_quad(n, s, z0, x0, z1)
                got = measures._log_segment(n, s, z0, x0, z1)
                size = max(1.0, abs(float(want)), n * abs(math.log(x0)) + z0)
                assert abs(got - want) <= eps * (c / 2 + 2 * size), (c, r, x0, z0)


def mp_wide_segment(n, s, z0, x0, z1):
    """log integral_z0^z1 (x0 + s (z - z0))^n e^(-z) dz by 40-digit gammainc.

    Over the rounded width z1 - z0, as _log_segment sees it.  A piece that
    ends below the mean takes the lower gammas, whose upper twins agree to
    many digits there; one past it the upper ones, as mpmath's lower gamma
    does not converge far past the mean at n = 10^6; one across it n! less
    both, as mpmath's upper gamma takes seconds far below the mean.
    """
    with mp.workdps(40):
        s, x0 = mp.mpf(s), mp.mpf(x0)
        u0 = x0 / s
        u1 = u0 + (mp.mpf(z1) - mp.mpf(z0))
        if u1 <= n + 1:
            piece = mp.gammainc(n + 1, 0, u1) - mp.gammainc(n + 1, 0, u0)
        elif u0 < n + 1:
            piece = mp.gamma(n + 1) - mp.gammainc(n + 1, 0, u0) - mp.gammainc(n + 1, u1)
        else:
            piece = mp.gammainc(n + 1, u0) - mp.gammainc(n + 1, u1)
        return n * mp.log(s) + u0 - z0 + mp.log(piece)


def _scaled_gamma_error(s, x, value, upper):
    """G of _log_segment's docstring: a scaled gamma's error, in eps."""
    if gammafn._in_temme_band(s, x) or (upper and x < s + 1):
        return 10 * (1 - s * gammafn._log1pmx((x - s) / s)) + 2 * math.log(s)
    if upper:
        return 41 + abs(value)
    return 2 * 37 * (s + 1) / (s + 1 - x) + 1 + abs(value)


def wide_segment_tolerance(n, s, z0, x0, z1, want):
    """_log_segment's error bound on a wide rising piece, from its docstring."""
    eps = sys.float_info.epsilon
    w = z1 - z0
    u0 = x0 / s
    u1 = u0 + w
    upper = u1 >= n + 2
    if upper and u0 < n + 2 and not gammafn._has_stirling_prefactor(n + 1, u0):
        # the lead form: lead terms, the two log P within 3 eps T(u) (1.13
        # times that as a complement), their difference, and the rounding
        # of u1 through the density p(u1)
        p0, p1 = reg_gamma(n + 1, u0).log_p, reg_gamma(n + 1, u1).log_p
        kappa = 1.0 / math.tanh((p1 - p0) / 2)

        def t(u):
            return (n + 1) * abs(math.log(u)) + u + math.lgamma(n + 2)

        lead = n * abs(math.log(s)) + u0 + z0 + math.lgamma(n + 1) + abs(float(want))
        density = math.exp(n * math.log(u1) - u1 - math.lgamma(n + 1) - p1) / -math.expm1(p0 - p1)
        return eps * (2 * lead + 3.4 * kappa * (t(u0) + t(u1)) + u1 * density)
    scaled = gammafn._log_upper_scaled if upper else gammafn._log_lower_scaled
    near, far = scaled(n + 1, u0), scaled(n + 1, u1)
    rise = (n + 1) * math.log1p(w / u0)
    kappa = 1.0 / math.tanh(abs(near - (rise - w + far)) / 2)  # (e^a + e^b)/|e^a - e^b|
    terms = abs(near) + abs(far) + rise + w
    gammas = sum(_scaled_gamma_error(n + 1, u, v, upper) for u, v in ((u0, near), (u1, far)))
    if upper or u0 >= w:  # in units of the near end, x0^n u0 e^-z0
        size = n * abs(math.log(x0)) + abs(math.log(u0))
    else:  # of the far end, x1^n u1 e^-(z0 + w)
        size = n * (1 + abs(math.log(x0 + s * w))) + abs(math.log(u1)) + w + abs(far)
    return eps * (kappa * (2 * terms + gammas) + 2 * (size + abs(float(want)) + z0))


@pytest.mark.parametrize("n", [1, 5, 64, 10**3, 10**4, 10**6])
def test_wide_log_segment_matches_mpmath(n):
    # rising pieces at least 8 of their integrand's scales wide, c = w (1 +
    # n s/x0), a share r of c from the width and the rest from the slope:
    # below, across and past the mode.  The closed form that added
    # lgamma(n+1) to log P lost up to 3.8e6 eps max(1, |value|, n |log x0|
    # + z0) on these at n = 10^6.  Then pieces at the mode whose ends u0 + w
    # are not doubles (rounding u1 cost about 2.4e4 eps at n = 10^6 before
    # the gap was added back) and two
    # that straddle it from below, from 0.7 n (the near end through log Q
    # less the prefactor's Stirling form) and from 0.3 n (the lead form)
    pieces = []
    for c in (8.0, 8.5, 20.0, 100.0, 1e4):
        for x0 in (1e-3, 1.0, 1e3):
            for z0 in (0.0, 5.0):
                for r in (0.1, 0.5, 0.9):
                    w = r * c
                    pieces.append(((1 - r) * c * x0 / (n * w), z0, x0, z0 + w))
    for u0, w in (
        (n + 0.3, 4.1), (n - 3.7, 4.1), (n - 10.3, 40.1),
        (0.7 * n + 0.37, 0.5 * n + 1.3), (0.3 * n + 0.37, 1.2 * n + 1.3),
    ):
        if u0 > 0.0:
            pieces.append((1.0 / u0, 0.0, 1.0, w))
    checked = 0
    for s, z0, x0, z1 in pieces:
        if measures._is_narrow(n, s, z1 - z0, x0):
            continue
        want = mp_wide_segment(n, s, z0, x0, z1)
        got = measures._log_segment(n, s, z0, x0, z1)
        assert abs(got - want) <= wide_segment_tolerance(n, s, z0, x0, z1, want), (s, z0, x0, z1)
        checked += 1
    assert checked >= 80


@pytest.mark.parametrize(
    "c, r", [(20, 0.1), (20, 0.9), (100, 0.1), (100, 0.5), (100, 0.9), (1e4, 0.5), (1e4, 0.9)]
)
def test_vol_mu_of_a_wide_piece_at_large_n(c, r):
    # one piece from radius 1, c = w (1 + n s) wide with a share r of c from
    # its width, then a flat tail.  Adaptive quadrature raised on each ("did
    # not converge in 4096 panels" after about 70 ms, or in 48 halvings);
    # (20, 0.1) is the radius ((0, 1), (2, 1.000018)).  The reference takes
    # the breakpoints' own slope, which vol_mu rounds by eps/2 relative
    # (inside the bound's term in (n+1) log1p(w/u0)); log_sum adds the tail
    n = 10**6
    w = r * c
    rho = RadiusFunction(((0.0, 1.0), (w, 1.0 + (1 - r) * c / (n * w) * w)), 0.0)
    (_, x0), (z1, x1) = rho.breakpoints
    with mp.workdps(40):
        top = mp.mpf(x1) ** n * mp.e ** -mp.mpf(z1)
        want = mp.log(mp.e ** mp_wide_segment(n, (mp.mpf(x1) - 1) / z1, 0.0, 1.0, z1) + top)
    got = vol_mu(rho, n)
    tol = wide_segment_tolerance(n, (x1 - x0) / z1, 0.0, x0, z1, want)
    assert abs(got - want) <= tol + 2 * sys.float_info.epsilon * (1 + abs(float(want)))


# every finite piece of NARROW's radius is 1 to 8 of its integrand's scales
# wide at n = 10^4 (c = 5.5 and 3.0), so vol_mu takes each as one
# Gauss-Legendre panel; every finite piece of WIDE's (c = 50.5 and 25.4), and
# the radius ((0, 1), (2, 1.000018)) at n = 10^6, is at least 8 scales wide
# and starts above radius 0, so vol_mu takes it in closed form (adaptive
# quadrature raised "did not converge in 4096 panels" on the latter)
NARROW = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (1.0005, 0.5), (1.00075, 1.0)), 20000.0)
WIDE = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (1.005, 0.5), (1.0075, 1.0)), 20000.0)


@pytest.mark.parametrize(
    "value, want",
    [
        # 40-digit mpmath on the breakpoints
        pytest.param(lambda: log_s_j_n(NARROW, 10**4), 82101.62987254100526, id="narrow-ratio"),
        pytest.param(lambda: vol_mu(to_radius(NARROW), 10**4), 7.298964273348193162, id="narrow-mu"),
        # 50-digit mpmath on the breakpoints
        pytest.param(
            lambda: vol_mu(RadiusFunction(((0.0, 1.0), (2.0, 1.0 + 9e-6 * 2.0)), 0.0), 10**6),
            16.117623134542041014,
            id="closed-radius",
        ),
        pytest.param(lambda: log_s_j_n(WIDE, 10**4), 82034.521749496620032, id="closed-ratio"),
        pytest.param(lambda: vol_mu(to_radius(WIDE), 10**4), 74.416087317734440378, id="closed-mu"),
    ],
)
def test_pieces_past_radius_zero_match_high_precision_values(value, want):
    assert abs(value() - want) <= 1e-13 * abs(want)


def test_vol_mu_of_a_flat_wide_piece_far_past_the_mode():
    # u0 = 9e6 at n = 10^6: log u0 and the log of the scaled upper gamma,
    # about -log u0, cancelled to 169 ulps of the value when added; the log
    # of u0 times the gamma, by the recurrence to order n, does not.  The
    # value is 40-digit mpmath on the breakpoints
    rho = RadiusFunction(((0, 1), (90, 1.00001)), 0)
    want = 0.1177830200322068714109435913385681898864
    assert abs(vol_mu(rho, 10**6) - want) <= 2 * math.ulp(want)


def test_log_segment_refuses_a_falling_piece():
    # a radius never falls, and the closed forms integrate a rising one:
    # they took this wide piece (c about 20) as flat, -4.54e-5 against
    # mpmath's -0.69340.  The panel took this narrow one, -1.1686
    with pytest.raises(ValueError, match=r"falling piece \[0.0, 10.0\]"):
        measures._log_segment(1000, -1e-3, 0.0, 1.0, 10.0)
    with pytest.raises(ValueError, match=r"falling piece \[0.5, 1.41\]"):
        measures._log_segment(4, -0.1, 0.5, 1.0, 1.41)


@pytest.mark.parametrize("x0", [1.0, 0.0])
def test_log_segment_of_an_empty_piece_is_minus_inf(x0):
    # x0 > 0 took a panel of half-width 0, x0 = 0 a difference of equal ends
    assert measures._log_segment(3, 1.0, 2.0, x0, 2.0) == -math.inf


def test_log_segment_raises_when_its_ends_round_equal(monkeypatch):
    # a closed-form difference that cancels completely is no value at all.
    # u0 = 1, w = 2 and u1 = 3 end below the mode of n = 3, so the ends'
    # logs are S(1) and (n+1) log1p(w/u0) - w + S(3), S the scaled lower
    # gamma; a scaled gamma that makes them agree exactly must raise
    rise = 4 * math.log1p(2.0) - 2.0
    monkeypatch.setattr(measures, "_log_lower_scaled", lambda s, x: -rise if x == 3.0 else 0.0)
    with pytest.raises(ArithmeticError, match="round equal"):
        measures._log_segment(3, 1.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("t", [1e9, 1e12, 1e14])
@pytest.mark.parametrize("n", [1, 3, 20])
def test_vol_mu_of_steep_tail(t, n):
    # psi = r up to 1, then slope t: the radius tail starts at x = 1 with
    # slope 1/t, so u0 = t, and mu exceeds the capped profile's by about
    # n / (e t mu).  A tail formed as u0 - z + log Q(n+1, u0) cancels to
    # about ulp(t), far above that excess once t reaches 1e9.
    rho = to_radius(ConvexProfile(((0.0, 0.0), (1.0, 1.0)), t))
    with mp.workdps(50):
        tail = mp.mpf(t) ** -n * mp.e ** (t - 1) * mp.gammainc(n + 1, t)
        want = float(mp.log(mp.gammainc(n + 1, 0, 1) + tail))
    assert vol_mu(rho, n) == pytest.approx(want, rel=1e-13)


def test_vol_mu_of_tail_too_shallow_for_its_radius():
    # x/beta = 1e600 overflows; the tail is flat to far below rounding
    rho = RadiusFunction(((0.0, 0.0), (1.0, 1e300)), 1e-300)
    with mp.workdps(30):
        want = float(600 * mp.log(10) + mp.log(mp.gammainc(3, 0, 1) + mp.e**-1))
    assert vol_mu(rho, 2) == pytest.approx(want, rel=1e-14)


def _log_power(rho, n):
    """log rho(z)^n e^-z, the integrand of mu, and rho's finite pieces."""

    def logf(z):
        x = rho.evaluate(z)
        return n * math.log(x) - z if x > 0.0 else NEG_INF

    pts = rho.breakpoints
    return logf, [(z0, z1) for (z0, _), (z1, _) in zip(pts, pts[1:])]


def _adaptive(logf, a, b):
    """measures._log_adaptive of e^logf, each panel by measures._log_panel."""
    return measures._log_adaptive(partial(measures._log_panel, logf), a, b)


def test_log_adaptive_evaluates_each_panel_once(monkeypatch):
    panels = []
    panel = measures._log_panel

    def recorded(logf, a, b):
        panels.append((a, b))
        return panel(logf, a, b)

    monkeypatch.setattr(measures, "_log_panel", recorded)
    # the wide last segment makes every n refine at least once
    wide = RadiusFunction(((0.0, 0.0), (1.0, 2.0), (60.0, 20.0)), 0.0)
    for rho in [to_radius(p) for p in PROFILES] + [wide]:
        for n in (1, 5, 30):
            panels.clear()
            logf, pieces = _log_power(rho, n)
            for z0, z1 in pieces:
                _adaptive(logf, z0, z1)
            # a refined panel passes its halves down instead of recomputing them
            assert len(set(panels)) == len(panels), (rho, n)
            if rho is wide:
                assert len(panels) > 3 * (len(rho.breakpoints) - 1)


def _record_evaluations(monkeypatch):
    """List that RadiusFunction.evaluate appends each argument to."""
    calls = []
    evaluate = RadiusFunction.evaluate

    def counted(self, z):
        calls.append(z)
        return evaluate(self, z)

    monkeypatch.setattr(RadiusFunction, "evaluate", counted)
    return calls


def test_log_adaptive_stops_refining_under_the_floor(monkeypatch):
    # z^40 near 0 is past the degree 29 the 15-point rule integrates
    # exactly, so every halving of the leftmost panel misses by the same
    # relative amount; the floor accepts those panels 40 nats down instead
    # of halving them until the depth cap
    calls = _record_evaluations(monkeypatch)
    logf, _ = _log_power(RadiusFunction(((0.0, 0.0), (1.0, 1.0)), 0.0), 40)
    got = _adaptive(logf, 0.0, 1.0)
    lower = math.exp(math.lgamma(41) + reg_gamma(41, 1.0).log_p)  # gamma(41, 1)
    assert got == pytest.approx(math.log(lower), rel=1e-14, abs=1e-14)
    assert 0 < len(calls) < 400


def mp_mu(rho, n):
    """log mu at 50 digits: each linear piece by mpmath quadrature, flat tail."""
    assert rho.tail_slope == 0.0
    with mp.workdps(50):
        pts = [(mp.mpf(z), mp.mpf(x)) for z, x in rho.breakpoints]
        total = mp.mpf(0)
        for (z0, x0), (z1, x1) in zip(pts, pts[1:]):
            s = (x1 - x0) / (z1 - z0)
            total += mp.quad(lambda z: (x0 + s * (z - z0)) ** n * mp.exp(-z), [z0, z1])
        z_m, x_m = pts[-1]
        return float(mp.log(total + x_m**n * mp.exp(-z_m)))


def test_vol_mu_skips_pieces_far_under_mu(monkeypatch):
    # rho = sqrt(z) at the knots: mu is about Gamma(3.5) at n = 5, and the
    # piece [2, 4] alone bounds it from below by e^-0.41.  The piece from
    # z0 = 64 is at most sqrt(128)^5 e^-64 ~ e^-51.9, under that bound by
    # more than 40 + log 12 nats for its 12 pieces, and those past it lie
    # lower still, so no finite piece integrated may reach past z = 64,
    # whether by quadrature or in closed form
    zs = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0]
    rho = RadiusFunction(tuple((z, math.sqrt(z)) for z in zs), 0.0)
    pieces = []
    adaptive, segment = measures._log_adaptive, measures._log_segment

    def recorded_adaptive(panel, z0, z1):
        pieces.append((z0, z1))
        return adaptive(panel, z0, z1)

    def recorded_segment(n, s, z0, x0, z1):
        if z1 < INF:
            pieces.append((z0, z1))
        return segment(n, s, z0, x0, z1)

    monkeypatch.setattr(measures, "_log_adaptive", recorded_adaptive)
    monkeypatch.setattr(measures, "_log_segment", recorded_segment)
    got = vol_mu(rho, 5)
    assert pieces and max(z1 for _, z1 in pieces) <= 64.0
    want = mp_mu(rho, 5)
    assert abs(got - want) <= 4 * math.ulp(want)


@pytest.mark.parametrize(
    "x0, s, w, route",
    [
        # narrow: one 15-point panel, _log_segment's _log_narrow
        pytest.param(1.0, 0.5, 7.99 / 3.0, "panel", id="1.0-7.99-panel"),
        # wide: _log_segment's closed form
        pytest.param(1.0, 0.5, 8.01 / 3.0, "closed", id="1.0-8.01-closed"),
        # a piece from radius 0 is never narrow
        pytest.param(0.0, 0.5, 1.0, "adaptive", id="0.0-1.0-adaptive"),
    ],
)
def test_vol_mu_routes_kept_pieces_by_their_width(monkeypatch, x0, s, w, route):
    # one finite piece at n = 4, c = w (1 + n s/x0) = 3 w wide when x0 = 1
    # and s = 1/2, then a flat tail (no gamma function of its own); the
    # piece holds most of mu, so the skip keeps it
    n = 4
    rho = RadiusFunction(((0.0, x0), (w, x0 + s * w)), 0.0)
    calls, panels = [], []
    adaptive, segment, gamma = measures._log_adaptive, measures._log_segment, measures.reg_gamma
    narrow = measures._log_narrow

    def recorded_adaptive(panel, z0, z1):
        calls.append(("adaptive", z0, z1))
        return adaptive(panel, z0, z1)

    def recorded_narrow(n, q, w):
        panels.append((q, w))
        return narrow(n, q, w)

    def recorded_segment(n, s, z0, x0, z1):
        before = len(panels)
        value = segment(n, s, z0, x0, z1)
        if z1 < INF:
            calls.append(("panel" if len(panels) > before else "closed", z0, z1))
        return value

    def recorded_gamma(a, x):
        calls.append(("reg_gamma", a, x))
        return gamma(a, x)

    monkeypatch.setattr(measures, "_log_adaptive", recorded_adaptive)
    monkeypatch.setattr(measures, "_log_narrow", recorded_narrow)
    monkeypatch.setattr(measures, "_log_segment", recorded_segment)
    monkeypatch.setattr(measures, "reg_gamma", recorded_gamma)
    got = vol_mu(rho, n)
    assert calls == [(route, 0.0, w)]
    want = mp_mu(rho, n)
    assert abs(got - want) <= 4 * math.ulp(max(1.0, abs(want)))


def test_vol_mu_takes_at_most_the_first_piece_by_quadrature(monkeypatch):
    # a radius's breakpoint radii strictly increase, so only its first
    # piece can start at radius 0, and every other kept piece goes to
    # _log_segment: vol_mu makes at most one _log_adaptive call, on [0, z1].
    # Checked on the sampler's radii and J images, as ratio-stream's
    # log_s_j_n integrates them
    calls = []
    adaptive = measures._log_adaptive

    def recorded(panel, z0, z1):
        calls.append((z0, z1))
        return adaptive(panel, z0, z1)

    monkeypatch.setattr(measures, "_log_adaptive", recorded)
    took = 0
    stream = ProfileSampler(seed=3).stream()
    for n in range(1, 65):
        for _ in range(16):
            rho = to_radius(next(stream))
            for r in (rho, j_transform(rho)):
                calls.clear()
                vol_mu(r, n)
                assert not calls or calls == [(0.0, r.breakpoints[1][0])], (r, n, calls)
                took += len(calls)
    assert took > 400


def test_piece_integrals_lie_between_their_endpoint_bounds():
    # the skip rests on this: rho is linear on a piece, so the piece's
    # integral lies between min(x0, x1)^n and max(x0, x1)^n times the
    # integral of e^-z over it.  Checked on the radius and its J image,
    # both of which vol_mu integrates, far from unit scale too; the
    # tolerance is the quadrature's acceptance band
    stream = ProfileSampler(seed=0).stream()
    for n in range(1, 65):
        p = next(stream)
        for e in (0, 100, -100):
            rho = to_radius(scale(p, 10.0**e))
            for r in (rho, j_transform(rho)):

                def logf(z, r=r):
                    x = r.evaluate(z)
                    return n * math.log(x) - z if x > 0.0 else NEG_INF

                for (z0, x0), (z1, x1) in zip(r.breakpoints, r.breakpoints[1:]):
                    mass = math.log(-math.expm1(z0 - z1)) - z0
                    lo = n * math.log(min(x0, x1)) + mass if min(x0, x1) > 0.0 else NEG_INF
                    hi = n * math.log(max(x0, x1)) + mass
                    got = _adaptive(logf, z0, z1)
                    tol = measures._QUAD_TOL + 4e-15 * abs(got)
                    assert lo - tol <= got <= hi + tol, (p, n, e, z0, z1)


def test_ratio_of_a_wide_inverted_piece_keeps_its_peak():
    # ratio-stream pool input 697.  J(rho) has the piece [1.009, 23954.5],
    # whose integrand peaks near z = 26 at about e^-26.3; the top-level
    # panel's nodes all lie past z = 145 and estimate it at e^-159.1.  A
    # floor built from such estimates, or the skip's floor handed to the
    # quadrature, accepts that panel as negligible and gives -59.4437
    # instead; the skip compares only rigorous bounds
    p = ConvexProfile(
        (
            (0.0, 0.0),
            (0.0005921284538539332, 4.1745777385584895e-05),
            (0.37351024076961026, 0.9910935911121781),
        ),
        3.1093959957889847,
    )
    assert log_s_j_n(p, 26) == pytest.approx(-58.00651182815555, rel=1e-13)


def test_ratio_keeps_a_kink_the_radius_constructor_would_merge():
    # psi keeps (2, 10), 1.5 MERGE_RTOL of 10 under its chord; in rho, (10,
    # 2) lies 0.75 MERGE_RTOL of 2 over its own, so validating the radius
    # again merged it and moved the ratio by 8.1e-13.  The value is 40-digit
    # mpmath over psi's breakpoints
    p = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (2.0, 10.0), (3.0, 20.0 + 3e-11)), 50.0)
    assert to_radius(p).breakpoints == ((0.0, 1.0), (10.0, 2.0), (20.0 + 3e-11, 3.0))
    want = 4.3147059546130817214
    assert abs(log_s_j_n(p, 5) - want) <= 4 * math.ulp(want)


def _cap_panels(monkeypatch, limit):
    """Make _log_panel raise past `limit` calls, so runaway refinement fails fast."""
    panel = measures._log_panel
    calls = []

    def budgeted(logf, a, b):
        calls.append((a, b))
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} panels")
        return panel(logf, a, b)

    monkeypatch.setattr(measures, "_log_panel", budgeted)


def test_log_adaptive_floor_rises_past_a_missed_peak(monkeypatch):
    # the top-level nodes on [1e8, 1e9] sit about 5e6 nats under e^-z's
    # mass at the left end; a floor fixed there refines about 800,000
    # panels, one that rises with the split estimates about 100
    _cap_panels(monkeypatch, 1000)
    assert _adaptive(lambda z: -z, 1e8, 1e9) == pytest.approx(-1e8, rel=1e-14)


def test_nu_of_narrow_segments_does_not_hang(monkeypatch):
    # 60 segments 1e-9 wide: J(rho) has segments out to z = 1e9, whose
    # integrand e^-z the top-level nodes miss by millions of nats; this
    # took over a minute before the floor rose with the split estimates
    pts = [(0.0, 0.0)] + [(k * 1e-9, k * (k + 1) / 2 * 1e-9) for k in range(1, 61)]
    rho = to_radius(ConvexProfile(tuple(pts), 100.0))
    want = vol_nu_direct(rho, 5)
    _cap_panels(monkeypatch, 20_000)
    assert vol_nu(rho, 5) == pytest.approx(want, rel=1e-14)


def test_log_adaptive_raises_at_the_depth_cap(monkeypatch):
    # a kink at 1/3 is never a panel edge, so its panel converges only by
    # halving; it needs 31 halvings, within the cap of 48
    def kinked(z):
        return -abs(z - 1.0 / 3.0)

    exact = math.log(2.0 - math.exp(-1.0 / 3.0) - math.exp(-2.0 / 3.0))
    assert _adaptive(kinked, 0.0, 1.0) == pytest.approx(exact, rel=1e-14)
    monkeypatch.setattr(measures, "_MAX_DEPTH", 4)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _adaptive(kinked, 0.0, 1.0)


def test_log_adaptive_raises_past_the_panel_budget(monkeypatch):
    # the kinked integrand converges in about a hundred panels
    def kinked(z):
        return -abs(z - 1.0 / 3.0)

    monkeypatch.setattr(measures, "_MAX_PANELS", 20)
    with pytest.raises(ArithmeticError, match="20 panels"):
        _adaptive(kinked, 0.0, 1.0)


def test_extremal_tent_ratio_at_large_n_is_bounded_in_time():
    # the capped tent at the maximizer has ratio lambda(n) by construction;
    # at n = 10^5 the depth cap alone lets its mu quadrature refine for
    # minutes (up to 2^48 panels), so it must answer or raise promptly
    src = str(Path(measures.__file__).resolve().parents[1])
    code = """
import math
from epidual import TentParams, log_s_j_n, solve_lambda, tent_profile
n = 10**5
est = solve_lambda(n)
try:
    got = log_s_j_n(tent_profile(TentParams(est.a_n, math.inf, 1.0)), n)
except ArithmeticError:
    print("raised")
else:
    print(abs(got - est.log_lambda) <= 1e-14 * abs(est.log_lambda))
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("raised\n", "True\n")


def test_vol_mu_degenerate():
    for vol in (vol_mu, vol_nu_direct):
        assert vol(to_radius(ZERO), 3) == INF
        assert vol(to_radius(ORIGIN), 3) == NEG_INF


def test_vol_mu_rejects_bad_dimension():
    rho = to_radius(INDICATOR)
    for n in (0, -1, 1.5, True):
        with pytest.raises(ValueError):
            vol_mu(rho, n)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_vol_nu_direct_matches_quadrature(n):
    for p in PROFILES:
        rho = to_radius(p)
        expect = float(mp.log(oracle_nu_direct(rho, n)))
        assert vol_nu_direct(rho, n) == pytest.approx(expect, abs=5e-11), p


@pytest.mark.parametrize("n", [1, 2, 5, 20, 50])
def test_substitution_identity(n):
    # nu computed raw equals mu of the inverted radius
    for p in PROFILES:
        rho = to_radius(p)
        assert vol_nu_direct(rho, n) == pytest.approx(
            vol_nu(rho, n), abs=1e-12
        ), p
        # the remainder bounds scale with the radius, so far from unit
        # scale the sweeps still stop where the rest cannot move the log
        for e in (100, -100):
            rho = to_radius(scale(p, 10.0**e))
            want = vol_nu(rho, n)
            assert vol_nu_direct(rho, n) == pytest.approx(
                want, abs=1e-12 * max(1.0, abs(want))
            ), (p, e)


def _record_panels(monkeypatch):
    """List that each panel _log_adaptive evaluates appends its ends to."""
    panels = []
    adaptive = measures._log_adaptive

    def recorded(panel, a, b):
        def counted(lo, hi):
            panels.append((lo, hi))
            return panel(lo, hi)

        return adaptive(counted, a, b)

    monkeypatch.setattr(measures, "_log_adaptive", recorded)
    return panels


def test_vol_nu_direct_stops_sweeps_on_remainder_bound(monkeypatch):
    panels = _record_panels(monkeypatch)
    # a linear tail decays only like z^-2, so the remainder bound falls 40
    # nats under the total only at z ~ e^40: about 60 doublings in z, but
    # five panels 8 wide in t = log z, where the tail decays like e^-t.
    # 66 panels are the 1,000 nodes of the 15-point rule
    vol_nu_direct(to_radius(PROFILES[2]), 1)
    assert 0 < len(panels) < 1000 // 15


@pytest.mark.parametrize("k, n, sweep", [(2, 1, "upper"), (1, 20, "lower")])
def test_vol_nu_direct_sweep_cap_raises(monkeypatch, k, n, sweep):
    # PROFILES[2] has a linear tail; PROFILES[1] at n = 20 needs no upper
    # panel but three lower ones
    monkeypatch.setattr(measures, "_MAX_SWEEP", 2)
    with pytest.raises(ArithmeticError, match=sweep):
        vol_nu_direct(to_radius(PROFILES[k]), n)


def test_vol_nu_direct_upper_sweep_raises_before_z_overflows(monkeypatch):
    # with a bound that never holds, the sweep in t = log z runs out of
    # doubles near t = 709.8, long before _MAX_SWEEP panels; it must say
    # so itself, not pass z = inf to the integrand and fail on a NaN
    monkeypatch.setattr(measures, "_TAIL_NATS", 1e4)
    with pytest.raises(ArithmeticError, match="upper sweep"):
        vol_nu_direct(to_radius(PROFILES[2]), 1)


def test_vol_nu_direct_raises_on_overflowing_radius():
    # the radius slope is 5.8e299, so rho overflows to inf near z = 3e8 and
    # every panel there is NaN; refining them would recurse towards 2^48
    p = next(ProfileSampler(9_000_000).stream())
    with pytest.raises(ArithmeticError, match="NaN"):
        vol_nu_direct(to_radius(scale(p, 1e-300)), 1)


def test_vol_nu_direct_raises_on_a_panel_too_narrow_to_halve():
    # at n = 453092 the halvings near z = 3.1687 reach a panel between two
    # adjacent doubles, whose midpoint rounds to an end; the refusal is
    # typed rather than the log of a zero half-width
    p = ConvexProfile(
        (
            (0.0, 0.0),
            (1.9271983333973206, 1.8021935168310275),
            (3.1910418293513345, 3.168582564017488),
            (3.2554974466125883, 3.2690442689706054),
            (3.500346089256908, 3.7571579386654075),
        ),
        2.0494210402674597,
    )
    with pytest.raises(ArithmeticError, match="cannot be halved"):
        vol_nu_direct(to_radius(p), 453092)


def test_vol_nu_direct_never_calls_evaluate(monkeypatch):
    # each panel evaluates its 15 nodes in one loop: from the peak 1/(n+2)
    # up to the last knot on the line of the piece that holds it, the upper
    # sweep on the tail's line, and the lower sweep, whose halved panels
    # may hold a kink, by evaluate's steps in one walk over its nodes
    calls = _record_evaluations(monkeypatch)
    panels = _record_panels(monkeypatch)
    stream = ProfileSampler(seed=4).stream()
    radii = [to_radius(p) for p in PROFILES] + [to_radius(next(stream)) for _ in range(32)]
    for rho in radii:
        for n in (1, 5, 30, 64):
            panels.clear()
            vol_nu_direct(rho, n)
            assert panels, (rho, n)
    assert calls == []


def test_vol_nu_direct_values_are_unchanged():
    # values recorded, as float.hex, from the oracle when it evaluated rho
    # by RadiusFunction.evaluate at every node: the line of the piece that
    # holds a panel is evaluate's own formula, so they agree bit for bit on
    # these profiles (a node that rounds onto a panel's right knot could
    # differ from evaluate there by an ulp)
    doc = json.loads((Path(__file__).parent / "data" / "vol_nu_direct_values.json").read_text())
    stream = ProfileSampler(seed=doc["sampler_seed"]).stream()
    profiles = PROFILES + [next(stream) for _ in range(len(doc["values"]) - len(PROFILES))]
    for p, want in zip(profiles, doc["values"]):
        got = [vol_nu_direct(to_radius(p), n).hex() for n in doc["n"]]
        assert got == want, p


# (breakpoints, tail slope, n, float.hex of log_s_j_n), recorded before
# gammafn's scaled helpers took their sides from one _temme or series pass
# and vol_mu's bound pass learned to stop early.  Between them, mu and nu
# of these profiles take every branch of _log_segment (narrow, flat, both
# tail forms, lead, lower in near-end and in far-end units, upper) and
# every branch of the scaled gammas (_temme's band below and above s, the
# series, the upper one below s + 1 outside the band, the fraction and the
# recurrence of _log_upper_scaled_times_x); the last profile's radius ends
# in pieces vol_mu skips
RATIO_PINS = (
    (
        (
            (0.0, 0.0), (2.0, 1.0), (4.0, 4.0), (8.0, 18.0), (10.0, 25.5),
        ),
        19.75, 19, "-0x1.a72708f4a12ccp+3",
    ),
    (((0.0, 0.0), (1.0, 0.0), (9.0, 64.0)), 8.25, 19, "0x1.fa277ea559751p+4"),
    (
        (
            (0.0, 0.0), (0.0625, 0.25), (0.5625, 4.25), (1.0625, 8.5),
            (2.0625, 21.0), (2.1875, 23.5625), (3.1875, 45.0625),
        ),
        21.75, 24, "-0x1.1c7005d809608p+5",
    ),
    (
        (
            (0.0, 0.0), (0.0625, 0.03125), (0.5625, 1.28125), (0.625, 1.5),
            (0.6875, 1.96875),
        ),
        8.5, 24, "-0x1.069de6b878e57p+4",
    ),
    (
        (
            (0.0, 0.0), (1.0, 4.0), (9.0, 44.0), (10.0, 49.125), (11.0, 55.25),
        ),
        10.125, 40, "-0x1.9a495638b344fp+6",
    ),
    (((0.0, 0.0), (32.0, 0.0)), 1.0, 40, "0x1.aaef95375512ap+6"),
    (
        (
            (0.0, 0.0), (4.0, 4.0), (5.0, 5.25), (5.5, 6.375), (7.5, 18.875),
            (9.5, 35.375), (11.5, 52.875),
        ),
        9.75, 64, "-0x1.c42f3ff006719p+6",
    ),
    (
        (
            (0.0, 0.0), (1.0, 0.0), (1.0625, 0.0078125), (1.5625, 4.0703125),
        ),
        8.375, 64, "0x1.05e0783232eadp+7",
    ),
    (((0.0, 0.0), (16.0, 0.0), (32.0, 16.0)), 5.0, 300, "0x1.24aae95093650p+10"),
    (
        (
            (0.0, 0.0), (16.0, 64.0), (80.0, 448.0), (112.0, 648.0),
            (144.0, 912.0),
        ),
        12.25, 1000, "-0x1.5583849f99fcfp+12",
    ),
    (
        (
            (0.0, 0.0), (64.0, 0.0), (72.0, 2.0), (136.0, 530.0), (152.0, 678.0),
        ),
        9.5, 1000, "0x1.62d28a951714dp+12",
    ),
    (
        (
            (0.0, 0.0), (0.25, 0.125), (0.5, 2.25), (1.0, 6.75), (1.0625, 7.5625),
            (1.5625, 14.125), (2.5625, 29.25), (2.625, 30.2578125),
            (2.6875, 31.765625), (3.1875, 45.828125), (4.1875, 81.953125),
            (4.25, 84.4609375), (4.5, 94.7421875), (5.0, 119.3046875),
            (5.0625, 122.390625), (5.3125, 134.984375), (5.4375, 142.28125),
            (5.9375, 171.96875), (6.9375, 235.34375), (7.9375, 302.71875),
            (8.4375, 338.40625), (9.4375, 410.78125), (9.9375, 450.96875),
            (10.0625, 461.03125), (10.125, 466.078125), (10.1875, 471.1328125),
            (10.6875, 511.8203125), (10.8125, 522.4921875), (10.9375, 533.4140625),
            (11.4375, 578.1015625), (11.5, 584.1875), (12.0, 636.875),
            (12.5, 689.8125),
        ),
        109.875, 300, "-0x1.522dae106ce85p+7",
    ),
)


@pytest.mark.parametrize("pts, tail, n, want", RATIO_PINS)
def test_ratio_bits_are_pinned_above_n_8(pts, tail, n, want):
    assert log_s_j_n(ConvexProfile(pts, tail), n).hex() == want


def test_volume_pair_invariant():
    assert volume_pair(ZERO, 2) == VolumePair(INF, INF)
    assert volume_pair(ORIGIN, 2) == VolumePair(NEG_INF, NEG_INF)
    with pytest.raises(ValueError):
        VolumePair(0.0, INF)
    with pytest.raises(ValueError):
        VolumePair(NEG_INF, 1.0)


@pytest.mark.parametrize("n", [1, 4, 25])
def test_ratio_of_indicator_is_factorial(n):
    assert log_s_j_n(INDICATOR, n) == pytest.approx(math.lgamma(n + 1), abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 25])
def test_ratio_of_linear_is_inverse_factorial(n):
    p = ConvexProfile(((0.0, 0.0),), 3.0)
    assert log_s_j_n(p, n) == pytest.approx(-math.lgamma(n + 1), abs=1e-12)


def test_ratio_convention_on_degenerates():
    assert log_s_j_n(ZERO, 3) == 0.0
    assert log_s_j_n(ORIGIN, 3) == 0.0


def test_ratio_of_fixed_point_tent():
    # radius min(z, 1) is invariant under inversion, so the ratio is 1
    p = ConvexProfile(((0.0, 0.0), (1.0, 1.0)), INF)
    assert log_s_j_n(p, 1) == 0.0


@pytest.mark.parametrize("a", [0.1, 7.0])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_ratio_scaling_invariance(a, n):
    for p in PROFILES:
        base = log_s_j_n(p, n)
        assert log_s_j_n(scale(p, a), n) == pytest.approx(base, abs=1e-10), p


@pytest.mark.parametrize("e", [100, -100, 300, -300])
def test_ratio_scaling_invariance_at_extreme_scales(e):
    # merging nearly collinear segments must not depend on the units: with
    # an absolute slope floor, every radius slope below 1e-12 merged and
    # the profile collapsed towards one line
    stream = ProfileSampler(seed=0).stream()
    for k in range(8):
        p, n = next(stream), 1 + k
        base = log_s_j_n(p, n)
        got = log_s_j_n(scale(p, 10.0**e), n)
        assert got == pytest.approx(base, abs=1e-10), (p, n)


@pytest.mark.parametrize("a", [0.25, 5.0])
def test_vol_mu_homogeneity(a):
    for p in PROFILES:
        n = 4
        base = vol_mu(to_radius(p), n)
        scaled = vol_mu(to_radius(scale(p, a)), n)
        assert scaled == pytest.approx(base - n * math.log(a), rel=1e-12, abs=1e-11)


def test_vol_mu_monotone_in_profile():
    small = ConvexProfile(((0.0, 0.0), (1.0, 1.0)), 4.0)
    big = ConvexProfile(((0.0, 0.0), (0.5, 1.0)), 8.0)  # larger psi everywhere
    for n in (1, 3, 9):
        assert vol_mu(to_radius(small), n) >= vol_mu(to_radius(big), n)


def test_delta_of_linear_profile():
    # psi = 2r: mu = n!/2^n, nu = 2^(-n), deficit is 2^(-n) (1 - lambda n!)
    p = ConvexProfile(((0.0, 0.0),), 2.0)
    sign, mag = delta(p, 2, -math.lgamma(3))
    assert sign == 0 and mag == NEG_INF
    sign, mag = delta(p, 2, 0.0)  # lambda = 1
    assert sign == -1
    assert mag == pytest.approx(math.log(0.25), abs=1e-12)
    sign, mag = delta(p, 2, math.log(0.1))
    assert sign == 1
    assert mag == pytest.approx(math.log(0.2), abs=1e-12)


def test_delta_degenerate_profiles():
    assert delta(ORIGIN, 3, 0.0) == (0, NEG_INF)
    with pytest.raises(ValueError):
        delta(ZERO, 3, 0.0)


@pytest.mark.parametrize("log_lambda", [math.nan, math.inf, -math.inf])
def test_delta_rejects_non_finite_lambda(log_lambda):
    # with a nan lambda the deficit would read (-1, nan), i.e. negative
    p = ConvexProfile(((0.0, 0.0),), 2.0)
    with pytest.raises(ValueError, match="log lambda must be finite"):
        delta(p, 3, log_lambda)


def test_integrate_line_two_sided_exponential():
    lin = ConvexProfile(((0.0, 0.0),), 1.0)
    f = LineConvexFunction(lin, lin)
    assert integrate_line(f) == pytest.approx(math.log(2.0), abs=1e-13)
    steeper = LineConvexFunction(ConvexProfile(((0.0, 0.0),), 2.0), lin)
    assert integrate_line(steeper) == pytest.approx(math.log(1.5), abs=1e-13)


def test_symmetrization_preserves_integral():
    f = LineConvexFunction(INDICATOR, ConvexProfile(((0.0, 0.0),), 1.0))
    assert symmetrization_gap(f) == pytest.approx(0.0, abs=1e-11)
    g = LineConvexFunction(PROFILES[0], PROFILES[1])
    assert symmetrization_gap(g) == pytest.approx(0.0, abs=1e-11)

import math

import mpmath
import pytest
from scipy import integrate

from epidual.logdomain import log1mexp, log_sub_signed
from epidual.gammafn import (
    _log_upper_scaled,
    check_gamma_half,
    check_small_a_bound,
    check_tail_bound,
    reg_gamma,
)


def oracle_p_quadrature(s, x):
    """Brute-force lower integral, independent of the series/fraction split."""
    val, err = integrate.quad(
        lambda t: t ** (s - 1.0) * math.exp(-t), 0.0, x, limit=200
    )
    return val / math.gamma(s)


def test_shape_one_is_one_minus_exp():
    for x in [0.0, 1e-6, 0.3, 1.0, 5.0, 40.0]:
        got = math.exp(reg_gamma(1.0, x).log_p)
        assert got == pytest.approx(-math.expm1(-x), abs=1e-14)


def test_value_s2_x2():
    # gamma(2, 2) = 1 - 3 e^{-2} by two integrations by parts
    expected = 1.0 - 3.0 * math.exp(-2.0)
    assert math.exp(reg_gamma(2.0, 2.0).log_p) == pytest.approx(expected, abs=1e-14)


def test_boundary_x_zero():
    g = reg_gamma(7.0, 0.0)
    assert math.exp(g.log_p) == 0.0 and math.exp(g.log_q) == 1.0
    assert g.log_p == float("-inf") and g.log_q == 0.0


@pytest.mark.parametrize("n", range(1, 13))
def test_matches_quadrature_small_shapes(n):
    s = n + 1.0
    for x in [0.25, 1.0, s - 1.0, s, s + 1.0, 3.0 * s]:
        want = oracle_p_quadrature(s, x)
        got = math.exp(reg_gamma(s, x).log_p)
        assert got == pytest.approx(want, rel=1e-11)


def test_complement_identity():
    for s in [1.0, 2.0, 17.0, 301.0, 1001.0]:
        for x in [1e-3, 0.5 * s, s, s + 1.0, 2.0 * s, 10.0 * s]:
            g = reg_gamma(s, x)
            assert abs(math.exp(g.log_p) + math.exp(g.log_q) - 1.0) <= 1e-14


@pytest.mark.parametrize(
    "x",
    # log(-expm1(x)) above log(1/2), log1p(-exp(x)) from there down
    [-1e-300, -1e-17, -1e-8, -0.1, -0.5, -0.69, -math.log(2.0), -0.7, -1.0,
     -5.0, -40.0, -700.0, -1e6],
)
def test_log1mexp_matches_mpmath(x):
    with mpmath.workdps(50):
        want = float(mpmath.log(-mpmath.expm1(x)))
    assert log1mexp(x) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("x", [0.0, -0.0, 1e-300, 1.0, math.inf])
def test_log1mexp_rejects_nonnegative(x):
    with pytest.raises(ValueError):
        log1mexp(x)


@pytest.mark.parametrize("s", [1.0, 1000.0])
def test_reg_gamma_across_the_branch_switch(s):
    # below x = s + 1 log q is the complement of the series' log p, from
    # there on log p is the complement of the fraction's log q; the side
    # computed directly stays below 0, so log1mexp gets a valid argument
    edge = s + 1.0
    xs = [edge - 0.5, math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf),
          edge + 0.5]
    for x in xs:
        g = reg_gamma(s, x)
        with mpmath.workdps(40):
            want_p = mpmath.gammainc(s, 0, x, regularized=True)
            want_q = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
            want_lp, want_lq = float(mpmath.log(want_p)), float(mpmath.log(want_q))
        assert g.log_p < 0.0 and g.log_q < 0.0
        assert g.log_p == pytest.approx(want_lp, rel=1e-14), x
        assert g.log_q == pytest.approx(want_lq, rel=1e-14), x


def test_recurrence_lower():
    # gamma(s+1, x) = s gamma(s, x) - x^s e^{-x}, compared in log domain.
    # For x << s the subtraction itself cancels catastrophically (both sides
    # agree only to ~(s/x) * eps), so small x is only exercised at small s.
    for s in [1.0, 3.0, 8.0, 33.0, 150.0]:
        xs = [s * 0.7, s, s + 5.0] + ([0.4] if s <= 8.0 else [])
        for x in xs:
            lhs = reg_gamma(s + 1.0, x).log_p + math.lgamma(s + 1.0)
            term_a = math.log(s) + reg_gamma(s, x).log_p + math.lgamma(s)
            term_b = s * math.log(x) - x
            sign, rhs = log_sub_signed(term_a, term_b)
            assert sign == 1
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_absolute_accuracy_against_mpmath():
    mpmath.mp.dps = 40
    shapes = [1.0, 2.0, 5.0, 11.0, 101.0, 301.0, 1001.0]
    for s in shapes:
        xs = {1e-3, 0.5 * s, max(s - math.sqrt(s), 0.1), s, s + 1.0,
              s + math.sqrt(s), 2.0 * s, 1e6}
        for x in xs:
            p_ref = float(mpmath.gammainc(s, 0, x, regularized=True))
            q_ref = float(mpmath.gammainc(s, x, mpmath.inf, regularized=True))
            g = reg_gamma(s, x)
            assert abs(math.exp(g.log_p) - p_ref) <= 1e-13, (s, x)
            assert abs(math.exp(g.log_q) - q_ref) <= 1e-13, (s, x)


def test_log_forms_track_far_tails():
    mpmath.mp.dps = 40
    # far right tail: q underflows in linear space, log_q must stay accurate
    lq_ref = float(mpmath.log(mpmath.gammainc(3.0, 800.0, mpmath.inf,
                                              regularized=True)))
    assert reg_gamma(3.0, 800.0).log_q == pytest.approx(lq_ref, rel=1e-12)
    # far left tail: p tiny
    lp_ref = float(mpmath.log(mpmath.gammainc(301.0, 0, 10.0,
                                              regularized=True) ))
    assert reg_gamma(301.0, 10.0).log_p == pytest.approx(lp_ref, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        reg_gamma(0.5, 1.0)
    with pytest.raises(ValueError):
        reg_gamma(2.0, -1.0)
    with pytest.raises(ValueError):
        reg_gamma(2.0, float("inf"))


def test_small_a_bound_grid():
    for n in [1, 2, 5, 20, 50]:
        for a in [0.05, 0.2, 0.5, 0.77, 1.0]:
            assert check_small_a_bound(n, a)
    with pytest.raises(ValueError):
        check_small_a_bound(3, 1.5)


def test_tail_bound_cases():
    assert check_tail_bound(10, 5.0)
    assert check_tail_bound(100, 1.0)
    assert check_tail_bound(1, 1e-170)  # t^2 underflows; the bound is vacuous
    with pytest.raises(ValueError):
        check_tail_bound(10, 30.0)


def test_gamma_half_small_m():
    for m in [1, 2, 3, 10, 100, 500]:
        assert check_gamma_half(m)


def test_upper_fraction_converges_at_huge_argument():
    # a tolerance below double epsilon made the fraction run out of
    # iterations here, although the input is valid
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.gammainc(65, 3e16, mpmath.inf, regularized=True)))
    got = reg_gamma(65.0, 3e16)
    assert got.log_q == pytest.approx(want, rel=1e-15)
    assert math.exp(got.log_p) == 1.0 and math.exp(got.log_q) == 0.0


@pytest.mark.parametrize(
    "s, x", [(2.0, 3.0), (4.0, 40.0), (21.0, 22.0), (1001.0, 2000.0), (4.0, 1e14)]
)
def test_upper_scaled_matches_mpmath(s, x):
    # log(Gamma(s, x) x^-s e^x) is about -log x far out, with no x - log
    # terms left to cancel
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        want = float(mpmath.log(mpmath.gammainc(s, xm) * xm**-s * mpmath.e**xm))
    assert _log_upper_scaled(s, x) == pytest.approx(want, rel=1e-15)


def _reference_logs(s, x):
    """(log p, log q) at 40 digits, the smaller side direct, the other by log1p.

    gammainc's lower series stops at its default term count for s = 10^5 + 1
    (NoConvergence at x = s / 2), so the lower side sums 1F1(1; s+1; x),
    p = x^s e^-x / Gamma(s+1) * 1F1, with more terms allowed.
    """
    with mpmath.workdps(40):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        if x < s:
            log_pre = s * mpmath.log(x) - x - mpmath.loggamma(s + 1)
            p = mpmath.exp(log_pre) * mpmath.hyp1f1(1, s + 1, x, maxterms=10**6)
            return float(mpmath.log(p)), float(mpmath.log1p(-p))
        q = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
        return float(mpmath.log1p(-q)), float(mpmath.log(q))


@pytest.mark.parametrize("s", [1e4 + 1.0, 1e5 + 1.0])
@pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99, 1.0, 1.01, 1.2, 2.0])
def test_log_forms_against_mpmath_at_large_shapes(s, ratio):
    # the worst gap is 1.4e-14 (s = 10^5 + 1, x = s); a complement side of
    # about -e^(log of the other) has the other side's absolute error as its
    # relative one, 1.2e-14 at s = 10^4 + 1, x = 0.9 s (log q = -2e-25)
    want_lp, want_lq = _reference_logs(s, ratio * s)
    g = reg_gamma(s, ratio * s)
    assert g.log_p == pytest.approx(want_lp, rel=2e-14, abs=0.0)
    assert g.log_q == pytest.approx(want_lq, rel=2e-14, abs=0.0)

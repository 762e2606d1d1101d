import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from scipy import integrate

from epidual.logdomain import NEG_INF, log1mexp, log_add, log_sub_signed, log_sum
from epidual import gammafn
from epidual.gammafn import (
    _TEMME_C,
    _log1pmx,
    _log_upper_scaled,
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


@pytest.mark.parametrize(
    "terms, want",
    [
        ([NEG_INF, 2.0], 2.0),
        ([NEG_INF, NEG_INF], NEG_INF),
        ([math.inf, 2.0], math.inf),
        ([math.inf, NEG_INF], math.inf),
        ([], NEG_INF),
    ],
)
def test_log_add_and_log_sum_at_infinite_terms(terms, want):
    # an empty side adds nothing and an infinite one swamps the sum, where
    # the running-maximum formula would give nan
    assert log_sum(terms) == want
    if terms:
        assert log_add(*terms) == log_add(*reversed(terms)) == want


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
    # e^-a a^(n+1)/(n+1) <= gamma(n+1, a) <= a^(n+1)/(n+1), in logs
    for n in [1, 2, 5, 20, 50]:
        for a in [0.05, 0.2, 0.5, 0.77, 1.0]:
            log_gamma = math.lgamma(n + 1.0) + reg_gamma(n + 1.0, a).log_p
            upper = (n + 1.0) * math.log(a) - math.log(n + 1.0)
            assert upper - a <= log_gamma <= upper, (n, a)


def test_tail_bound_cases():
    # p(n+1, n+1+t) >= 1 - e^(-t^2/(8(n+1))) as log q(n+1, n+1+t) <=
    # -t^2/(8(n+1)); at t = 1e-170 t^2 underflows and the bound is vacuous
    for n, t in [(10, 5.0), (100, 1.0), (1, 1e-170)]:
        assert reg_gamma(n + 1.0, n + 1.0 + t).log_q <= -t * t / (8.0 * (n + 1.0))


def test_gamma_half_small_m():
    # Gamma(m+1, m) >= m!/2, i.e. q(m+1, m) >= 1/2
    for m in [1, 2, 3, 10, 100, 500]:
        assert reg_gamma(m + 1.0, float(m)).log_q >= -math.log(2.0)


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


@pytest.mark.parametrize("s", [2.0, 21.0, 1001.0, 1e6 + 1.0])
@pytest.mark.parametrize("ratio", [1.6, 4.0, 9.0, 1e3, 1e8])
def test_upper_scaled_times_x_matches_mpmath(s, ratio):
    # x times the scaled upper gamma is 1 + r, r about (s - 1)/x: its log
    # by log1p(r) carries r's few eps relative times r/(1 + r), where log x
    # plus the scaled gamma's log cancelled to about eps log x (16.5 eps at
    # s = 10^6 + 1, x = 10^14, a value of 1e-8)
    x = ratio * s
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        scaled = mpmath.gammainc(s, xm) * xm**-s * mpmath.e**xm
        want, want_x = float(mpmath.log(scaled)), float(mpmath.log(scaled * xm))
    got, got_x = gammafn._log_upper_scaled_times_x(s, x)
    eps = sys.float_info.epsilon
    assert abs(got - want) <= 4 * eps * max(1.0, abs(want))
    assert abs(got_x - want_x) <= 4 * eps * -math.expm1(-want_x) + math.ulp(want_x)


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


def test_log_p_within_its_stated_rounding():
    # reg_gamma's stated error on log_p, 3 eps (s|log x| + x + lgamma(s+1)),
    # which the stationarity gap's rounding bound in extremal builds on; the
    # last two points hold the largest errors of wider searches (2.0 and 1.9)
    points = [
        (s, x)
        for s in (2, 3, 6, 11, 51, 142, 290, 735, 1001)
        for x in (1e-3, 0.8, 1.0 / s, 0.5 * s, s - 1.0, s, s + 1.0, 2.0 * s, 10.0 * s)
    ]
    points += [(1, 0.8625), (735, 0.7986020419570531)]
    for s, x in points:
        size = s * abs(math.log(x)) + x + math.lgamma(s + 1)
        with mpmath.workdps(30):
            want = mpmath.log(mpmath.gammainc(s, 0, x, regularized=True))
            err = abs(reg_gamma(s, x).log_p - want)
        assert err <= 3.0 * sys.float_info.epsilon * size


def _temme_rows(count, top):
    """Exact Taylor coefficients in eta of Temme's c_0..c_(count-1).

    Row k runs to eta^(top - 2k - 1).  mu(eta) comes from mu mu' = eta (1 +
    mu), the derivative of eta^2/2 = mu - log(1 + mu); the Stirling
    coefficients g_k of Gamma*(z) ~ sum g_k z^-k exponentiate the Bernoulli
    series of log Gamma*; then c_0 = 1/mu - 1/eta and c_k = c_{k-1}'/eta +
    (-1)^k g_k / mu (DLMF 8.12.9-8.12.11).
    """
    order = top + 2
    m = [Fraction(0), Fraction(1)]
    for j in range(2, order + 1):
        acc = m[j - 1] - sum((j + 1 - i) * m[i] * m[j + 1 - i] for i in range(2, j))
        m.append(acc / (j + 1))
    # eta / mu = sum v_j eta^j, the reciprocal of mu / eta = sum m_(j+1) eta^j
    v = [Fraction(1)]
    for j in range(1, order):
        v.append(-sum(m[i + 1] * v[j - i] for i in range(1, j + 1)))
    bern = [Fraction(1)]
    for j in range(1, count + 2):
        bern.append(-sum(math.comb(j + 1, i) * bern[i] for i in range(j)) / (j + 1))
    log_g = [Fraction(0)] * (count + 1)
    for i in range(1, count // 2 + 2):
        if 2 * i - 1 <= count:
            log_g[2 * i - 1] = bern[2 * i] / (2 * i * (2 * i - 1))
    g = [Fraction(1)]
    for j in range(1, count + 1):
        g.append(sum(i * log_g[i] * g[j - i] for i in range(1, j + 1)) / j)
    rows = [[v[j + 1] for j in range(top)]]
    for k in range(1, count):
        prev, sign = rows[-1], (-1) ** k
        assert prev[1] == -sign * g[k]  # the 1/eta poles cancel
        rows.append(
            [(i + 2) * prev[i + 2] + sign * g[k] * v[i + 1] for i in range(top - 2 * k)]
        )
    return rows


def test_temme_coefficients_follow_the_recurrence():
    # every literal is the double nearest its exact rational, as
    # test_gauss_legendre_literals checks the quadrature rule
    exact = _temme_rows(len(_TEMME_C), 26)
    for row, want in zip(_TEMME_C, exact):
        assert row == tuple(float(a) for a in want[: len(row)])
    # the heads DLMF 8.12 prints
    assert exact[0][:4] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135),
                            Fraction(1, 864)]
    assert exact[1][0] == Fraction(-1, 540)
    assert exact[2][0] == Fraction(25, 6048)


def test_temme_truncation_as_derived():
    # the numbers _temme's docstring derives the row lengths and the cut from:
    # on the region's eta range, with the tail weight 0.62 and s >= 20
    exact = _temme_rows(14, 36)
    lo = -math.sqrt(-2.0 * (math.log(0.5) + 0.5))
    hi = math.sqrt(-2.0 * (math.log(1.5) - 0.5))
    grid = [lo + (hi - lo) * i / 200 for i in range(201)]

    def worst(coeffs, start):
        return max(
            abs(sum(float(a) * e**j for j, a in enumerate(coeffs) if j >= start))
            for e in grid
        )

    for k, row in enumerate(_TEMME_C):
        assert 0.62 * worst(exact[k], len(row)) * 20.0**-k <= 1e-18, k
    for k in range(1, 14):
        assert worst(exact[k], 0) <= 0.0091, k
    dropped = [0.62 * worst(exact[k], 0) * 20.0**-k for k in (11, 12, 13)]
    assert dropped[0] <= 4.8e-18 and dropped[1] <= 1.4e-18 and dropped[2] <= 5e-20


def _reference_tails(s, x):
    """(log p, log q) at 60 digits from the upper gamma, p = 1 - q.

    mpmath's lower gammainc stops with NoConvergence at s = 10^7.
    """
    with mpmath.workdps(60):
        q = mpmath.gammainc(mpmath.mpf(s), mpmath.mpf(x), mpmath.inf, regularized=True)
        return float(mpmath.log1p(-q)), float(mpmath.log(q))


_HUGE_S = 1e10 + 1.0


@pytest.mark.parametrize(
    "x",
    [
        # x - s is -1 and -5 times sqrt s, then -1e5, which is not s - sqrt s
        # as doubles
        pytest.param(_HUGE_S - math.sqrt(_HUGE_S), id="-1.0"),
        pytest.param(_HUGE_S - 5.0 * math.sqrt(_HUGE_S), id="-5.0"),
        pytest.param(_HUGE_S - 1e5, id="-1e5"),
    ],
)
def test_reg_gamma_returns_near_the_mean_at_huge_shapes(x):
    # the lower series took about sqrt s terms here and stalled past its
    # iteration cap at s = 10^10 + 1
    s = _HUGE_S
    want_lp, want_lq = _reference_tails(s, x)
    g = reg_gamma(s, x)
    assert g.log_p == pytest.approx(want_lp, rel=2e-14, abs=0.0)
    assert g.log_q == pytest.approx(want_lq, rel=2e-14, abs=0.0)


def _assert_logs_close(got, want_lp, want_lq):
    """The smaller tail's log to 2e-14 relative, the other side as it allows.

    The larger side is log1mexp of the smaller, so it carries the smaller
    side's absolute error times the tail ratio small/big, plus its own
    rounding: near -e^small, its relative error is that absolute error.
    """
    (got_small, want_small), (got_big, want_big) = sorted(
        [(got.log_p, want_lp), (got.log_q, want_lq)], key=lambda pair: pair[1]
    )
    assert abs(got_small - want_small) <= 2e-14 * abs(want_small)
    ratio = math.exp(want_small - want_big)
    allowed = ratio * 2e-14 * abs(want_small) + 2.0 * sys.float_info.epsilon * abs(want_big)
    assert abs(got_big - want_big) <= allowed


@pytest.mark.parametrize("s", [21.0, 1e3 + 1.0, 1e5 + 1.0, 1e7 + 1.0, 1e10 + 1.0])
def test_temme_region_against_mpmath(s):
    # x = s + c sqrt s across the region, whose edge is s/2 off at s = 21
    step = min(math.sqrt(s), s / 16.0)
    for c in (-7.99, -4.0, -1.0, -0.3, 0.0, 0.3, 1.0, 4.0, 7.99):
        x = s + c * step
        _assert_logs_close(reg_gamma(s, x), *_reference_tails(s, x))


@pytest.mark.parametrize(
    "s, edge",
    [(21.0, 10.5), (21.0, 31.5), (1001.0, 1001.0 - 8.0 * math.sqrt(1001.0)),
     (1001.0, 1001.0 + 8.0 * math.sqrt(1001.0)),
     (1e5 + 1.0, 1e5 + 1.0 - 8.0 * math.sqrt(1e5 + 1.0)),
     (1e5 + 1.0, 1e5 + 1.0 + 8.0 * math.sqrt(1e5 + 1.0))],
)
def test_temme_region_edge_is_seamless(monkeypatch, s, edge):
    # an ulp inside the edge takes the expansion, an ulp outside does not,
    # and both meet mpmath's values; the two points' own values differ by
    # up to 2e-14 relative at s = 10^5 + 1, so they are not compared with
    # each other
    seen = []
    inner = gammafn._temme

    def spied(s, x):
        seen.append(x)
        return inner(s, x)

    monkeypatch.setattr(gammafn, "_temme", spied)
    inside = math.nextafter(edge, s)
    for x in (inside, math.nextafter(edge, 2.0 * edge - s)):
        _assert_logs_close(reg_gamma(s, x), *_reference_tails(s, x))
    assert seen == [inside]


def test_trimmed_temme_rows_match_the_full_sum(monkeypatch):
    # each (s, |eta|) bin leaves out terms that weigh under 2e-19 together,
    # so the trimmed sum moves the tails by an ulp or two at most; x is
    # uniform over the branch's band or log-uniformly close to s, so that
    # the small-eta bins are reached too
    rng = random.Random(21)
    points = []
    for _ in range(20_000):
        s = 20.0 * 10.0 ** rng.uniform(0.0, math.log10(1e12 / 20.0))
        half = min(0.5 * s, 8.0 * math.sqrt(s))
        near = 10.0 ** -rng.uniform(0.0, 8.0)
        offset = half * (rng.random() if rng.random() < 0.5 else near)
        points.append((s, s + math.copysign(offset, rng.random() - 0.5)))
    trimmed = [gammafn._temme(s, x) for s, x in points]
    full = tuple(row[::-1] for row in _TEMME_C)
    monkeypatch.setattr(
        gammafn, "_TEMME_BINS",
        tuple(tuple(full for _ in row) for row in gammafn._TEMME_BINS),
    )
    moved = 0
    for (s, x), got in zip(points, trimmed):
        want = gammafn._temme(s, x)
        for g, w in ((got.log_p, want.log_p), (got.log_q, want.log_q)):
            assert abs(g - w) <= 2.0 * math.ulp(w), (s, x)
        moved += got != want
    # none moved when the bins were introduced
    assert moved <= 20


def test_log1pmx_against_mpmath():
    for e in range(3, 300):
        for sign in (1.0, -1.0):
            d = sign * 0.2 * 10.0 ** (-e / 20.0)
            with mpmath.workdps(40):
                want = float(mpmath.log1p(d) - d)
            assert _log1pmx(d) == pytest.approx(want, rel=2.0 * sys.float_info.epsilon)

import hashlib
import math
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from epidual import extremal, gammafn, measures
from epidual.extremal import (
    BracketFailure,
    BracketInvalid,
    LambdaEstimate,
    OneRootCase,
    RootTriple,
    StationarityFailure,
    TentParams,
    ZeroProfile,
    _gap_and_slope,
    _gap_lower_bound,
    _gap_probes,
    _gap_upper_bound,
    _island,
    _log_gap,
    _newton_root,
    _newton_stationary,
    _stationary_seed,
    a_bracket,
    big_f,
    big_g,
    ck_coefficients,
    m_sign,
    roots_of_m,
    solve_lambda,
    t_map,
    tent_profile,
)
from epidual.measures import log_s_j_n
from epidual.profile import (
    INF,
    RadiusFunction,
    to_radius,
)


def mp_lower(s, x):
    return mp.gammainc(s, 0, x)


def oracle_maximizer(n):
    # solve the first-order condition with mpmath and back out lambda
    with mp.workdps(40):
        def h(a):
            return (
                -1 / a - a
                - mp.log(mp_lower(n + 1, a))
                - mp.log(mp_lower(n + 1, 1 / a))
            )

        lo = mp.mpf(1) / (3 * n)
        hi = mp.mpf(2) / n
        assert h(lo) < 0 < h(hi)
        a = mp.findroot(h, (lo, hi), solver="bisect")
        log_lam = a + mp.log(mp_lower(n + 1, 1 / a))
        other = -1 / a - mp.log(mp_lower(n + 1, a))
        # bisect stops at |h| ~ 1e-20; both forms drift by that much
        assert mp.almosteq(log_lam, other, rel_eps=mp.mpf(10) ** -12)
        return float(a), float(log_lam)


def test_m_sign_exact_zero():
    # g(1) = 1 - 1 - 0 - log(1) vanishes identically
    assert m_sign(1.0, 1, 0.0) == 0
    assert m_sign(0.1, 1, 0.0) == -1
    assert m_sign(2.0, 1, 0.0) == -1
    assert m_sign(10.0, 1, 0.0) == 1


def test_m_sign_domain():
    with pytest.raises(ValueError):
        m_sign(0.0, 1, 0.0)
    with pytest.raises(ValueError):
        m_sign(math.inf, 1, 0.0)
    with pytest.raises(ValueError):
        m_sign(1.0, 0, 0.0)
    for log_lambda in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            m_sign(1.0, 1, log_lambda)
        with pytest.raises(ValueError):
            roots_of_m(1, log_lambda)


def test_roots_against_dense_scan():
    n, log_lambda = 1, math.log(1.0001)
    triple = roots_of_m(n, log_lambda)
    zs = np.geomspace(1e-4, 200.0, 2_000_001)
    g = zs - 1.0 / zs - (n + 2) * np.log(zs) - log_lambda
    flips = np.nonzero(np.diff(np.sign(g)))[0]
    assert len(flips) == 3
    for root, i in zip((triple.z1, triple.z2, triple.z3), flips):
        assert zs[i] <= root <= zs[i + 1]


def test_roots_are_tight():
    for n in range(1, 1001):
        log_lambda = math.lgamma(n + 1)
        triple = roots_of_m(n, log_lambda)
        for root in (triple.z1, triple.z2, triple.z3):
            lo = m_sign(root * (1.0 - 1e-13), n, log_lambda)
            hi = m_sign(root * (1.0 + 1e-13), n, log_lambda)
            assert lo == -hi != 0, (n, root)


def test_roots_interleave_probes():
    n = 10
    triple = roots_of_m(n, math.lgamma(n + 1))
    z_lo, z_hi = _gap_probes(n)
    assert triple.z1 < z_lo < triple.z2 < z_hi < triple.z3


def test_roots_straddle_inverse_dimension():
    # the sign map at lambda = n! is positive at 1/n, so the island
    # endpoints sit on either side of it; at n = 10^7 the local max probe
    # must not lose digits to cancellation, or the island is missed
    for n in (2, 10, 100, 10**7):
        triple = roots_of_m(n, math.lgamma(n + 1))
        assert triple.z1 < 1.0 / n < triple.z2


def test_roots_at_degenerate_dimension_one():
    # lambda = 1! makes z = 1 an exact root, where the gap's slope is -1
    triple = roots_of_m(1, 0.0)
    assert triple.z2 == pytest.approx(1.0, rel=1e-15)
    assert triple.z1 < 0.3
    assert triple.z3 > 4.0


@pytest.mark.parametrize("log_lambda", [0.52])
def test_root_widening_cap_raises(monkeypatch, log_lambda):
    # at n = 1, log lambda = +0.52 puts z3 two doublings above the local min
    # probe
    roots_of_m(1, log_lambda)
    monkeypatch.setattr(extremal, "_WIDEN_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match="no sign change in 1 doublings"):
        roots_of_m(1, log_lambda)


def test_z1_from_a_seed_whose_gap_reads_zero():
    # at n = 5, log lambda = 6.75 the gap at z1's seed, within rounding of
    # z1, reads 0.0; with 0 as the Newton's negative end the seed closes the
    # bracket on the right, and it is z1 to within the gap's rounding
    n, log_lambda = 5, 6.75
    z1 = _island(n, log_lambda)[0]
    assert _log_gap(z1, n, log_lambda) == 0.0
    assert roots_of_m(n, log_lambda).z1 == z1
    with mp.workdps(40):
        want = mp.findroot(
            lambda z: z - 1 / z - (n + 2) * mp.log(z) - mp.mpf(log_lambda),
            mp.mpf(z1),
        )
        assert abs(z1 - want) <= 7.7e-15 * want


def test_island_sign_map_evaluations(monkeypatch):
    # the two probes, then each root from a seed in log z: 8.32 evaluations
    # of the gap an island over n = 1..1000
    calls = [0]
    inner = extremal._log_gap

    def counted(z, n, log_lambda):
        calls[0] += 1
        return inner(z, n, log_lambda)

    monkeypatch.setattr(extremal, "_log_gap", counted)
    for n in range(1, 1001):
        _island(n, math.lgamma(n + 1))
    assert calls[0] <= 9 * 1000


def test_one_root_detection():
    n = 3
    z_lo, z_hi = _gap_probes(n)
    at_max = z_lo - 1.0 / z_lo - (n + 2) * math.log(z_lo)
    with pytest.raises(OneRootCase):
        roots_of_m(n, at_max + 0.1)  # local max pushed below zero
    at_min = z_hi - 1.0 / z_hi - (n + 2) * math.log(z_hi)
    with pytest.raises(OneRootCase):
        roots_of_m(n, at_min - 0.1)  # local min pulled above zero


@pytest.mark.parametrize("n", [10**16, 10**17, 10**20])
def test_roots_refuse_a_gap_below_rounding(n):
    # the local max is about +54 to +68, but the probe's terms of size
    # n log n leave the computed gap inside its rounding bound
    with pytest.raises(ArithmeticError, match="within its rounding bound"):
        roots_of_m(n, math.lgamma(n + 1))


def test_root_triple_validation():
    with pytest.raises(ValueError):
        RootTriple(1.0, 1.0, 2.0, 0.0, 1)
    with pytest.raises(ValueError):
        RootTriple(-1.0, 1.0, 2.0, 0.0, 1)
    with pytest.raises(ValueError):
        # ordered but not actual roots: the midpoint signs betray it
        RootTriple(0.5, 0.9, 1.5, 0.0, 1)


def test_tent_profile_shapes():
    capped = tent_profile(TentParams(0.5, INF, 2.0))
    assert capped.breakpoints == ((0.0, 0.0), (2.0, 1.0))
    assert math.isinf(capped.tail_slope)
    linear = tent_profile(TentParams(0.5, 0.0, 2.0))
    assert linear.breakpoints == ((0.0, 0.0),)
    assert linear.tail_slope == 0.5
    bent = tent_profile(TentParams(0.5, 2.0, 1.0))
    assert bent.evaluate(3.0) == pytest.approx(0.5 + 2.5 * 2.0, abs=1e-15)


def test_tent_params_validation():
    with pytest.raises(ValueError):
        TentParams(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        TentParams(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        TentParams(1.0, 1.0, 0.0)


# a real triple for the t_map tests: roughly (0.21, 1.0, 5.1), so tents
# with kink height between z1 and z2 have z1 on their first segment
TRIPLE = roots_of_m(1, math.log(1.0001))


def test_t_map_recovers_bent_tent():
    t = TentParams(0.5, 2.0, 1.0)
    rho = to_radius(tent_profile(t))
    out = t_map(rho, TRIPLE)
    assert out.a == pytest.approx(0.5, rel=1e-12)
    assert out.b == pytest.approx(2.0, rel=1e-12)
    assert out.x0 == pytest.approx(1.0, rel=1e-12)


def test_t_map_recovers_capped_tent():
    t = TentParams(0.5, INF, 1.0)
    rho = to_radius(tent_profile(t))
    out = t_map(rho, TRIPLE)
    assert out.a == pytest.approx(0.5, rel=1e-12)
    assert math.isinf(out.b)
    assert out.x0 == 1.0


def test_t_map_collapses_linear():
    rho = to_radius(tent_profile(TentParams(2.0, 0.0, 1.0)))
    out = t_map(rho, TRIPLE)
    assert out.b == 0.0
    assert out.a == pytest.approx(2.0, rel=1e-12)
    assert out.x0 == pytest.approx(TRIPLE.z1 / 2.0, rel=1e-12)  # radius at z1


def test_t_map_degenerate_inputs():
    with pytest.raises(ZeroProfile):
        t_map(RadiusFunction.infinite(), TRIPLE)
    with pytest.raises(ZeroProfile):
        t_map(RadiusFunction(((0.0, 0.0),), 0.0), TRIPLE)


def test_big_f_at_b_zero_is_inverse_factorial():
    for n in (1, 2, 7, 40):
        assert big_f(0.3, 0.0, n) == -math.lgamma(n + 1)
        assert big_f(0.3, 1e-9, n) == pytest.approx(-math.lgamma(n + 1), abs=1e-7)


@pytest.mark.parametrize("n", [1, 2, 5, 15, 30])
@pytest.mark.parametrize("ab", [(0.3, 1.0), (1.0, 2.5), (0.05, 10.0)])
def test_big_f_matches_quadrature(n, ab):
    # big_f takes every piece in closed form, log_s_j_n the finite
    # segments by quadrature
    a, b = ab
    profile = tent_profile(TentParams(a, b, 1.0))
    assert big_f(a, b, n) == pytest.approx(log_s_j_n(profile, n), abs=1e-9)


def mp_tent_logs(a, b, n):
    """(log nu, log mu) of the kink-1 tent with slopes (a, a+b), 60 digits.

    mu integrates the radius z/a up to a, then 1 + (z - a)/(a+b); nu is mu
    of its J image, 1/(a+b) + w b/(a+b) up to 1/a, then 1/a.
    """
    with mp.workdps(60):
        a, b = mp.mpf(a), mp.mpf(b)
        mu = (
            a**-n * mp_lower(n + 1, a)
            + (a + b) ** -n * mp.e**b * mp.gammainc(n + 1, a + b)
        )
        u0, u1 = 1 / b, 1 / b + 1 / a
        if u0 < n + 1:  # take the difference on the side that does not cancel
            piece = mp_lower(n + 1, u1) - mp_lower(n + 1, u0)
        else:
            piece = mp.gammainc(n + 1, u0) - mp.gammainc(n + 1, u1)
        nu = (b / (a + b)) ** n * mp.e**u0 * piece + a**-n * mp.e ** (-1 / a)
        return float(mp.log(nu)), float(mp.log(mu))


@pytest.mark.parametrize("n", [1, 30, 1000])
@pytest.mark.parametrize("a", [1e-3, 0.3, 10.0])
@pytest.mark.parametrize("b", [1e-9, 1.0, 1e6])
def test_big_f_matches_mpmath_tent(n, a, b):
    # log F = log nu - log mu, so its rounding is set by the larger of the
    # two logs, not by F (at n = 1 and b = 1e-9, log F is 5e-13), and by
    # unit scale at least, where the pieces' own logs live
    log_nu, log_mu = mp_tent_logs(a, b, n)
    ulp = math.ulp(max(1.0, abs(log_nu), abs(log_mu)))
    assert abs(big_f(a, b, n) - (log_nu - log_mu)) <= 4 * ulp


def test_big_f_cost_does_not_grow_with_n(monkeypatch):
    calls = []
    reg_gamma = measures.reg_gamma

    def counted(s, x):
        calls.append(s)
        return reg_gamma(s, x)

    for module in (measures, extremal):
        monkeypatch.setattr(module, "reg_gamma", counted)
    counts = []
    for n in (5, 1000):
        calls.clear()
        big_f(0.3, 1.0, n)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 5


def test_big_f_scaling_absorbs_kink():
    # T(a, b, x0) rescales to the kink-1 tent with both slopes times x0
    for x0 in (0.1, 1.0, 25.0):
        profile = tent_profile(TentParams(0.4, 3.0, x0))
        assert log_s_j_n(profile, 6) == pytest.approx(
            big_f(0.4 * x0, 3.0 * x0, 6), abs=1e-9
        )


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("a", [0.2, 1.0, 3.0])
def test_big_g_matches_quadrature(n, a):
    profile = tent_profile(TentParams(a, INF, 1.0))
    assert big_g(a, n) == pytest.approx(log_s_j_n(profile, n), abs=1e-9)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("a", [0.3, 2.0])
def test_inverted_weight_tail_identity(n, a):
    # integral_a^inf e^(-1/z) z^(-(n+2)) dz equals the lower gamma at 1/a
    with mp.workdps(30):
        quad = mp.quad(
            lambda z: mp.e ** (-1 / z) * z ** (-(n + 2)), [a, mp.inf]
        )
        expect = mp_lower(n + 1, mp.mpf(1) / a)
        assert mp.almosteq(quad, expect, rel_eps=mp.mpf(10) ** -20)


def test_big_f_monotone_in_b_toward_big_g():
    n, a = 5, 0.3
    vals = [big_f(a, b, n) for b in (0.0, 1.0, 10.0, 1e3)]
    assert vals == sorted(vals)
    assert vals[-1] <= big_g(a, n) + 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_big_f_forward_difference_positive_at_maximizer(n):
    a = solve_lambda(n).a_n
    for b in (0.0, 1.0, 10.0):
        assert big_f(a, b + 1e-6, n) > big_f(a, b, n)


@pytest.mark.parametrize("n", [10, 25, 60, 150, 300])
def test_big_g_near_half_shifted_peak_lower_bound(n):
    # the capped-tent ratio at a = 1/(2(n+1)) already beats n! by the
    # explicit three-factor margin
    margin = (
        math.log1p(1.0 / (3.0 * n))
        + math.log1p(-1.0 / n**2)
        + math.log1p(-math.exp(-(n + 1) / 8.0))
    )
    assert big_g(1.0 / (2.0 * (n + 1)), n) > margin + math.lgamma(n + 1)


def test_big_f_limit_is_big_g():
    assert big_f(0.3, 1e6, 4) == pytest.approx(big_g(0.3, 4), abs=1e-4)
    assert big_f(0.3, INF, 4) == big_g(0.3, 4)


def test_big_g_small_a_limit_is_factorial():
    for n in (1, 3, 6):
        assert big_g(1e-6, n) == pytest.approx(math.lgamma(n + 1), abs=1e-4)


def test_big_g_large_a_limit_is_inverse_factorial():
    for n in (1, 3, 6):
        assert big_g(1e3, n) == pytest.approx(-math.lgamma(n + 1), abs=5e-3)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_solver_against_mpmath(n):
    a_ref, log_lam_ref = oracle_maximizer(n)
    est = solve_lambda(n)
    assert est.a_n == pytest.approx(a_ref, rel=1e-10)
    assert est.log_lambda == pytest.approx(log_lam_ref, abs=1e-10)


def test_solver_dimension_one_values():
    est = solve_lambda(1)
    assert est.a_n == pytest.approx(0.3339, abs=5e-4)
    assert math.exp(est.log_lambda) == pytest.approx(1.1174, abs=5e-4)


def test_solver_certificates_and_bracket():
    for n in range(1, 1001):
        est = solve_lambda(n)
        assert abs(est.residual_n1) <= 1e-8
        assert abs(est.residual_n2) <= 1e-8
        assert est.bracket[0] <= est.a_n <= est.bracket[1]
        # the maximizer also stays in the narrower island at the solved lambda
        island = roots_of_m(n, est.log_lambda)
        assert est.bracket[0] <= island.z1 <= est.a_n <= island.z2
        # solve_lambda decides this by the sign of the gap, never near zero
        assert _log_gap(est.a_n, n, est.log_lambda) > 0.1


def _count_reg_gamma(monkeypatch):
    calls = [0]
    inner = extremal.reg_gamma

    def counted(s, x):
        calls[0] += 1
        return inner(s, x)

    monkeypatch.setattr(extremal, "reg_gamma", counted)
    return calls


# two calls at the seed; a Halley step takes two more only where its gamma
# values cannot be stepped from the last point's (n = 1..10, _gap_and_slope)
_GAMMA_BUDGET = {1: 6, 10: 4, 100: 2, 1000: 2}


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_cold_solve_gamma_budget(monkeypatch, n):
    calls = _count_reg_gamma(monkeypatch)
    solve_lambda.__wrapped__(n)
    assert calls[0] <= _GAMMA_BUDGET[n]


def test_cold_solve_gamma_budget_over_the_sweep(monkeypatch):
    calls = _count_reg_gamma(monkeypatch)
    most = 0
    for n in range(1, 1001):
        before = calls[0]
        solve_lambda.__wrapped__(n)
        most = max(most, calls[0] - before)
    assert most <= 6
    # 2,022 measured: 6 at n = 1, 4 for n = 2..10, 2 from there on
    assert calls[0] <= 2_030


# n = 1..1000 and log-spaced n up to 10^9
_BOUND_NS = list(range(1, 1001)) + [int(10 ** (k / 4)) for k in range(13, 37)]


def _mp_gap(a, n):
    with mp.workdps(40):
        x = mp.mpf(a)
        return (
            -1 / x - x
            - mp.log(mp_lower(n + 1, x))
            - mp.log(mp_lower(n + 1, 1 / x))
        )


def test_gap_lower_bound_holds_across_the_island():
    # at the island's ends and 8 interior points the seed's bound, as
    # computed, stays under the gap, which lies within its bound of the
    # exact h (2 bounds when it reads 0.0); its root, the seed, closes the
    # bracket on the right from n = 2 on, and at n = 1 it has none
    for n in _BOUND_NS:
        lo, hi = _island(n, math.lgamma(n + 1))
        for a in [lo + k / 9 * (hi - lo) for k in range(10)]:
            gap = _gap_and_slope(a, n)
            assert _gap_lower_bound(a, n) <= gap.value + 2.0 * gap.bound, (n, a)
        seed = _stationary_seed(n, lo)
        if n >= 2:
            assert lo < seed < hi and _gap_and_slope(seed, n).value >= 0.0, n
    lo, hi = _island(1, 0.0)
    assert _stationary_seed(1, lo) == 0.5
    assert max(_gap_lower_bound(k / 1000, 1) for k in range(1, 1000)) < 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
def test_gap_lower_bound_against_mpmath(n):
    lo, hi = _island(n, math.lgamma(n + 1))
    for a in [lo + k / 9 * (hi - lo) for k in range(1, 9)] + [hi]:
        assert _gap_lower_bound(a, n) <= float(_mp_gap(a, n)), (n, a)
    # the exact gap at the seed is not negative: it closes the bracket
    if n >= 2:
        assert _mp_gap(_stationary_seed(n, lo), n) >= 0, n


def _left_part(n):
    # the island's left end and 8 points between it and the maximizer
    lo = _island(n, math.lgamma(n + 1))[0]
    a_n = solve_lambda(n).a_n
    return lo, [lo + k / 9 * (a_n - lo) for k in range(9)]


def test_gap_upper_bound_holds_left_of_the_maximizer():
    # the bound, its allowance included, stays over the gap less twice the
    # gap's rounding bound, and it decides the left end's sign at every n
    for n in _BOUND_NS:
        lo, points = _left_part(n)
        for a in points:
            gap = _gap_and_slope(a, n)
            assert _gap_upper_bound(a, n) >= gap.value - 2.0 * gap.bound, (n, a)
        assert _gap_upper_bound(lo, n) < 0.0, n


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000])
def test_gap_upper_bound_against_mpmath(n):
    for a in _left_part(n)[1]:
        assert _gap_upper_bound(a, n) >= float(_mp_gap(a, n)), (n, a)


def test_bracket_ends_are_not_evaluated(monkeypatch):
    # the left end's sign comes from the closed-form bound, the right end's
    # from the seed, so neither end's gap is evaluated, in full or by an
    # increment, up to n = 10^9
    seen = []
    inner = extremal._gap_and_slope

    def recorded(a, n, prev=None):
        seen.append(a)
        return inner(a, n, prev)

    monkeypatch.setattr(extremal, "_gap_and_slope", recorded)
    at_an_end = []
    for n in _BOUND_NS:
        seen.clear()
        est = solve_lambda.__wrapped__(n)
        if set(est.bracket) & set(seen):
            at_an_end.append(n)
    assert at_an_end == []


def test_large_n_solves_take_the_expansion_near_the_mean(monkeypatch):
    # near x = s the series and the fraction take about sqrt s steps, about
    # 9 ms a solve at n = 10^9 before Temme's branch took that region over;
    # no call of a large-n solve may reach them there
    reached = []
    for name in ("_lower_series", "_log_upper_scaled"):
        def spied(s, x, inner=getattr(gammafn, name)):
            reached.append((s, x))
            return inner(s, x)

        monkeypatch.setattr(gammafn, name, spied)
    for k in range(5, 10):
        solve_lambda.__wrapped__(10**k)
    # the island's left end, far below the mean, still takes the series
    assert reached
    assert not [
        (s, x) for s, x in reached
        if s >= 20 and abs(x - s) <= min(0.5 * s, 8.0 * math.sqrt(s))
    ]


@pytest.mark.parametrize("n", [7, 100, 1000])
def test_solve_certifies_from_the_last_gap_evaluation(monkeypatch, n):
    # the iteration stops on a point it has evaluated, in full or by an
    # increment, and lambda and the residuals come from that evaluation, not
    # from a second one at a_n; a full evaluation there reads 0.0 too
    seen = []
    inner = extremal._gap_and_slope

    def recorded(a, n, prev=None):
        seen.append(a)
        return inner(a, n, prev)

    monkeypatch.setattr(extremal, "_gap_and_slope", recorded)
    est = solve_lambda.__wrapped__(n)
    assert est.a_n == seen[-1]
    assert seen.count(est.a_n) == 1
    assert inner(est.a_n, n).value == 0.0


def _gap_steps(monkeypatch, n):
    # every evaluation a cold solve makes that was handed the last point's
    steps = []
    inner = extremal._gap_and_slope

    def recorded(a, n, prev=None):
        gap = inner(a, n, prev)
        if prev is not None:
            steps.append(gap)
        return gap

    monkeypatch.setattr(extremal, "_gap_and_slope", recorded)
    solve_lambda.__wrapped__(n)
    monkeypatch.undo()
    return steps


def test_gap_increment_matches_direct_evaluation(monkeypatch):
    # a stepped log p(n+1, a) and log p(n+1, 1/a) lie within the bound their
    # error field derives, and reg_gamma's within 3 eps (2|P| + a + 1/a), of
    # the exact values, so within the two bounds' sum of each other; the
    # stepped error stays within the 6 eps S that the gap's bound grants
    stepped, in_full = 0, set()
    for n in _BOUND_NS:
        for gap in _gap_steps(monkeypatch, n):
            direct = _gap_and_slope(gap.a, n)
            apart = abs(gap.log_p - direct.log_p) + abs(
                gap.log_p_inv - direct.log_p_inv
            )
            assert apart <= gap.error + direct.error, (n, gap.a)
            size = gap.bound / extremal._GAP_ROUNDING
            assert gap.error <= extremal._GAMMA_ROUNDING * size, (n, gap.a)
            # a step too wide to be taken is reg_gamma's evaluation exactly
            if gap == direct:
                in_full.add(n)
            else:
                stepped += 1
    # 1,041 of 1,052 steps measured; only the first step from n = 1 to 10
    # (and the second at n = 1) is too wide
    assert stepped >= 1_040
    assert in_full <= set(range(1, 11))


@pytest.mark.parametrize("n", [2, 10, 44, 100, 1000])
def test_gap_increment_against_mpmath(monkeypatch, n):
    # each step's log p values, stepped or in full, lie within its error
    # field of the 40-digit ones
    steps = _gap_steps(monkeypatch, n)
    assert steps
    for gap in steps:
        with mp.workdps(40):
            x = mp.mpf(gap.a)
            want_p = mp.log(mp.gammainc(n + 1, 0, x, regularized=True))
            want_q = mp.log(mp.gammainc(n + 1, 0, 1 / x, regularized=True))
            off = abs(gap.log_p - want_p) + abs(gap.log_p_inv - want_q)
        assert off <= gap.error, (n, gap.a)


@pytest.mark.parametrize("k", range(10, 21))
def test_solver_refuses_a_stationarity_bracket_below_rounding(k):
    # h at the island's left end is within its rounding bound from n = 1e10
    # on, so its sign there decides nothing; from about 1.6e15 the island's
    # own probe gap is, and the island is refused first
    with pytest.raises(ArithmeticError, match="within its rounding bound"):
        solve_lambda(10**k)


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_gap_curvature_against_mpmath(n):
    # h'' enters the solver through the Halley step slope h' - h h''/(2h'),
    # or plain h' where the gap reads 0.0 or that changes sign, so the
    # slope is checked.  h' and h'' sum terms as large as r1 and r1^2 that
    # cancel, and r1 carries the rounding of log gamma(n+1, a), a number of
    # size n log n: so h, h' and h'' are each taken within 1e-10 of their
    # terms' sizes S0, S1 and S2 (at n = 1000 one ulp of log gamma moves
    # h'' by 3e-9 of itself, 3e-12 of r1^2).  To first order the Halley
    # slope is then within 1e-10 (S1 (1 + |h h''|/(2h'^2)) + S2 |h|/(2|h'|)
    # + S0 |h''|/(2|h'|))
    z1, z2 = _island(n, math.lgamma(n + 1))
    for t in (0.1, 0.5, 0.9):
        a = z1 + t * (z2 - z1)
        gap = _gap_and_slope(a, n)
        with mp.workdps(40):
            def h(x):
                return (
                    -1 / x - x
                    - mp.log(mp_lower(n + 1, x))
                    - mp.log(mp_lower(n + 1, 1 / x))
                )

            x = mp.mpf(a)
            h0, h1, h2 = h(x), mp.diff(h, x, 1), mp.diff(h, x, 2)
            r1 = x**n * mp.e**-x / mp_lower(n + 1, x)
            r2 = x ** (-n - 2) * mp.e ** (-1 / x) / mp_lower(n + 1, 1 / x)
            s0 = 1 / x + x + abs(mp.log(mp_lower(n + 1, x))) + abs(
                mp.log(mp_lower(n + 1, 1 / x))
            )
            s1 = 1 / x**2 + 1 + r1 + r2
            s2 = (
                2 / x**3
                + r1 * (n / x + 1 + r1)
                + r2 * (1 / x**2 + (n + 2) / x + r2)
            )
            halley = h1 - h0 * h2 / (2 * h1)
            want = h1 if gap.value == 0.0 or halley * h1 <= 0 else halley
            tol = 1e-10 * (
                s1 * (1 + abs(h0 * h2) / (2 * h1**2))
                + s2 * abs(h0) / (2 * abs(h1))
                + s0 * abs(h2) / (2 * abs(h1))
            )
        assert abs(gap.slope - float(want)) <= float(tol), (n, a)


def test_island_is_the_first_two_roots():
    for n in range(1, 1001):
        log_lambda = math.lgamma(n + 1)
        r = roots_of_m(n, log_lambda)
        assert _island(n, log_lambda) == (r.z1, r.z2)


def test_solver_solves_where_the_residuals_once_refused():
    # the residual exponents at a root are as large as the gap's own
    # rounding bound, about 10 eps n log n, which 4 ulps of log lambda
    # undercut from about n = 2e6 on: these n raised StationarityFailure
    rng = random.Random(16)
    sample = [int(10 ** rng.uniform(6.0, 9.0)) for _ in range(200)]
    for n in [2_021_178, 8_903_047, 17_081_059, 32_372_025] + sample:
        est = solve_lambda.__wrapped__(n)
        assert est.bracket[0] < est.a_n < est.bracket[1], n


def test_gap_zero_within_its_rounding_bound():
    n = 100
    est = solve_lambda(n)
    gap = _gap_and_slope(est.a_n, n)
    assert gap.value == 0.0
    # the bound is about 10 eps times the size of the gap's terms, so a
    # step of 1e-12 relative leaves it
    assert 0.0 < gap.bound < 1e-10
    assert _gap_and_slope(est.a_n * (1.0 - 1e-12), n).value < 0.0
    assert _gap_and_slope(est.a_n * (1.0 + 1e-12), n).value > 0.0


def _mp_log_lambda(n, a):
    # the 40-digit root of h, by the secant method from the solver's a_n
    with mp.workdps(40):
        root = mp.findroot(lambda x: _mp_gap(x, n), mp.mpf(a))
        return root + mp.log(mp_lower(n + 1, 1 / root))


@pytest.mark.parametrize("n", list(range(1, 11)) + [23, 43, 44, 100, 300, 1000])
def test_log_lambda_against_the_40_digit_root(n):
    # within 2 ulps, but 9 ulps (1.2e-16 absolute) at n = 1
    est = solve_lambda(n)
    want = _mp_log_lambda(n, est.a_n)
    tol = 4.0 * sys.float_info.epsilon * (1.0 + abs(est.log_lambda))
    assert abs(mp.mpf(est.log_lambda) - want) <= tol, n


def test_roots_of_m_bit_identical():
    # the sign-map roots at lambda = n!, found from the seeds in log z; z1
    # and z2 lie within 7.7e-15 of the 40-digit roots on every seventh n
    digest = hashlib.sha256()
    for n in range(1, 1001):
        r = roots_of_m(n, math.lgamma(n + 1))
        digest.update(repr((r.z1, r.z2, r.z3)).encode())
    assert digest.hexdigest() == (
        "58168d077ebfdaac4e6d6161ad56f494fbc3f483587a7c372e157af3bbaa2161"
    )


def test_solve_lambda_bit_identical():
    # the solver's outputs with the Halley iterates' gamma values stepped
    # from the last point's; their log lambda is held to the 40-digit root by
    # test_log_lambda_against_the_40_digit_root, and the steps to reg_gamma
    # and mpmath by the two gap increment tests
    digest = hashlib.sha256()
    for n in range(1, 1001):
        e = solve_lambda(n)
        digest.update(repr((
            e.log_lambda, e.a_n, e.residual_n1, e.residual_n2,
            e.lambda_hat_minus_1, e.bracket,
        )).encode())
    assert digest.hexdigest() == (
        "e6f062602aa867f57827755ffc9cc93b0b89bafac067d7cc537138b884ea66bc"
    )


def test_solver_residual_tolerance_follows_rounding():
    # at n = 3e7 the first residual is one ulp of log lambda (6e-8): as
    # small as the arithmetic can resolve, and within the tolerance 2B,
    # which grows with the gap's terms
    n = 30_000_000
    est = solve_lambda(n)
    tol = 4.0 * math.ulp(est.log_lambda)
    assert tol > 1e-8
    assert max(abs(est.residual_n1), abs(est.residual_n2)) <= tol
    # lambda / n! - 1 is below 1/n
    assert est.log_lambda == pytest.approx(math.lgamma(n + 1), abs=1e-6)


def test_residual_exponents_within_twice_the_gap_bound(monkeypatch):
    # the certificate's tolerance is 2B alone, B the rounding bound of the
    # gap evaluation at the root; the exponents reach 0.43 of it, at n = 45
    roots = {}
    inner = extremal._newton_stationary

    def recorded(n, lo, hi):
        roots[n] = inner(n, lo, hi)
        return roots[n]

    monkeypatch.setattr(extremal, "_newton_stationary", recorded)
    for n in _BOUND_NS + [3_000_000_000]:
        est = solve_lambda.__wrapped__(n)
        tol = 2.0 * roots[n].bound
        for residual in (est.residual_n1, est.residual_n2):
            assert abs(math.log1p(residual)) <= tol, n


def test_solver_bracket_is_factorial_island():
    n = 7
    est = solve_lambda(n)
    island = roots_of_m(n, math.lgamma(n + 1))
    assert est.bracket == (island.z1, island.z2)


def test_lambda_hat_two_routes_agree():
    for n in (1, 2, 5, 10, 40):
        est = solve_lambda(n)
        direct = math.expm1(est.log_lambda - math.lgamma(n + 1))
        assert est.lambda_hat_minus_1 == pytest.approx(direct, abs=1e-10)


def test_lambda_sandwiched_by_factorial_bounds():
    for n in range(1, 31):
        est = solve_lambda(n)
        assert est.lambda_hat_minus_1 > 0.0
        # growth no worse than C^n n! with a small C
        assert est.log_lambda - math.lgamma(n + 1) <= n * math.log(2.0)


def test_scaled_excess_stays_order_one():
    # n (lambda/n! - 1) hovers around a constant instead of drifting
    values = [n * solve_lambda(n).lambda_hat_minus_1 for n in (50, 120, 300)]
    assert all(v > 0.0 for v in values)
    assert max(values) < 10.0 * min(values)


def test_maximizer_scales_like_inverse_dimension():
    est = solve_lambda(200)
    assert abs(200.0 * est.a_n - 1.0) <= 2.0 * 200.0 ** (-1.0 / 3.0)


def test_stationarity_gap_brackets_maximizer():
    for n in (2, 9):
        est = solve_lambda(n)
        assert _gap_and_slope(est.a_n * 0.9, n)[0] < 0.0
        assert _gap_and_slope(est.a_n * 1.1, n)[0] > 0.0


def test_bisect_raises_when_it_cannot_converge():
    # a zero slope makes every step a bisection, and a relative step never
    # gets small next to iterates that halve toward the root at 0
    with pytest.raises(ArithmeticError):
        _newton_root(lambda z, last: (z, 0.0), -1.0, 1.0, 0.5, (0.5, 0.0))


def test_newton_cap_raises(monkeypatch):
    # n = 10 takes two Halley steps from its seed, and the second one's gap
    # reads 0.0 only on the cap's last step
    island = roots_of_m(10, math.lgamma(11))
    monkeypatch.setattr(extremal, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(StationarityFailure):
        _newton_stationary(10, island.z1, island.z2)


def test_newton_rejects_bracket_without_sign_change():
    # the gap is negative on the whole left part of the island
    est = solve_lambda(5)
    with pytest.raises(BracketFailure):
        _newton_stationary(5, est.bracket[0], 0.9 * est.a_n)


def test_solver_rejects_bad_dimension():
    for n in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            solve_lambda(n)


@pytest.mark.parametrize(
    "n, alpha", [(31, 0.9), (50, 0.9), (120, 0.8), (150, 0.85)]
)
def test_a_bracket_contains_island_and_maximizer(n, alpha):
    lo, hi = a_bracket(n, alpha)
    assert lo < 1.0 / n < hi
    island = roots_of_m(n, math.lgamma(n + 1))
    assert lo < island.z1 < island.z2 < hi
    assert lo < solve_lambda(n).a_n < hi


def test_a_bracket_threshold_grows_as_alpha_drops():
    # the check turns on at n = 31 for alpha = 0.9 and is far out of
    # reach at alpha = 2/3, where the island outgrows the window for
    # every n that is remotely computable
    with pytest.raises(BracketInvalid):
        a_bracket(30, 0.9)
    a_bracket(31, 0.9)
    for n in (10, 100, 300):
        with pytest.raises(BracketInvalid):
            a_bracket(n, 2.0 / 3.0)


def test_a_bracket_invalid_cases():
    with pytest.raises(BracketInvalid):
        a_bracket(2, 0.6)
    with pytest.raises(BracketInvalid):
        a_bracket(1, 0.9)  # n^alpha = n leaves no window
    with pytest.raises(ValueError, match="alpha must lie in"):
        a_bracket(10, 1.5)
    with pytest.raises(ValueError, match="alpha must lie in"):
        a_bracket(10, 0.5)


@pytest.mark.parametrize("n", [2, 5, 20, 60])
def test_ck_all_negative_at_maximizer(n):
    est = solve_lambda(n)
    for sign, mag in ck_coefficients(n, est.a_n, est.log_lambda):
        assert sign == -1
        assert math.isfinite(mag)


@pytest.mark.parametrize("log_lambda", [math.nan, math.inf, -math.inf])
def test_ck_rejects_non_finite_lambda(log_lambda):
    # with a nan lambda every c_k would read (-1, nan), i.e. negative
    with pytest.raises(ValueError, match="log lambda must be finite"):
        ck_coefficients(3, 0.3, log_lambda)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_tent_ratios_and_ck_reject_a_bad_slope(a):
    with pytest.raises(ValueError, match="slope a must be finite > 0"):
        big_f(a, 1.0, 3)
    with pytest.raises(ValueError, match="slope a must be finite > 0"):
        big_g(a, 3)
    with pytest.raises(ValueError, match="slope a must be finite > 0"):
        ck_coefficients(3, a, 0.25)


@pytest.mark.parametrize("b", [-1.0, math.nan])
def test_big_f_rejects_a_bad_increment(b):
    with pytest.raises(ValueError, match="increment b must be in"):
        big_f(0.5, b, 3)


def test_ck_value_against_mpmath():
    n, a, log_lam = 3, 0.4, 0.25
    sign, mag = ck_coefficients(n, a, log_lam)[1]
    with mp.workdps(30):
        c = 2 * (
            mp_lower(2, mp.mpf(1) / a)
            - mp.e ** mp.mpf(log_lam) * mp.gammainc(3, a, mp.inf)
        )
        assert sign == (1 if c > 0 else -1)
        assert mag == pytest.approx(float(mp.log(abs(c))), abs=1e-10)

import math

import mpmath as mp
import numpy as np
import pytest

from epidual import extremal, measures
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
    _gap_probes,
    _log_gap,
    _newton_root,
    _newton_stationary,
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


@pytest.mark.parametrize("log_lambda", [-0.52, 0.52])
def test_root_widening_cap_raises(monkeypatch, log_lambda):
    # at n = 1, log lambda = -0.52 puts z1 two halvings below the local max
    # probe and +0.52 puts z3 two doublings above the local min probe
    roots_of_m(1, log_lambda)
    monkeypatch.setattr(extremal, "_WIDEN_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError):
        roots_of_m(1, log_lambda)


def test_one_root_detection():
    n = 3
    z_lo, z_hi = _gap_probes(n)
    at_max = z_lo - 1.0 / z_lo - (n + 2) * math.log(z_lo)
    with pytest.raises(OneRootCase):
        roots_of_m(n, at_max + 0.1)  # local max pushed below zero
    at_min = z_hi - 1.0 / z_hi - (n + 2) * math.log(z_hi)
    with pytest.raises(OneRootCase):
        roots_of_m(n, at_min - 0.1)  # local min pulled above zero


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


@pytest.mark.parametrize("n", [1, 10, 100, 1000])
def test_cold_solve_gamma_budget(monkeypatch, n):
    calls = _count_reg_gamma(monkeypatch)
    solve_lambda.__wrapped__(n)
    assert calls[0] <= 30


def test_multiple_local_maxima_is_lazy(monkeypatch):
    calls = _count_reg_gamma(monkeypatch)
    for n in (1, 3, 17, 80):
        est = solve_lambda.__wrapped__(n)
        assert "multiple_local_maxima" not in vars(est)
        solved = calls[0]
        assert not est.multiple_local_maxima
        assert calls[0] > solved
        # read again, the cached flag costs nothing
        solved = calls[0]
        assert not est.multiple_local_maxima
        assert calls[0] == solved


def test_solver_residual_tolerance_follows_rounding():
    # at n = 3e7 the first residual is one ulp of log lambda (6e-8), above
    # the 1e-8 floor but as small as the arithmetic can resolve
    n = 30_000_000
    est = solve_lambda(n)
    tol = 4.0 * math.ulp(est.log_lambda)
    assert tol > 1e-8
    assert max(abs(est.residual_n1), abs(est.residual_n2)) <= tol
    # lambda / n! - 1 is below 1/n
    assert est.log_lambda == pytest.approx(math.lgamma(n + 1), abs=1e-6)


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
        _newton_root(lambda z: (z, 0.0), -1.0, 1.0, 0.5, 0.5, 0.0)


def test_newton_cap_raises(monkeypatch):
    island = roots_of_m(50, math.lgamma(51))
    monkeypatch.setattr(extremal, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(StationarityFailure):
        _newton_stationary(50, island.z1, island.z2)


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
    with pytest.raises(ValueError):
        a_bracket(10, 1.5)
    with pytest.raises(ValueError):
        a_bracket(10, 0.5)


@pytest.mark.parametrize("n", [2, 5, 20, 60])
def test_ck_all_negative_at_maximizer(n):
    est = solve_lambda(n)
    for sign, mag in ck_coefficients(n, est.a_n, est.log_lambda):
        assert sign == -1
        assert math.isfinite(mag)


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

"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest -s to see them all)
and then asserts, so the suite both reports and enforces.
"""

import math
import sys

from epidual.extremal import (
    TentParams,
    a_bracket,
    big_f,
    big_g,
    m_sign,
    roots_of_m,
    solve_lambda,
    tent_profile,
)
from epidual.extremal import BracketInvalid
from epidual.measures import log_s_j_n, volume_pair
from epidual.profile import INF, ConvexProfile
from epidual.verify import SUITE_NAMES, run_suite
from tent_grid_oracle import brute_force_lambda

INDICATOR = ConvexProfile(((0.0, 0.0), (1.0, 0.0)), INF)
LINEAR = ConvexProfile(((0.0, 0.0),), 1.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_anchors():
    worst = 0.0
    for n in range(1, 21):
        lg = math.lgamma(n + 1)
        worst = max(worst, abs(math.expm1(log_s_j_n(INDICATOR, n) - lg)))
        worst = max(worst, abs(math.expm1(log_s_j_n(LINEAR, n) + lg)))
    for n in range(1, 301):
        lg = math.lgamma(n + 1)
        worst = max(worst, abs(math.expm1(big_f(1.0, 0.0, n) + lg)))
        # indicator volumes reduce to closed-form tail integrals at any n
        worst = max(worst, abs(math.expm1(log_s_j_n(INDICATOR, n) - lg)))
    report(1, worst <= 1e-9, f"worst relative anchor error {worst:.3e}")


def test_criterion_2_oracle_equivalence():
    grids = {
        1: (2000, 200, (0.01, 5.0)),
        2: (1200, 150, (0.05, 0.6)),
        3: (1200, 150, (0.04, 0.5)),
    }
    worst = 0.0
    for n, (grid_a, grid_b, a_range) in grids.items():
        brute = brute_force_lambda(n, grid_a, grid_b, a_range=a_range)
        worst = max(worst, abs(math.expm1(brute - solve_lambda(n).log_lambda)))
    report(2, worst <= 1e-4, f"worst relative oracle gap {worst:.3e}")


def test_criterion_3_factorial_lower_bound():
    low = min(solve_lambda(n).lambda_hat_minus_1 for n in range(1, 301))
    report(3, low >= 0.0, f"min of lambda_n/n! - 1 is {low:.3e}")


def test_criterion_4_excess_band_and_objective_bound():
    r_vals = [n * solve_lambda(n).lambda_hat_minus_1 for n in range(50, 301)]
    band_ok = min(r_vals) > 0.0 and max(r_vals) <= 10.0 * min(r_vals)
    bound_margin = INF
    for n in range(10, 301):
        floor = (
            math.log1p(1.0 / (3.0 * n))
            + math.log1p(-1.0 / n**2)
            + math.log1p(-math.exp(-(n + 1) / 8.0))
            + math.lgamma(n + 1)
        )
        bound_margin = min(bound_margin, big_g(0.5 / (n + 1), n) - floor)
    ok = band_ok and bound_margin > 0.0
    report(
        4,
        ok,
        f"r_n in [{min(r_vals):.4f}, {max(r_vals):.4f}], "
        f"half-shifted objective margin {bound_margin:.3e}",
    )


def test_criterion_5_maximizer_asymptotics():
    worst = 0.0
    for n in range(50, 301):
        gap = abs(n * solve_lambda(n).a_n - 1.0)
        worst = max(worst, gap - 2.0 * n ** (-1.0 / 3.0))
    seq = [abs(n * solve_lambda(n).a_n - 1.0) for n in (50, 100, 200, 300)]
    monotone = all(b <= 1.1 * a for a, b in zip(seq, seq[1:]))
    ok = worst <= 0.0 and monotone
    report(5, ok, f"bound slack {worst:.3e}, checkpoints {[f'{v:.4f}' for v in seq]}")


def test_criterion_6_stationarity_certificates():
    worst = max(
        max(abs(solve_lambda(n).residual_n1), abs(solve_lambda(n).residual_n2))
        for n in range(1, 301)
    )
    report(6, worst <= 1e-8, f"worst stationarity residual {worst:.3e}")


def test_criterion_7_property_suites():
    failed = []
    for name in SUITE_NAMES:
        rep = run_suite(name)
        if not rep.passed:
            failed.append(f"{name} ({len(rep.failures)} failures)")
    report(7, not failed, "all suites green" if not failed else "; ".join(failed))


def test_criterion_8_root_structure():
    alphas = (0.8, 0.85, 0.9)
    windows = 0
    for n in range(1, 301):
        triple = roots_of_m(n, math.lgamma(n + 1))
        probes = (
            (0.5 * triple.z1, -1),
            (0.5 * (triple.z1 + triple.z2), 1),
            (0.5 * (triple.z2 + triple.z3), -1),
            (2.0 * triple.z3, 1),
        )
        pattern = all(
            m_sign(z, n, math.lgamma(n + 1)) == want for z, want in probes
        )
        assert pattern, f"midpoint pattern broken at n={n}"
        for alpha in alphas:
            try:
                lo, hi = a_bracket(n, alpha)
            except BracketInvalid:
                continue
            windows += 1
            assert lo < triple.z1 < triple.z2 < hi, (
                f"island escapes the alpha={alpha} window at n={n}"
            )
    report(8, windows > 0, f"pattern holds on 1..300, {windows} windows contained")


def test_criterion_9_extremal_tent_ratio_is_lambda():
    # the capped tent of slope a_n / x0 up to its kink x0 has ratio lambda(n)
    # by construction, at every scale x0.  log nu - log mu comes from
    # quadrature, log lambda from two incomplete gamma values (_log_g), and
    # each log rounds within about 2 eps of the sizes of its terms.  Those are |log mu| + n for mu (n log rho and -z
    # at the integrand's peak near z = n, which cancel to log mu), the same
    # for nu, and |log lambda| + n; 1 more covers values under unit size.
    # The tolerance is twice that sum (see CHANGES.md)
    eps = sys.float_info.epsilon
    ns = list(range(1, 1001)) + [1500, 2000, 3000, 5000]
    worst = 0.0
    for n in ns:
        est = solve_lambda(n)
        for x0 in (1e-3, 1.0, 7.5, 1e3):
            pair = volume_pair(tent_profile(TentParams(est.a_n / x0, INF, x0)), n)
            size = abs(pair.log_mu) + abs(pair.log_nu) + abs(est.log_lambda) + 3 * n + 1
            tol = 4.0 * eps * size
            worst = max(worst, abs(pair.log_ratio - est.log_lambda) / tol)
    report(9, worst <= 1.0, f"worst gap {worst:.3f} of its tolerance over {4 * len(ns)} tents")

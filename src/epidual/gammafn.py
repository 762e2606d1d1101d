"""Regularized incomplete gamma functions in log domain.

Everything downstream (volume tails, the closed-form ratio of the extremal
solver, the coefficient signs) consumes gamma(s, x) and Gamma(s, x) through
the regularized pair

    p(s, x) = gamma(s, x) / Gamma(s),    q(s, x) = Gamma(s, x) / Gamma(s),

carried as log-magnitudes only, which stay accurate far into the tails
where the plain values underflow.  One side is computed directly and the
other is its complement log(1 - e^side) from logdomain.log1mexp.

The split follows the classical recipe: the lower series for x < s + 1, the
upper continued fraction (modified Lentz) otherwise; the fraction is the
scaled upper gamma Gamma(s, x) x^(-s) e^x, which measures._log_segment
takes without the prefactor.  The prefactor
x^s e^{-x} / Gamma(s+1) is evaluated via a Stirling-residual form around
x = s so that the result keeps ~1e-15 absolute accuracy even for s ~ 1000,
where naive use of lgamma loses five digits to cancellation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .logdomain import log1mexp

# Series and fraction terms stop at one unit of double precision; a smaller
# tolerance can never be met where the continued fraction's factors round
# to 1 +- ulp, and the loop then runs into _MAX_ITER.
_SERIES_EPS = sys.float_info.epsilon
_MAX_ITER = 200000
_FPMIN = 1e-300
# Bernoulli-number coefficients of the Stirling asymptotic series for ln Gamma.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
)


@dataclass(frozen=True)
class RegularizedGamma:
    """Log-magnitudes of the regularized incomplete gamma pair at (s, x).

    exp(log_p) + exp(log_q) = 1 to within rounding: whichever side the
    algorithm computes directly, the other is its log-domain complement.
    """

    log_p: float
    log_q: float


def _log1pmx(d: float) -> float:
    """log(1 + d) - d without cancellation for small d."""
    if abs(d) >= 0.2:
        return math.log1p(d) - d
    # alternating series -d^2/2 + d^3/3 - d^4/4 + ...
    total = 0.0
    power = d
    k = 1
    while True:
        k += 1
        power *= -d
        term = power / k
        total += term
        if abs(term) <= _SERIES_EPS * (abs(total) + _FPMIN) or k > 200:
            return total


def _stirling_residual(s: float) -> float:
    """lgamma(s) - [(s - 1/2) ln s - s + ln(2 pi)/2], valid for s >= 20."""
    total = 0.0
    spow = s
    s2 = s * s
    for coeff in _STIRLING_COEFFS:
        total += coeff / spow
        spow *= s2
    return total


def _log_prefactor(s: float, x: float) -> float:
    """log(x^s e^{-x} / Gamma(s+1)), accurate near x = s for large s."""
    d = (x - s) / s
    if s >= 20.0 and abs(d) <= 0.5:
        return (
            s * _log1pmx(d)
            - 0.5 * math.log(2.0 * math.pi * s)
            - _stirling_residual(s)
        )
    return s * math.log(x) - x - math.lgamma(s + 1.0)


def _lower_series(s: float, x: float) -> float:
    """log p(s, x) by the lower series; requires 0 < x < s + 1."""
    total = 1.0
    term = 1.0
    denom = s
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term <= _SERIES_EPS * total:
            break
    else:
        raise ArithmeticError(f"lower gamma series stalled at s={s}, x={x}")
    return _log_prefactor(s, x) + math.log(total)


def _log_upper_scaled(s: float, x: float) -> float:
    """log(Gamma(s, x) x^(-s) e^x) by the continued fraction; needs x >= s + 1."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _SERIES_EPS:
            break
    else:
        raise ArithmeticError(f"upper gamma fraction stalled at s={s}, x={x}")
    return math.log(h)


def _upper_cf(s: float, x: float) -> float:
    """log q(s, x) by the upper continued fraction; requires x >= s + 1."""
    # x^s e^{-x} / Gamma(s) = exp(prefactor) * s
    return _log_prefactor(s, x) + math.log(s) + _log_upper_scaled(s, x)


def reg_gamma(s: float, x: float) -> RegularizedGamma:
    """Regularized incomplete gamma pair at shape s >= 1, argument x >= 0.

    Checked against mpmath with absolute error below 1e-13 on p and q for
    s up to 1001 and x up to 1e6, and with relative error below 2e-14 on
    log_p and log_q at s = 10^4 + 1 and 10^5 + 1 for x from s/2 to 2s.
    """
    if not (s >= 1.0) or math.isnan(x) or math.isinf(s):
        raise ValueError(f"reg_gamma needs s >= 1, got s={s}")
    if not (x >= 0.0) or math.isinf(x):
        raise ValueError(f"reg_gamma needs finite x >= 0, got x={x}")
    if x == 0.0:
        return RegularizedGamma(float("-inf"), 0.0)
    if x < s + 1.0:
        log_p = _lower_series(s, x)
        return RegularizedGamma(log_p, log1mexp(log_p))
    log_q = _upper_cf(s, x)
    return RegularizedGamma(log1mexp(log_q), log_q)


def check_small_a_bound(n: int, a: float) -> bool:
    """Two-sided bound on gamma(n+1, a) for a in (0, 1].

    Checks  e^{-a} a^{n+1}/(n+1)  <=  gamma(n+1, a)  <=  a^{n+1}/(n+1)
    with all three quantities compared in log domain.
    """
    if n < 1 or not (0.0 < a <= 1.0):
        raise ValueError(f"need n >= 1 and a in (0, 1], got n={n}, a={a}")
    log_gamma = math.lgamma(n + 1.0) + reg_gamma(n + 1.0, a).log_p
    upper = (n + 1.0) * math.log(a) - math.log(n + 1.0)
    lower = upper - a
    return lower <= log_gamma <= upper


def check_tail_bound(n: int, t: float) -> bool:
    """Concentration of the Gamma(n+1) mass below n + 1 + t.

    Checks  p(n+1, n+1+t) >= 1 - exp(-t^2 / (8(n+1)))  for 0 < t < 2(n+1)
    as the equivalent  log q(n+1, n+1+t) <= -t^2 / (8(n+1)),  which needs
    no complement and holds its meaning when t^2 underflows.
    """
    if n < 1 or not (0.0 < t < 2.0 * (n + 1.0)):
        raise ValueError(f"need n >= 1 and t in (0, 2(n+1)), got n={n}, t={t}")
    return reg_gamma(n + 1.0, n + 1.0 + t).log_q <= -t * t / (8.0 * (n + 1.0))


def check_gamma_half(m: int) -> bool:
    """Checks Gamma(m+1, m) >= m!/2, i.e. q(m+1, m) >= 1/2."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    return reg_gamma(m + 1.0, float(m)).log_q >= -math.log(2.0)

"""Extremal tents and the dimensional constant of the volume-ratio bound.

The pointwise sign map m compares the two volume densities at height z,

    m(z) = e^(-1/z) z^(-(n+2)) - lambda e^(-z),

whose sign equals the sign of g(z) = z - 1/z - (n+2) log z - log lambda.
g has fixed critical points at ((n+2) -+ sqrt((n+2)^2 - 4)) / 2 independent
of lambda, so the three-root sign pattern (-,+,-,+) is detected exactly from
g at those two probes instead of by scanning.

Tents are the two-slope profiles T(a, b, x0): slope a up to radius x0, then
slope a + b (b = inf caps the body at x0).  Their volume ratio has the
closed form big_f in incomplete gamma functions; its b -> inf limit big_g
is maximized over a to produce the constant for each dimension.  At the
maximizer the first-order condition reads

    gamma(n+1, a) gamma(n+1, 1/a) = e^(-a - 1/a)

The solver finds its root directly: safeguarded Newton on the log form of
this condition, whose derivative comes in closed form from the same two
gamma values, inside the positivity island of the sign map and started
from its left end, near which the maximizer sits.  The island's ends, the
sign-map roots, come from the same safeguarded Newton on g.  Two residuals
that vanish at the true stationary point certify the result, and g >= 0 at
the maximizer certifies that it lies in the island at the solved lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .logdomain import log_add, log_sub_signed
from .measures import _check_n, _log_segment
from .profile import INF, ConvexProfile, RadiusFunction
from .gammafn import reg_gamma

_NEWTON_RTOL = 1e-15
_NEWTON_MAX_STEPS = 100
# z1 and z3 lie a few halvings and doublings outside the probes
_WIDEN_MAX_STEPS = 64
_RESIDUAL_TOL = 1e-8


class OneRootCase(Exception):
    """The sign map crosses zero once; no positivity island exists."""


class BracketFailure(Exception):
    """No maximizer bracket could be formed from the sign-map roots."""


class StationarityFailure(Exception):
    """The solved maximizer fails its first-order residual certificates."""


class BracketInvalid(Exception):
    """The requested asymptotic window does not contain the positivity island."""


class ZeroProfile(Exception):
    """The profile degenerates and no tent can be anchored to it."""


def _log_gamma_lower(s: int, x: float) -> float:
    """log of the lower incomplete gamma(s, x), unnormalized."""
    return reg_gamma(s, x).log_p + math.lgamma(s)


# ---------------------------------------------------------------------------
# the sign map and its roots


def _log_gap(z: float, n: int, log_lambda: float) -> float:
    return z - 1.0 / z - (n + 2) * math.log(z) - log_lambda


def _check_log_lambda(log_lambda: float) -> None:
    if not math.isfinite(log_lambda):
        raise ValueError(f"log lambda must be finite, got {log_lambda}")


def m_sign(z: float, n: int, log_lambda: float) -> int:
    """Sign of the density gap m at height z: -1, 0 or +1."""
    _check_n(n)
    if not z > 0.0 or math.isinf(z):
        raise ValueError(f"height must be finite > 0, got {z}")
    _check_log_lambda(log_lambda)
    g = _log_gap(z, n, log_lambda)
    if g == 0.0:
        return 0
    return 1 if g > 0.0 else -1


def _gap_probes(n: int) -> tuple[float, float]:
    """Local max and local min abscissas of the gap, roots of z^2-(n+2)z+1.

    The smaller root is taken as 1/larger: (d - sqrt(d^2 - 4)) / 2 cancels.
    """
    d = float(n + 2)
    hi = 0.5 * (d + math.sqrt(d * d - 4.0))
    return 1.0 / hi, hi


def _newton_root(f, neg: float, pos: float, a: float, fa: float, dfa: float) -> float:
    """Root of f between neg and pos by safeguarded Newton, started at a.

    f(z) returns the value and slope at z (fa and dfa at a); f(neg) < 0 <
    f(pos).  A step that leaves this sign bracket, which every evaluation
    shrinks, is replaced by bisection.  A step of at most 1e-15 relative
    ends the iteration; ArithmeticError after _NEWTON_MAX_STEPS steps.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        if fa < 0.0:
            neg = a
        else:
            pos = a
        nxt = 0.5 * (neg + pos)
        if dfa != 0.0:
            newton = a - fa / dfa
            # an exact root or a step below rounding gives a, now a bracket end
            if newton == a or min(neg, pos) < newton < max(neg, pos):
                nxt = newton
        if abs(nxt - a) <= _NEWTON_RTOL * a:
            return nxt
        a = nxt
        fa, dfa = f(a)
    raise ArithmeticError(
        f"Newton iteration did not settle in {_NEWTON_MAX_STEPS} steps near {a}"
    )


def _widen(f, z: float, factor: float, sign: float) -> tuple[float, float, float]:
    """First z * factor^k, k >= 1, where f has the given sign, with f there.

    Returns the point, the value and the slope; ArithmeticError once
    _WIDEN_MAX_STEPS steps run out.
    """
    for _ in range(_WIDEN_MAX_STEPS):
        z *= factor
        value, slope = f(z)
        if sign * value > 0.0:
            return z, value, slope
    raise ArithmeticError(
        f"no sign change in {_WIDEN_MAX_STEPS} steps by {factor}, at z={z}"
    )


@dataclass(frozen=True)
class RootTriple:
    """The three roots of the sign map for a given lambda and order.

    Construction re-samples the sign at the midpoint of each of the four
    intervals the roots cut out and demands the (-,+,-,+) pattern, so a
    triple that exists is always a genuine sign-change triple.
    """

    z1: float
    z2: float
    z3: float
    lambda_log: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.z1 < self.z2 < self.z3:
            raise ValueError(
                f"roots must be positive increasing: {self.z1}, {self.z2}, {self.z3}"
            )
        checks = (
            (0.5 * self.z1, -1),
            (0.5 * (self.z1 + self.z2), 1),
            (0.5 * (self.z2 + self.z3), -1),
            (2.0 * self.z3, 1),
        )
        for z, want in checks:
            if m_sign(z, self.n, self.lambda_log) != want:
                raise ValueError(
                    f"sign pattern broke between roots at z={z} (n={self.n})"
                )


def roots_of_m(n: int, log_lambda: float) -> RootTriple:
    """Locate all three roots of the sign map, or raise OneRootCase.

    The gap rises from -inf to a local max, dips to a local min, then grows
    linearly; three roots exist exactly when the local max is positive and
    the local min negative.  Each root is found by safeguarded Newton on
    the gap, whose slope is 1 + 1/z^2 - (n+2)/z, to about 1e-15 relative.
    A non-finite log_lambda raises ValueError.
    """
    _check_n(n)
    _check_log_lambda(log_lambda)
    z_lo, z_hi = _gap_probes(n)

    def g(z: float) -> tuple[float, float]:
        return _log_gap(z, n, log_lambda), 1.0 + 1.0 / (z * z) - (n + 2) / z

    if g(z_lo)[0] <= 0.0 or g(z_hi)[0] >= 0.0:
        raise OneRootCase(
            f"sign map has a single root at n={n}, log_lambda={log_lambda}"
        )
    left = _widen(g, z_lo, 0.5, -1.0)
    z1 = _newton_root(g, left[0], z_lo, *left)
    # The gap's third derivative in log z is positive, so z1's mirror image
    # about the local max z_lo falls short of z2: a start on z2's side.
    mirror = z_lo * z_lo / z1
    z2 = _newton_root(g, z_hi, z_lo, mirror, *g(mirror))
    right = _widen(g, z_hi, 2.0, 1.0)
    z3 = _newton_root(g, z_hi, right[0], *right)
    return RootTriple(z1, z2, z3, log_lambda, n)


# ---------------------------------------------------------------------------
# tents


@dataclass(frozen=True)
class TentParams:
    """Two-slope tent: slope a to radius x0, slope a + b after (inf caps)."""

    a: float
    b: float
    x0: float

    def __post_init__(self) -> None:
        if not (self.a >= 0.0 and math.isfinite(self.a)):
            raise ValueError(f"tent slope a must be finite >= 0, got {self.a}")
        if math.isnan(self.b) or self.b < 0.0:
            raise ValueError(f"tent increment b must be in [0, inf], got {self.b}")
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise ValueError(f"tent kink x0 must be finite > 0, got {self.x0}")


def tent_profile(t: TentParams) -> ConvexProfile:
    pts = ((0.0, 0.0), (t.x0, t.a * t.x0))
    tail = INF if math.isinf(t.b) else t.a + t.b
    return ConvexProfile(pts, tail)


def t_map(rho: RadiusFunction, roots: RootTriple) -> TentParams:
    """Tent matching rho at the sign-map roots.

    The first slope is anchored through (z1, rho(z1)); the second segment
    passes through the points at z2 and z3.  Equal radii there mean the body
    is capped (b = inf); a second slope indistinguishable from the first
    collapses to the linear tent b = 0.
    """
    if rho.is_infinite:
        raise ZeroProfile("tent undefined for the everywhere-infinite radius")
    x1 = rho.evaluate(roots.z1)
    x2 = rho.evaluate(roots.z2)
    x3 = rho.evaluate(roots.z3)
    if x1 <= 0.0:
        raise ZeroProfile(f"radius vanishes at the first root z1={roots.z1}")
    a = roots.z1 / x1
    if x3 == x2:
        return TentParams(a, INF, x2)
    slope = (roots.z3 - roots.z2) / (x3 - x2)
    if slope - a <= 1e-12 * max(1.0, a):
        return TentParams(a, 0.0, x1)
    b = slope - a
    x0 = ((a + b) * x2 - roots.z2) / b
    return TentParams(a, b, x0)


# ---------------------------------------------------------------------------
# closed-form volume ratios of tents


def big_f(a: float, b: float, n: int) -> float:
    """log of the volume ratio of the tent with slopes (a, a+b) and kink 1.

    F = nu/mu, each two linear pieces in closed form (_log_segment): the
    radius rises with slope 1/a to (a, 1), then with slope 1/(a+b); its J
    image rises with slope b/(a+b) from 1/(a+b) to (1/a, 1/a), then stays
    flat.  A kink at x0 rescales into this form: the ratio of T(a, b, x0)
    is F(a*x0, b*x0, n).
    """
    _check_n(n)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"tent slope a must be finite > 0, got {a}")
    if math.isnan(b) or b < 0.0:
        raise ValueError(f"tent increment b must be in [0, inf], got {b}")
    if math.isinf(b):
        return big_g(a, n)
    if b == 0.0:
        return -math.lgamma(n + 1)
    log_mu = log_add(
        _log_segment(n, 1.0 / a, 0.0, 0.0, a),
        _log_segment(n, 1.0 / (a + b), a, 1.0, INF),
    )
    log_nu = log_add(
        _log_segment(n, b / (a + b), 0.0, 1.0 / (a + b), 1.0 / a),
        _log_segment(n, 0.0, 1.0 / a, 1.0 / a, INF),
    )
    return log_nu - log_mu


def big_g(a: float, n: int) -> float:
    """log of the capped-tent ratio G(a, n), the b -> inf limit of big_f.

    G = (e^(-1/a) + a^n gamma(n+1, 1/a)) / (gamma(n+1, a) + a^n e^(-a)).
    The numerator uses the identity
    integral_a^inf e^(-1/z) z^(-(n+2)) dz = gamma(n+1, 1/a).
    """
    _check_n(n)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"tent slope a must be finite > 0, got {a}")
    return _log_g(a, n, _log_gamma_lower(n + 1, a), _log_gamma_lower(n + 1, 1.0 / a))


def _log_g(a: float, n: int, log_lower: float, log_lower_inv: float) -> float:
    """log G(a, n) from the unnormalized log gamma(n+1, a) and log gamma(n+1, 1/a)."""
    la = math.log(a)
    num = log_add(-1.0 / a, n * la + log_lower_inv)
    den = log_add(log_lower, n * la - a)
    return num - den


def _gap_and_slope(a: float, n: int) -> tuple[float, float]:
    """The stationarity gap h(a) and its derivative, from two gamma values.

    h(a) = (-1/a - a) - log gamma(n+1, a) - log gamma(n+1, 1/a) is negative
    where G increases and zero at its critical points.  With
    d/da log gamma(n+1, a) = a^n e^(-a) / gamma(n+1, a),

        h'(a) = 1/a^2 - 1 - a^n e^(-a) / gamma(n+1, a)
                + a^(-n-2) e^(-1/a) / gamma(n+1, 1/a).
    """
    inv = 1.0 / a
    la = math.log(a)
    log_lower = _log_gamma_lower(n + 1, a)
    log_lower_inv = _log_gamma_lower(n + 1, inv)
    gap = -inv - a - log_lower - log_lower_inv
    slope = (
        inv * inv
        - 1.0
        - math.exp(n * la - a - log_lower)
        + math.exp(-(n + 2) * la - inv - log_lower_inv)
    )
    return gap, slope


# ---------------------------------------------------------------------------
# solving for the dimensional constant


@dataclass(frozen=True)
class LambdaEstimate:
    """Solved dimensional constant with its maximizer and certificates.

    bracket is the positivity island of the sign map at lambda = n!, the
    interval the maximizer was searched in.  residual_n1 and residual_n2
    are the relative errors of the two first-order identities
    lambda = e^(-1/a) / gamma(n+1, a) and lambda = e^a gamma(n+1, 1/a).
    lambda_hat_minus_1 is lambda/n! - 1 computed through the regularized
    gamma so no large-factorial cancellation occurs.  multiple_local_maxima
    reports whether G peaks more than once on a 65-point scan of bracket;
    the solve does not need it, so it is computed on first read.
    """

    n: int
    log_lambda: float
    a_n: float
    bracket: tuple[float, float]
    residual_n1: float
    residual_n2: float
    lambda_hat_minus_1: float

    @cached_property
    def multiple_local_maxima(self) -> bool:
        lo, hi = self.bracket
        vals = [big_g(lo + (hi - lo) * i / 64.0, self.n) for i in range(65)]
        peaks = sum(
            1
            for i in range(1, 64)
            if vals[i - 1] < vals[i] >= vals[i + 1]
        )
        return peaks > 1


def _newton_stationary(n: int, lo: float, hi: float) -> float:
    """Root of the stationarity gap in [lo, hi] by safeguarded Newton.

    The sign bracket h(lo) < 0 < h(hi) is checked first; the iteration
    starts at lo, near the maximizer, from the gap and slope found there.
    """
    gap, slope = _gap_and_slope(lo, n)
    if not gap < 0.0 < _gap_and_slope(hi, n)[0]:
        raise BracketFailure(
            f"stationarity gap does not change sign on [{lo}, {hi}] at n={n}"
        )
    try:
        return _newton_root(lambda a: _gap_and_slope(a, n), lo, hi, lo, gap, slope)
    except ArithmeticError as exc:
        raise StationarityFailure(f"{exc} at n={n}") from exc


@lru_cache(maxsize=None)
def solve_lambda(n: int) -> LambdaEstimate:
    """Maximize the capped-tent ratio G over a for dimension n.

    The positivity island of the sign map at lambda = n! brackets the
    maximizer.  Safeguarded Newton on the stationarity gap h finds the
    root of G's first-order condition there and the two first-order
    residuals certify it (1e-8, or 4 ulps of log lambda if that is
    larger).  The maximizer must also lie in the island at the solved
    lambda, which one sign of the gap g decides: Newton keeps it in the
    seed island left of g's local min, and there g >= 0 exactly on the
    solved lambda's island.
    """
    _check_n(n)
    log_factorial = math.lgamma(n + 1)
    try:
        seed = roots_of_m(n, log_factorial)
    except OneRootCase as exc:
        raise BracketFailure(
            f"no positivity island at lambda = n! for n={n}"
        ) from exc
    lo, hi = seed.z1, seed.z2
    a_n = _newton_stationary(n, lo, hi)
    log_lower = _log_gamma_lower(n + 1, a_n)
    log_p_inv = reg_gamma(n + 1, 1.0 / a_n).log_p
    log_lower_inv = log_p_inv + math.lgamma(n + 1)
    log_lambda = _log_g(a_n, n, log_lower, log_lower_inv)
    residual_n1 = math.expm1(-1.0 / a_n - log_lower - log_lambda)
    residual_n2 = math.expm1(a_n + log_lower_inv - log_lambda)
    # each residual's exponent cancels terms of size |log lambda|, so it
    # cannot resolve less than a few of their ulps (6e-8 each at n = 3e7)
    tol = max(_RESIDUAL_TOL, 4.0 * math.ulp(log_lambda))
    if max(abs(residual_n1), abs(residual_n2)) > tol:
        raise StationarityFailure(
            f"stationarity residuals {residual_n1:.3e}, {residual_n2:.3e} "
            f"exceed {tol:.3e} at n={n}"
        )
    if _log_gap(a_n, n, log_lambda) < 0.0:
        raise BracketFailure(
            f"maximizer a={a_n} escaped the positivity island at n={n}"
        )
    return LambdaEstimate(
        n=n,
        log_lambda=log_lambda,
        a_n=a_n,
        bracket=(lo, hi),
        residual_n1=residual_n1,
        residual_n2=residual_n2,
        lambda_hat_minus_1=math.expm1(a_n + log_p_inv),
    )


def a_bracket(n: int, alpha: float) -> tuple[float, float]:
    """Window [1/(n + n^alpha), 1/(n - n^alpha)] around the maximizer.

    Validated against the sign map at lambda = n!: negative at both ends,
    positive at 1/n.  The factorial map dominates the map at any larger
    lambda, so the window then contains the positivity island for every
    lambda the solver works with.  The claim is asymptotic in n, and the
    threshold grows sharply as alpha drops toward 1/2 (for alpha = 2/3 it
    sits beyond n = 2000); BracketInvalid reports a failed check.
    """
    _check_n(n)
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")
    shift = float(n) ** alpha
    if shift >= n:
        raise BracketInvalid(f"n^alpha = {shift} >= n leaves no upper endpoint")
    lo = 1.0 / (n + shift)
    hi = 1.0 / (n - shift)
    log_factorial = math.lgamma(n + 1)
    signs = tuple(m_sign(z, n, log_factorial) for z in (lo, 1.0 / n, hi))
    if signs != (-1, 1, -1):
        raise BracketInvalid(
            f"window misses the island at n={n}, alpha={alpha}: signs {signs}"
        )
    return lo, hi


def ck_coefficients(
    n: int, a: float, log_lambda: float
) -> list[tuple[int, float]]:
    """Signed logs of c_k = C(n-1,k) [gamma(k+1, 1/a) - lambda Gamma(n-k+1, a)]."""
    _check_n(n)
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"slope a must be finite > 0, got {a}")
    out = []
    for k in range(n):
        lbinom = (
            math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
        )
        pos = lbinom + _log_gamma_lower(k + 1, 1.0 / a)
        upper = reg_gamma(n - k + 1, a).log_q + math.lgamma(n - k + 1)
        neg = lbinom + log_lambda + upper
        out.append(log_sub_signed(pos, neg))
    return out

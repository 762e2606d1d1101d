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
this condition, inside the positivity island of the sign map.  It starts
from a seed that needs no gamma value: the root of a lower bound on the
gap in closed form, which lies right of the maximizer, so the seed's own
evaluation is the bracket's right end.  The left end's sign comes from an
upper bound in closed form, past its rounding allowance; only where that
does not decide it is the gap evaluated there.  The form's first and second
derivatives come in closed form from the same two gamma values, so the
evaluation's step slope is Halley's at the cost of Newton's.  A step's
gamma values come from the last point's by two small integrals of t^n
e^-t, one 2-point Gauss-Legendre panel each, where their error stays
within the gap's rounding bound, and from reg_gamma elsewhere.  The gap of
the log form reads exactly 0.0 once it is within that bound, 10 eps times
the size of its terms (_gap_and_slope), so the iteration (_newton_root,
which returns the evaluation it ended on) stops on a point it has
evaluated; lambda and the certificates come from that evaluation's gamma
values, and a bracket end whose gap is within the bound raises
ArithmeticError.  From n = 11 a cold solve calls reg_gamma twice, at the
seed, and from about n = 8e4 the seed's gap reads 0.0.  The island's ends,
the first two sign-map roots, come from the same Newton on g, seeded in
log z, with 0 as z1's negative end.  Two residuals that vanish at the true
stationary point certify the result to twice the gap's bound, and g >= 0
at the maximizer certifies that it lies in the island at the solved
lambda.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .logdomain import log_add, log_sub_signed
from .measures import _check_log_lambda, _check_n, _log_segment
from .profile import INF, ConvexProfile, RadiusFunction
from .gammafn import reg_gamma

_NEWTON_RTOL = 1e-15
_NEWTON_MAX_STEPS = 100
# z3 lies a few doublings outside its probe
_WIDEN_MAX_STEPS = 64
# the stationarity seed's Newton stops at this relative step, in at most 6
# steps for every n up to 1e9
_SEED_RTOL = 1e-9
_SEED_MAX_STEPS = 16
# rounding bound of the stationarity gap, in eps times its terms' size
_GAP_ROUNDING = 10.0 * sys.float_info.epsilon
# the share of that bound the gap's two gamma logs may take (_gap_and_slope)
_GAMMA_ROUNDING = 6.0 * sys.float_info.epsilon
# the 2-point Gauss-Legendre rule on [-1, 1]: nodes -+1/sqrt 3, weights 1
_GL2_NODE = 3.0**-0.5
# rounding bound of the residual exponents at a root, in gap bounds
_RESIDUAL_ROUNDING = 2.0


class OneRootCase(ArithmeticError):
    """The sign map crosses zero once; no positivity island exists."""


class BracketFailure(ArithmeticError):
    """No maximizer bracket could be formed from the sign-map roots."""


class StationarityFailure(ArithmeticError):
    """The solved maximizer fails its first-order residual certificates."""


class BracketInvalid(ValueError):
    """The requested asymptotic window does not contain the positivity island."""


class ZeroProfile(ValueError):
    """The profile degenerates and no tent can be anchored to it."""


# ---------------------------------------------------------------------------
# the sign map and its roots


def _log_gap(z: float, n: int, log_lambda: float) -> float:
    return z - 1.0 / z - (n + 2) * math.log(z) - log_lambda


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


def _newton_root(f, neg: float, pos: float, a: float, last):
    """Root of f between neg and pos by safeguarded Newton, started at a.

    f(z, last) evaluates at z, handed the last evaluation (last is a's),
    whose first two items are the value and slope; f(neg) < 0 < f(pos).  A
    step that leaves this sign bracket, which every evaluation shrinks, is
    replaced by bisection.  A point where f is exactly 0.0 is returned, and
    a step of at most 1e-15 relative ends the iteration too, with the last
    evaluation; ArithmeticError after _NEWTON_MAX_STEPS steps.
    """
    for _ in range(_NEWTON_MAX_STEPS):
        fa, dfa = last[0], last[1]
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
            return nxt, last
        a = nxt
        last = f(a, last)
    raise ArithmeticError(
        f"Newton iteration did not settle in {_NEWTON_MAX_STEPS} steps near {a}"
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


def _sign_gap(n: int, log_lambda: float):
    """The gap g at (n, lambda) and its slope at z, as _newton_root calls it."""

    def g(z: float, last) -> tuple[float, float]:
        return _log_gap(z, n, log_lambda), 1.0 + 1.0 / (z * z) - (n + 2) / z

    return g


def _island(n: int, log_lambda: float) -> tuple[float, float]:
    """The positivity island (z1, z2) of the sign map, or raise OneRootCase.

    The gap rises from -inf to a local max, dips to a local min, then grows
    linearly; three roots exist exactly when the local max is positive and
    the local min negative.  The island is the stretch between the first
    two.  Each root is found by safeguarded Newton on the gap, whose slope
    is 1 + 1/z^2 - (n+2)/z, until a step is under 1e-15 relative; at lambda
    = n! the roots lie within 7.7e-15 of the exact ones for n <= 1000, the
    gap's rounding over its slope, which falls as the island narrows (1.4e-11
    at n = 1.3e9).  A non-finite log_lambda raises ValueError.

    The solves start from seeds found in t = log(z/z_lo) with no sign-map
    evaluation: as z_lo + 1/z_lo = n + 2, the gap there is G(t) = g_lo +
    z_lo (e^t - 1 - t) - (e^-t - 1 + t)/z_lo, near g_lo - t^2/(2 z_lo), so
    with c = g_lo z_lo two Newton steps in t start from sqrt(2c) for z2 and
    from -log(1 + c + sqrt(2c)) for z1 (-sqrt(2c) to second order, and near
    the root where e^-t dominates).  G is concave for z < 1, so after a
    step the iterate lies left of z1, where the gap is negative; z1's Newton
    takes 0 (g -> -inf as z -> 0+) as its negative end, so a seed that
    rounding reads otherwise closes the bracket on the right (at n = 5, log
    lambda = 6.75 its gap reads 0.0, and it is z1).  z2's seed must only
    lie between the probes, else their midpoint stands in.  At lambda = n!
    an island takes 8.32 sign-map evaluations on average over n = 1..1000,
    the probes included.

    At a probe the gap ((z - 1/z) - (n+2) log z) - log lambda cancels terms
    of size D = (n+2)|log z| to O(log n).  To first order in u = eps/2, with
    math.log within an ulp, its rounding error is at most u/z (1/z), u(z +
    1/z) (first subtraction), 4u D (log, n+2 to float, product), u(z + 1/z
    + D) and u(z + 1/z + D + |log lambda|) (last two subtractions): in all
    u(3z + 4/z + 6D + |log lambda|) < eps (2z + 2/z + 3D + |log lambda|).
    A probe gap not above that bound decides nothing and raises
    ArithmeticError; at lambda = n! that happens from about n = 1.6e15.
    """
    _check_n(n)
    _check_log_lambda(log_lambda)
    z_lo, z_hi = _gap_probes(n)
    g = _sign_gap(n, log_lambda)
    g_lo, g_hi = _log_gap(z_lo, n, log_lambda), _log_gap(z_hi, n, log_lambda)
    for z, gap in ((z_lo, g_lo), (z_hi, g_hi)):
        d = (n + 2) * abs(math.log(z))
        bound = sys.float_info.epsilon * (2.0 * z + 2.0 / z + 3.0 * d + abs(log_lambda))
        if abs(gap) <= bound:
            raise ArithmeticError(
                f"sign-map gap {gap:.3g} at z={z} is within its rounding bound "
                f"{bound:.3g} (n={n})"
            )
    if g_lo <= 0.0 or g_hi >= 0.0:
        raise OneRootCase(
            f"sign map has a single root at n={n}, log_lambda={log_lambda}"
        )

    def seed(t: float) -> float:
        for _ in range(2):
            up, down = math.expm1(t), math.expm1(-t)
            value = g_lo + z_lo * (up - t) - (down + t) / z_lo
            t -= value / (z_lo * up + down / z_lo)
        return z_lo * math.exp(t)

    c = g_lo * z_lo
    r = math.sqrt(2.0 * c)
    z = seed(-math.log1p(c + r))
    z1, _ = _newton_root(g, 0.0, z_lo, z, g(z, None))
    z = seed(r)
    if not z_lo < z < z_hi:
        z = 0.5 * (z_lo + z_hi)
    z2, _ = _newton_root(g, z_hi, z_lo, z, g(z, None))
    return z1, z2


def roots_of_m(n: int, log_lambda: float) -> RootTriple:
    """Locate all three roots of the sign map, or raise OneRootCase.

    z1 and z2 bound the positivity island (_island, which also documents
    the refusals).  Past the local min z_hi the gap grows about linearly,
    so z3 is bracketed by the first doubling of z_hi where the gap is
    positive (ArithmeticError after _WIDEN_MAX_STEPS doublings), and found
    from that end by the same safeguarded Newton on the gap.
    """
    z1, z2 = _island(n, log_lambda)
    g = _sign_gap(n, log_lambda)
    z = z_hi = _gap_probes(n)[1]
    for _ in range(_WIDEN_MAX_STEPS):
        z *= 2.0
        right = g(z, None)
        if right[0] > 0.0:
            break
    else:
        raise ArithmeticError(
            f"no sign change in {_WIDEN_MAX_STEPS} doublings, at z={z}"
        )
    z3, _ = _newton_root(g, z_hi, z, z, right)
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
    log_factorial = math.lgamma(n + 1)
    log_lower = reg_gamma(n + 1, a).log_p + log_factorial
    log_lower_inv = reg_gamma(n + 1, 1.0 / a).log_p + log_factorial
    return _log_g(a, n, log_lower, log_lower_inv)


def _log_g(a: float, n: int, log_lower: float, log_lower_inv: float) -> float:
    """log G(a, n) from the unnormalized log gamma(n+1, a) and log gamma(n+1, 1/a)."""
    la = math.log(a)
    num = log_add(-1.0 / a, n * la + log_lower_inv)
    den = log_add(log_lower, n * la - a)
    return num - den


class _Gap(NamedTuple):
    """The stationarity gap at one point, with the gamma values behind it.

    slope is the step slope; log_p and log_p_inv are log p(n+1, a) and log
    p(n+1, 1/a), and error bounds how far they are off together
    (_gap_and_slope).
    """

    value: float
    slope: float
    bound: float
    log_p: float
    log_p_inv: float
    a: float
    error: float


def _gap_and_slope(a: float, n: int, prev: _Gap | None = None) -> _Gap:
    """The stationarity gap h(a), its step slope and its rounding bound.

    h(a) = (-1/a - a) - log gamma(n+1, a) - log gamma(n+1, 1/a) is negative
    where G increases and zero at its critical points.  With
    d/da log gamma(n+1, a) = a^n e^(-a) / gamma(n+1, a) and the two ratios
    r1 = a^n e^(-a) / gamma(n+1, a), r2 = a^(-n-2) e^(-1/a) / gamma(n+1, 1/a),

        h'(a) = 1/a^2 - 1 - r1 + r2,
        h''(a) = -2/a^3 - r1 (n/a - 1 - r1) + r2 (1/a^2 - (n+2)/a + r2),

    as r1' = r1 (n/a - 1 - r1) and r2' = r2 (1/a^2 - (n+2)/a + r2): both
    derivatives come from the same two gamma values as h.  The step slope
    is h' - h h''/(2h'), so that a Newton step with it is a Halley step, or
    plain h' where that would be zero or of the other sign.

    The gap is summed as ((-1/a - a) - (P + L)) - (Q + L) from P = log
    p(n+1, a), Q = log p(n+1, 1/a) and L = lgamma(n+1).  Let S = 1/a + a +
    |P| + |Q| + 2L.  To first order in u = eps/2 the sum rounds by at most
    u(4/a + 3a + 3|P| + 2|Q| + 5L) < 2 eps S, and L, taken twice within 2
    ulps, adds 2 eps S.  That leaves P and Q together 6 eps S of the bound
    10 eps S, and the field error bounds how far they are off.

    Without prev, or where the step from it is too wide, P and Q come from
    reg_gamma, whose log p at (s, x) is within 3 eps T(s, x), T = s|log x|
    + x + lgamma(s+1).  T(n+1, a) + T(n+1, 1/a) = 2(n+1)|log a| + a + 1/a +
    2 lgamma(n+2) <= 2|P| + a + 1/a < 2S, as the lower series (at most e^a)
    gives |P| >= (n+1)|log a| + lgamma(n+2) for a <= 1, all of the island;
    so error = 3 eps (2|P| + a + 1/a) is at most 6 eps S.  Given prev, the
    evaluation at the previous point, P and Q move by one increment each
    from prev's (_gamma_increment), which adds to prev's error; they are
    taken where the sum stays within 6 eps S, and from reg_gamma elsewhere.

    A gap within the bound 10 eps S could be a rounded root and is reported
    as exactly 0.0, which ends _newton_root on this point.
    """
    inv = 1.0 / a
    la = math.log(a)
    log_factorial = math.lgamma(n + 1)
    moved = None if prev is None else _gamma_increment(a, n, prev, la, log_factorial)
    # the stepped values where the step allows and their error is within
    # its share, reg_gamma's otherwise
    for fresh in (moved is None, True):
        if fresh:
            log_p = reg_gamma(n + 1, a).log_p
            log_p_inv = reg_gamma(n + 1, inv).log_p
            error = 3.0 * sys.float_info.epsilon * (2.0 * abs(log_p) + a + inv)
        else:
            log_p, log_p_inv, error = moved
        size = inv + a + abs(log_p) + abs(log_p_inv) + 2.0 * log_factorial
        if fresh or error <= _GAMMA_ROUNDING * size:
            break
    log_lower = log_p + log_factorial
    log_lower_inv = log_p_inv + log_factorial
    gap = -inv - a - log_lower - log_lower_inv
    bound = _GAP_ROUNDING * size
    r1 = math.exp(n * la - a - log_lower)
    r2 = math.exp(-(n + 2) * la - inv - log_lower_inv)
    slope = inv * inv - 1.0 - r1 + r2
    curvature = (
        -2.0 * inv * inv * inv
        - r1 * (n * inv - 1.0 - r1)
        + r2 * (inv * inv - (n + 2) * inv + r2)
    )
    if abs(gap) <= bound:
        gap = 0.0
    elif slope != 0.0:
        halley = slope - gap * curvature / (2.0 * slope)
        if halley * slope > 0.0:
            slope = halley
    return _Gap(gap, slope, bound, log_p, log_p_inv, a, error)


def _gamma_increment(
    a: float, n: int, prev: _Gap, la: float, log_factorial: float
) -> tuple[float, float, float] | None:
    """log p(n+1, a), log p(n+1, 1/a) and their error, stepped from prev's.

    Each of the two moves from its value log p0 at x0 (prev.a, 1/prev.a)
    to x1 (a, 1/a) as log p(n+1, x1) = log p0 + log1p(rho), with rho =
    I / (n! p0) and I = integral_x0^x1 t^n e^-t dt, signed.  I is one
    2-point Gauss-Legendre panel, weight w/2 at each node mid -+ w/(2
    sqrt 3), w = x1 - x0.  As in measures._log_segment's narrow panel, the
    integrand's k-th derivative is at most (1 + n/x_min)^k times its
    largest value, which is at most e^c times its smallest, c = |w| (1 +
    n/x_min) and x_min the panel's smaller end.  The rule is exact to
    degree 3 and misses by |w|^5/4320 times the 4th derivative: relative
    to I, by at most c^4 e^c/4320, and for c <= 1 the log of the rule's
    value is within 6.3e-4 c^4 of log I.  A wider step returns None.

    Rounding, to first order in u = eps/2 with log, exp and log1p within an
    ulp.  c <= 1 puts x1 within a factor 2 of x0, so w is exact.  Each node
    is off by at most 4u x_max, which moves the integrand by at most 4u (1
    + n/x_min) x_max <= 4 eps (n + x_max) relative, as x_max <= 2 x_min.
    The exponent n log t - t - (log p0 + L), L = lgamma(n+1) within 2 ulps,
    rounds by at most 2.5 eps (n |log t| + t + |log p0| + 2L) <= 2.5 eps V,
    V = n |log a| + c + x_max + |log p0| + 2L (n |log t| <= n |log x1| + c,
    and |log x1| is |log a| to within u); prev.error e0, which bounds each
    log p0's error, moves it by e0; exp, the sum and the product add 2 eps.
    So the computed rho is within a factor e^(+-eta) of the exact one,

        eta = 6.3e-4 c^4 + e0 + eps (2.5 V + 4 (n + x_max) + 2).

    With r = |rho| and q = r e^eta < 1, the exact rho lies within r
    expm1(eta) of the computed one, and log1p's slope between them is at
    most 1/(1 - q); log1p and the sum add eps |log1p(rho)| and u |log p1|.
    The step adds r expm1(eta)/(1 - q) + eps |log1p(rho)| + u |log p1| to
    e0, and it returns None where q >= 1; _gap_and_slope checks the error
    of the two together against its share, 6 eps S.
    """
    eps = sys.float_info.epsilon
    e0 = error = prev.error
    out = []
    for x0, x1, log_p0 in (
        (prev.a, a, prev.log_p), (1.0 / prev.a, 1.0 / a, prev.log_p_inv)
    ):
        half = 0.5 * (x1 - x0)
        x_min, x_max = (x0, x1) if x0 < x1 else (x1, x0)
        c = 2.0 * abs(half) * (1.0 + n / x_min)
        if not c <= 1.0:
            return None
        mid = 0.5 * (x0 + x1)
        shift = log_p0 + log_factorial
        offset = half * _GL2_NODE
        left, right = mid - offset, mid + offset
        rho = half * (
            math.exp(n * math.log(left) - left - shift)
            + math.exp(n * math.log(right) - right - shift)
        )
        spread = n * abs(la) + c + x_max + abs(log_p0) + 2.0 * log_factorial
        eta = 6.3e-4 * c**4 + e0 + eps * (2.5 * spread + 4.0 * (n + x_max) + 2.0)
        r = abs(rho)
        q = r * math.exp(eta)
        if not q < 1.0:
            return None
        step = math.log1p(rho)
        log_p1 = log_p0 + step
        error += r * math.expm1(eta) / (1.0 - q) + eps * (abs(step) + 0.5 * abs(log_p1))
        out.append(log_p1)
    log_p, log_p_inv = out
    return log_p, log_p_inv, error


def _gap_lower_bound(a: float, n: int) -> float:
    """A lower bound on the stationarity gap h(a) in closed form, for a < n + 2.

    gamma(n+1, 1/a) <= n! bounds one log from below.  The lower series
    gamma(n+1, a) = a^(n+1) e^(-a)/(n+1) (1 + a/(n+2) + ...), whose term
    ratios a/(n+2+k) are at most a/(n+2), is at most its geometric majorant
    a^(n+1) e^(-a)/(n+1) / (1 - a/(n+2)).  So

        h(a) >= L(a) = -1/a - (n+1) log a + log(n+1) - lgamma(n+1)
                       + log(1 - a/(n+2)),

    and what L drops is -log p(n+1, 1/a) >= 0 and O(a^2/n^2) of the series.
    Its root, where h >= 0, is the solve's seed (_stationary_seed).  The
    value is returned as computed, within about 2.5 eps times its
    cancelling terms of the exact L (as C in _gap_upper_bound): the seed
    needs no more.
    """
    return (
        -1.0 / a
        - (n + 1) * math.log(a)
        + math.log(n + 1)
        - math.lgamma(n + 1)
        + math.log1p(-a / (n + 2))
    )


def _gap_upper_bound(a: float, n: int) -> float:
    """An upper bound on the stationarity gap h(a) in closed form, past rounding.

    With s = n + 1 and x = 1/a > n = s - 1, the first term of the lower
    series gives gamma(s, a) >= a^s e^(-a)/s.  Gamma(s, x) = x^(s-1) e^(-x)
    int_0^inf (1 + t/x)^(s-1) e^(-t) dt, and (1 + t/x)^(s-1) <= e^((s-1)t/x),
    so Gamma(s, x) <= x^s e^(-x)/(x - n) and gamma(s, x) >= Gamma(s)(1 -
    Q), Q = x^s e^(-x) / (Gamma(s) (x - n)).  So while Q < 1

        h(a) <= U(a) = C + log(n+1) - log(1 - Q),
        C = -x - (n+1) log a - lgamma(n+1),   log Q = C - log(x - n),

    which needs no reg_gamma.  x > n holds on all of [lo, a_n], as 1/a_n >
    n + 1, and there Q approximates q(s, x), O(1/n).  At the island's left
    end U is -1.09, -0.342, -0.136 and -2.1e-4 at n = 1, 100, 1000 and
    10^9, allowance included, against h = -1.15, -0.342, -0.136 and
    -2.4e-4.

    Its rounding allowance.  To first order in u = eps/2, with math.log,
    math.exp and math.log1p within an ulp and lgamma(n+1) within 2: x
    rounds by u x, (n+1) log a by 3u (n+1)|log a| and lgamma(n+1) by 4u of
    itself, so with T = x + (n+1)|log a| + lgamma(n+1) the two sums of C
    leave it within 5u T.  x - n rounds by u(x + (x - n)), so its log by
    u(1 + x/(x - n)) + 2u|log(x - n)|, and log Q = C - log(x - n) by at
    most u(6T + 1 + x/(x - n) + 3|log(x - n)|); Q, after exp, by that plus
    2u relative.  With Q <= 1/2, log(1 - Q) moves by at most 2Q times Q's
    relative error plus 2u|log(1 - Q)| <= 4u Q.  log(n+1) adds 2u log(n+1),
    and the three sums that form U + A, each at most T + log(n+1) + 2Q
    (|C| <= T), add 3u of that.  In all
    eps (4T + 3 log(n+1) + Q (6T + x/(x - n) + 3|log(x - n)| + 7)) =: A
    covers it, and U + A is returned.  Where x <= n or the computed Q
    exceeds 1/2 the bound decides nothing, and +inf is returned.
    """
    x = 1.0 / a
    room = x - n
    if not room > 0.0:
        return math.inf
    log_a = math.log(a)
    log_factorial = math.lgamma(n + 1)
    core = -x - (n + 1) * log_a - log_factorial
    log_room = math.log(room)
    q = math.exp(core - log_room)
    if not q <= 0.5:
        return math.inf
    log_n1 = math.log(n + 1)
    size = x + (n + 1) * abs(log_a) + log_factorial
    allowance = sys.float_info.epsilon * (
        4.0 * size
        + 3.0 * log_n1
        + q * (6.0 * size + x / room + 3.0 * abs(log_room) + 7.0)
    )
    return core + log_n1 - math.log1p(-q) + allowance


def _stationary_seed(n: int, lo: float) -> float:
    """The root of _gap_lower_bound's L right of lo: the solve's first point.

    Newton from lo on L, whose slope is 1/a^2 - (n+1)/a - 1/(n+2-a).  L is
    concave for a < 2/(n+1) and L(lo) <= h(lo) < 0, so the iterates rise
    toward the root and never pass it, and a Newton step within 1e-9
    relative ends them: 3.4 steps on average and 6 at most over n =
    1..1000 and log-spaced n up to 1e9, with no reg_gamma call.  Should
    rounding stall them, the last iterate, left of the root, is the seed
    after _SEED_MAX_STEPS steps.

    h >= L puts the root right of the maximizer a_n, where the gap is
    positive or within its rounding bound: by 8.5e-4 relative at n = 10,
    6.0e-6 at 100 and 4.6e-8 at 1000, about 0.05/n^2, and from about n =
    8e4 on the gap there reads 0.0.  L's maximum lies below 1/(n+1), as
    L'(1/(n+1)) < 0, so a step past 1/(n+1) shows that L has no root (n =
    1), and 1/(n+1), near that maximum, is returned instead.
    """
    top = 1.0 / (n + 1)
    a = lo
    for _ in range(_SEED_MAX_STEPS):
        slope = 1.0 / (a * a) - (n + 1) / a - 1.0 / ((n + 2) - a)
        nxt = a - _gap_lower_bound(a, n) / slope
        if not (slope > 0.0 and nxt < top):
            return top
        if nxt - a <= _SEED_RTOL * nxt:
            return nxt
        a = nxt
    return a


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
    gamma so no large-factorial cancellation occurs.  log_lambda is log
    G(a_n, n) at the maximizer a_n.
    """

    n: int
    log_lambda: float
    a_n: float
    bracket: tuple[float, float]
    residual_n1: float
    residual_n2: float
    lambda_hat_minus_1: float


def _newton_stationary(n: int, lo: float, hi: float) -> _Gap:
    """Root of the stationarity gap in [lo, hi], with the gap evaluated there.

    The sign bracket h(lo) < 0 < h(hi) is decided first.  At lo the upper
    bound on h in closed form, its rounding allowance included
    (_gap_upper_bound), decides where it is negative: at every n sampled
    up to 3.4e9.  Elsewhere the gap is evaluated there, and an end whose
    gap is within its rounding bound (_gap_and_slope) decides nothing and
    raises ArithmeticError, as at the island's left end from about n =
    3.7e9 on.

    The solve starts at the seed a0 (_stationary_seed), from the gap
    evaluated there.  h >= L and L(a0) = 0 put h(a0) >= 0, so the gap
    there reads positive or 0.0, and a0 is the bracket's right end.  Only
    where a0 falls outside (lo, hi) or its gap reads negative is the gap
    at hi evaluated: it must be positive, and where a0 is outside the
    solve starts at hi instead.  BracketFailure and ArithmeticError fire
    where they would with both ends evaluated, and the bracket is still
    [lo, hi].

    Safeguarded Newton then takes Halley steps, as the evaluation's step
    slope is Halley's (_gap_and_slope).  Each iterate's evaluation is handed
    the last one, so its gamma values are stepped from that point's where
    the step allows.  It stops on the first point whose gap is within its
    bound, unless a step below 1e-15 relative ends it first; the last
    evaluation, which holds its point, is returned.
    """

    def decided(a: float) -> _Gap:
        gap = _gap_and_slope(a, n)
        if gap.value == 0.0:
            raise ArithmeticError(
                f"stationarity gap at a={a} is within its rounding bound "
                f"{gap.bound:.3g} (n={n})"
            )
        return gap

    def no_sign_change() -> BracketFailure:
        return BracketFailure(
            f"stationarity gap does not change sign on [{lo}, {hi}] at n={n}"
        )

    if not (_gap_upper_bound(lo, n) < 0.0 or decided(lo).value < 0.0):
        raise no_sign_change()
    a = _stationary_seed(n, lo)
    start = _gap_and_slope(a, n) if lo < a < hi else None
    if start is None or start.value < 0.0:
        right = decided(hi)
        if not right.value > 0.0:
            raise no_sign_change()
        if start is None:
            a, start = hi, right
    try:
        _, gap = _newton_root(
            lambda a, last: _gap_and_slope(a, n, last), lo, hi, a, start
        )
    except ArithmeticError as exc:
        raise StationarityFailure(f"{exc} at n={n}") from exc
    return gap


@lru_cache(maxsize=None)
def solve_lambda(n: int) -> LambdaEstimate:
    """Maximize the capped-tent ratio G over a for dimension n.

    The positivity island of the sign map at lambda = n! (_island; its
    third root is not needed) brackets the maximizer.  The stationarity gap
    h is evaluated first at a seed found with no reg_gamma call, right of
    the maximizer, which closes the bracket on the right; its left end's
    sign comes from a bound in closed form (_newton_stationary).
    Safeguarded Newton with Halley steps on h then finds the root of G's
    first-order condition; it stops on the first point where h is within
    its rounding bound B = 10 eps S (S the size of h's terms,
    _gap_and_slope), and lambda and the two first-order residuals come from
    the gamma values of that evaluation.  A Halley iterate's gamma values
    are stepped from the last point's where the step allows.  So for n
    from 11 to 1000 a cold solve makes two reg_gamma calls, the seed's,
    then one Halley step, or two up to n = 44; from about n = 8e4 the
    seed's own gap reads 0.0.  n from 2 to 10 evaluate their first step in
    full, as too wide to be stepped, and n = 1, whose seed is 1/2, two.

    The residuals certify the root: the exponent of each, log of the ratio
    it measures, must be at most 2B.  With the
    rounded logs P' = log gamma(n+1, a) and Q' = log gamma(n+1, 1/a) as
    given, whether from reg_gamma or stepped, lambda is a weighted mean of
    X = e^(-1/a - P') and Y = e^(a + Q'), whatever a^n rounds to, so each
    exponent in exact arithmetic is at most |log X - log Y| = |h(P', Q')|.
    That differs from the computed gap only by the rounding of the gap's
    sums, 2 eps S (the gamma values' own error, from reg_gamma or from the
    steps, sits in P' and Q' and cancels), and the computed gap at the root
    is within B: so at most 12 eps S.  Forming the exponents and log lambda
    (three sums, two log_add, two differences) adds under 6 eps S, as n
    |log a| <= |P'| and |log lambda| <= S on the island (exactly, |P'| >=
    n |log a| + log(n+1), and P' is within 6 eps S of that), and exp and
    log1p a few eps more: under 8 eps S, so both stay within 20 eps S = 2B.

    The maximizer must also lie in the island at the solved lambda, which
    one sign of the gap g decides: the iteration keeps it in the seed
    island left of g's local min, and there g >= 0 exactly on the solved
    lambda's island.
    """
    _check_n(n)
    log_factorial = math.lgamma(n + 1)
    try:
        lo, hi = _island(n, log_factorial)
    except OneRootCase as exc:
        raise BracketFailure(
            f"no positivity island at lambda = n! for n={n}"
        ) from exc
    gap = _newton_stationary(n, lo, hi)
    a_n = gap.a
    log_lower = gap.log_p + log_factorial
    log_lower_inv = gap.log_p_inv + log_factorial
    log_lambda = _log_g(a_n, n, log_lower, log_lower_inv)
    exponent_n1 = -1.0 / a_n - log_lower - log_lambda
    exponent_n2 = a_n + log_lower_inv - log_lambda
    tol = _RESIDUAL_ROUNDING * gap.bound
    if max(abs(exponent_n1), abs(exponent_n2)) > tol:
        raise StationarityFailure(
            f"stationarity residual exponents {exponent_n1:.3e}, "
            f"{exponent_n2:.3e} exceed {tol:.3e} at n={n}"
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
        residual_n1=math.expm1(exponent_n1),
        residual_n2=math.expm1(exponent_n2),
        lambda_hat_minus_1=math.expm1(a_n + gap.log_p_inv),
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
    _check_log_lambda(log_lambda)
    out = []
    for k in range(n):
        lbinom = (
            math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
        )
        pos = lbinom + (reg_gamma(k + 1, 1.0 / a).log_p + math.lgamma(k + 1))
        upper = reg_gamma(n - k + 1, a).log_q + math.lgamma(n - k + 1)
        neg = lbinom + log_lambda + upper
        out.append(log_sub_signed(pos, neg))
    return out

"""Weighted volumes of profile level sets and the dual-to-primal ratio.

For a radius function rho the two quantities of interest are

    mu(rho)  = integral_0^inf rho(z)^n e^(-z) dz
    nu(rho)  = integral_0^inf rho(z)^n e^(-1/z) z^(-(n+2)) dz

both reported as logs with the dimensional unit-ball constant divided
out.  Substituting w = 1/z shows nu(rho) = mu(rho_J), so vol_nu routes
through the inversion transform; vol_nu_direct integrates the raw formula
and exists so the two routes can be compared without sharing code (the
nu-mu-substitution suite).

On a linear piece of the radius mu is _log_segment: one fixed 15-point
Gauss-Legendre sum (_log_narrow) on a piece fewer than 8 of its
integrand's scales wide, an incomplete-gamma closed form otherwise.  It
serves vol_mu's tail, every piece of extremal.big_f's tents and every
finite piece of vol_mu's that starts above radius 0.  A radius never falls
(RadiusFunction's breakpoint radii strictly increase), so only its first
piece can start at radius 0, and that one still goes through adaptive
quadrature (_log_adaptive, the one caller of _log_panel), as do
vol_nu_direct's panels.  vol_mu skips the pieces that bounds from their
end radii show hold less than e^-40 of mu together; its docstring derives
the bounds and their rounding.

Ratios follow the convention 0/0 = inf/inf = 1, which makes the degenerate
profiles (identically zero, indicator of the origin) legal inputs everywhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gammafn import (
    _has_stirling_prefactor,
    _log_lower_scaled,
    _log_upper_scaled,
    _log_upper_scaled_times_x,
    reg_gamma,
)
from .logdomain import NEG_INF, log1mexp, log_add, log_sub_signed, log_sum
from .profile import (
    INF,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    j_transform,
    symmetrize_line,
    to_radius,
)

# The 15-point Gauss-Legendre rule on [-1, 1]: the doubles that
# numpy.polynomial.legendre.leggauss(15) returns, written out so that
# importing the package does not load numpy; test_gauss_legendre_literals
# in tests/test_measures.py pins them exactly.
_GL_NODES = (
    -0.9879925180204854,
    -0.9372733924007058,
    -0.8482065834104272,
    -0.7244177313601701,
    -0.5709721726085388,
    -0.3941513470775634,
    -0.20119409399743451,
    0.0,
    0.20119409399743451,
    0.3941513470775634,
    0.5709721726085388,
    0.7244177313601701,
    0.8482065834104272,
    0.9372733924007058,
    0.9879925180204854,
)
_GL_WEIGHTS = (
    0.030753241996117203,
    0.0703660474881084,
    0.10715922046717141,
    0.13957067792615444,
    0.16626920581699398,
    0.1861610000155622,
    0.1984314853271116,
    0.2025782419255613,
    0.1984314853271116,
    0.1861610000155622,
    0.16626920581699398,
    0.13957067792615444,
    0.10715922046717141,
    0.0703660474881084,
    0.030753241996117203,
)
# The same rule on [0, 1], as (node, weight) pairs, for _log_narrow.
_GL_UNIT = tuple((0.5 + 0.5 * t, 0.5 * c) for t, c in zip(_GL_NODES, _GL_WEIGHTS))

# Panel acceptance threshold on log values, i.e. relative error of the piece.
_QUAD_TOL = 1e-13
_MAX_DEPTH = 48
# Panels one _log_adaptive call may evaluate: vol_mu's one piece from
# radius 0 and vol_nu_direct's panels take a few hundred.  _log_panel, its
# panel, serves no other caller.
_MAX_PANELS = 4096
# What lies below e^-40 ~ 4e-18 of a total is far under its rounding: the
# quadrature stops refining such panels, vol_mu skips such pieces and
# vol_nu_direct's sweeps stop there.
_TAIL_NATS = 40.0
# A piece fewer than this many of its integrand's scales wide is one
# 15-point sum (_log_narrow), whose error _log_segment's docstring bounds
# by 1.9e-20.
_NARROW_SCALES = 8.0
# vol_nu_direct's upper sweep takes panels _SWEEP_STEP wide in t = log z.
# e^t overflows past t = _LOG_MAX ~ 709.8, which a sweep starting at t >=
# log(1/(n+2)) reaches long before _MAX_SWEEP panels, so that sweep raises
# before its next panel would pass _LOG_MAX.  1000 halvings from 1/3 stay
# normal, so the lower sweep's cap fires before hi underflows.
_SWEEP_STEP = 8.0
_LOG_MAX = math.log(sys.float_info.max)
_MAX_SWEEP = 1000


def _check_n(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")


def _check_log_lambda(log_lambda: float) -> None:
    if not math.isfinite(log_lambda):
        raise ValueError(f"log lambda must be finite, got {log_lambda}")


def _log_panel(logf, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = [logf(mid + half * t) for t in _GL_NODES]
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    acc = math.fsum(w * math.exp(v - m) for v, w in zip(vals, _GL_WEIGHTS))
    return m + math.log(acc) + math.log(half)


def _log_adaptive(logf, a: float, b: float) -> float:
    """log integral of e^logf over [a, b] by adaptive Gauss-Legendre panels.

    A panel is accepted once its whole and split (two half panels)
    estimates agree to _QUAD_TOL, or once both lie under the floor,
    _TAIL_NATS below the largest whole or split estimate of the panels
    enclosing it.  Each of those estimates a part of the integral, so
    such a panel holds, as far as the rule sees, less than e^-40 ~ 4e-18
    of it, far under the rounding of the result, and refining it could
    change the result by no more than that.  A refined panel passes its
    halves down to the children that refine them.

    The floor ends the recursion where the integrand vanishes to high
    order, like z^n near 0 for n >= 30: past the rule's exact degree 29
    every halving misses by the same relative amount, so the estimates
    never agree.  It rises with the split estimates because a wide
    panel's nodes can miss a narrow peak by millions of nats (e^-z on
    [1e8, 1e9]); a floor fixed at the top-level estimate would then sit
    far under the integral and accept nothing.  A panel that neither
    agrees nor lies under the floor after _MAX_DEPTH halvings raises
    ArithmeticError (which keeps the recursion under Python's limit), as
    do a NaN panel, a call past _MAX_PANELS panels (the depth cap alone
    lets their count reach 2^_MAX_DEPTH) and a panel too narrow to halve,
    whose midpoint rounds to one of its ends.
    """
    panels = 1  # the whole of [a, b]

    def refine(lo: float, hi: float, depth: int, whole: float, floor: float) -> float:
        nonlocal panels
        panels += 2
        if panels > _MAX_PANELS:
            raise ArithmeticError(
                f"quadrature did not converge in {_MAX_PANELS} panels on [{a}, {b}]"
            )
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ArithmeticError(f"quadrature panel [{lo}, {hi}] cannot be halved")
        left, right = _log_panel(logf, lo, mid), _log_panel(logf, mid, hi)
        split = log_add(left, right)
        floor = max(floor, whole - _TAIL_NATS, split - _TAIL_NATS)
        if whole == split:  # covers the all-zero panel, -inf on both sides
            return split
        # composing m + log(acc) + log(half) rounds in proportion to the log
        # magnitude, so the acceptance band must widen with it or panels far
        # from unit scale can never converge
        if abs(split - whole) <= _QUAD_TOL + 4e-15 * abs(split):
            return split
        if whole < floor and split < floor:
            return split
        if math.isnan(split):
            raise ArithmeticError(f"integrand is NaN on [{lo}, {hi}]")
        if depth >= _MAX_DEPTH:
            raise ArithmeticError(
                f"quadrature did not converge in {_MAX_DEPTH} halvings on [{lo}, {hi}]"
            )
        return log_add(
            refine(lo, mid, depth + 1, left, floor),
            refine(mid, hi, depth + 1, right, floor),
        )

    return refine(a, b, 0, _log_panel(logf, a, b), NEG_INF)


def _log_narrow(n: int, q: float, w: float) -> float:
    """log integral_0^w (1 + q t)^n e^(-t) dt by the 15-point rule, w (1 + n q) < 8.

    _log_segment's narrow piece, x0^n e^(-z0) less; its docstring derives
    why the plain sum needs no shift and bounds its error.
    """
    acc = 0.0
    for tau, weight in _GL_UNIT:
        t = w * tau
        acc += weight * math.exp(n * math.log1p(q * t) - t)
    return math.log(acc) + math.log(w)


def _is_narrow(n: int, s: float, w: float, x0: float) -> bool:
    """Whether a piece is under _NARROW_SCALES of its integrand's scales wide.

    The piece is w wide and its radius rises from x0 to x0 + s w, s >= 0:
    narrow when c = w (1 + n s/x0) < _NARROW_SCALES, the bound of
    _log_narrow's rule.  A piece from radius 0 is not.
    """
    return x0 > 0.0 and w * (x0 + n * s) < _NARROW_SCALES * x0


def _log_segment(n: int, s: float, z0: float, x0: float, z1: float) -> float:
    """log integral_z0^z1 (x0 + s (z - z0))^n e^(-z) dz, z1 = inf allowed.

    A finite piece narrow by _is_narrow is x0^n e^(-z0) times _log_narrow's
    15-point rule for (1 + q t)^n e^(-t), q = s/x0, over t in [0, w], w =
    z1 - z0.  The integrand's k-th derivative is at most (1 + n s/x0)^k
    times its largest value, as (1 + q t)^n contributes n s/x0 per order
    (x0 the smaller end radius) and e^(-t) one: it varies on the scale
    min(1, x0/(n s)).  The rule is exact to degree 29, so it misses by at
    most w^31 (15!)^4 / (31 (30!)^3) < 5.1e-51 w^31 times the 30th
    derivative, and the largest value is at most e^c times the smallest, c
    = w (1 + n s/x0): relative to the integral, under 5.1e-51 c^30 e^c,
    which c < 8 puts under 1.9e-20.  The rule's terms need no shift by
    their largest exponent: log1p(q t) lies in [0, q t] for t >= 0, so each
    exponent n log1p(q t) - t lies in [-w, n q w], both ends under c < 8 in
    size.  Each term is thus its weight times a factor in (e^-8, e^8), and
    the sum, under e^8 as the weights on [0, 1] sum to 1, neither over- nor
    underflows.  Rounding weighs more than the rule's error.  A node w tau,
    tau the rule's node on [0, 1], is off by at most eps w, which moves the
    integrand's log by at most eps c; each exponent rounds within 3 eps c,
    as n log1p(q t) and the log itself stay under c; exp and the weight's
    product add an ulp.  The plain sum of the 15 positive terms rounds each
    of its 14 additions within eps/2 of a partial sum no larger than the
    total, so it is within 7 eps relative, 7 eps on its log; the logs of
    the sum and of w and adding n log x0 - z0 round within eps of the sizes
    of those terms.  Folding x0^n out keeps n away from the rounding of x0
    + s t, which would cost n eps.  Against 40-digit values the sum has
    stayed within eps (c/2 + 2 max(1, |value|, n |log x0| + z0))
    (test_narrow_log_segment_matches_mpmath).  The closed forms below thus
    see only pieces at least 8 scales long, whose ends no longer agree to
    about the piece's width.  A piece from radius 0 never takes the sum.

    Otherwise, with u = x0/s + z - z0 the piece is s^n e^(u0 - z0)
    [Gamma(n+1, u0) - Gamma(n+1, u1)]; a flat piece (s = 0, or x0/s past
    the largest double) is x0^n (e^(-z0) - e^(-z1)).  A tail (z1 = inf) is
    x0^n u0 e^(-z0) times the scaled upper gamma below (with S as below,
    e^S(u0)) past the mode (u0 >= n + 2) or where gammafn's prefactor has
    its Stirling form (n >= 19 and u0 >= (n+1)/2), and s^n e^(u0 - z0) n!
    Q(n+1, u0) elsewhere.  The second form cancels n log s + u0 against
    lgamma(n+1) near the mode: 2.2e6 eps at n = 10^6, u0 = n - 1/2.  A
    finite piece takes one of two forms.

    The lead form, n log s + u0 - z0 + lgamma(n+1) + log [P(n+1, u1) -
    P(n+1, u0)], serves a piece that crosses the mode (u0 < n + 2 <= u1)
    from where gammafn's prefactor has no Stirling form (n < 19, or u0 <
    (n+1)/2; a piece from radius 0 among them).  There P(n+1, u1) >= 1/2,
    so lgamma(n+1) does not cancel against log P, and the scaled form
    would carry that prefactor's rounding and more.  Its terms round within
    2 eps (n |log s| + u0 + z0 + lgamma(n+1) + |value|); each log P within
    3.4 eps T(u), T(u) = (n+1) |log u| + u + lgamma(n+2) (reg_gamma's
    bound, 1.13 times it on a complement), which their difference
    multiplies by kappa_P = (P1 + P0)/(P1 - P0); rounding u1 by eps u1/2
    adds eps u1 p(u1)/(P1 - P0), p the gamma density.

    Any other finite piece takes the scaled form, which forms neither u0 -
    z0 (which cancels to about ulp(u0) when s is tiny against x0) nor -z1
    nor lgamma(n+1).  With S(u) the log of a scaled gamma of order n+1
    (gammafn's _log_lower_scaled or _log_upper_scaled, the gamma times
    u^-(n+1) e^u) and R = (n+1) log1p(w/u0) - w, the piece is x0^n u0
    e^(-z0) [e^S(u0) - e^(R + S(u1))] on the upper side, the negative of
    that bracket on the lower.  A piece that ends below the mode (u1 < n +
    2) takes the lower side, where the lower gammas are the small ones; any
    other the upper.  Each side is worked in units of its larger end: the
    near end x0^n u0 e^(-z0) on the upper side, and on the lower side the
    far end x1^n u1 e^(-z0 - w), x1 = x0 + s w, where the piece more than
    doubles its radius (u0 < w).  There n log x0 and (n+1) log1p(w/u0)
    would cancel, by about 3,100 for a piece from u0 = 2.5e-6 to 1 at n =
    242, while x1 is within eps of its value; a piece from radius 0 is its
    far end alone.  The near end's log u0 + S(u0), here and in the tail,
    is gammafn's _log_upper_scaled_times_x: past the mode and _temme's band
    S(u0) is about -log u0, and their sum cancelled to about eps log u0
    (169 ulps of vol_mu for the piece from radius 1 to 1.00001 over [0,
    90] at n = 10^6, u0 = 9e6), where the log of u0 e^S(u0) formed at
    once, by the recurrence down one order, stays within about eps of its
    value.  R takes the width w itself, as the narrow sum does,
    so the rounding of u1 = u0 + w enters only through S(u1), which varies
    slowly: S'(u) = 1 - (n+1)/u -+ e^(-S(u))/u (- upper, + lower).  Adding
    S'(u1) (u0 + w - u1), that rounding recovered exactly (or 1/u1 more,
    with log u1, in the far end's units), leaves an error of second order;
    without it a piece 4 wide at the mode of n = 10^6 lost about 2.4e4 eps.

    The scaled form's error.  Each end's log a or b is a sum of terms of
    total size T = |S(u0)| + |S(u1)| + (n+1) log1p(w/u0) + w, each within
    eps of its size (log1p and its quotient within 1.5 eps relative,
    products and sums half an ulp), plus the scaled gammas' own errors eps
    G0 and eps G1.  Rounding u0 = x0/s moves s by eps/2 relative, which
    moves the value by at most eps n w/(2 u1), inside eps T.  The
    difference multiplies those errors by kappa = (e^a + e^b)/|e^a - e^b|,
    about 2/|a - b| where the ends agree: sqrt(n)/w for a piece w wide at
    the mode of a large n.  Adding the units' log and -z0 rounds within
    eps of their sizes, n |log x0| + |log u0| or n (1 + |log x1|) + |log
    u1| + w + |S(u1)|, call it U.  The value is thus within eps (kappa (2T
    + G0 + G1) + 2 (U + |value| + z0)), where for a scaled gamma of order s
    = n + 1 at x with value S
    - through reg_gamma's log p or log q (in _temme's band, or on the upper
      side below it with the prefactor's Stirling form), G = 10 (y^2 + 1) +
      2 log s: reg_gamma's 8 (y^2 + 1) on the log, 1.13 times that on a
      complement, plus the rounding of _log_scale's terms y^2 and
      log(2 pi s)/2;
    - by the lower series, G = 2N + 1 + |S|: its N terms fall at least as
      fast as (x/(s+1))^k, so N < 37 (s+1)/(s+1-x), and the k-th carries k
      roundings, each sum one;
    - by the continued fraction, G = 41 + |S| for its at most 20 steps
      (18 at most on integer s up to 2^30 + 1).
    test_wide_log_segment_matches_mpmath checks both bounds; the worst case
    uses a third of its bound.  Near the mode the scaled form is about
    kappa times a few eps off: a piece 4 wide at the mode of n = 10^6
    (kappa about 600) is within about 2,100 eps of its value, 7e-14
    relative.  Ends that still round equal raise ArithmeticError, a falling
    piece (s < 0), which no radius has, ValueError.  An empty piece is -inf.
    """
    if s < 0.0:
        raise ValueError(f"falling piece [{z0}, {z1}] from radius {x0} with slope {s}")
    w = z1 - z0
    if w == 0.0:
        return NEG_INF
    if _is_narrow(n, s, w, x0):
        return n * math.log(x0) - z0 + _log_narrow(n, s / x0, w)
    u0 = x0 / s if s > 0.0 else INF
    if u0 == INF:
        if x0 <= 0.0:
            return NEG_INF
        return n * math.log(x0) - z0 + log1mexp(-w)
    if z1 == INF:
        if u0 >= n + 2 or _has_stirling_prefactor(n + 1, u0):
            return n * math.log(x0) + _log_upper_scaled_times_x(n + 1, u0)[1] - z0
        lead = n * math.log(s) + u0 - z0 + math.lgamma(n + 1)
        return lead + reg_gamma(n + 1, u0).log_q
    u1 = u0 + w
    if u0 < n + 2 <= u1 and not _has_stirling_prefactor(n + 1, u0):
        lead = n * math.log(s) + u0 - z0 + math.lgamma(n + 1)
        sign, diff = log_sub_signed(reg_gamma(n + 1, u1).log_p, reg_gamma(n + 1, u0).log_p)
        if sign != 1:
            raise ArithmeticError(f"ends of the piece [{z0}, {z1}] round equal at n={n}")
        return lead + diff
    gap = w - (u1 - u0) if u0 >= w else u0 - (u1 - w)  # u0 + w - u1, exactly
    rise = (n + 1) * math.log1p(w / u0) - w if u0 > 0.0 else INF
    if u1 < n + 2:
        near, far = _log_lower_scaled(n + 1, u0), _log_lower_scaled(n + 1, u1)
        h = math.exp(-far)  # u1 |d/du log| of the far end's gamma
        top = rise + far + (1.0 - ((n + 1) - h) / u1) * gap
        rel = near - top
        if u0 < w:
            head = n * math.log(x0 + s * w) + math.log(u1) - w + far + (1.0 - (n - h) / u1) * gap
        else:
            head = n * math.log(x0) + math.log(u0) + top
    else:
        near, near_x = _log_upper_scaled_times_x(n + 1, u0)
        far = _log_upper_scaled(n + 1, u1)
        h = math.exp(-far)
        rel = rise + far + (1.0 - ((n + 1) + h) / u1) * gap - near
        head = n * math.log(x0) + near_x
    if not rel < 0.0:
        raise ArithmeticError(f"ends of the piece [{z0}, {z1}] round equal at n={n}")
    return head + log1mexp(rel) - z0


def vol_mu(rho: RadiusFunction, n: int) -> float:
    """log integral_0^inf rho(z)^n e^(-z) dz; the tail in closed form.

    The tail is one _log_segment.  Each finite piece [z0, z1] that a bound
    does not show negligible is one _log_segment (its closed form, or one
    panel if _is_narrow: under 8 of its integrand's scales wide), save one
    from radius 0: one _log_adaptive call (raising ArithmeticError if it
    does not converge).  Breakpoint radii strictly increase (RadiusFunction),
    so only the first piece starts at 0, and on each rho rises from x0 to
    x1 > 0: its integral lies between x0^n and x1^n times

        integral_z0^z1 e^(-z) dz = e^(-z0) (1 - e^(-(z1 - z0))).

    The largest lower bound and the exact tail are each at most mu, so
    their maximum L is a lower bound on mu.  A piece whose upper bound lies
    more than _TAIL_NATS + log k nats under L, with k the number of finite
    pieces, holds less than e^-40 mu / k; the at most k pieces skipped hold
    less than e^-40 ~ 4e-18 of mu together, far under its rounding.

    A computed bound B = n log x + log(1 - e^-w) - z0 rounds within a
    few eps of the sum of its terms' sizes.  The middle term is at most 745
    in size for any w > 0 a double holds, so n |log x| <= |B| + z0 + 745
    and the sum is at most |B| + 2 z0 + 1490.  The tail T is built alike,
    with two more logs of doubles (log u0, the scaled gamma) past its mode,
    or lgamma(n+1), u0 < n + 2 and |log Q(n+1, u0)| < 2.1 below it, so its
    sum is at most |T| + 2 z_m + 2 lgamma(n+2) + 2n + 2980, z_m the last
    knot.
    An upper bound hi and L together err by less than 16 eps (|hi| + |L|
    + 4 z_m + 2 lgamma(n+2) + 2n + 4500), and the margin widens by that:
    about 2e-11 nats for unit-scale radii at n = 64, while it keeps the
    skip sound where z passes 2^52, whose ulp is a nat.  Quadrature
    estimates would not serve for L: a wide panel's nodes can miss the
    peak of the piece it covers by a hundred nats.
    """
    _check_n(n)
    if rho.is_infinite:
        return INF

    def logf(z: float) -> float:
        x = rho.evaluate(z)
        if x <= 0.0:
            return NEG_INF
        return n * math.log(x) - z

    pts = rho.breakpoints
    z_m, x_m = pts[-1]
    tail = _log_segment(n, rho.tail_slope, z_m, x_m, INF)
    floor = tail
    pieces = []  # (z0, x0, z1, x1, upper bound on log integral_z0^z1)
    z0, x0 = pts[0]
    a = n * math.log(x0) if x0 > 0.0 else NEG_INF
    for z1, x1 in pts[1:]:
        b = n * math.log(x1)
        mass = math.log(-math.expm1(z0 - z1)) - z0
        lo, hi = a + mass, b + mass
        floor = lo if lo > floor else floor
        pieces.append((z0, x0, z1, x1, hi))
        z0, x0, a = z1, x1, b
    slack = 16.0 * sys.float_info.epsilon
    cut = (
        floor - _TAIL_NATS - math.log(max(len(pieces), 1))
        - slack * (abs(floor) + 4.0 * z_m + 2.0 * (math.lgamma(n + 2) + n) + 4500.0)
    )
    parts = [tail]
    for z0, x0, z1, x1, hi in pieces:
        if hi + slack * abs(hi) < cut:
            continue
        if x0 > 0.0:
            parts.append(_log_segment(n, (x1 - x0) / (z1 - z0), z0, x0, z1))
        else:
            parts.append(_log_adaptive(logf, z0, z1))
    return log_sum(parts)


def vol_nu(rho: RadiusFunction, n: int) -> float:
    """log nu via the substitution w = 1/z, i.e. mu of the inverted radius."""
    return vol_mu(j_transform(rho), n)


def vol_nu_direct(rho: RadiusFunction, n: int) -> float:
    """log nu by quadrature of the raw integrand, independent of vol_nu.

    This is the oracle of the nu-mu-substitution suite: it integrates
    f(z) = rho(z)^n e^(-1/z) z^(-(n+2)) as written and shares no code
    with the J route.  Adaptive panels cover the weight peak 1/(n+2) up to
    the last knot, one panel between each two knots, so that each lies in
    one linear piece of rho and takes rho from that piece's line, by
    _interpolate's own formula, with no search for the piece at each node.
    Two sweeps then add the tails, each stopping once a rigorous bound on
    what it has left is _TAIL_NATS below the total:

    - upper, from lo in panels _SWEEP_STEP wide in t = log z, integrating
      f(e^t) e^t dt on the tail's line: rho is concave with rho(0) >= 0,
      so rho(z)/z does not increase and f(z) <= (rho(lo)/lo)^n z^(-2),
      whose integral past lo is at most f(lo) lo e^(1/lo).  In t the
      integrand decays like e^(-t) or faster, so few panels reach that
      bound (five for a linear tail, which needs z ~ e^40);
    - lower, halving panels from the peak: weight and radius both rise
      there, so f increases and the rest below hi is at most hi f(hi).
      Its panels are not split at the knots below the peak, so one may
      hold a kink, and it evaluates rho itself (RadiusFunction.evaluate).

    A sweep that has not stopped after _MAX_SWEEP panels, or an upper one
    whose next panel would reach past the largest double, raises
    ArithmeticError, as does a NaN panel (a radius overflowing to inf), a
    panel that does not converge or one too narrow to halve (see
    _log_adaptive).
    """
    _check_n(n)
    if rho.is_infinite:
        return INF
    if rho.is_zero:
        return NEG_INF

    def integrand(radius):
        def logf(z: float) -> float:
            x = radius(z)
            if x <= 0.0:
                return NEG_INF
            return n * math.log(x) - 1.0 / z - (n + 2) * math.log(z)

        return logf

    def on_piece(a0: float, b0: float, a1: float, b1: float):
        rise, run = b1 - b0, a1 - a0
        return integrand(lambda z: b0 + rise * ((z - a0) / run))

    on_tail = integrand(lambda z: x_m + slope * (z - z_m))

    def log_zf(t: float) -> float:  # log of f(e^t) e^t on the tail's line
        return on_tail(math.exp(t)) + t

    peak = 1.0 / (n + 2)
    pts, slope = rho.breakpoints, rho.tail_slope
    z_m, x_m = pts[-1]
    total = NEG_INF
    lo = peak
    for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
        if a1 > lo:
            total = log_add(total, _log_adaptive(on_piece(a0, b0, a1, b1), lo, a1))
            lo = a1

    t = math.log(lo)
    for _ in range(_MAX_SWEEP):
        lo = math.exp(t)
        if on_tail(lo) + t + 1.0 / lo < total - _TAIL_NATS:
            break
        if t + _SWEEP_STEP > _LOG_MAX:
            raise ArithmeticError(f"upper sweep of nu reached z = {lo:.3g} at n={n}")
        total = log_add(total, _log_adaptive(log_zf, t, t + _SWEEP_STEP))
        t += _SWEEP_STEP
    else:
        raise ArithmeticError(f"upper sweep of nu did not stop at n={n}")
    logf = integrand(rho.evaluate)
    hi = peak
    for _ in range(_MAX_SWEEP):
        if logf(hi) + math.log(hi) < total - _TAIL_NATS:
            break
        total = log_add(total, _log_adaptive(logf, 0.5 * hi, hi))
        hi *= 0.5
    else:
        raise ArithmeticError(f"lower sweep of nu did not stop at n={n}")
    return total


@dataclass(frozen=True)
class VolumePair:
    """Logs of mu and nu for one profile; finite together or infinite together."""

    log_mu: float
    log_nu: float

    def __post_init__(self) -> None:
        ok = (
            (math.isfinite(self.log_mu) and math.isfinite(self.log_nu))
            or self.log_mu == self.log_nu == INF
            or self.log_mu == self.log_nu == NEG_INF
        )
        if not ok:
            raise ValueError(
                f"mu and nu must degenerate together: {self.log_mu}, {self.log_nu}"
            )

    @property
    def log_ratio(self) -> float:
        """log(nu/mu) with 0/0 = inf/inf = 1."""
        if math.isinf(self.log_mu):
            return 0.0
        return self.log_nu - self.log_mu


def volume_pair(p: ConvexProfile, n: int) -> VolumePair:
    rho = to_radius(p)
    return VolumePair(vol_mu(rho, n), vol_nu(rho, n))


def log_s_j_n(p: ConvexProfile, n: int) -> float:
    """log of the nu-to-mu volume ratio of one profile."""
    return volume_pair(p, n).log_ratio


def delta(p: ConvexProfile, n: int, log_lambda: float) -> tuple[int, float]:
    """nu - lambda * mu as (sign, log magnitude); (0, -inf) when both vanish."""
    _check_log_lambda(log_lambda)
    pair = volume_pair(p, n)
    if pair.log_mu == NEG_INF:
        return (0, NEG_INF)
    if pair.log_mu == INF:
        raise ValueError("deficit undefined for infinite volumes")
    return log_sub_signed(pair.log_nu, log_lambda + pair.log_mu)


def integrate_line(f: LineConvexFunction) -> float:
    """log integral over the whole line of e^(-f), summed branch by branch."""
    return log_add(
        vol_mu(to_radius(f.left), 1), vol_mu(to_radius(f.right), 1)
    )


def symmetrization_gap(f: LineConvexFunction) -> float:
    """integrate_line(f) minus its value after even rearrangement (log scale).

    Exactly zero in exact arithmetic, so it reads the error of the three
    vol_mu calls; the steiner-volume suite checks it.
    """
    sym = symmetrize_line(f)
    return integrate_line(f) - (math.log(2.0) + vol_mu(to_radius(sym), 1))

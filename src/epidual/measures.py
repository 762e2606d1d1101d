"""Weighted volumes of profile level sets and the dual-to-primal ratio.

For a radius function rho the two quantities of interest are

    mu(rho)  = integral_0^inf rho(z)^n e^(-z) dz
    nu(rho)  = integral_0^inf rho(z)^n e^(-1/z) z^(-(n+2)) dz

both reported as logs with the dimensional unit-ball constant divided out
(log_kappa supplies it for callers that want absolute volumes).  Substituting
w = 1/z shows nu(rho) = mu(rho_J), so vol_nu routes through the inversion
transform; vol_nu_direct integrates the raw formula and exists so the two
routes can be compared without sharing code (the nu-mu-substitution suite).

Ratios follow the convention 0/0 = inf/inf = 1, which makes the degenerate
profiles (identically zero, indicator of the origin) legal inputs everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammafn import reg_gamma
from .logdomain import NEG_INF, log_add, log_sub_signed, log_sum
from .profile import (
    INF,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    j_transform,
    symmetrize_line,
    to_radius,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_NODES = tuple(float(t) for t in _GL_NODES)
_GL_WEIGHTS = tuple(float(w) for w in _GL_WEIGHTS)

# Panel acceptance threshold on log values, i.e. relative error of the piece.
_QUAD_TOL = 1e-13
_MAX_DEPTH = 48
# vol_nu_direct's sweeps stop once the rest is below e^-40 ~ 4e-18 of the
# total, far under its rounding.  1000 doublings of a first width under 1e7
# and 1000 halvings from 1/3 stay finite and normal, so the cap fires
# before lo overflows or hi underflows.
_TAIL_NATS = 40.0
_MAX_SWEEP = 1000


def _check_n(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {n!r}")


def log_kappa(n: int) -> float:
    """Log volume of the n-dimensional Euclidean unit ball."""
    _check_n(n)
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def _log_panel(logf, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = [logf(mid + half * t) for t in _GL_NODES]
    m = max(vals)
    if m == NEG_INF:
        return NEG_INF
    acc = math.fsum(w * math.exp(v - m) for v, w in zip(vals, _GL_WEIGHTS))
    if acc <= 0.0:
        return NEG_INF
    return m + math.log(acc) + math.log(half)


def _log_adaptive(
    logf, a: float, b: float, depth: int = _MAX_DEPTH, whole: float | None = None
) -> float:
    """log integral of e^logf over [a, b] by adaptive Gauss-Legendre panels.

    whole is the panel over [a, b] when the caller has already computed it.
    """
    if whole is None:
        whole = _log_panel(logf, a, b)
    mid = 0.5 * (a + b)
    left, right = _log_panel(logf, a, mid), _log_panel(logf, mid, b)
    split = log_add(left, right)
    if whole == split:  # covers the all-zero panel, -inf on both sides
        return split
    # composing m + log(acc) + log(half) rounds in proportion to the log
    # magnitude, so the acceptance band must widen with it or panels far
    # from unit scale can never converge
    if abs(split - whole) <= _QUAD_TOL + 4e-15 * abs(split) or depth <= 0:
        return split
    if math.isnan(split):
        raise ArithmeticError(f"integrand is NaN on [{a}, {b}]")
    return log_add(
        _log_adaptive(logf, a, mid, depth - 1, left),
        _log_adaptive(logf, mid, b, depth - 1, right),
    )


def vol_mu(rho: RadiusFunction, n: int) -> float:
    """log integral_0^inf rho(z)^n e^(-z) dz; tails in closed form."""
    _check_n(n)
    if rho.is_infinite:
        return INF

    def logf(z: float) -> float:
        x = rho.evaluate(z)
        if x <= 0.0:
            return NEG_INF
        return n * math.log(x) - z

    pts = rho.breakpoints
    parts = [
        _log_adaptive(logf, z0, z1)
        for (z0, _), (z1, _) in zip(pts, pts[1:])
    ]
    z_m, x_m = pts[-1]
    beta = rho.tail_slope
    if beta == 0.0:
        parts.append(NEG_INF if x_m <= 0.0 else n * math.log(x_m) - z_m)
    else:
        u0 = x_m / beta
        g = reg_gamma(n + 1, u0)
        parts.append(
            n * math.log(beta) + u0 - z_m + math.lgamma(n + 1) + g.log_q
        )
    return log_sum(parts)


def vol_nu(rho: RadiusFunction, n: int) -> float:
    """log nu via the substitution w = 1/z, i.e. mu of the inverted radius."""
    return vol_mu(j_transform(rho), n)


def vol_nu_direct(rho: RadiusFunction, n: int) -> float:
    """log nu by quadrature of the raw integrand, independent of vol_nu.

    This is the oracle of the nu-mu-substitution suite: it integrates
    f(z) = rho(z)^n e^(-1/z) z^(-(n+2)) as written and shares no code
    with the J route.  Adaptive panels cover the weight peak 1/(n+2) up to
    the last knot; two sweeps then add the tails, each stopping once a
    rigorous bound on what it has left is _TAIL_NATS below the total:

    - upper, doubling panels from lo: rho is concave with rho(0) >= 0, so
      rho(z)/z does not increase and f(z) <= (rho(lo)/lo)^n z^(-2), whose
      integral past lo is at most f(lo) lo e^(1/lo);
    - lower, halving panels from the peak: weight and radius both rise
      there, so f increases and the rest below hi is at most hi f(hi).

    A sweep that has not stopped after _MAX_SWEEP panels raises
    ArithmeticError, as does a NaN panel (a radius overflowing to inf).
    """
    _check_n(n)
    if rho.is_infinite:
        return INF
    if rho.is_zero:
        return NEG_INF

    def logf(z: float) -> float:
        x = rho.evaluate(z)
        if x <= 0.0:
            return NEG_INF
        return n * math.log(x) - 1.0 / z - (n + 2) * math.log(z)

    peak = 1.0 / (n + 2)
    knots = sorted({peak} | {z for z, _ in rho.breakpoints if z > peak})
    total = NEG_INF
    for z0, z1 in zip(knots, knots[1:]):
        total = log_add(total, _log_adaptive(logf, z0, z1))
    lo = knots[-1]
    width = max(1.0, lo)
    for _ in range(_MAX_SWEEP):
        if logf(lo) + math.log(lo) + 1.0 / lo < total - _TAIL_NATS:
            break
        total = log_add(total, _log_adaptive(logf, lo, lo + width))
        lo += width
        width *= 2.0
    else:
        raise ArithmeticError(f"upper sweep of nu did not stop at n={n}")
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


def s_j_n(p: ConvexProfile, n: int) -> float:
    return math.exp(log_s_j_n(p, n))


def delta(p: ConvexProfile, n: int, log_lambda: float) -> tuple[int, float]:
    """nu - lambda * mu as (sign, log magnitude); (0, -inf) when both vanish."""
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

    Exactly zero in exact arithmetic; exposed as a quadrature cross-check.
    """
    sym = symmetrize_line(f)
    return integrate_line(f) - (math.log(2.0) + vol_mu(to_radius(sym), 1))

"""Weighted volumes of profile level sets and the dual-to-primal ratio.

For a radius function rho the two quantities of interest are

    mu(rho)  = integral_0^inf rho(z)^n e^(-z) dz
    nu(rho)  = integral_0^inf rho(z)^n e^(-1/z) z^(-(n+2)) dz

both reported as logs with the dimensional unit-ball constant divided out
(log_kappa supplies it for callers that want absolute volumes).  Substituting
w = 1/z shows nu(rho) = mu(rho_J), so vol_nu routes through the inversion
transform; vol_nu_direct integrates the raw formula and exists so the two
routes can be compared without sharing code.

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

    The weight e^(-1/z) z^(-(n+2)) rises until z = 1/(n+2) and the radius
    never decreases, so below that point the integrand is monotone and the
    interval is swept with halving panels; the upper tail decays only like
    z^(-2) when the radius grows linearly and is swept with doubling
    panels.  Both sweeps truncate once the integrand at the panel edge
    drops below 1e-300 of the largest value seen.  Panels whose mass
    provably cannot move the total get one fixed-order panel instead of
    refinement: near 0 the refinement would never terminate, because
    e^(-1/z) looks the same at every scale.
    """
    _check_n(n)
    if rho.is_infinite:
        return INF
    if rho.is_zero:
        return NEG_INF

    def logf(z: float) -> float:
        if not (z > 0.0 and math.isfinite(z)):
            return NEG_INF
        x = rho.evaluate(z)
        if x <= 0.0:
            return NEG_INF
        return n * math.log(x) - 1.0 / z - (n + 2) * math.log(z)

    cutoff = math.log(1e-300)
    peak = 1.0 / (n + 2)
    zs = [z for z, _ in rho.breakpoints]
    total = NEG_INF
    knots = sorted({peak} | {z for z in zs if z > peak})
    for z0, z1 in zip(knots, knots[1:]):
        total = log_add(total, _log_adaptive(logf, z0, z1))
    run_max = max(logf(z) for z in knots)
    lo = max(zs[-1], peak)
    width = max(1.0, lo)
    for _ in range(2000):
        # three probes track the panel's size; between probes the smooth
        # integrand can climb at most ~n log 3 nats, far under the margin
        edge = max(logf(lo), logf(lo + 0.5 * width), logf(lo + width))
        if edge + math.log(width) < total - 230.0:
            piece = _log_panel(logf, lo, lo + width)
        else:
            piece = _log_adaptive(logf, lo, lo + width)
        total = log_add(total, piece)
        lo += width
        width *= 2.0
        run_max = max(run_max, edge)
        if logf(lo) < run_max + cutoff:
            break
    hi = peak
    for _ in range(2000):
        # below the weight peak the integrand increases, so hi * f(hi)
        # bounds everything the rest of the sweep can contribute
        if logf(hi) + math.log(hi) < total - 92.0:
            piece = _log_panel(logf, 0.5 * hi, hi)
        else:
            piece = _log_adaptive(logf, 0.5 * hi, hi)
        total = log_add(total, piece)
        hi *= 0.5
        if logf(hi) < run_max + cutoff:
            break
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

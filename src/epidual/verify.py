"""Randomized property suites.

Each suite replays one identity or inequality over a deterministic stream
of random profiles and reports the worst deviation it saw.  A healthy
build produces an empty failure list for every suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterator

from .extremal import (
    RootTriple,
    TentParams,
    ck_coefficients,
    roots_of_m,
    solve_lambda,
    t_map,
    tent_profile,
)
from .gammafn import reg_gamma
from .logdomain import log_sub_signed
from .measures import (
    log_s_j_n,
    symmetrization_gap,
    vol_nu,
    vol_nu_direct,
    volume_pair,
)
from .profile import (
    INF,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    _knots,
    _max_gap,
    _polar_sweep,
    _sweep,
    check_j_factorization,
    evaluation_grid,
    from_radius,
    j_transform,
    legendre,
    scale,
    symmetrize_line,
    to_radius,
)

# numpy loads only in _generator; the name below serves the annotations
if TYPE_CHECKING:
    import numpy as np

_TRANSFORM_TOL = 1e-9
_INTEGRAL_TOL = 1e-10
_SUBSTITUTION_TOL = 1e-12
_RATIO_SLACK = 1e-8
_TENT_ROUNDTRIP_TOL = 1e-10


class UnknownSuite(ValueError):
    """Requested property suite does not exist."""


def _generator(seed: int) -> np.random.Generator:
    """numpy's default generator at seed, the source of every sampler and suite draw."""
    import numpy as np
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class ProfileSampler:
    """Deterministic stream of random convex profiles.

    Segment count is uniform on {1, ..., 6}; slope and radius increments
    are unit exponentials.  One profile in four gets an indicator tail and
    one in five starts with a flat segment, so the stream exercises both
    cutoff branches of the transforms.
    """

    seed: int

    def draw(self, rng: np.random.Generator) -> ConvexProfile:
        k = int(rng.integers(1, 7))
        widths = rng.exponential(size=k)
        bumps = rng.exponential(size=k)
        if rng.random() < 0.2:
            bumps[0] = 0.0
        slopes = bumps.cumsum()
        pts = [(0.0, 0.0)]
        r = v = 0.0
        for w, s in zip(widths, slopes):
            r += float(w)
            v += float(s) * float(w)
            pts.append((r, v))
        if rng.random() < 0.25:
            tail = INF
        else:
            tail = float(slopes[-1] + rng.exponential())
        return ConvexProfile(tuple(pts), tail)

    def stream(self) -> Iterator[ConvexProfile]:
        """Endless profile iterator, freshly seeded on every call."""
        rng = _generator(self.seed)
        while True:
            yield self.draw(rng)


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run.

    worst_residual is the largest deviation for identity suites and the
    largest violation for inequality suites (negative values are margin
    to spare).  A run passes exactly when failures is empty.
    """

    suite: str
    cases: int
    failures: tuple[tuple[int, str], ...]
    worst_residual: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "passed": self.passed,
            "worst_residual": self.worst_residual,
            "failures": [
                {"case": case, "problem": problem} for case, problem in self.failures
            ],
        }


# ---------------------------------------------------------------------------
# shared helpers


@lru_cache(maxsize=None)
def _island_roots(n: int) -> RootTriple:
    return roots_of_m(n, solve_lambda(n).log_lambda)


def _cap_radius(rho: RadiusFunction, cap: float) -> RadiusFunction:
    """Pointwise min(rho, cap): the radius after intersecting with a ball.

    rho reaches the cap at z = psi(cap), psi = from_radius(rho); where
    psi(cap) is inf (a constant tail below the cap) rho is returned as is.
    Raises ValueError unless the cap is finite and positive.
    """
    if not (cap > 0.0 and math.isfinite(cap)):
        raise ValueError(f"cap must be finite > 0, got {cap}")
    reach = _sweep(from_radius(rho))((cap,))[0]
    if reach == INF:
        return rho
    kept = [(z, x) for z, x in rho.breakpoints if z < reach]
    return RadiusFunction((*kept, (reach, cap)), 0.0)


# ---------------------------------------------------------------------------
# suite bodies; each returns (residual, failure description or None)

CaseResult = tuple[float, str | None]
# quoted, so that importing the package does not load numpy
SuiteBody = Callable[[int, "np.random.Generator", ProfileSampler], CaseResult]


def _suite_involution(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    q = from_radius(j_transform(j_transform(to_radius(p))))
    gap = _max_gap(p, q)
    return gap, None if gap <= _TRANSFORM_TOL else f"double transform moved psi by {gap:.3e}"


def _suite_order_preserving(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    rho = to_radius(sampler.draw(rng))
    top = _sweep(rho)((rho.breakpoints[-1][0] + 1.0,))[0]
    capped = _cap_radius(rho, top * (0.2 + 0.6 * float(rng.random())))
    small, large = j_transform(capped), j_transform(rho)
    # both are concave radii, so small - large is linear between the knots
    knots = _knots(small, large)
    worst = max(a - b for a, b in zip(_sweep(small)(knots), _sweep(large)(knots)))
    return worst, None if worst <= _TRANSFORM_TOL else f"order flipped by {worst:.3e}"


def _suite_order_reversing(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    a = math.exp(float(rng.uniform(math.log(1.2), math.log(3.0))))
    q = scale(p, a)  # psi_q >= psi_p pointwise, so both duals must drop
    lp, lq = legendre(p), legendre(q)

    def excess(smalls: list[float], larges: list[float]) -> float | None:
        """Worst small - large where both are finite; None if small alone is inf.

        Both duals are >= 0, never -inf, so small - large is +inf where
        small alone is inf, -inf where large alone is, and NaN where both are.
        """
        worst = -INF
        for small, large in zip(smalls, larges):
            gap = small - large
            if gap > worst:
                if gap == INF:
                    return None
                worst = gap
        return worst

    grid = evaluation_grid(extras=[r for r, _ in lp.breakpoints] + [r for r, _ in lq.breakpoints])
    conj = excess(_sweep(lq)(grid), _sweep(lp)(grid))
    if conj is None:
        return INF, "conjugate gained an indicator region"
    grid = evaluation_grid(extras=[1.0 / f for f in (p.flat_end, q.flat_end) if f > 0.0])
    polar = excess(_polar_sweep(q, grid)[0], _polar_sweep(p, grid)[0])
    if polar is None:
        return INF, "polar gained an indicator region"
    worst = max(conj, polar)
    return worst, None if worst <= _TRANSFORM_TOL else f"reversal failed by {worst:.3e}"


def _suite_factorization(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    gap = check_j_factorization(sampler.draw(rng))
    return gap, None if gap <= _TRANSFORM_TOL else f"routes disagree by {gap:.3e}"


def _suite_scaling_invariance(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    n = int(rng.integers(1, 9))
    a = 10.0 ** float(rng.uniform(-100.0, 100.0))
    gap = abs(log_s_j_n(scale(p, a), n) - log_s_j_n(p, n))
    return gap, None if gap <= _INTEGRAL_TOL else f"ratio moved by {gap:.3e} under scaling"


def _suite_substitution(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    rho = to_radius(sampler.draw(rng))
    n = int(rng.integers(1, 9))
    gap = abs(vol_nu_direct(rho, n) - vol_nu(rho, n))
    return gap, None if gap <= _SUBSTITUTION_TOL else f"nu routes disagree by {gap:.3e}"


def _suite_reciprocal_pair(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    n = int(rng.integers(1, 9))
    q = from_radius(j_transform(to_radius(p)))
    gap = abs(log_s_j_n(p, n) + log_s_j_n(q, n))
    return gap, None if gap <= _INTEGRAL_TOL else f"pair product off 1 by {gap:.3e}"


def _signed_deficit(pair, log_lambda: float, ref: float) -> float:
    sign, mag = log_sub_signed(pair.log_nu, log_lambda + pair.log_mu)
    return sign * math.exp(mag - ref)


def _suite_delta_nonpositive(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    n = int(rng.integers(1, 9))
    pair = volume_pair(p, n)
    value = _signed_deficit(pair, solve_lambda(n).log_lambda, pair.log_mu)
    return value, None if value <= _TRANSFORM_TOL else f"deficit positive: {value:.3e}"


def _suite_t_improvement(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    n = int(rng.integers(1, 9))
    est = solve_lambda(n)
    tent = tent_profile(t_map(to_radius(p), _island_roots(n)))
    pair_p, pair_t = volume_pair(p, n), volume_pair(tent, n)
    ref = max(pair_p.log_mu, pair_t.log_mu)
    margin = _signed_deficit(pair_t, est.log_lambda, ref) - _signed_deficit(
        pair_p, est.log_lambda, ref
    )
    if _max_gap(p, tent) <= _TENT_ROUNDTRIP_TOL:
        ok = margin >= -_TENT_ROUNDTRIP_TOL  # tents map to themselves
    else:
        ok = margin > 0.0
    return -margin, None if ok else f"tent did not improve: margin {margin:.3e}"


def _suite_upper_bound(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    n = int(rng.integers(1, 9))
    excess = log_s_j_n(p, n) - solve_lambda(n).log_lambda - math.log1p(_RATIO_SLACK)
    return excess, None if excess <= 0.0 else f"ratio above the constant by {excess:.3e}"


def _suite_steiner_commute(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    f = LineConvexFunction(sampler.draw(rng), sampler.draw(rng))
    sym_first = from_radius(j_transform(to_radius(symmetrize_line(f))))
    transformed = LineConvexFunction(
        from_radius(j_transform(to_radius(f.left))),
        from_radius(j_transform(to_radius(f.right))),
    )
    gap = _max_gap(sym_first, symmetrize_line(transformed))
    return gap, None if gap <= _TRANSFORM_TOL else f"paths disagree by {gap:.3e}"


def _suite_steiner_volume(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    f = LineConvexFunction(sampler.draw(rng), sampler.draw(rng))
    gap = abs(symmetrization_gap(f))
    return gap, None if gap <= _INTEGRAL_TOL else f"rearrangement moved mass by {gap:.3e}"


def _suite_gamma_inequalities(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    n = 1 + i % 50
    a = float(rng.uniform(1e-4, 1.0))
    t = float(0.1 + 1.8 * rng.random()) * (n + 1)
    m = 1 + i % 500
    # e^-a a^(n+1)/(n+1) <= gamma(n+1, a) <= a^(n+1)/(n+1), in logs
    log_gamma = math.lgamma(n + 1.0) + reg_gamma(n + 1.0, a).log_p
    upper = (n + 1.0) * math.log(a) - math.log(n + 1.0)
    if not upper - a <= log_gamma <= upper:
        return 1.0, f"small-slope bound failed at n={n}, a={a}"
    # p(n+1, n+1+t) >= 1 - e^(-t^2/(8(n+1))), as log q: no complement, no underflow
    if not reg_gamma(n + 1.0, n + 1.0 + t).log_q <= -t * t / (8.0 * (n + 1.0)):
        return 1.0, f"tail bound failed at n={n}, t={t}"
    # Gamma(m+1, m) >= m!/2, i.e. q(m+1, m) >= 1/2
    if not reg_gamma(m + 1.0, float(m)).log_q >= -math.log(2.0):
        return 1.0, f"half-point bound failed at m={m}"
    return 0.0, None


def _suite_ck_negative(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    n = 2 + i % 99
    est = solve_lambda(n)
    for k, (sign, _) in enumerate(ck_coefficients(n, est.a_n, est.log_lambda)):
        if sign != -1:
            return 1.0, f"c_{k} not negative at n={n}"
    return 0.0, None


_SUITES: dict[str, tuple[SuiteBody, int, int]] = {
    "involution": (_suite_involution, 42, 1000),
    "order-preserving": (_suite_order_preserving, 11, 500),
    "order-reversing": (_suite_order_reversing, 12, 500),
    "factorization": (_suite_factorization, 13, 400),
    "scaling-invariance": (_suite_scaling_invariance, 14, 500),
    "nu-mu-substitution": (_suite_substitution, 15, 120),
    "reciprocal-pair": (_suite_reciprocal_pair, 16, 400),
    "delta-nonpositive": (_suite_delta_nonpositive, 7, 1000),
    "t-improvement": (_suite_t_improvement, 17, 1000),
    "upper-bound-sjn": (_suite_upper_bound, 18, 1000),
    "steiner-commute-1d": (_suite_steiner_commute, 3, 500),
    "steiner-volume-1d": (_suite_steiner_volume, 19, 500),
    "gamma-inequalities": (_suite_gamma_inequalities, 20, 500),
    "ck-negative": (_suite_ck_negative, 21, 99),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    sampler: ProfileSampler | None = None,
    cases: int | None = None,
) -> SuiteReport:
    """Run one named suite and collect every violation.

    Defaults to the repository seed and case count for the suite, so a
    bare run_suite(name) is reproducible.  All randomness flows from the
    sampler's seed; two runs with equal arguments give equal reports.
    """
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise UnknownSuite(f"unknown suite {name!r}; expected one of: {known}")
    body, default_seed, default_cases = _SUITES[name]
    if sampler is None:
        sampler = ProfileSampler(default_seed)
    if cases is None:
        cases = default_cases
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    rng = _generator(sampler.seed)
    failures: list[tuple[int, str]] = []
    worst = -INF
    for i in range(cases):
        residual, problem = body(i, rng, sampler)
        worst = max(worst, residual)
        if problem is not None:
            failures.append((i, problem))
    return SuiteReport(name, cases, tuple(failures), worst)

"""Randomized property suites and a brute-force grid oracle.

Each suite replays one identity or inequality over a deterministic stream
of random profiles and reports the worst deviation it saw.  A healthy
build produces an empty failure list for every suite.  The grid maximizer
is the independent check on the solved dimensional constant: it evaluates
the volume ratio of tents by fixed quadrature alone, never touching the
closed forms it is meant to certify.
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
    _GL_NODES,
    _GL_WEIGHTS,
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
    check_j_factorization,
    evaluation_grid,
    from_radius,
    j_transform,
    legendre,
    polarity,
    scale,
    symmetrize_line,
    to_radius,
)

# numpy loads inside the functions that use it: the sampler, run_suite and
# the brute-force oracle; the names below serve only the annotations
if TYPE_CHECKING:
    import numpy as np

_TRANSFORM_TOL = 1e-9
_INTEGRAL_TOL = 1e-10
_SUBSTITUTION_TOL = 1e-12
_RATIO_SLACK = 1e-8
_TENT_ROUNDTRIP_TOL = 1e-10
# largest tent increment b the grid oracle scans before b = inf
_BRUTE_FORCE_B_MAX = 1e4


class UnknownSuite(Exception):
    """Requested property suite does not exist."""


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
        import numpy as np

        rng = np.random.default_rng(self.seed)
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
    reach = from_radius(rho).evaluate(cap)
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
    top = rho.evaluate(rho.breakpoints[-1][0] + 1.0)
    capped = _cap_radius(rho, top * (0.2 + 0.6 * float(rng.random())))
    small, large = j_transform(capped), j_transform(rho)
    # both are concave radii, so small - large is linear between the knots
    worst = max(small.evaluate(w) - large.evaluate(w) for w in _knots(small, large))
    return worst, None if worst <= _TRANSFORM_TOL else f"order flipped by {worst:.3e}"


def _suite_order_reversing(i: int, rng, sampler: ProfileSampler) -> CaseResult:
    p = sampler.draw(rng)
    a = math.exp(float(rng.uniform(math.log(1.2), math.log(3.0))))
    q = scale(p, a)  # psi_q >= psi_p pointwise, so both duals must drop
    lp, lq = legendre(p), legendre(q)

    def excess(pairs) -> float | None:
        """Worst small - large where both are finite; None if small alone is inf."""
        worst = -INF
        for small, large in pairs:
            if math.isinf(small):
                if not math.isinf(large):
                    return None
            elif not math.isinf(large):
                worst = max(worst, small - large)
        return worst

    extras = [r for r, _ in lp.breakpoints] + [r for r, _ in lq.breakpoints]
    conj = excess((lq.evaluate(x), lp.evaluate(x)) for x in evaluation_grid(extras=extras))
    if conj is None:
        return INF, "conjugate gained an indicator region"
    flats = [1.0 / f for f in (p.flat_end, q.flat_end) if f > 0.0]
    polar = excess((polarity(q, s), polarity(p, s)) for s in evaluation_grid(extras=flats))
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
    import numpy as np

    rng = np.random.default_rng(sampler.seed)
    failures: list[tuple[int, str]] = []
    worst = -INF
    for i in range(cases):
        residual, problem = body(i, rng, sampler)
        worst = max(worst, residual)
        if problem is not None:
            failures.append((i, problem))
    return SuiteReport(name, cases, tuple(failures), worst)


# ---------------------------------------------------------------------------
# brute-force oracle for the dimensional constant

_QUAD_PANELS = 32
_QUAD_TOP = 60.0  # exp(-60) is far below the 1e-4 oracle target


def _kink_aligned_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    # Both integrands kink at z = a and z = 1/a whatever b is, so panels
    # split there keep the 15-point rule at spectral accuracy.
    import numpy as np

    cuts = [z for z in (a, 1.0 / a) if 0.0 < z < _QUAD_TOP]
    edges = np.unique(
        np.concatenate([np.linspace(0.0, _QUAD_TOP, _QUAD_PANELS + 1), cuts])
    )
    half = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    zs = (mids[:, None] + half[:, None] * np.array(_GL_NODES)[None, :]).ravel()
    ws = (half[:, None] * np.array(_GL_WEIGHTS)[None, :]).ravel()
    return zs, ws * np.exp(-zs)


def _int_pow(x: np.ndarray, n: int) -> np.ndarray:
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def _tent_log_ratios(n: int, a: float, b_vals: np.ndarray) -> np.ndarray:
    """log nu/mu for the tents T(a, b, 1), one quadrature per b, b = inf ok.

    brute_force_lambda's independent route, an oracle for the solver: the
    two volumes by quadrature, not big_f's and big_g's closed form.
    """
    import numpy as np

    zs, ws = _kink_aligned_rule(a)
    z = zs[None, :]
    b = b_vals[:, None]
    with np.errstate(invalid="ignore"):
        past_kink = 1.0 + (z - a) / (a + b)
    past_kink = np.where(np.isinf(b), 1.0, past_kink)
    rho = np.where(z <= a, z / a, past_kink)
    mu = _int_pow(rho, n) @ ws
    with np.errstate(invalid="ignore"):
        swapped = (b * z + 1.0) / (a + b)  # w * rho(1/w) below the kink
    swapped = np.where(np.isinf(b), z, swapped)
    rho_j = np.minimum(swapped, 1.0 / a)
    nu = _int_pow(rho_j, n) @ ws
    return np.log(nu) - np.log(mu)


def _brute_force_scan(
    n: int,
    grid_a: int,
    grid_b: int,
    a_range: tuple[float, float],
) -> tuple[float, float, float]:
    if not (0.0 < a_range[0] < a_range[1]):
        raise ValueError(f"slope range must satisfy 0 < lo < hi, got {a_range}")
    if grid_a < 2 or grid_b < 2:
        raise ValueError("need at least 2 grid points per axis")
    import numpy as np

    b_vals = np.concatenate(
        [[0.0], np.geomspace(1e-2, _BRUTE_FORCE_B_MAX, grid_b - 1), [np.inf]]
    )
    best, best_a, best_b = -INF, math.nan, math.nan
    for a in np.geomspace(a_range[0], a_range[1], grid_a):
        ratios = _tent_log_ratios(n, float(a), b_vals)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, best_a, best_b = float(ratios[j]), float(a), float(b_vals[j])
    return best, best_a, best_b


def brute_force_lambda(
    n: int,
    grid_a: int,
    grid_b: int,
    a_range: tuple[float, float] = (0.01, 5.0),
) -> float:
    """log of the grid maximum of the tent volume ratio, quadrature only.

    Scans slopes a geometrically over a_range and increments b over
    {0} + geometric(1e-2, 1e4) + {inf}; meant for small n where the
    kink-aligned composite 15-point rule on [0, 60] sits far below the
    1e-4 comparison tolerance against the solved constant.
    """
    best, _, _ = _brute_force_scan(n, grid_a, grid_b, a_range)
    return best

"""Piecewise-linear convex profiles on the ray and their duality transforms.

A profile psi is a nonnegative convex function on [0, inf) with psi(0) = 0,
stored as breakpoints (r_i, v_i) plus a tail slope; tail_slope = inf encodes
a jump to +inf past the last breakpoint (indicator-type tails).  The inverse
view is the radius function rho(z) = sup{r : psi(r) <= z}, concave and
non-decreasing, stored the same way with a finite tail slope; slope 0 is a
constant tail.

Both views are one kind of object, a piecewise-linear function with a tail
slope, and differ only in the direction their slopes turn.  They share the
module-level helpers: _canonical validates breakpoints and merges collinear
ones, _interpolate evaluates them (bisecting a tuple of abscissae that
each object builds on its first evaluation), and _max_gap compares two
profiles (radii through from_radius).

The inversion transform acts on radius functions as rho_J(w) = w * rho(1/w),
which on a linear segment rho = alpha z + beta swaps slope and intercept.
All three transforms (inversion J, conjugation L, polarity A) are exact on
the piecewise-linear representation; polarity is exposed pointwise only.
So identities between them are decided exactly, at the knots, by _max_gap.

Two degenerate profiles are representable and flow through everything:
psi == 0 (radius identically +inf) and the indicator of {0} (radius
identically 0).  They are each other's images under all three transforms.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

INF = float("inf")

# A breakpoint whose value lies within this tolerance, relative to that
# value, of the line through its neighbours is merged away (see _canonical).
MERGE_RTOL = 1e-12
# Slack for accepting slope monotonicity from computed (rounded) inputs,
# relative to the larger slope, so it holds at every scale.
CONVEXITY_SLACK = 1e-9

_Points = tuple[tuple[float, float], ...]

# Validation wording by curvature direction: +1 for convex profiles (r, psi),
# whose slopes rise, -1 for concave radii (z, rho), whose slopes fall.
_WORDS = {
    1: ("radii", "values", "decrease", "below"),
    -1: ("heights", "radius", "increase", "above"),
}


def _on_line(y: float, line: float) -> bool:
    """y matches the interpolated value `line` to MERGE_RTOL relative to y."""
    return abs(y - line) <= MERGE_RTOL * abs(y)


def _canonical(
    pts: list[tuple[float, float]], tail_slope: float, direction: int
) -> _Points:
    """Validate breakpoints with a tail slope and return their canonical form.

    Coordinates must be finite, x must strictly increase and y must not
    decrease; the slopes, the tail slope last, must turn in `direction`
    (+1 convex, -1 concave) up to CONVEXITY_SLACK relative to the larger
    slope of each pair, or ValueError is raised.
    Trailing points collinear with a finite tail are absorbed into it
    (popped from pts), then collinear runs are merged.  A point counts as
    collinear when dropping it moves its own value by at most MERGE_RTOL
    relative.  The test scales with the units of x and y, so the canonical
    form does not depend on them, and it compares values, not slopes, so a
    steep segment elsewhere cannot loosen it.
    """
    xs, ys, turn, side = _WORDS[direction]
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"breakpoints must be finite, got {(x, y)}")
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not x1 > x0:
            raise ValueError(f"{xs} must strictly increase: {x0} -> {x1}")
        if y1 < y0 - CONVEXITY_SLACK * max(1.0, abs(y0)):
            raise ValueError(f"{ys} must not decrease: {y0} -> {y1}")
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    for s0, s1 in zip(slopes, slopes[1:]):
        if direction * s1 < direction * s0 - CONVEXITY_SLACK * max(abs(s0), abs(s1)):
            raise ValueError(f"slopes must not {turn}: {s0} -> {s1}")
    if slopes and direction * tail_slope < direction * slopes[-1] - (
        CONVEXITY_SLACK * abs(slopes[-1])
    ):
        raise ValueError(f"tail slope {tail_slope} {side} final slope {slopes[-1]}")
    while len(pts) > 1 and not math.isinf(tail_slope):
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        if not _on_line(y1, y0 + tail_slope * (x1 - x0)):
            break
        pts.pop()
    merged = pts[:1]
    for x, y in pts[1:]:
        while len(merged) > 1:
            (xa, ya), (xb, yb) = merged[-2], merged[-1]
            if not _on_line(yb, ya + (y - ya) * (xb - xa) / (x - xa)):
                break
            merged.pop()
        merged.append((x, y))
    return tuple(merged)


def _interpolate(
    pts: _Points, xs: tuple[float, ...], tail_slope: float, x: float
) -> float:
    """Value at x >= pts[0][0] of the breakpoints continued by tail_slope.

    xs holds the abscissae of pts.  A tail slope of 0 holds the last value
    (also at x = inf), one of inf jumps to +inf past the last breakpoint.
    """
    x_last, y_last = pts[-1]
    if x >= x_last:
        if x == x_last or tail_slope == 0.0:
            return y_last
        return y_last + tail_slope * (x - x_last)
    idx = bisect_right(xs, x) - 1
    (x0, y0), (x1, y1) = pts[idx], pts[idx + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


# ---------------------------------------------------------------------------
# profile of psi


@dataclass(frozen=True)
class ConvexProfile:
    """Convex psi on the ray: breakpoints ((r, v), ...) and a tail slope.

    Canonicalized on construction: collinear breakpoints are merged, a
    trailing breakpoint whose incoming slope equals a finite tail slope is
    absorbed.  Invalid data (r not strictly increasing, v decreasing, slopes
    decreasing beyond slack, tail slope below the last slope, tail slope 0
    after a positive value) raises ValueError.
    """

    breakpoints: tuple[tuple[float, float], ...]
    tail_slope: float

    def __post_init__(self) -> None:
        pts = [(float(r), float(v)) for r, v in self.breakpoints]
        tail = float(self.tail_slope)
        if not pts:
            raise ValueError("profile needs at least the origin breakpoint")
        if pts[0] != (0.0, 0.0):
            raise ValueError(f"profile must start at (0, 0), got {pts[0]}")
        if math.isnan(tail) or tail < 0.0:
            raise ValueError(f"tail slope must be in [0, inf], got {tail}")
        if tail == 0.0 and any(v > 0.0 for _, v in pts):
            # within CONVEXITY_SLACK, but the radius would need slope 1/0
            raise ValueError(f"tail slope 0 after a positive value in {pts}")
        object.__setattr__(self, "breakpoints", _canonical(pts, tail, 1))
        object.__setattr__(self, "tail_slope", tail)

    @property
    def is_zero(self) -> bool:
        return len(self.breakpoints) == 1 and self.tail_slope == 0.0

    @property
    def is_origin_indicator(self) -> bool:
        return len(self.breakpoints) == 1 and math.isinf(self.tail_slope)

    @property
    def flat_end(self) -> float:
        """Largest r with psi(r) = 0."""
        end = 0.0
        for r, v in self.breakpoints:
            if v <= 0.0:
                end = r
        return end

    @cached_property
    def _abscissae(self) -> tuple[float, ...]:
        return tuple(r for r, _ in self.breakpoints)

    def evaluate(self, r: float) -> float:
        if not r >= 0.0:
            raise ValueError(f"profile domain is r >= 0, got {r}")
        return _interpolate(self.breakpoints, self._abscissae, self.tail_slope, r)


# ---------------------------------------------------------------------------
# radius functions


@dataclass(frozen=True)
class RadiusFunction:
    """Level-set radius rho(z): breakpoints ((z, rho), ...) and a tail slope.

    rho is non-decreasing and concave; past the last breakpoint it grows
    with the tail slope, a finite number >= 0 (0 is a constant tail).  The
    degenerate rho == +inf (profile psi == 0) is the single breakpoint
    (0, inf) with tail slope 0.  Invalid data raises ValueError.
    """

    breakpoints: tuple[tuple[float, float], ...]
    tail_slope: float

    def __post_init__(self) -> None:
        pts = [(float(z), float(x)) for z, x in self.breakpoints]
        slope = float(self.tail_slope)
        if not pts:
            raise ValueError("radius function needs at least one breakpoint")
        if pts[0][0] != 0.0:
            raise ValueError(f"first breakpoint must sit at z = 0, got {pts[0]}")
        if not 0.0 <= slope < INF:
            raise ValueError(f"radius tail slope must be in [0, inf), got {slope}")
        object.__setattr__(self, "tail_slope", slope)
        if math.isinf(pts[0][1]):
            if len(pts) > 1 or slope != 0.0:
                raise ValueError("infinite radius must be ((0, inf),) with slope 0")
            object.__setattr__(self, "breakpoints", ((0.0, INF),))
            return
        if pts[0][1] < 0.0:
            raise ValueError(f"radius must be nonnegative, got {pts[0][1]}")
        object.__setattr__(self, "breakpoints", _canonical(pts, slope, -1))

    @classmethod
    def infinite(cls) -> "RadiusFunction":
        return cls(((0.0, INF),), 0.0)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.breakpoints[0][1])

    @property
    def is_zero(self) -> bool:
        return self.breakpoints == ((0.0, 0.0),) and self.tail_slope == 0.0

    @cached_property
    def _abscissae(self) -> tuple[float, ...]:
        return tuple(z for z, _ in self.breakpoints)

    def evaluate(self, z: float) -> float:
        if not z >= 0.0:
            raise ValueError(f"radius domain is z >= 0, got {z}")
        return _interpolate(self.breakpoints, self._abscissae, self.tail_slope, z)


@dataclass(frozen=True)
class LineConvexFunction:
    """Convex function on the whole line vanishing at 0, as two ray branches.

    `right` is the profile of f on [0, inf); `left` the profile of
    x -> f(-x).
    """

    left: ConvexProfile
    right: ConvexProfile


# ---------------------------------------------------------------------------
# conversions


def to_radius(p: ConvexProfile) -> RadiusFunction:
    """Radius function of the level sets of psi; exact coordinate swap."""
    if p.is_zero:
        return RadiusFunction.infinite()
    pts = [(0.0, p.flat_end)]
    for r, v in p.breakpoints:
        if v > 0.0:
            pts.append((v, r))
    return RadiusFunction(tuple(pts), 1.0 / p.tail_slope)


def from_radius(rho: RadiusFunction) -> ConvexProfile:
    """Inverse of to_radius; rejects non-concave input via the constructor."""
    if rho.is_infinite:
        return ConvexProfile(((0.0, 0.0),), 0.0)
    pts = [(0.0, 0.0)]
    x0 = rho.breakpoints[0][1]
    if x0 > 0.0:
        pts.append((x0, 0.0))
    for z, x in rho.breakpoints[1:]:
        pts.append((x, z))
    tail_slope = 1.0 / rho.tail_slope if rho.tail_slope > 0.0 else INF
    return ConvexProfile(tuple(pts), tail_slope)


# ---------------------------------------------------------------------------
# the inversion transform


def j_transform(rho: RadiusFunction) -> RadiusFunction:
    """rho_J(w) = w * rho(1/w): breakpoint (z, x) maps to (1/z, x/z).

    The input's tail slope becomes the output's radius at 0 and its radius
    at 0 the output's tail slope, so the transform is an exact involution on
    the representation.
    """
    if rho.is_infinite:
        return RadiusFunction.infinite()
    pts = rho.breakpoints
    out_pts = [(0.0, rho.tail_slope)]
    for z, x in reversed(pts[1:]):
        out_pts.append((1.0 / z, x / z))
    return RadiusFunction(tuple(out_pts), pts[0][1])


# ---------------------------------------------------------------------------
# conjugation


def legendre(p: ConvexProfile) -> ConvexProfile:
    """Convex conjugate sup_r (s r - psi(r)): slopes and breakpoints swap.

    A finite tail slope becomes the conjugate's last breakpoint followed by
    an indicator tail; an indicator tail becomes a finite final slope.
    """
    pts = p.breakpoints
    radii = [r for r, _ in pts]
    slopes = [
        (v1 - v0) / (r1 - r0) for (r0, v0), (r1, v1) in zip(pts, pts[1:])
    ]
    kinks = list(slopes)
    if not math.isinf(p.tail_slope):
        kinks.append(p.tail_slope)
    out_pts = [(0.0, 0.0)]
    val = 0.0
    prev = 0.0
    for j, s in enumerate(kinks):
        val += radii[j] * (s - prev)
        if s > prev:
            out_pts.append((s, val))
        prev = s
    tail = INF if not math.isinf(p.tail_slope) else radii[-1]
    return ConvexProfile(tuple(out_pts), tail)


# ---------------------------------------------------------------------------
# polarity


def polarity(p: ConvexProfile, s: float) -> float:
    """(A psi)(s) = sup_y (s y - 1) / psi(y), evaluated pointwise.

    Division conventions: positive/0 = +inf, nonpositive/0 = 0, finite/inf
    = 0.  On each linear segment the ratio is monotone, so the supremum is
    attained at breakpoints or as the tail limit s / tail_slope.
    """
    if s < 0.0 or math.isnan(s):
        raise ValueError(f"polarity domain is s >= 0, got {s}")
    if p.is_zero:
        return INF if s > 0.0 else 0.0
    flat = p.flat_end
    if flat > 0.0 and s * flat - 1.0 > 0.0:
        return INF
    best = 0.0
    for r, v in p.breakpoints:
        if v > 0.0:
            best = max(best, (s * r - 1.0) / v)
    if not math.isinf(p.tail_slope):
        best = max(best, s / p.tail_slope)
    return best


def _polar_profile(p: ConvexProfile) -> ConvexProfile:
    """Profile of the polar: upper envelope of the per-segment candidate lines.

    Private plumbing for the factorization cross-check; the public polarity
    stays pointwise.
    """
    if p.is_zero:
        return ConvexProfile(((0.0, 0.0),), INF)
    if p.is_origin_indicator:
        return ConvexProfile(((0.0, 0.0),), 0.0)
    lines = [(0.0, 0.0)]
    for r, v in p.breakpoints:
        if v > 0.0:
            lines.append((r / v, -1.0 / v))
    if not math.isinf(p.tail_slope):
        lines.append((1.0 / p.tail_slope, 0.0))
    lines.sort()
    dedup: list[tuple[float, float]] = []
    for a, b in lines:
        if dedup and dedup[-1][0] == a:
            if b > dedup[-1][1]:
                dedup[-1] = (a, b)
        else:
            dedup.append((a, b))
    hull: list[tuple[float, float]] = []
    starts: list[float] = []
    for a, b in dedup:
        x = 0.0
        while hull:
            a0, b0 = hull[-1]
            x = (b0 - b) / (a - a0)
            if x <= starts[-1]:
                hull.pop()
                starts.pop()
            else:
                break
        if not hull:
            if b < 0.0:
                continue  # dominated at 0 by the zero line; enters later if at all
            hull.append((a, b))
            starts.append(0.0)
        else:
            hull.append((a, b))
            starts.append(x)
    flat = p.flat_end
    cutoff = (1.0 / flat) if flat > 0.0 else INF
    out_pts = [(0.0, 0.0)]
    for (a, b), x in zip(hull, starts):
        if 0.0 < x < cutoff:
            out_pts.append((x, a * x + b))
    if math.isinf(cutoff):
        return ConvexProfile(tuple(out_pts), hull[-1][0])
    a, b = hull[-1]
    for (ai, bi), x in zip(hull, starts):
        if x < cutoff:
            a, b = ai, bi
    if cutoff > out_pts[-1][0]:
        out_pts.append((cutoff, a * cutoff + b))
    return ConvexProfile(tuple(out_pts), INF)


# ---------------------------------------------------------------------------
# composite checks and helpers


def evaluation_grid(
    lo: float = 1e-3, hi: float = 1e3, points: int = 200,
    extras: Iterable[float] = (),
) -> list[float]:
    """Geometric grid on [lo, hi] plus any finite positive extras, sorted.

    A single point is lo, as with np.geomspace.
    """
    ratio = hi / lo
    steps = max(points - 1, 1)
    grid = {lo * ratio ** (i / steps) for i in range(points)}
    for x in extras:
        if x > 0.0 and math.isfinite(x):
            grid.add(float(x))
    return sorted(grid)


def _max_gap(p: ConvexProfile, q: ConvexProfile) -> float:
    """Largest pointwise gap |p - q| between two profiles, decided exactly.

    p - q is linear between adjacent knots of the two breakpoint sets and
    past the last knot, so its values at those knots and at the tail point
    2*top (which shows a tail-slope difference) decide equality up to
    rounding; a denser grid or the midpoints add nothing.  Points where
    both sides are +inf count as no gap; a point where exactly one side is
    infinite returns inf, unless both indicator edges lie within 1e-9
    relative of it.
    """
    knots = sorted({r for r, _ in p.breakpoints} | {r for r, _ in q.breakpoints})
    top = knots[-1] if knots[-1] > 0.0 else 1.0
    worst = 0.0
    for x in (*knots, 2.0 * top):
        a, b = p.evaluate(x), q.evaluate(x)
        if math.isinf(a) and math.isinf(b):
            continue
        if math.isinf(a) or math.isinf(b):
            # ignore a one-ulp disagreement about where an indicator starts
            lo, hi = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
            pa, qa = p.evaluate(lo), q.evaluate(lo)
            if (
                math.isinf(p.evaluate(hi))
                and math.isinf(q.evaluate(hi))
                and not (math.isinf(pa) or math.isinf(qa))
            ):
                worst = max(worst, abs(pa - qa))
                continue
            return INF
        worst = max(worst, abs(a - b))
    return worst


def check_j_factorization(p: ConvexProfile) -> float:
    """Max pointwise gap between the radius route J and conjugate-of-polar L A.

    Both routes are exact piecewise-linear profiles, so _max_gap compares
    them at their knots and in the tail.
    """
    return _max_gap(from_radius(j_transform(to_radius(p))), legendre(_polar_profile(p)))


def scale(p: ConvexProfile, a: float) -> ConvexProfile:
    """Profile of r -> psi(a r): breakpoints (r/a, v), slopes scaled by a."""
    if not (a > 0.0) or math.isinf(a):
        raise ValueError(f"scale factor must be finite > 0, got {a}")
    pts = tuple((r / a, v) for r, v in p.breakpoints)
    tail = p.tail_slope if math.isinf(p.tail_slope) else p.tail_slope * a
    return ConvexProfile(pts, tail)


def _average_radius(r1: RadiusFunction, r2: RadiusFunction) -> RadiusFunction:
    if r1.is_infinite or r2.is_infinite:
        return RadiusFunction.infinite()
    zs = sorted({z for z, _ in r1.breakpoints} | {z for z, _ in r2.breakpoints})
    pts = tuple((z, 0.5 * (r1.evaluate(z) + r2.evaluate(z))) for z in zs)
    return RadiusFunction(pts, 0.5 * (r1.tail_slope + r2.tail_slope))


def symmetrize_line(f: LineConvexFunction) -> ConvexProfile:
    """Even rearrangement of f: level interval [l, r] becomes radius (r-l)/2."""
    avg = _average_radius(to_radius(f.left), to_radius(f.right))
    return from_radius(avg)


# ---------------------------------------------------------------------------
# JSON document form


def profile_to_dict(p: ConvexProfile) -> dict:
    tail = "inf" if math.isinf(p.tail_slope) else p.tail_slope
    return {
        "breakpoints": [[r, v] for r, v in p.breakpoints],
        "tail_slope": tail,
    }


def profile_from_dict(doc: object) -> ConvexProfile:
    if not isinstance(doc, dict):
        raise ValueError(f"profile document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"breakpoints", "tail_slope"}
    if unknown:
        raise ValueError(f"unknown profile fields: {sorted(unknown)}")
    if "breakpoints" not in doc or "tail_slope" not in doc:
        raise ValueError("profile document needs 'breakpoints' and 'tail_slope'")
    raw = doc["breakpoints"]
    if not isinstance(raw, list) or not all(
        isinstance(bp, (list, tuple)) and len(bp) == 2 for bp in raw
    ):
        raise ValueError("'breakpoints' must be a list of [r, v] pairs")
    try:
        pts = tuple((float(r), float(v)) for r, v in raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"non-numeric breakpoint: {exc}") from exc
    slope = doc["tail_slope"]
    if slope == "inf":
        tail_slope = INF
    elif isinstance(slope, (int, float)) and not isinstance(slope, bool):
        tail_slope = float(slope)
    else:
        raise ValueError(f"'tail_slope' must be a number or \"inf\", got {slope!r}")
    return ConvexProfile(pts, tail_slope)

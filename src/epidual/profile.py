"""Piecewise-linear convex profiles on the ray and their duality transforms.

A profile psi is a nonnegative convex function on [0, inf) with psi(0) = 0,
stored as breakpoints (r_i, v_i) plus a tail slope; tail_slope = inf encodes
a jump to +inf past the last breakpoint (indicator-type tails).  The inverse
view is the radius function rho(z) = sup{r : psi(r) <= z}, concave and
non-decreasing, stored the same way with a finite tail slope; slope 0 is a
constant tail.

Both views are one kind of object, a piecewise-linear function with a tail
slope, and differ only in the direction their slopes turn.  They share the
module-level helpers: _canonical merges and validates breakpoints by one
test of each value against its neighbours' line, to MERGE_RTOL, far above
the line's rounding, so input convex as stored is never refused;
_interpolate_sorted evaluates them in one walk over ascending points, and
evaluate is its one-point sweep; two of them are compared exactly at their
_knots, each side read there in one sweep.  Each radius is validated once:
the constructors run _canonical on what they are given, while to_radius and
j_transform derive that their output is a valid radius whenever their input
is valid, and build it by RadiusFunction._trusted, which checks only what
rounding can break.

The inversion transform acts on radius functions as rho_J(w) = w * rho(1/w),
which on a linear segment rho = alpha z + beta swaps slope and intercept.
All three transforms are exact on the piecewise-linear representation:
inversion J, conjugation L and polarity A = L J (the paper factors J = L A,
and L is an involution); `polarity` evaluates A pointwise from its
definition.  So identities are decided exactly, at the knots.

Two degenerate profiles are representable and flow through everything:
psi == 0 (radius identically +inf) and the indicator of {0} (radius
identically 0).  L and A swap them; J, which preserves order, fixes each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Sequence

INF = float("inf")

# A breakpoint this close, relative to its value, to the line through its
# neighbours is merged; one further off on the non-convex side is refused.
MERGE_RTOL = 1e-12

_Points = tuple[tuple[float, float], ...]

# Validation wording by curvature direction: +1 for convex profiles (r, psi),
# whose slopes rise, -1 for concave radii (z, rho), whose slopes fall.
_WORDS = {
    1: ("radii", "values", "decrease", "below"),
    -1: ("heights", "radius", "increase", "above"),
}


def _off_line(y: float, line: float) -> float:
    """y - line, or 0.0 where they match to MERGE_RTOL relative to y."""
    return 0.0 if abs(y - line) <= MERGE_RTOL * abs(y) else y - line


def _canonical(
    pts: list[tuple[float, float]], tail_slope: float, direction: int
) -> _Points:
    """Validate breakpoints with a tail slope and return their canonical form.

    Coordinates must be finite, x must strictly increase and no y may lie
    more than MERGE_RTOL * max(1, |top|) under top, the largest y before
    it (bounding each step's fall alone would let small steps sink without
    limit).  Trailing points on a finite tail's line are absorbed into it
    (popped from pts), then points on the chord
    of their neighbours in the merged run are dropped.  On means within
    MERGE_RTOL of the point's own value, whatever the units of x and y or
    steep segments elsewhere.  A point off its line on the side `direction`
    asks for (+1 convex: below, -1 concave: above) is kept, one on the
    other side raises ValueError.  Rounding cannot refuse convex input: the
    chord ya + (y - ya) t, t = (xb - xa) / (x - xa) formed first so that no
    product under- or overflows, takes six roundings, the tail line three;
    where a point nearly meets its line and values do not fall, the line is
    then under 10 eps of the value off, far inside MERGE_RTOL (4,500 eps).

    A radius (direction -1, values >= 0, tail slope >= 0) comes back with
    strictly increasing values.  In exact arithmetic, r = MERGE_RTOL: a kept
    point lies over r y above its final neighbours' chord (the merge pass
    tests it again when its right neighbour is popped), so the slopes fall
    and it is enough that the last piece rises.  The tail loop stops at a
    point L over r y_L above the tail line from its predecessor Q, a line
    at least y_Q: y_L - y_Q > r y_L >= r y_Q.  The merge pass may pop Q,
    against the chord from the kept point A before it: then y_A < y_L (else
    that chord is at least y_L at x_Q and Q is refused), and A lies under
    the rising chord, y_A < y_Q (1 + r).  Were y_B >= y_A for the kept point
    B before A, y_Q < y_A, and A would lie under y_A - y_Q < r y_A above
    the chord from B to Q, not kept.
    So the kept points rise up to A, under L, whatever pops follow.  The
    tail's margin survives rounding, which is monotone; the pops' margins
    differ by about r^2 y, under the chords' rounding, so in floating point
    test_radius_breakpoints_strictly_increase checks them.
    """
    xs, ys, turn, side = _WORDS[direction]
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"breakpoints must be finite, got {(x, y)}")
    top = pts[0][1]
    for (x0, _), (x1, y1) in zip(pts, pts[1:]):
        if not x1 > x0:
            raise ValueError(f"{xs} must strictly increase: {x0} -> {x1}")
        if y1 > top:
            top = y1
        elif y1 < top - MERGE_RTOL * max(1.0, abs(top)):
            raise ValueError(f"{ys} must not decrease: {top} -> {y1}")
    while len(pts) > 1 and not math.isinf(tail_slope):
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        off = direction * _off_line(y1, y0 + tail_slope * (x1 - x0))
        if off > 0.0:
            raise ValueError(f"tail slope {tail_slope} {side} final slope into {(x1, y1)}")
        if off < 0.0:
            break
        pts.pop()
    merged = pts[:1]
    for x, y in pts[1:]:
        while len(merged) > 1:
            (xa, ya), (xb, yb) = merged[-2], merged[-1]
            off = direction * _off_line(yb, ya + (y - ya) * ((xb - xa) / (x - xa)))
            if off > 0.0:
                raise ValueError(f"slopes must not {turn} at {(xb, yb)}")
            if off < 0.0:
                break
            merged.pop()
        merged.append((x, y))
    return tuple(merged)


def _interpolate_sorted(pts: _Points, tail_slope: float, xs: Sequence[float]) -> list[float]:
    """The breakpoints continued by tail_slope, at each ascending x >= pts[0][0].

    A tail slope of 0 holds the last value (also at x = inf), one of inf
    jumps to +inf past the last breakpoint.  Below the last breakpoint, x
    takes the last breakpoint at or below it, found by walking on from the
    previous x's piece, and the value y0 + (y1 - y0) ((x - x0) / (x1 - x0)),
    the fraction first: (y1 - y0) (x - x0) overflows near 1e304.

    This is the module's one evaluator: one point is a one-point sweep,
    which walks to its piece in i steps, i its piece index, where a
    bisection would take log m for m breakpoints.  No caller evaluates one
    point after another deep in a long profile: vol_mu evaluates only its
    piece from radius 0, a radius's first, and the checks (and
    extremal.t_map, at its three roots) read each profile at all their
    points in one sweep.
    """
    x_last, y_last = pts[-1]
    out = []
    i, x1 = 0, pts[0][0]
    for x in xs:
        if x >= x_last:
            out.append(y_last if x == x_last or tail_slope == 0.0 else y_last + tail_slope * (x - x_last))
            continue
        if x >= x1:
            while pts[i + 1][0] <= x:
                i += 1
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            rise, run = y1 - y0, x1 - x0
        out.append(y0 + rise * ((x - x0) / run))
    return out


# ---------------------------------------------------------------------------
# profile of psi


@dataclass(frozen=True)
class ConvexProfile:
    """Convex psi on the ray: breakpoints ((r, v), ...) and a tail slope.

    Canonicalized on construction: collinear breakpoints are merged, a
    trailing breakpoint whose incoming slope equals a finite tail slope is
    absorbed, and with tail slope 0, where every value lies within
    MERGE_RTOL under 0 (psi is 0 to that tolerance), the breakpoints are
    the zero profile's ((0, 0),).  Invalid data (r not strictly
    increasing, v more than MERGE_RTOL under an earlier value, 0 at the
    origin among them, v above its chord or tail line beyond MERGE_RTOL,
    tail slope 0 after a positive value) raises ValueError; rounding alone
    never does.
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
            # even within MERGE_RTOL of flat: the radius would need slope 1/0
            raise ValueError(f"tail slope 0 after a positive value in {pts}")
        pts = _canonical(pts, tail, 1)
        if tail == 0.0:
            # the radius of psi == 0 is +inf, and any other would need slope
            # 1/0; _canonical refused values more than MERGE_RTOL under 0
            pts = ((0.0, 0.0),)
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "tail_slope", tail)

    @property
    def is_zero(self) -> bool:
        return len(self.breakpoints) == 1 and self.tail_slope == 0.0

    @cached_property
    def flat_end(self) -> float:
        """Largest r with psi(r) = 0."""
        return max(r for r, v in self.breakpoints if v <= 0.0)

    def evaluate(self, r: float) -> float:
        if not r >= 0.0:
            raise ValueError(f"profile domain is r >= 0, got {r}")
        return _interpolate_sorted(self.breakpoints, self.tail_slope, (r,))[0]


# ---------------------------------------------------------------------------
# radius functions


@dataclass(frozen=True)
class RadiusFunction:
    """Level-set radius rho(z): breakpoints ((z, rho), ...) and a tail slope.

    rho >= 0 is concave, its breakpoint radii strictly increase (derived in
    _canonical, and in to_radius and j_transform for the radii they build
    through _trusted), and past the last it grows with the tail slope, finite
    and >= 0 (0 is a constant tail).  The degenerate rho == +inf (profile psi
    == 0) is the single breakpoint (0, inf), slope 0.  Bad data raises
    ValueError.
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
        if min(x for _, x in pts) < 0.0:
            raise ValueError(f"radius must be nonnegative, got {pts}")
        object.__setattr__(self, "breakpoints", _canonical(pts, slope, -1))

    @classmethod
    def _trusted(cls, pts: _Points, slope: float) -> "RadiusFunction":
        """The radius (pts, slope) of a caller that derives it valid.

        pts start at (0, x0), x0 >= 0 finite, and slope >= 0.  to_radius
        and j_transform derive that in exact arithmetic the radius is
        concave with strict kinks, its z and radii strictly rising.
        Downstream needs of that finite breakpoints whose z and radii
        strictly rise (vol_mu's routing and skip bounds, _log_segment, which
        refuses a falling piece) and a finite slope, and rounding can break
        those.  One pass with no chords checks them: the first point is
        finite, so a rise to a finite last point is finite throughout, and a
        NaN fails every comparison.  What fails goes to the validating
        constructor, which merges or refuses it as it would any input.
        Concavity is not checked: rounding moves a point by half an ulp, far
        inside the MERGE_RTOL to which from_radius's ConvexProfile checks it.
        """
        z_last, x_last = pts[-1]
        if not (slope < INF and z_last < INF and x_last < INF):
            return cls(pts, slope)
        z0, x0 = pts[0]
        for z1, x1 in pts[1:]:
            if not (z0 < z1 and x0 < x1):
                return cls(pts, slope)
            z0, x0 = z1, x1
        rho = object.__new__(cls)
        object.__setattr__(rho, "breakpoints", pts)
        object.__setattr__(rho, "tail_slope", slope)
        return rho

    @classmethod
    def infinite(cls) -> "RadiusFunction":
        return cls(((0.0, INF),), 0.0)

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.breakpoints[0][1])

    @property
    def is_zero(self) -> bool:
        return self.breakpoints == ((0.0, 0.0),) and self.tail_slope == 0.0

    def evaluate(self, z: float) -> float:
        if not z >= 0.0:
            raise ValueError(f"radius domain is z >= 0, got {z}")
        return _interpolate_sorted(self.breakpoints, self.tail_slope, (z,))[0]


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
    """Radius function of the level sets of psi; exact coordinate swap.

    Breakpoint (r, v) with v > 0 becomes (v, r), after (0, flat_end), and
    the tail slope t becomes 1 / t.  In exact arithmetic the radius is
    concave with strict kinks, and its z and radii strictly rise.  psi's
    kept points are kinks (_canonical), so its slopes strictly rise; the
    slope into the first v > 0 is positive, so the later v, the z, strictly
    rise.  The radii are psi's r, which strictly rise.  The radius's slopes
    are the reciprocals of psi's (the first at least that, as its start may
    lie within MERGE_RTOL under 0), so they strictly fall, and 1 / t lies
    under the last, as a finite tail absorbs a last point on its line.

    In floating point the coordinates are copied and only 1 / t rounds; it
    overflows for a subnormal t.  _canonical measures a point's offset from
    its neighbours' line relative to its own value: v in psi, r in rho.  A
    kink d under psi's chord lies about d / s over rho's, s psi's slope
    there, so where s r > v a kink that psi keeps can lie within MERGE_RTOL
    of its chord in rho, and RadiusFunction's constructor would merge it.
    The swap keeps it.  _trusted checks the rise of z, which rests on
    _canonical's margins in floating point, and the finite tail slope.
    """
    if p.is_zero:
        return RadiusFunction.infinite()
    pts = [(0.0, p.flat_end)]
    for r, v in p.breakpoints:
        if v > 0.0:
            pts.append((v, r))
    return RadiusFunction._trusted(tuple(pts), 1.0 / p.tail_slope)


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

    In exact arithmetic J keeps a radius concave with strict kinks, its z
    and radii strictly rising.  It sends the line x = a z + b to y = a + b w,
    so chords go to chords, and a point d above its neighbours' chord lands
    d / z above theirs, the same fraction of its value x / z: kinks and
    their MERGE_RTOL margins are kept.  The w = 1 / z of z > 0 strictly
    rise, read in reverse.  With breakpoints 0 = z_0 < ... < z_m, the piece
    from z_i has slope s_i (s_m the tail slope) and intercept b_i = x_i -
    s_i z_i: b_0 = rho(0) >= 0 and b_{i+1} - b_i = (s_i - s_{i+1}) z_{i+1}
    > 0, so from z_1 on, x / z = s_i + b_i / z strictly falls and stays over
    s_m: the image radii strictly rise from s_m to x_1 / z_1.

    In floating point 1 / z and x / z each round once, so their order holds
    but neighbours can tie; 1 / z overflows for a subnormal z, x / z can
    over- or underflow, and a kink a few ulps deep can flip.  _trusted
    checks the rise and that the result is finite.
    """
    if rho.is_infinite:
        return RadiusFunction.infinite()
    pts = rho.breakpoints
    out_pts = [(0.0, rho.tail_slope)]
    for z, x in reversed(pts[1:]):
        out_pts.append((1.0 / z, x / z))
    return RadiusFunction._trusted(tuple(out_pts), pts[0][1])


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
    attained at breakpoints or as the tail limit s / tail_slope.  It is
    the oracle for A's profile L(J psi), and the one point s of _polar_sweep.
    """
    if s < 0.0 or math.isnan(s):
        raise ValueError(f"polarity domain is s >= 0, got {s}")
    return _polar_sweep(p, (s,))[0][0]


def _polar_sweep(p: ConvexProfile, ss: Sequence[float]) -> tuple[list[float], list[float]]:
    """polarity(p, s) at each s >= 0 of ss, and the slope of a line attaining it.

    The profile's lines are prepared once: (s r - 1) / v for each
    breakpoint with v > 0, with its slope r / v, the flat start's cutoff,
    and the tail's s / tail_slope (none under an indicator tail).  The
    value is the largest of 0 and the lines; a tie keeps the earlier, the
    breakpoints in order before the tail.  Past the cutoff, s flat_end > 1,
    it is +inf with slope 0.0.  polarity's definition takes these steps
    at each s, so the doubles are the same however many s are swept.
    """
    if p.is_zero:
        return [INF if s > 0.0 else 0.0 for s in ss], [0.0 for _ in ss]
    cut = p.flat_end
    lines = [(r, v, r / v) for r, v in p.breakpoints if v > 0.0]
    tail = p.tail_slope
    steep = 1.0 / tail
    values, slopes = [], []
    for s in ss:
        best, slope = 0.0, 0.0
        if cut > 0.0 and s * cut - 1.0 > 0.0:
            best = INF
        else:
            for r, v, rise in lines:
                y = (s * r - 1.0) / v
                if y > best:
                    best, slope = y, rise
            if tail < INF and s / tail > best:
                best, slope = s / tail, steep
        values.append(best)
        slopes.append(slope)
    return values, slopes


# ---------------------------------------------------------------------------
# composite checks and helpers


def evaluation_grid(
    lo: float = 1e-3, hi: float = 1e3, points: int = 200,
    extras: Iterable[float] = (),
) -> list[float]:
    """Geometric grid on [lo, hi] plus any finite positive extras, sorted.

    The geometric part ends at lo and hi exactly (a single point is lo),
    and is computed once for each (lo, hi, points) and kept.
    """
    grid = set(_geometric_grid(lo, hi, points))
    for x in extras:
        if x > 0.0 and math.isfinite(x):
            grid.add(float(x))
    return sorted(grid)


@lru_cache(maxsize=16)
def _geometric_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    """lo (hi/lo)^(i/(points-1)), i < points, but the last of two or more is hi itself."""
    if points < 2:
        return (lo,) * points
    ratio, steps = hi / lo, points - 1
    return (*(lo * ratio ** (i / steps) for i in range(steps)), hi)


def _knots(
    p: ConvexProfile | RadiusFunction, q: ConvexProfile | RadiusFunction
) -> list[float]:
    """Sorted union of both breakpoint abscissae, then the tail point 2*top.

    p - q is linear between adjacent knots and past the last one, so its
    values here (the last shows a tail-slope difference; top = 1 when 0 is
    the only knot) decide it exactly; a denser grid or midpoints add nothing.
    """
    knots = sorted({x for x, _ in p.breakpoints} | {x for x, _ in q.breakpoints})
    top = knots[-1] if knots[-1] > 0.0 else 1.0
    return [*knots, 2.0 * top]


_Sweep = Callable[[Sequence[float]], list[float]]


def _sweep(f: ConvexProfile | RadiusFunction) -> _Sweep:
    """f at ascending points, read in one _interpolate_sorted pass."""
    return partial(_interpolate_sorted, f.breakpoints, f.tail_slope)


def _compared(
    xs: Sequence[float], us: list[float], vs: list[float], f: _Sweep, g: _Sweep
) -> list[tuple[float, float, float] | None]:
    """(x', f(x'), g(x')) to compare at each knot x; None where both are +inf.

    xs ascend, us and vs are f and g there, and f and g sweep the two sides.
    Where one alone is +inf, x' = x (1 - 1e-9) if both indicator edges lie
    within 1e-9 relative of x (a one-ulp disagreement), else x' = x; each
    side reads x (1 -+ 1e-9) in one two-point sweep to decide.
    """
    out = []
    for x, a, b in zip(xs, us, vs):
        if max(a, b) == INF > min(a, b):
            edge = (x * (1.0 - 1e-9), x * (1.0 + 1e-9))
            (fa, fb), (ga, gb) = f(edge), g(edge)
            if min(fb, gb) == INF and max(fa, ga) < INF:
                x, a, b = edge[0], fa, ga
        out.append(None if min(a, b) == INF else (x, a, b))
    return out


def _max_gap(p: ConvexProfile, q: ConvexProfile) -> float:
    """Largest gap |p - q| between two profiles, decided at _knots.

    Indicator edges follow _compared; one side alone at +inf gives inf.
    """
    knots, f, g = _knots(p, q), _sweep(p), _sweep(q)
    worst = 0.0
    for pair in _compared(knots, f(knots), g(knots), f, g):
        if pair is not None:
            worst = max(worst, abs(pair[1] - pair[2]))
    return worst


def check_j_factorization(p: ConvexProfile) -> float:
    """Largest gap between q = L(J psi) and A psi by its definition.

    The paper factors J = L A and L is an involution, so A psi = q.  A gap
    |q - P| at s, P = polarity(p, s), counts relative to 1 + |P| + sigma s,
    sigma the steeper of q's slope and that of a line attaining P: the
    rounding of s moves either side by sigma ulp(s).

    Both are 0 at s = 0.  Between adjacent _knots a < b, q is linear and
    A psi, a sup of lines, convex, so d = A psi - q is convex.  If d is 0
    at a, b and m = (a + b) / 2, it is <= 0 under its chord, and for x in
    [a, m), m = t x + (1 - t) b with 0 < t <= 1 gives 0 = d(m) <= t d(x);
    with (m, b] alike, d = 0 on [a, b].  Past the tail point 2 top, q keeps
    the slope of A psi's steepest line, r / v at psi's first positive
    breakpoint as J forms it (v / r does not fall along a convex psi
    through 0; to MERGE_RTOL where a canonical form absorbs it), so d is
    convex with final slope 0: 0 on [top, 2 top], it stays 0.  Past a flat
    start's cutoff 1 / flat_end both are +inf.

    At the cutoff, q's knot is fl(1 / flat_end).  While that is normal,
    flat_end times it does not exceed 1; once it is subnormal (flat_end >
    2^1022) the product can, and the polar reads +inf there while q is
    finite.  _compared then compares both sides just inside the edge, and
    a one-point polar sweep gives the slope there.
    """
    q = legendre(from_radius(j_transform(to_radius(p))))
    knots, pts = _knots(q, q), q.breakpoints
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    slopes.append(q.tail_slope)
    # the midpoint and the right end of each pair of knots, with q's slope there
    ss = [s for a, b in zip(knots, knots[1:]) for s in (a + 0.5 * (b - a), b)]
    sweep = _sweep(q)
    values, rises = _polar_sweep(p, ss)
    pairs = _compared(ss, sweep(ss), values, sweep, lambda xs: _polar_sweep(p, xs)[0])
    worst = 0.0
    for k, (s, pair) in enumerate(zip(ss, pairs)):
        if pair is None:
            continue
        x, u, v = pair
        if max(u, v) == INF:
            return INF
        rise = rises[k] if x == s else _polar_sweep(p, (x,))[1][0]
        sigma = max(slopes[k // 2], rise)
        worst = max(worst, abs(u - v) / (1.0 + abs(v) + sigma * x))
    return worst


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
    pts = tuple((z, 0.5 * (a + b)) for z, a, b in zip(zs, _sweep(r1)(zs), _sweep(r2)(zs)))
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


def _is_number(x: object) -> bool:
    """A JSON number: an int or a float, but not a bool (a subclass of int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def profile_from_dict(doc: object) -> ConvexProfile:
    if not isinstance(doc, dict):
        raise ValueError(f"profile document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"breakpoints", "tail_slope"}
    if unknown:
        raise ValueError(f"unknown profile fields: {sorted(unknown)}")
    if "breakpoints" not in doc or "tail_slope" not in doc:
        raise ValueError("profile document needs 'breakpoints' and 'tail_slope'")
    raw, slope = doc["breakpoints"], doc["tail_slope"]
    if not isinstance(raw, list) or not all(
        isinstance(bp, (list, tuple)) and len(bp) == 2 and all(map(_is_number, bp))
        for bp in raw
    ):
        raise ValueError("'breakpoints' must be a list of [r, v] number pairs")
    if slope != "inf" and not _is_number(slope):
        raise ValueError(f"'tail_slope' must be a number or \"inf\", got {slope!r}")
    try:
        pts = tuple((float(r), float(v)) for r, v in raw)
        tail_slope = INF if slope == "inf" else float(slope)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"profile number out of float range: {exc}") from exc
    # only the string "inf" selects an indicator tail
    if slope != "inf" and not math.isfinite(tail_slope):
        raise ValueError(f"'tail_slope' must be finite or \"inf\", got {slope!r}")
    return ConvexProfile(pts, tail_slope)

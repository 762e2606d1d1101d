import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from epidual import profile, verify
from epidual.profile import (
    INF,
    MERGE_RTOL,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    _interpolate_sorted,
    _knots,
    _max_gap,
    _polar_sweep,
    check_j_factorization,
    evaluation_grid,
    from_radius,
    j_transform,
    legendre,
    polarity,
    profile_from_dict,
    profile_to_dict,
    scale,
    symmetrize_line,
    to_radius,
)
from epidual.measures import log_s_j_n
from epidual.verify import ProfileSampler

ZERO = ConvexProfile(((0.0, 0.0),), 0.0)
ORIGIN = ConvexProfile(((0.0, 0.0),), INF)
INDICATOR = ConvexProfile(((0.0, 0.0), (1.0, 0.0)), INF)
LINEAR = ConvexProfile(((0.0, 0.0),), 1.0)

# convex as stored; its two steep slopes differ by 3e-10 relative
W = ConvexProfile(
    (
        (0.0, 0.0),
        (3548.7852381159514, 822.0138211183299),
        (3548.8845498442433, 822.0374010376239),
        (3548.8848825503387, 20208807.904420894),
        (3554.9799458531575, 370223685175.9252),
    ),
    60847938288.73129,
)

# hand-built sample covering flat runs, kinks, finite and indicator tails
SAMPLES = [
    ZERO,
    ORIGIN,
    INDICATOR,
    LINEAR,
    ConvexProfile(((0.0, 0.0), (1.0, 0.0)), 2.0),
    ConvexProfile(((0.0, 0.0), (0.5, 0.25), (2.0, 3.0)), INF),
    ConvexProfile(((0.0, 0.0), (0.5, 0.0), (1.0, 0.75), (4.0, 8.0)), 5.0),
    ConvexProfile(((0.0, 0.0), (2.0, 1.0)), 0.5),
    ConvexProfile(((0.0, 0.0), (0.25, 1.0), (0.75, 3.5), (1.5, 9.0)), 16.0),
]


def test_canonical_merges_collinear():
    p = ConvexProfile(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 4.0)), INF)
    assert p.breakpoints == ((0.0, 0.0), (2.0, 2.0), (3.0, 4.0))
    rho = RadiusFunction(((0.0, 0.0), (1.0, 2.0), (2.0, 4.0), (3.0, 5.0)), 0.0)
    assert rho.breakpoints == ((0.0, 0.0), (2.0, 4.0), (3.0, 5.0))
    assert rho.tail_slope == 0.0


def test_canonical_absorbs_tail_vertex():
    p = ConvexProfile(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)), 2.0)
    assert p.breakpoints == ((0.0, 0.0), (1.0, 1.0))
    assert p.tail_slope == 2.0
    rho = RadiusFunction(((0.0, 1.0), (1.0, 3.0), (2.0, 4.0)), 1.0)
    assert rho.breakpoints == ((0.0, 1.0), (1.0, 3.0))
    assert rho.tail_slope == 1.0


def test_canonical_rewrites_constant_tail():
    # the last point sits on a flat run within the merge tolerance and is
    # absorbed; the constant tail then holds the merged last radius
    rho = RadiusFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 1.0 + 1e-13)), 0.0)
    assert rho.breakpoints == ((0.0, 0.0), (1.0, 1.0))
    assert rho.tail_slope == 0.0 and rho.evaluate(INF) == 1.0


def test_canonical_keeps_shallow_segments_beside_steep_ones():
    # merging compares each dropped value with its own size, so a steep
    # segment elsewhere cannot let shallow slopes 1, 0.5 and the tail 0.2,
    # or 0 and 1, merge
    rho = to_radius(
        ConvexProfile(((0.0, 0.0), (1.0, 1e-12), (2.0, 1.0), (3.0, 3.0)), 5.0)
    )
    assert rho.breakpoints == ((0.0, 0.0), (1e-12, 1.0), (1.0, 2.0), (3.0, 3.0))
    assert rho.tail_slope == pytest.approx(0.2) and rho.evaluate(3.0) == 3.0
    p = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)), 1e12)
    assert p.breakpoints == ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0))
    assert p.evaluate(1.0) == 0.0
    # a steep last segment dominates the rise of the breakpoints
    p = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1e13)), INF)
    assert len(p.breakpoints) == 4 and p.evaluate(1.0) == 0.0


@pytest.mark.parametrize(
    "pts, tail",
    [
        ((), 1.0),
        (((1.0, 0.0),), 1.0),  # does not start at the origin
        (((0.0, 0.5),), 1.0),
        (((0.0, 0.0), (1.0, 1.0), (1.0, 2.0)), INF),  # repeated radius
        (((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)), INF),  # value drops
        (((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)), INF),  # slope drops 2 -> 1
        (((0.0, 0.0), (1.0, 1.0)), 0.5),  # tail below last slope
        (((0.0, 0.0),), -1.0),
        (((0.0, 0.0), (1.0, math.nan), (2.0, 3.0)), 5.0),  # NaN value
        (((0.0, 0.0), (math.nan, 1.0)), INF),  # NaN radius
        (((0.0, 0.0), (1.0, INF)), INF),  # infinite value
        (((0.0, 0.0), (INF, 1.0)), INF),  # infinite radius
        (((0.0, 0.0), (1.0, 1e-10)), 0.0),  # zero tail after a positive value
        (((0.0, 0.0), (1.0, 1e-10), (2.0, 0.0)), 0.0),  # the same, inside
        # the value test is relative to the point's own value, so tiny
        # values are held to it too
        (((0.0, 0.0), (1.0, 2e-12), (2.0, 3e-12)), INF),
        # 5e-11 above the chord, over MERGE_RTOL of the value 1
        (((0.0, 0.0), (1.0, 1.0), (2.0, 2.0 - 1e-10)), INF),
        # values may fall by MERGE_RTOL * max(1, |v|) only
        (((0.0, 0.0), (1.0, -1e-10)), INF),
        # a zero tail after values that fall, by steps each within
        # MERGE_RTOL, to 1.8 MERGE_RTOL under 0
        (((0.0, 0.0), (1.0, -0.9e-12), (2.0, -1.8e-12)), 0.0),
    ],
)
def test_invalid_profiles_raise(pts, tail):
    with pytest.raises(ValueError):
        ConvexProfile(pts, tail)


def test_canonical_forms_the_chord_without_underflow():
    # (y - ya) (xb - xa) underflows to 0 here; the chord fraction first does not
    p = ConvexProfile(((0.0, 0.0), (1e-200, 1e-200), (2e-200, 3e-200)), INF)
    assert p.breakpoints == ((0.0, 0.0), (1e-200, 1e-200), (2e-200, 3e-200))


def _below_chords(p):
    """Every interior breakpoint of p is on or below its neighbours' chord
    up to MERGE_RTOL of its value, decided in exact rationals."""
    q = [(Fraction(x), Fraction(y)) for x, y in p.breakpoints]
    for (xa, ya), (xb, yb), (x, y) in zip(q, q[1:], q[2:]):
        chord = ya + (y - ya) * (xb - xa) / (x - xa)
        if yb - chord > Fraction(MERGE_RTOL) * abs(yb):
            return False
    return True


def test_transform_images_are_convex_at_every_scale():
    sampled = itertools.islice(ProfileSampler(seed=13).stream(), 200)
    for p in sampled:
        for a in (1e-100, 1.0, 1e100):
            q = scale(p, a)
            for image in (q, from_radius(j_transform(to_radius(q))), legendre(q)):
                assert _below_chords(image), (p, a, image)


def test_evaluate():
    p = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (3.0, 4.0)), INF)
    assert p.evaluate(0.5) == 0.0
    assert p.evaluate(2.0) == 2.0
    assert p.evaluate(3.0) == 4.0
    assert p.evaluate(3.5) == INF
    q = ConvexProfile(((0.0, 0.0), (1.0, 2.0)), 3.0)
    assert q.evaluate(2.0) == 5.0
    assert q.evaluate(INF) == INF
    assert ZERO.evaluate(INF) == 0.0
    assert p.evaluate(-0.0) == 0.0
    for r in (-1.0, -1e-300, -INF, math.nan):
        with pytest.raises(ValueError):
            p.evaluate(r)


def test_radius_evaluate():
    const = RadiusFunction(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)), 0.0)
    assert const.evaluate(1.0) == 2.0
    assert const.evaluate(2.0) == 2.5
    assert const.evaluate(3.0) == 3.0
    assert const.evaluate(10.0) == 3.0
    assert const.evaluate(INF) == 3.0
    lin = RadiusFunction(((0.0, 1.0), (1.0, 3.0)), 0.5)
    assert lin.evaluate(0.5) == 2.0
    assert lin.evaluate(1.0) == 3.0
    assert lin.evaluate(3.0) == 4.0
    assert lin.evaluate(INF) == INF
    assert RadiusFunction.infinite().evaluate(2.0) == INF
    assert lin.evaluate(-0.0) == 1.0
    for z in (-1.0, -1e-300, -INF, math.nan):
        with pytest.raises(ValueError):
            lin.evaluate(z)


def test_flat_end():
    assert INDICATOR.flat_end == 1.0
    assert LINEAR.flat_end == 0.0
    assert ZERO.flat_end == 0.0


def test_radius_round_trip_exact():
    for p in SAMPLES:
        assert from_radius(to_radius(p)) == p


def test_radius_of_indicator():
    rho = to_radius(INDICATOR)
    assert rho.breakpoints == ((0.0, 1.0),)
    assert rho.tail_slope == 0.0


def test_radius_of_zero_profile():
    assert to_radius(ZERO).is_infinite
    assert to_radius(ORIGIN).is_zero


def test_zero_tail_after_values_within_merge_rtol_under_zero_is_the_zero_profile():
    # psi is 0 to MERGE_RTOL; kept as ((0, 0), (1, -1e-13)), it had a
    # finite radius 1 at 0 and a tail slope 1/0, so log_s_j_n raised
    # ZeroDivisionError
    p = ConvexProfile(((0.0, 0.0), (1.0, -1e-13)), 0.0)
    assert p.breakpoints == ZERO.breakpoints and p.is_zero
    assert to_radius(p).is_infinite
    assert log_s_j_n(p, 3) == 0.0


def test_values_may_not_sink_by_steps_within_merge_rtol():
    # each step falls 0.9e-12, within MERGE_RTOL of its predecessor, but
    # the values sink 900 MERGE_RTOL under 0; bounding each fall against
    # the largest value before it refuses the second step
    pts = tuple((k, -k * 0.9e-12) for k in range(1001)) + ((1001, 1.0),)
    with pytest.raises(ValueError, match="must not decrease"):
        ConvexProfile(pts, 5.0)
    with pytest.raises(ValueError, match="must not decrease"):
        ConvexProfile(pts, INF)
    # a radius alike, from 1 down by steps of 0.9e-12 relative
    with pytest.raises(ValueError, match="must not decrease"):
        RadiusFunction(((0.0, 1.0), (1.0, 1.0 - 0.9e-12), (2.0, 1.0 - 1.8e-12), (3.0, 2.0)), 0.0)
    # a single fall within MERGE_RTOL is still accepted
    ConvexProfile(((0.0, 0.0), (1.0, -0.9e-12), (2.0, 1.0)), 5.0)


def test_radius_validation():
    bad = [
        (((0.0, 1.0), (1.0, 0.5)), 0.0),  # radius drops
        (((0.0, 0.0), (1.0, 1.0)), 2.0),  # tail slope above final slope 1
        (((0.0, 0.0), (1.0, 2.0), (2.0, 3.0)), 1.5),  # above final slope 1
        (((0.0, 0.0), (1.0, 1.0)), math.nan),
        (((0.0, 0.0), (1.0, 1.0)), -1.0),
        (((0.0, 1.0),), INF),
        (((0.0, 0.0), (1.0, math.nan)), 0.0),
        (((0.0, 0.0), (1.0, INF)), 0.0),
        (((0.0, INF),), 1.0),  # the infinite radius has no tail slope
        (((0.0, INF), (1.0, INF)), 0.0),
        (((0.0, 0.0), (1.0, 1e-12)), 2e-12),  # tail slope above final slope
    ]
    for pts, tail in bad:
        with pytest.raises(ValueError):
            RadiusFunction(pts, tail)
    with pytest.raises(ValueError, match="at least one breakpoint"):
        RadiusFunction((), 0.0)
    with pytest.raises(ValueError, match="first breakpoint must sit at z = 0"):
        RadiusFunction(((1.0, 0.0),), 0.0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        RadiusFunction(((0.0, -1.0),), 0.0)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        RadiusFunction(((0.0, 0.0), (1.0, -1e-300), (2.0, 1.0)), 0.0)


def _rises(rho):
    """What measures needs of a radius: finite, both coordinates rising."""
    pts = rho.breakpoints
    return (
        all(math.isfinite(c) for pt in pts for c in pt)
        and math.isfinite(rho.tail_slope)
        and all(z0 < z1 and x0 < x1 for (z0, x0), (z1, x1) in zip(pts, pts[1:]))
    )


def _kinked_profile(rng):
    """A profile whose kinks lie 1 to 3 MERGE_RTOL of their value under
    their chords.  An optional flat start, a first slope of 10^+-6 and a
    jump to 10^+-6 put psi's slope times r over v, the factor between a
    kink's margin in psi and in rho, far from 1."""
    pts = [(0.0, 0.0)]
    if rng.random() < 0.5:
        pts.append((10.0 ** rng.uniform(-3.0, 3.0), 0.0))
    widths = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 5))]
    slope = 10.0 ** rng.choice([-6.0, 6.0])
    slopes = [slope, max(slope, 10.0 ** rng.choice([-6.0, 6.0]))]
    r, v = pts[-1][0] + widths[0], slope * widths[0]
    pts.append((r, v))
    for w0, w1 in zip(widths[1:], widths[2:]):
        r, v = r + w0, v + slopes[-1] * w0
        pts.append((r, v))
        depth = rng.uniform(1.0, 3.0) * MERGE_RTOL * v
        slopes.append(slopes[-1] + depth * (w0 + w1) / (w0 * w1))
    r, v = r + widths[-1], v + slopes[-1] * widths[-1]
    pts.append((r, v))
    if rng.random() < 0.3:
        return ConvexProfile(tuple(pts), INF)
    depth = rng.uniform(1.0, 3.0) * MERGE_RTOL * v
    return ConvexProfile(tuple(pts), slopes[-1] + depth / widths[-1])


def test_radius_breakpoints_strictly_increase():
    # _canonical derives this in exact arithmetic, but two of its steps
    # compare margins about MERGE_RTOL^2 y apart, under the rounding of the
    # chords, so it is checked on radii that put those tests on their edge.
    # Near-flat ones first: 3 to 9 values within a few MERGE_RTOL of a
    # concave rise, tail slopes 0 or of order MERGE_RTOL, at scales 10^-300
    # to 10^300
    rng = random.Random(0)
    kept = 0
    for _ in range(12000):
        k = rng.randint(3, 9)
        zs = [0.0] + sorted(rng.uniform(0.0, 10.0) for _ in range(k - 1))
        size = 10.0 ** rng.choice([0.0, -100.0, 100.0, -300.0, 300.0, rng.uniform(-5.0, 5.0)])
        a, b = rng.uniform(0.0, 4.0), rng.uniform(0.0, 0.1)
        xs = [size * (1 + MERGE_RTOL * (a * z - b * z * z + rng.uniform(-1.5, 1.5))) for z in zs]
        tail = 0.0 if rng.random() < 0.5 else size * MERGE_RTOL * rng.uniform(0.0, 3.0)
        try:
            rho = RadiusFunction(tuple(zip(zs, xs)), tail)
        except ValueError:
            continue
        assert _rises(rho), (zs, xs, tail)
        kept += len(rho.breakpoints) > 2
    assert kept > 500
    # then three points whose last piece rises by just over MERGE_RTOL of its
    # value and whose first lies within 2 MERGE_RTOL of the line through the
    # other two, so that the merge pass may pop the middle one
    popped = 0
    for _ in range(4000):
        q = 10.0 ** rng.uniform(-300.0, 300.0)
        x = q * (1 + MERGE_RTOL)
        while not x - q > MERGE_RTOL * x:
            x = math.nextafter(x, INF)
        z = rng.uniform(0.5, 4.0)
        zq = z * rng.uniform(0.0, 0.5)
        x0 = (x - (x - q) * z / (z - zq)) * (1 + MERGE_RTOL * rng.uniform(-2.0, 2.0))
        try:
            rho = RadiusFunction(((0.0, x0), (zq, q), (z, x)), 0.0)
        except ValueError:
            continue
        assert _rises(rho), (x0, zq, q, z, x)
        popped += len(rho.breakpoints) == 2
    assert popped > 1000
    # and the radii vol_mu integrates, which to_radius and j_transform build
    # without _canonical: the sampler's, with r (scale) or v stretched by
    # 10^+-100, and their J images; the validating constructor agrees
    for p in itertools.islice(ProfileSampler(seed=7).stream(), 1000):
        for a in (1e-100, 1.0, 1e100):
            tall = ConvexProfile(tuple((r, a * v) for r, v in p.breakpoints), a * p.tail_slope)
            for rho in (to_radius(scale(p, a)), to_radius(tall)):
                for out in (rho, j_transform(rho)):
                    assert _rises(out), (p, a)
                    assert RadiusFunction(out.breakpoints, out.tail_slope) == out, (p, a)
    # and of profiles kinked near MERGE_RTOL, whose radius can keep a kink
    # that the constructor, measuring it against r instead of v, merges
    kept = 0
    for _ in range(3000):
        try:
            p = _kinked_profile(rng)
        except ValueError:
            continue
        rho = to_radius(p)
        assert _rises(rho) and _rises(j_transform(rho)), p
        kept += len(RadiusFunction(rho.breakpoints, rho.tail_slope).breakpoints) < len(rho.breakpoints)
    assert kept > 200


def test_to_radius_and_j_transform_never_run_canonical(monkeypatch):
    # their output is valid by derivation, so each radius is validated
    # once, when its profile is constructed
    profiles = list(itertools.islice(ProfileSampler(seed=11).stream(), 300))
    calls = []
    canonical = profile._canonical
    monkeypatch.setattr(profile, "_canonical", lambda *a: calls.append(a) or canonical(*a))
    for p in profiles:
        j_transform(to_radius(p))
    assert calls == []


def test_trusted_radius_hands_what_rounding_broke_to_the_constructor():
    # a flat last piece is merged into the constant tail, as the constructor does
    pts = ((0.0, 1.0), (1.0, 2.0), (2.0, 2.0))
    assert RadiusFunction._trusted(pts, 0.0) == RadiusFunction(pts, 0.0)
    assert RadiusFunction._trusted(pts, 0.0).breakpoints == ((0.0, 1.0), (1.0, 2.0))
    # x / z underflows to 0: the image is the zero radius
    assert j_transform(RadiusFunction(((0.0, 0.0), (1e300, 1e-30)), 0.0)).is_zero
    # J's 1 / z overflows at z = 1e-310
    with pytest.raises(ValueError, match="breakpoints must be finite"):
        j_transform(to_radius(ConvexProfile(((0.0, 0.0), (1.0, 1e-310)), 1.0)))
    # the radius tail slope 1 / 1e-310 overflows
    with pytest.raises(ValueError, match="radius tail slope"):
        to_radius(ConvexProfile(((0.0, 0.0),), 1e-310))


def test_j_fixed_point_unit_tent():
    rho = RadiusFunction(((0.0, 0.0), (1.0, 1.0)), 0.0)
    assert j_transform(rho) == rho


def test_j_of_dyadic_tent():
    rho = RadiusFunction(((0.0, 0.0), (2.0, 1.0)), 0.0)
    out = j_transform(rho)
    assert out.breakpoints == ((0.0, 0.0), (0.5, 0.5))
    assert out.tail_slope == 0.0
    assert j_transform(out) == rho


def test_j_swaps_slope_and_intercept():
    # rho = 2 + 3z maps to rho_J = 3 + 2w
    rho = RadiusFunction(((0.0, 2.0),), 3.0)
    out = j_transform(rho)
    assert out.breakpoints == ((0.0, 3.0),)
    assert out.tail_slope == 2.0


def test_j_of_constant_and_linear():
    const = RadiusFunction(((0.0, 4.0),), 0.0)
    out = j_transform(const)
    assert out.breakpoints == ((0.0, 0.0),) and out.tail_slope == 4.0
    assert j_transform(out) == const
    assert j_transform(RadiusFunction.infinite()).is_infinite


def test_j_involution_on_samples():
    for p in SAMPLES:
        rho = to_radius(p)
        out = j_transform(rho)
        if not rho.is_infinite:
            # radius at 0 and tail slope trade places
            assert out.tail_slope == rho.breakpoints[0][1], p
            assert out.breakpoints[0][1] == rho.tail_slope, p
        assert _max_gap(from_radius(j_transform(out)), from_radius(rho)) == 0.0, p


def test_j_matches_pointwise_formula():
    for p in SAMPLES:
        rho = to_radius(p)
        if rho.is_infinite:
            continue
        out = j_transform(rho)
        for w in evaluation_grid(points=40):
            expect = w * rho.evaluate(1.0 / w)
            assert out.evaluate(w) == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_j_order_preserving_sample():
    small = to_radius(ConvexProfile(((0.0, 0.0), (1.0, 1.0)), 4.0))
    # pointwise larger profile means smaller radius everywhere
    big = to_radius(ConvexProfile(((0.0, 0.0), (0.5, 1.0)), 8.0))
    js, jb = j_transform(small), j_transform(big)
    for w in evaluation_grid(points=40):
        assert js.evaluate(w) >= jb.evaluate(w) - 1e-12


def test_legendre_degenerate_table():
    assert legendre(ZERO) == ORIGIN
    assert legendre(ORIGIN) == ZERO
    assert legendre(INDICATOR) == LINEAR
    assert legendre(LINEAR) == INDICATOR


def test_degenerate_profiles_under_all_three_transforms():
    # psi == 0 and the indicator of {0}: L and A = L J swap them, and J,
    # which preserves order, fixes each
    def j(p):
        return from_radius(j_transform(to_radius(p)))

    assert (j(ZERO), j(ORIGIN)) == (ZERO, ORIGIN)
    assert (legendre(ZERO), legendre(ORIGIN)) == (ORIGIN, ZERO)
    assert (legendre(j(ZERO)), legendre(j(ORIGIN))) == (ORIGIN, ZERO)


def test_legendre_hinge():
    hinge = ConvexProfile(((0.0, 0.0), (1.0, 0.0)), 1.0)  # max(0, r - 1)
    out = legendre(hinge)
    assert out == ConvexProfile(((0.0, 0.0), (1.0, 1.0)), INF)


def test_legendre_matches_bruteforce_sup():
    p = ConvexProfile(((0.0, 0.0), (0.5, 0.0), (1.0, 0.75), (4.0, 8.0)), 5.0)
    out = legendre(p)
    rs = [i / 512.0 for i in range(0, 4 * 512 + 1)]
    for s in [0.0, 0.3, 1.0, 1.5, 2.4, 4.9]:
        brute = max(s * r - p.evaluate(r) for r in rs)
        assert out.evaluate(s) == pytest.approx(brute, abs=1e-12)
    assert out.evaluate(5.5) == INF


def test_legendre_where_values_dwarf_a_rise():
    # the conjugate has knots 17.65 apart near s = 6.07e10 with values near
    # 2.2e14: a slope recomputed there loses about 1e-7 of itself, and a
    # slope test rejected this conjugate of a valid profile
    out = legendre(W)
    for s, val in out.breakpoints:
        best = max(Fraction(s) * Fraction(r) - Fraction(v) for r, v in W.breakpoints)
        assert abs(Fraction(val) - best) <= Fraction(1e-12) * abs(best), (s, val)
    assert out.tail_slope == INF


def test_legendre_involution_on_samples():
    for p in SAMPLES:
        assert _max_gap(legendre(legendre(p)), p) == 0.0, p


def test_legendre_order_reversing_sample():
    p = ConvexProfile(((0.0, 0.0), (1.0, 1.0)), 4.0)
    q = ConvexProfile(((0.0, 0.0), (1.0, 2.0)), 8.0)  # q >= p pointwise
    lp, lq = legendre(p), legendre(q)
    for s in evaluation_grid(points=40):
        assert lq.evaluate(s) <= lp.evaluate(s) + 1e-12


def test_polarity_conventions():
    assert polarity(ZERO, 2.0) == INF
    assert polarity(ZERO, 0.0) == 0.0
    assert polarity(ORIGIN, 7.0) == 0.0


def test_indicator_self_polar():
    for s in evaluation_grid(points=60, extras=(1.0,)):
        assert polarity(INDICATOR, s) == INDICATOR.evaluate(s)


def test_polarity_of_linear():
    # A(a r)(s) = s / a
    p = ConvexProfile(((0.0, 0.0),), 4.0)
    for s in (0.0, 0.5, 1.0, 9.0):
        assert polarity(p, s) == pytest.approx(s / 4.0, abs=0.0)


def test_polarity_flat_cutoff():
    p = ConvexProfile(((0.0, 0.0), (2.0, 0.0)), 1.0)
    assert polarity(p, 0.5) < INF
    assert polarity(p, 0.5000001) == INF


@pytest.mark.parametrize("s", [-1.0, -1e-300, math.nan])
def test_polarity_rejects_a_negative_argument(s):
    with pytest.raises(ValueError, match="polarity domain"):
        polarity(ConvexProfile(((0.0, 0.0),), 1.0), s)


def polar_profile(p):
    # A = L J: the paper factors J = L A, and L is an involution
    return legendre(from_radius(j_transform(to_radius(p))))


def test_polar_profile_matches_pointwise():
    sampled = itertools.islice(ProfileSampler(seed=13).stream(), 200)
    for p in [*SAMPLES, *sampled]:
        q = polar_profile(p)
        extras = [r for r, _ in q.breakpoints]
        for s in evaluation_grid(points=80, extras=extras):
            a, b = polarity(p, s), q.evaluate(s)
            if math.isinf(a) or math.isinf(b):
                assert a == b, (p, s)
            else:
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12), (p, s)


def test_double_polarity_on_samples():
    for p in SAMPLES:
        q = polar_profile(polar_profile(p))
        for s in evaluation_grid(points=60):
            a, b = p.evaluate(s), q.evaluate(s)
            if math.isinf(a) or math.isinf(b):
                assert a == b, (p, s)
            else:
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9), (p, s)


def _polarity_by_definition(p, s):
    """(A psi)(s) and a maximizing line's slope, one breakpoint at a time."""
    if p.is_zero:
        return (INF if s > 0.0 else 0.0), 0.0
    if p.flat_end > 0.0 and s * p.flat_end - 1.0 > 0.0:
        return INF, 0.0
    best, slope = 0.0, 0.0
    for r, v in p.breakpoints:
        if v > 0.0:
            y = (s * r - 1.0) / v
            if y > best:
                best, slope = y, r / v
    if not math.isinf(p.tail_slope) and s / p.tail_slope > best:
        best, slope = s / p.tail_slope, 1.0 / p.tail_slope
    return best, slope


def _interpolate_by_definition(f, x):
    """f(x) by the documented formula on the piece a linear scan finds."""
    pts = f.breakpoints
    x_last, y_last = pts[-1]
    if x >= x_last:
        if x == x_last or f.tail_slope == 0.0:
            return y_last
        return y_last + f.tail_slope * (x - x_last)
    i = max(k for k, (xk, _) in enumerate(pts) if xk <= x)
    (x0, y0), (x1, y1) = pts[i], pts[i + 1]
    return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))


def _bits(values):
    return [float(x).hex() for x in values]


def _steep_profiles():
    """Profiles at scales 10^-100 to 10^100 whose radii have 64 breakpoints.

    Their slopes grow 1.5- to 4-fold a piece, so that a value at a knot
    often differs from its left piece's line there.
    """
    rng = random.Random(34)
    for r_scale, v_scale in itertools.product((1e-100, 1.0, 1e100), repeat=2):
        r, v, slope = 0.0, 0.0, v_scale / r_scale * 1e-20
        pts = [(r, v)]
        for _ in range(63):
            w = r_scale * rng.uniform(0.5, 2.0)
            r, v = r + w, v + slope * w
            pts.append((r, v))
            slope *= rng.uniform(1.5, 4.0)
        for tail in (2.0 * slope, INF):
            p = ConvexProfile(tuple(pts), tail)
            assert len(to_radius(p).breakpoints) == 64, p
            yield p


def test_sweeps_equal_pointwise_evaluation_bit_for_bit():
    # evaluate (a one-point sweep) and one pass over a sorted grid give the
    # definition's doubles, and so do polarity and _polar_sweep; the grid
    # holds 0, every knot, a point inside each piece, a tail point and each
    # flat start's cutoff, and the radii of 64 breakpoints reach deep pieces
    sampled = itertools.islice(ProfileSampler(seed=6).stream(), 64)
    for p in [*SAMPLES, *sampled, *_steep_profiles()]:
        lp = legendre(p)
        rho = to_radius(p)
        fs = (p, lp) if rho.is_infinite else (p, lp, rho, j_transform(rho))
        cut = [1.0 / p.flat_end] if p.flat_end > 0.0 else []
        knots = sorted({x for f in fs for x, _ in f.breakpoints})
        inner = [a + 0.5 * (b - a) for a, b in zip(knots, knots[1:])]
        grid = [0.0, *evaluation_grid(extras=[*knots, *inner, 2.0 * knots[-1], *cut])]
        for f in fs:
            want = _bits(_interpolate_by_definition(f, x) for x in grid)
            assert _bits(f.evaluate(x) for x in grid) == want, f
            assert _bits(_interpolate_sorted(f.breakpoints, f.tail_slope, grid)) == want, f
        values, slopes = _polar_sweep(p, grid)
        pointwise = [_polarity_by_definition(p, s) for s in grid]
        assert _bits(values) == _bits(v for v, _ in pointwise), p
        assert _bits(slopes) == _bits(m for _, m in pointwise), p
        assert _bits(polarity(p, s) for s in grid) == _bits(v for v, _ in pointwise), p


def test_evaluation_grid_keeps_its_geometric_part():
    # computed once per (lo, hi, points); the extras join a fresh copy
    first = evaluation_grid(extras=(2.5,))
    assert evaluation_grid() == [x for x in first if x != 2.5]
    assert len(first) == 201 and first == sorted(first)
    assert evaluation_grid(1.0, 4.0, points=3) == [1.0, 2.0, 4.0]


def test_evaluation_grid_single_point_is_lo():
    assert evaluation_grid(2.0, 5.0, points=1) == [2.0]
    assert evaluation_grid(2.0, 5.0, points=1, extras=(3.0,)) == [2.0, 3.0]
    assert evaluation_grid(2.0, 5.0, points=2) == [2.0, 5.0]


def test_factorization_on_samples():
    for p in SAMPLES:
        assert check_j_factorization(p) <= 1e-9, p


def test_factorization_evaluates_only_at_knots(monkeypatch):
    # sweeps of A's profile and of the polarity, by the points each reads
    sweeps = {"q": [], "polar": []}
    interpolate, polar_sweep = profile._interpolate_sorted, profile._polar_sweep

    def q_read(pts, tail_slope, xs):
        sweeps["q"].append(len(xs))
        return interpolate(pts, tail_slope, xs)

    def polar_read(p, ss):
        sweeps["polar"].append(len(ss))
        return polar_sweep(p, ss)

    images = [polar_profile(p) for p in SAMPLES]
    monkeypatch.setattr(profile, "_interpolate_sorted", q_read)
    monkeypatch.setattr(profile, "_polar_sweep", polar_read)
    for p, q in zip(SAMPLES, images):
        for reads in sweeps.values():
            reads.clear()
        check_j_factorization(p)
        # each side is swept once past 0 (where both vanish), at each of
        # q's knots, the tail point and the midpoint of each adjacent pair
        # of these; an indicator edge costs each side a two-point sweep,
        # and the polarity one point more for its slope there
        points = 2 * len(q.breakpoints)
        assert sweeps["q"][0] == sweeps["polar"][0] == points, (p, sweeps)
        assert sweeps["q"][1:] in ([], [2]), (p, sweeps)
        assert sweeps["polar"][1:] in ([], [2], [2, 1]), (p, sweeps)


def extreme_profiles(count, seed, scales):
    """Profiles with widths over 11 decades and slope steps over 30.

    One in five starts flat, one in four has an indicator tail; each draw
    comes scaled by each of scales.  Draws the constructor refuses (values
    that dwarf a segment's rise, radii that underflow) are skipped.
    """
    rng = random.Random(seed)
    for _ in range(count):
        flat, indicator = rng.random() < 0.2, rng.random() < 0.25
        pts, slope, r, v = [(0.0, 0.0)], 0.0, 0.0, 0.0
        for i in range(rng.randint(1, 6)):
            if not (flat and i == 0):
                slope += 10.0 ** rng.uniform(-15, 15)
            width = 10.0 ** rng.uniform(-8, 3)
            r, v = r + width, v + slope * width
            pts.append((r, v))
        tail = INF if indicator else slope + 10.0 ** rng.uniform(-15, 15)
        for a in scales:
            try:
                yield scale(ConvexProfile(tuple(pts), tail), a)
            except ValueError:
                continue


def test_factorization_on_extreme_profiles():
    worst, profiles = 0.0, 0
    for p in extreme_profiles(700, seed=7, scales=(1.0, 1e100, 1e-100)):
        polar_profile(p)
        worst = max(worst, check_j_factorization(p))
        profiles += 1
    assert profiles > 1900
    assert worst <= 1e-9


def test_factorization_near_the_ends_of_the_doubles():
    # abscissae near 1e304: an interpolation that multiplied before it
    # divided overflowed there and read +inf (123 of these profiles).  An
    # image past the largest double is refused with ValueError as it is
    # built (218 of 2,655), which is no failure of the factorization
    worst, profiles = 0.0, 0
    scales = (1e250, 1e-250, 1e300, 1e-300)
    for p in extreme_profiles(700, seed=7, scales=scales):
        try:
            polar_profile(p)
        except ValueError:
            continue
        worst = max(worst, check_j_factorization(p))
        profiles += 1
    assert profiles > 2400
    assert worst <= 1e-9


def test_factorization_of_an_image_with_knots_near_1e304():
    # A psi has its knot at 3.48e304 and is 6.6e11 at the midpoint 1.74e304
    p = ConvexProfile(
        ((0.0, 0.0), (2.0803169702628534e-300, 5.4882974211903755e-08)),
        2.638238953869306e292,
    )
    assert check_j_factorization(p) <= 1e-9


def test_knots_are_the_union_then_the_tail_point():
    p = ConvexProfile(((0.0, 0.0), (1.0, 2.0), (3.0, 8.0)), 4.0)
    q = ConvexProfile(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)), INF)
    assert _knots(p, q) == [0.0, 1.0, 2.0, 3.0, 6.0]
    rho = RadiusFunction(((0.0, 1.0), (0.5, 2.0)), 1.0)
    assert _knots(rho, rho) == [0.0, 0.5, 1.0]
    zero = ConvexProfile(((0.0, 0.0),), 0.0)
    assert _knots(zero, zero) == [0.0, 2.0]
    assert _knots(RadiusFunction.infinite(), RadiusFunction.infinite()) == [0.0, 2.0]


def test_max_gap_detects_differences():
    p = ConvexProfile(((0.0, 0.0), (1.0, 2.0)), 4.0)
    q = ConvexProfile(((0.0, 0.0), (1.0, 2.5)), 4.0)
    assert _max_gap(p, p) == 0.0
    assert _max_gap(p, q) == pytest.approx(0.5, abs=1e-12)


# indicator tails whose edges lie one ulp apart (p, q) and far apart (p, r)
NEAR_EDGE = (
    ConvexProfile(((0.0, 0.0), (1.0, 1.0)), math.inf),
    ConvexProfile(((0.0, 0.0), (1.0 + 1e-15, 1.0)), math.inf),
    ConvexProfile(((0.0, 0.0), (1.5, 1.5)), math.inf),
)


def test_max_gap_tolerates_ulp_indicator_boundary():
    p, q, r = NEAR_EDGE
    assert _max_gap(p, q) < 1e-9
    assert _max_gap(p, r) == math.inf


def _compared_by_definition(f, g, x):
    """_compared at one knot x, reading f and g one point at a time."""
    a, b = f(x), g(x)
    if min(a, b) == INF:
        return None
    if max(a, b) == INF:
        lo, hi = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
        if min(f(hi), g(hi)) == INF and max(f(lo), g(lo)) < INF:
            return lo, f(lo), g(lo)
    return x, a, b


def _pointwise(f):
    return lambda x: _interpolate_by_definition(f, x)


def _max_gap_by_definition(p, q):
    worst = 0.0
    for x in _knots(p, q):
        pair = _compared_by_definition(_pointwise(p), _pointwise(q), x)
        if pair is not None:
            worst = max(worst, abs(pair[1] - pair[2]))
    return worst


def _factorization_by_definition(p):
    q = polar_profile(p)
    knots, pts = _knots(q, q), q.breakpoints
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    worst = 0.0
    for a, b, slope in zip(knots, knots[1:], [*slopes, q.tail_slope]):
        for s in (a + 0.5 * (b - a), b):
            pair = _compared_by_definition(
                _pointwise(q), lambda x: _polarity_by_definition(p, x)[0], s
            )
            if pair is None:
                continue
            x, u, v = pair
            if max(u, v) == INF:
                return INF
            sigma = max(slope, _polarity_by_definition(p, x)[1])
            worst = max(worst, abs(u - v) / (1.0 + abs(v) + sigma * x))
    return worst


def _symmetrize_by_definition(f):
    r1, r2 = to_radius(f.left), to_radius(f.right)
    if r1.is_infinite or r2.is_infinite:
        return from_radius(RadiusFunction.infinite())
    zs = sorted({z for z, _ in r1.breakpoints} | {z for z, _ in r2.breakpoints})
    pts = tuple(
        (z, 0.5 * (_interpolate_by_definition(r1, z) + _interpolate_by_definition(r2, z)))
        for z in zs
    )
    return from_radius(RadiusFunction(pts, 0.5 * (r1.tail_slope + r2.tail_slope)))


def _order_preserving_by_definition(p, u):
    """The order-preserving suite's case on p, its cap drawn as u."""
    rho = to_radius(p)
    top = _interpolate_by_definition(rho, rho.breakpoints[-1][0] + 1.0)
    capped = verify._cap_radius(rho, top * (0.2 + 0.6 * u))
    small, large = j_transform(capped), j_transform(rho)
    return max(
        _interpolate_by_definition(small, w) - _interpolate_by_definition(large, w)
        for w in _knots(small, large)
    )


def test_knot_comparisons_sweep_and_match_pointwise_bit_for_bit(monkeypatch):
    # _max_gap, check_j_factorization, symmetrize_line and the
    # order-preserving suite read each side in one sweep, never by
    # evaluate, and give the doubles of the comparisons made one point at a
    # time, on radii of 64 breakpoints and on indicator edges an ulp apart
    calls = []

    def counted(self, x):
        calls.append(x)
        raise AssertionError("evaluate called")

    monkeypatch.setattr(ConvexProfile, "evaluate", counted)
    monkeypatch.setattr(RadiusFunction, "evaluate", counted)
    steep = list(_steep_profiles())
    pairs = [*zip(steep, steep), *zip(steep, steep[1:]), *itertools.permutations(NEAR_EDGE, 2)]
    for p, q in pairs:
        assert _bits([_max_gap(p, q)]) == _bits([_max_gap_by_definition(p, q)]), (p, q)
        f = LineConvexFunction(p, q)
        assert symmetrize_line(f) == _symmetrize_by_definition(f), (p, q)
    for p in [*steep, *NEAR_EDGE, *SAMPLES]:
        assert _bits([check_j_factorization(p)]) == _bits([_factorization_by_definition(p)]), p
    for seed, p in enumerate([*steep, *NEAR_EDGE]):
        drawn = SimpleNamespace(draw=lambda rng, p=p: p)
        got, _ = verify._suite_order_preserving(0, random.Random(seed), drawn)
        want = _order_preserving_by_definition(p, random.Random(seed).random())
        assert _bits([got]) == _bits([want]), p
    assert calls == []


def test_scale():
    p = ConvexProfile(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)), INF)
    q = scale(p, 2.0)
    for r in (0.0, 0.2, 0.6, 0.9):
        assert q.evaluate(r) == pytest.approx(p.evaluate(2.0 * r), abs=0.0)
    assert q.evaluate(1.5) == INF
    with pytest.raises(ValueError):
        scale(p, 0.0)


def test_scale_of_tail_slope():
    assert scale(LINEAR, 3.0).tail_slope == 3.0
    assert math.isinf(scale(INDICATOR, 3.0).tail_slope)


def test_symmetrize_two_slopes():
    # branches r and 3r average to radius 2z/3, profile slope 3/2
    f = LineConvexFunction(
        ConvexProfile(((0.0, 0.0),), 3.0), ConvexProfile(((0.0, 0.0),), 1.0)
    )
    out = symmetrize_line(f)
    assert out.breakpoints == ((0.0, 0.0),)
    assert out.tail_slope == pytest.approx(1.5, rel=1e-15)


def test_symmetrize_symmetric_input_is_identity():
    for p in SAMPLES:
        out = symmetrize_line(LineConvexFunction(p, p))
        assert _max_gap(out, p) == 0.0, p


def test_symmetrize_mixed_tails():
    f = LineConvexFunction(INDICATOR, LINEAR)
    out = symmetrize_line(f)
    # radii are 1 and z: average (1 + z)/2
    assert out.evaluate(0.5) == 0.0
    assert out.evaluate(1.5) == pytest.approx(2.0, rel=1e-15)
    assert out.tail_slope == pytest.approx(2.0, rel=1e-15)


def test_transforms_do_not_grow_breakpoints():
    for p in SAMPLES:
        k = len(p.breakpoints)
        assert len(legendre(p).breakpoints) <= k + 1
        j = from_radius(j_transform(to_radius(p)))
        assert len(j.breakpoints) <= k + 1


def test_json_round_trip():
    for p in SAMPLES:
        assert profile_from_dict(profile_to_dict(p)) == p


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"breakpoints": [[0.0, 0.0]]},
        {"breakpoints": [[0.0, 0.0]], "tail_slope": "huge"},
        {"breakpoints": [[0.0, 0.0]], "tail_slope": True},
        {"breakpoints": [[0.0]], "tail_slope": 1.0},
        {"breakpoints": "none", "tail_slope": 1.0},
        {"breakpoints": [[0.0, 0.0]], "tail_slope": 1.0, "extra": 1},
        {"breakpoints": [[0.0, 0.0], [1.0, math.nan]], "tail_slope": "inf"},
        {"breakpoints": [[0.0, 0.0], [1.0, math.inf]], "tail_slope": "inf"},
        {"breakpoints": [["0", "0"], ["1", "2"]], "tail_slope": "inf"},
        {"breakpoints": [[0, 0], [True, 2]], "tail_slope": "inf"},
        {"breakpoints": [[0, 0], [10**400, 2]], "tail_slope": "inf"},
        # a non-finite number, as JSON's Infinity or 1e400 parse, is no
        # indicator tail: only the string "inf" is
        {"breakpoints": [[0.0, 0.0]], "tail_slope": math.inf},
        {"breakpoints": [[0.0, 0.0]], "tail_slope": -math.inf},
        {"breakpoints": [[0.0, 0.0]], "tail_slope": math.nan},
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        profile_from_dict(doc)

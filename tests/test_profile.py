import math

import pytest

from epidual.profile import (
    INF,
    ConvexProfile,
    LineConvexFunction,
    RadiusFunction,
    _max_gap,
    _polar_profile,
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

ZERO = ConvexProfile(((0.0, 0.0),), 0.0)
ORIGIN = ConvexProfile(((0.0, 0.0),), INF)
INDICATOR = ConvexProfile(((0.0, 0.0), (1.0, 0.0)), INF)
LINEAR = ConvexProfile(((0.0, 0.0),), 1.0)

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
        # the slack is relative to the slopes, so tiny ones are held to it too
        (((0.0, 0.0), (1.0, 2e-12), (2.0, 3e-12)), INF),
    ],
)
def test_invalid_profiles_raise(pts, tail):
    with pytest.raises(ValueError):
        ConvexProfile(pts, tail)


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


def test_polar_profile_matches_pointwise():
    for p in SAMPLES:
        q = _polar_profile(p)
        extras = [r for r, _ in q.breakpoints]
        for s in evaluation_grid(points=80, extras=extras):
            a, b = polarity(p, s), q.evaluate(s)
            if math.isinf(a) or math.isinf(b):
                assert a == b, (p, s)
            else:
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12), (p, s)


def test_double_polarity_on_samples():
    for p in SAMPLES:
        q = _polar_profile(_polar_profile(p))
        for s in evaluation_grid(points=60):
            a, b = p.evaluate(s), q.evaluate(s)
            if math.isinf(a) or math.isinf(b):
                assert a == b, (p, s)
            else:
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9), (p, s)


def test_evaluation_grid_single_point_is_lo():
    assert evaluation_grid(2.0, 5.0, points=1) == [2.0]
    assert evaluation_grid(2.0, 5.0, points=1, extras=(3.0,)) == [2.0, 3.0]
    assert evaluation_grid(2.0, 5.0, points=2) == [2.0, 5.0]


def test_factorization_on_samples():
    for p in SAMPLES:
        assert check_j_factorization(p) <= 1e-9, p


def test_factorization_evaluates_only_at_knots(monkeypatch):
    calls = []
    evaluate = ConvexProfile.evaluate

    def counted(self, r):
        calls.append(r)
        return evaluate(self, r)

    monkeypatch.setattr(ConvexProfile, "evaluate", counted)
    for p in SAMPLES:
        calls.clear()
        check_j_factorization(p)
        # each route has at most len(p.breakpoints) + 2 knots; both routes
        # are evaluated at every knot and at one tail point, and an
        # indicator edge costs four more
        knots = 2 * (len(p.breakpoints) + 2)
        assert len(calls) <= 2 * (knots + 1) + 4, (p, len(calls))


def test_max_gap_detects_differences():
    p = ConvexProfile(((0.0, 0.0), (1.0, 2.0)), 4.0)
    q = ConvexProfile(((0.0, 0.0), (1.0, 2.5)), 4.0)
    assert _max_gap(p, p) == 0.0
    assert _max_gap(p, q) == pytest.approx(0.5, abs=1e-12)


def test_max_gap_tolerates_ulp_indicator_boundary():
    p = ConvexProfile(((0.0, 0.0), (1.0, 1.0)), math.inf)
    q = ConvexProfile(((0.0, 0.0), (1.0 + 1e-15, 1.0)), math.inf)
    r = ConvexProfile(((0.0, 0.0), (1.5, 1.5)), math.inf)
    assert _max_gap(p, q) < 1e-9
    assert _max_gap(p, r) == math.inf


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
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(ValueError):
        profile_from_dict(doc)

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epidual
from epidual.extremal import solve_lambda
from epidual import verify
from epidual.profile import ConvexProfile, RadiusFunction, scale, to_radius
from epidual.verify import (
    SUITE_NAMES,
    ProfileSampler,
    SuiteReport,
    UnknownSuite,
    _SUITES,
    _cap_radius,
    run_suite,
)
from tent_grid_oracle import _brute_force_scan, _tent_log_ratios, brute_force_lambda


def test_import_and_solver_commands_do_not_load_numpy():
    # numpy is most of a bare import's time and memory; only the sampler,
    # the suites and the two scans need it
    src = str(Path(epidual.__file__).resolve().parents[1])
    code = """
import contextlib, io, sys
import epidual
from epidual.cli import main
loaded = ["import"] if "numpy" in sys.modules else []
for argv in (
    ["maximizer", "--n", "5"],
    ["lambda-table", "--n-min", "1", "--n-max", "5"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    if "numpy" in sys.modules and not loaded:
        loaded.append(argv[0])
print(loaded)
"""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sampler_is_deterministic():
    a = ProfileSampler(seed=5)
    b = ProfileSampler(seed=5)
    sa, sb = a.stream(), b.stream()
    for _ in range(50):
        assert next(sa) == next(sb)


def test_sampler_seed_changes_stream():
    first = next(ProfileSampler(seed=1).stream())
    second = next(ProfileSampler(seed=2).stream())
    assert first != second


def test_sampler_profiles_are_canonical_and_bounded():
    stream = ProfileSampler(seed=9).stream()
    for _ in range(200):
        p = next(stream)
        assert p.breakpoints[0] == (0.0, 0.0)
        assert len(p.breakpoints) <= 7


def test_sampler_indicator_fraction_near_quarter():
    stream = ProfileSampler(seed=12).stream()
    hits = sum(math.isinf(next(stream).tail_slope) for _ in range(2000))
    assert 0.2 < hits / 2000 < 0.3


def test_unknown_suite_lists_names():
    with pytest.raises(UnknownSuite, match="involution"):
        run_suite("no-such-suite")
    with pytest.raises(ValueError):
        run_suite("involution", cases=0)


def test_default_tables_cover_all_suites():
    assert tuple(_SUITES) == SUITE_NAMES
    assert all(c >= 99 for _, _, c in _SUITES.values())


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes_on_sampled_inputs(name):
    cases = min(100, _SUITES[name][2])
    report = run_suite(name, cases=cases)
    assert report.passed, report.failures[:3]
    assert report.cases == cases
    assert report.suite == name


def test_suite_runs_are_reproducible():
    first = run_suite("factorization", ProfileSampler(seed=77), cases=40)
    second = run_suite("factorization", ProfileSampler(seed=77), cases=40)
    assert first == second


def test_involution_suite_full_run():
    report = run_suite("involution")
    assert report.passed
    assert report.cases == 1000
    assert report.worst_residual <= 1e-9


def test_delta_suite_full_run():
    report = run_suite("delta-nonpositive")
    assert report.passed
    assert report.worst_residual <= 1e-9


def test_steiner_commute_suite_full_run():
    report = run_suite("steiner-commute-1d")
    assert report.passed
    assert report.cases == 500
    assert report.worst_residual <= 1e-9


@pytest.mark.parametrize("seed", [5_000_514, 5_001_003])
def test_order_preserving_decided_at_the_knots(seed):
    # both J images agree at the knot z = 0; a sample of [1e-3, 1e3] misses
    # it and reads -1.547e-3 and -4.147e-4 for these two seeds
    assert run_suite("order-preserving", ProfileSampler(seed), cases=2).worst_residual == 0.0


def test_scaling_invariance_draws_scales_over_200_decades(monkeypatch):
    factors = []

    def recorded(p, a):
        factors.append(a)
        return scale(p, a)

    monkeypatch.setattr(verify, "scale", recorded)
    report = run_suite("scaling-invariance", cases=100)
    assert report.passed
    assert report.worst_residual <= 1e-10
    assert all(1e-100 <= a <= 1e100 for a in factors)
    assert min(factors) < 1e-50 and max(factors) > 1e50


def test_run_suite_records_failing_cases(monkeypatch):
    # cases 1 and 3 fail; the worst residual is the largest of all cases,
    # failing or not
    def body(i, rng, sampler):
        residual = (0.5, 2.0, -1.0, 1.5)[i]
        return residual, f"case {i} broke" if i % 2 else None

    monkeypatch.setitem(verify._SUITES, "involution", (body, 42, 4))
    report = run_suite("involution")
    assert report.failures == ((1, "case 1 broke"), (3, "case 3 broke"))
    assert not report.passed
    assert report.worst_residual == 2.0
    assert report.to_dict() == {
        "suite": "involution",
        "cases": 4,
        "passed": False,
        "worst_residual": 2.0,
        "failures": [
            {"case": 1, "problem": "case 1 broke"},
            {"case": 3, "problem": "case 3 broke"},
        ],
    }


def test_report_round_trips_to_dict():
    report = SuiteReport("involution", 3, ((1, "went sideways"),), 0.25)
    doc = report.to_dict()
    assert doc["suite"] == "involution"
    assert doc["passed"] is False
    assert doc["failures"] == [{"case": 1, "problem": "went sideways"}]
    assert SuiteReport("x", 1, (), 0.0).passed


# ---------------------------------------------------------------------------
# helpers


def test_order_reversing_reports_are_unchanged():
    # recorded, worst residual as float.hex, from the suite when it
    # evaluated the conjugates and the polarity one point at a time; the
    # sweeps over the sorted grid take the same steps, so the reports
    # agree bit for bit
    doc = json.loads((Path(__file__).parent / "data" / "order_reversing_reports.json").read_text())
    for seed, (worst, failures) in zip(doc["seeds"], doc["reports"]):
        report = run_suite(doc["suite"], ProfileSampler(seed), cases=doc["cases"])
        assert report.worst_residual.hex() == worst, seed
        assert [list(f) for f in report.failures] == failures, seed


def test_cap_radius_clips_where_needed():
    rho = to_radius(ConvexProfile(((0.0, 0.0), (1.0, 1.0), (2.0, 4.0)), 5.0))
    capped = _cap_radius(rho, 1.5)
    assert capped.tail_slope == 0.0
    zs = np.linspace(0.0, 20.0, 300)
    for z in zs:
        want = min(rho.evaluate(float(z)), 1.5)
        assert capped.evaluate(float(z)) == pytest.approx(want, abs=1e-12)


def test_cap_radius_above_range_is_identity_or_tail_clip():
    flat = RadiusFunction(((0.0, 1.0),), 0.0)
    assert _cap_radius(flat, 3.0) == flat
    capped = _cap_radius(RadiusFunction.infinite(), 3.0)
    assert capped == RadiusFunction(((0.0, 3.0),), 0.0)
    grows = RadiusFunction(((0.0, 1.0),), 2.0)
    capped = _cap_radius(grows, 5.0)
    assert capped.evaluate(10.0) == pytest.approx(5.0, abs=1e-12)
    assert capped.evaluate(1.0) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("cap", [0.0, -1.0, math.inf, math.nan])
def test_cap_radius_rejects_a_bad_cap(cap):
    rho = to_radius(ConvexProfile(((0.0, 0.0), (1.0, 1.0)), 5.0))
    with pytest.raises(ValueError, match="cap must be finite > 0"):
        _cap_radius(rho, cap)


# ---------------------------------------------------------------------------
# brute-force oracle, kept with the tests


def test_grid_oracle_is_not_part_of_the_package():
    assert "brute_force_lambda" not in epidual.__all__
    assert not hasattr(epidual, "brute_force_lambda")
    for name in ("brute_force_lambda", "_brute_force_scan", "_tent_log_ratios", "_GL_NODES"):
        assert not hasattr(verify, name), name


def test_tent_ratio_at_b_zero_is_inverse_factorial():
    for n in (1, 2, 3):
        for a in (0.1, 1.0, 3.0):
            got = _tent_log_ratios(n, a, np.array([0.0]))[0]
            assert got == pytest.approx(-math.lgamma(n + 1), abs=1e-10)


def test_brute_force_matches_solver_on_coarse_grid():
    est = solve_lambda(1)
    val = brute_force_lambda(1, 400, 80, a_range=(0.05, 2.0))
    assert abs(math.expm1(val - est.log_lambda)) < 2e-3


def test_brute_force_maximum_sits_at_infinite_b():
    _, a_best, b_best = _brute_force_scan(1, 300, 60, (0.1, 1.0))
    assert math.isinf(b_best)
    assert 0.2 < a_best < 0.5


def test_brute_force_rejects_bad_grids():
    with pytest.raises(ValueError):
        brute_force_lambda(1, 1, 50)
    with pytest.raises(ValueError):
        brute_force_lambda(1, 50, 50, a_range=(2.0, 1.0))

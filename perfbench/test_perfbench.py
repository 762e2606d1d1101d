"""Tests of the benchmark's own code: inputs, checker, tracer and contract."""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

epidual = run.import_program()

import hostspeed as hs  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# Root spans cover everything but the loop itself and the per-operation
# prepare step, so their self times add up to nearly all of the traced pass.
WALL_SLACK = 0.05


def _head(iterator, k):
    return list(itertools.islice(iterator, k))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    cls = wl.WORKLOADS[name]
    first = _head(cls.inputs(7), 3000)
    assert first == _head(cls.inputs(7), 3000)
    assert first != _head(cls.inputs(8), 3000)


def test_ratio_pool_is_fixed_and_every_profile_constructs():
    pool = wl.ratio_pool()
    assert wl.pool_digest(pool) == wl.pool_digest(wl.ratio_pool())
    assert wl.pool_digest(pool) == wl.load_reference("ratio")["digest"]
    segments = []
    for pts, tail, n in pool:
        p = epidual.ConvexProfile(pts, tail)
        assert p.breakpoints[0] == (0.0, 0.0)
        assert 1 <= n <= wl.RATIO_MAX_N
        segments.append(len(pts) - 1)
    assert min(segments) == 1 and max(segments) == wl.RATIO_MAX_SEGMENTS
    tails = [math.isinf(tail) for _, tail, _ in pool]
    assert 0.2 < sum(tails) / len(pool) < 0.3
    assert {n for _, _, n in pool} == set(range(1, wl.RATIO_MAX_N + 1))


def test_solve_sweep_visits_every_dimension_once_a_pass():
    first_pass = _head(wl.SolveSweep.inputs(3), wl.SOLVE_N_MAX)
    assert sorted(first_pass) == list(range(1, wl.SOLVE_N_MAX + 1))


def test_verify_mix_interleaves_suites_and_checks_recorded_failures():
    head = _head(wl.VerifyMix.inputs(5), len(wl.SUITES) * len(wl.VERIFY_POOL))
    for r in range(0, len(head), len(wl.SUITES)):
        assert sorted(s for s, _ in head[r:r + len(wl.SUITES)]) == list(range(len(wl.SUITES)))
    assert len(set(head)) == len(head)  # one pass visits every pooled run once
    ref = wl.load_reference("verify")
    failing = [
        (s, j) for s, suite in enumerate(wl.SUITES)
        for j, cases in enumerate(ref["failures"][suite]) if cases and j in wl.VERIFY_POOL
    ]
    assert failing  # the reference commit has failing runs, and they stay scheduled
    s, j = failing[0]
    suite = wl.SUITES[s]

    def report(failures):
        return SimpleNamespace(suite=suite, cases=wl.VERIFY_CASES, failures=failures,
                               worst_residual=ref["worst_residual"][suite][j])

    check = wl.VerifyMix().checker()
    assert check((s, j), report(tuple((case, "as recorded") for case in ref["failures"][suite][j])))
    assert not check((s, j), report(()))  # a run that starts to pass is a changed output


def test_checker_counts_every_mismatch_and_exception(capsys):
    sweep = wl.SolveSweep()
    ref = wl.load_reference("solve")

    def est(n, bump=0.0):
        return SimpleNamespace(log_lambda=ref["log_lambda"][n - 1] + bump, a_n=ref["a_n"][n - 1])

    done = [
        (1, est(1)),
        (2, est(2, bump=1e-12)),  # inside the tolerance
        (3, est(3, bump=1e-6)),
        (4, epidual.StationarityFailure("no certificate")),
        (5, object()),  # no fields to read
    ]
    assert run.count_failures(sweep.checker(), done) == 3
    assert "first failure" in capsys.readouterr().err


def test_closed_loop_checks_every_output():
    class Flaky:
        def prepare(self, x):
            pass

        def call(self, x):
            if x % 3 == 0:
                raise ValueError(x)
            return x

    wall, kernel, bad = run.closed_loop(Flaky(), itertools.count(1), 0.05, lambda x, out: x % 5 != 0)
    assert len(wall) > 15
    assert len(kernel) == len(wall) + 1  # one before the first operation, one after each
    assert [x for x, _ in bad] == [x for x in range(1, len(wall) + 1) if x % 3 == 0 or x % 5 == 0]


def test_host_speed_correction_scales_by_the_kernel_time_around_a_stretch():
    ref = hs.REFERENCE_S
    assert hs.corrected(0.010, ref, ref) == pytest.approx(0.010)
    # a host running at half speed doubles both the stretch and the kernel
    assert hs.corrected(0.020, 2 * ref, 2 * ref) == pytest.approx(0.010)
    assert hs.corrected(0.015, ref, 2 * ref) == pytest.approx(0.010)
    assert hs.kernel() == hs.kernel()  # fixed work, the same on every call
    assert 0 < hs.kernel_s() < 1


def test_matches_uses_relative_tolerance_with_unit_floor():
    assert wl.matches(1000.0, 1000.0 + 5e-7)
    assert not wl.matches(1000.0, 1000.0 + 5e-6)
    assert wl.matches(0.0, 5e-10)
    assert not wl.matches(0.0, 5e-9)
    assert not wl.matches(math.nan, 1.0)


def test_tracer_rebinds_every_import_and_restores():
    from epidual import cli, extremal, gammafn, measures, profile, verify

    reg_gamma, to_radius = gammafn.reg_gamma, profile.to_radius
    evaluate = profile.RadiusFunction.evaluate
    with tr.Tracer() as t:
        assert t.missing == []
        wrapped = gammafn.reg_gamma
        assert wrapped is not reg_gamma and wrapped.__wrapped__ is reg_gamma
        assert extremal.reg_gamma is wrapped and measures.reg_gamma is wrapped
        assert epidual.reg_gamma is wrapped
        assert measures.to_radius is verify.to_radius is cli.to_radius is profile.to_radius
        assert profile.to_radius is not to_radius
        assert profile.RadiusFunction.evaluate is not evaluate
    assert gammafn.reg_gamma is extremal.reg_gamma is measures.reg_gamma is reg_gamma
    assert epidual.reg_gamma is reg_gamma
    assert verify.to_radius is cli.to_radius is to_radius
    assert profile.RadiusFunction.evaluate is evaluate


def _block(workload, k, seed=11):
    workload.setup()
    return _head(workload.inputs(seed), k)


@pytest.fixture(scope="module")
def ratio_stream():
    w = wl.RatioStream()
    return w, _block(w, 6)


def test_self_times_sum_to_traced_wall_time(ratio_stream):
    w, block = ratio_stream
    t, done, wall = run.traced_pass(w, block)
    assert run.count_failures(w.checker(), done) == 0
    spans = t.arrays()
    selfs = tr.self_times(spans)
    assert (selfs > -1e-9).all()
    roots = spans["parent"] < 0
    assert roots.sum() == len(block)
    # every span belongs to the operation whose root it descends from
    owner = spans["parent"].copy()
    for i in range(len(owner)):
        owner[i] = i if roots[i] else owner[owner[i]]
    for root in owner[roots]:
        duration = spans["end"][root] - spans["start"][root]
        assert selfs[owner == root].sum() == pytest.approx(duration, rel=1e-9)
    assert selfs.sum() == pytest.approx(wall, rel=WALL_SLACK)


def test_traced_counts_repeat_exactly_and_outputs_match(ratio_stream):
    w, block = ratio_stream
    counts = []
    for _ in range(2):
        t, done, _ = run.traced_pass(w, block)
        assert run.count_failures(w.checker(), done) == 0
        counts.append({name: c for name, (c, _) in t.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["profile.evaluate"] > 0 and counts[0]["measures.vol_mu"] == 2 * len(block)


def test_layer_values_group_spans_by_prefix():
    totals = {
        "logdomain.log_add": (6, 3.0),
        "logdomain.log_sum": (2, 1.0),
        "gammafn.reg_gamma": (4, 2e-5),
        "bench.op": (2, 1.0),
    }
    v = run.layer_values(totals, ops=2, hit_ratio=0.5, overhead=0.25)
    assert v["logdomain.calls"] == 4 and v["logdomain.self_s"] == 2.0
    assert v["gammafn.reg_gamma.us_per_call"] == pytest.approx(5.0)
    assert v["extremal.big_g.calls"] == 0 and v["profile.evaluate.self_s"] == 0
    assert v["extremal.solve_lambda.cache_hit_ratio"] == 0.5
    assert v["trace.overhead_frac"] == 0.25


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, _, unit) in run.LAYER_METRICS.items()
    }
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_short_run_of_all_workloads_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {
        f"{w}.{m}" for w in wl.WORKLOADS for m in run.END_TO_END_UNITS
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert proc.stdout.count("failed_frac") == len(wl.WORKLOADS)

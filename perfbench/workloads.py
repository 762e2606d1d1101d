"""Seeded inputs, operations and reference checks of the three workloads.

Every workload is a closed loop with one client: the next operation starts
only when the previous one returned.  The run seed only chooses the order in
which a fixed input pool is visited, so every input has a reference output
recorded from the program (see record_reference.py) and every output is
checked; the program itself never sees the seed.

solve-sweep   one cold ``solve_lambda(n)``; n sweeps 1..1000 in a seeded order
ratio-stream  one ``log_s_j_n(p, n)`` on a pool of 4096 generated profiles
verify-mix    one ``run_suite(name, ProfileSampler(s), cases=2)``, interleaved
              over the 14 suites in seeded rounds, 64 sampler seeds a suite;
              a few pooled runs fail at the reference commit, and they stay
              in the schedule, checked against their recorded failures
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Iterator

import epidual

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Outputs must match the recorded reference to this relative error (with an
# absolute floor of the same size for values below one in magnitude).
TOLERANCE = 1e-9

SOLVE_N_MAX = 1000

RATIO_POOL_SEED = 1910_10260
RATIO_POOL_SIZE = 4096
RATIO_MAX_SEGMENTS = 64
RATIO_MAX_N = 64
INDICATOR_TAIL_SHARE = 0.25
FLAT_START_SHARE = 0.2

# The suite list is fixed here rather than read from the program, so the
# workload stays the same when the program gains a suite.
SUITES = (
    "involution",
    "order-preserving",
    "order-reversing",
    "factorization",
    "scaling-invariance",
    "nu-mu-substitution",
    "reciprocal-pair",
    "delta-nonpositive",
    "t-improvement",
    "upper-bound-sjn",
    "steiner-commute-1d",
    "steiner-volume-1d",
    "gamma-inequalities",
    "ck-negative",
)
VERIFY_CASES = 2
# sampler seeds recorded per suite, and the pool a run visits: every 8th of
# them, 64 a suite.  A pass over that pool takes about 6 s, so every run
# repeats it several times and runs of any seed do the same mix of work
# (see NOTES.md)
VERIFY_SEEDS_PER_SUITE = 512
VERIFY_POOL = range(0, VERIFY_SEEDS_PER_SUITE, 8)
VERIFY_SEED_BASE = 5_000_000
VERIFY_WARM_SEED = 4_999_999

def matches(got: float, want: float) -> bool:
    """True when got equals the reference within TOLERANCE."""
    if got == want:
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        return False
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _exponential(rng: random.Random) -> float:
    # built on random() alone, whose stream Python keeps stable across versions
    return -math.log(1.0 - rng.random())


def draw_ratio_query(rng: random.Random) -> tuple[tuple, float, int]:
    """One raw (breakpoints, tail slope, n) query.

    Segment count is log-uniform on 1..64 and n uniform on 1..64; slope and
    radius increments are unit exponentials.  A fifth of the profiles start
    flat and a quarter get an indicator tail.
    """
    k = min(RATIO_MAX_SEGMENTS, int(math.exp(rng.random() * math.log(RATIO_MAX_SEGMENTS + 1))))
    pts = [(0.0, 0.0)]
    r = v = slope = 0.0
    for i in range(k):
        width = _exponential(rng)
        bump = _exponential(rng)
        if i == 0 and rng.random() < FLAT_START_SHARE:
            bump = 0.0
        slope += bump
        r += width
        v += slope * width
        pts.append((r, v))
    if rng.random() < INDICATOR_TAIL_SHARE:
        tail = math.inf
    else:
        tail = slope + _exponential(rng)
    n = 1 + int(rng.random() * RATIO_MAX_N)
    return tuple(pts), tail, n


def ratio_pool(size: int = RATIO_POOL_SIZE, seed: int = RATIO_POOL_SEED) -> list[tuple[tuple, float, int]]:
    rng = random.Random(seed)
    return [draw_ratio_query(rng) for _ in range(size)]


def pool_digest(pool: list[tuple[tuple, float, int]]) -> str:
    h = hashlib.sha256()
    for pts, tail, n in pool:
        h.update(repr((pts, tail, n)).encode())
    return h.hexdigest()


def verify_seed(suite_index: int, j: int) -> int:
    return VERIFY_SEED_BASE + suite_index * VERIFY_SEEDS_PER_SUITE + j


def _rounds(rng: random.Random, items: list) -> Iterator:
    """Endless visits of items, each pass a fresh seeded permutation."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class SolveSweep:
    """Cold solves of the extremal constant, the lambda-table workload."""

    name = "solve-sweep"

    def __init__(self) -> None:
        # resolved before any tracer rebinds the name; absent once the
        # program drops its cache, and then every solve is cold anyway
        self._cache_clear = getattr(epidual.solve_lambda, "cache_clear", None)

    def setup(self) -> None:
        for n in (1, 2, 3, 10, 100, 500, 999, SOLVE_N_MAX):
            epidual.solve_lambda(n)
        self.prepare(None)

    @staticmethod
    def inputs(seed: int) -> Iterator[int]:
        return _rounds(random.Random(seed), range(1, SOLVE_N_MAX + 1))

    def prepare(self, n) -> None:
        if self._cache_clear is not None:
            self._cache_clear()

    def call(self, n: int):
        return epidual.solve_lambda(n)

    def checker(self):
        ref = load_reference("solve")
        log_lambda, a_n = ref["log_lambda"], ref["a_n"]

        def check(n: int, out) -> bool:
            return matches(out.log_lambda, log_lambda[n - 1]) and matches(out.a_n, a_n[n - 1])

        return check


class RatioStream:
    """Volume-ratio queries of arbitrary profiles, all distinct within a pass."""

    name = "ratio-stream"

    def setup(self) -> None:
        self.raw = ratio_pool()
        self.queries = [
            (epidual.ConvexProfile(pts, tail), n) for pts, tail, n in self.raw
        ]
        # warm up on profiles outside the pool, so a cache keyed on the
        # profile gains nothing from it
        for pts, tail, n in ratio_pool(8, RATIO_POOL_SEED + 1):
            epidual.log_s_j_n(epidual.ConvexProfile(pts, tail), n)

    @staticmethod
    def inputs(seed: int) -> Iterator[int]:
        return _rounds(random.Random(seed), range(RATIO_POOL_SIZE))

    def prepare(self, i) -> None:
        pass

    def call(self, i: int) -> float:
        p, n = self.queries[i]
        return epidual.log_s_j_n(p, n)

    def checker(self):
        ref = load_reference("ratio")
        if ref["digest"] != pool_digest(self.raw):
            raise RuntimeError(
                "the generated ratio pool differs from the recorded one; "
                "the reference no longer applies"
            )
        want = ref["log_s_j_n"]

        def check(i: int, out: float) -> bool:
            return matches(out, want[i])

        return check


class VerifyMix:
    """Short property-suite runs interleaved over every suite."""

    name = "verify-mix"

    def setup(self) -> None:
        for n in range(1, 101):
            epidual.solve_lambda(n)
        for suite in SUITES:
            epidual.run_suite(suite, epidual.ProfileSampler(VERIFY_WARM_SEED), cases=1)

    @staticmethod
    def inputs(seed: int) -> Iterator[tuple[int, int]]:
        rng = random.Random(seed)
        per_suite = [_rounds(rng, VERIFY_POOL) for _ in SUITES]
        order = list(range(len(SUITES)))
        while True:
            rng.shuffle(order)
            for s in order:
                yield s, next(per_suite[s])

    def prepare(self, x) -> None:
        pass

    def call(self, x: tuple[int, int]):
        s, j = x
        sampler = epidual.ProfileSampler(verify_seed(s, j))
        return epidual.run_suite(SUITES[s], sampler, cases=VERIFY_CASES)

    def checker(self):
        ref = load_reference("verify")
        worst, failures = ref["worst_residual"], ref["failures"]

        def check(x: tuple[int, int], out) -> bool:
            s, j = x
            suite = SUITES[s]
            return (
                out.suite == suite
                and out.cases == VERIFY_CASES
                and [case for case, _ in out.failures] == failures[suite][j]
                and matches(out.worst_residual, worst[suite][j])
            )

        return check


WORKLOADS = {w.name: w for w in (SolveSweep, RatioStream, VerifyMix)}

"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/{solve,ratio,verify}.json from the program in
this checkout's src/.  The committed files were recorded at the commit that
introduced the benchmark; re-record only when the program's results are
meant to change, and say so in the change that does it.  A pooled suite run
that fails here is kept: its failing cases are recorded, and the benchmark
checks that the program still reports exactly those.
"""

from __future__ import annotations

import json
import sys

from run import import_program

epidual = import_program()

import workloads as w  # noqa: E402  (needs the program on sys.path)


def _dump(name: str, doc: dict) -> None:
    w.REFERENCE_DIR.mkdir(exist_ok=True)
    path = w.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {path}")


def record_solve() -> None:
    ests = [epidual.solve_lambda(n) for n in range(1, w.SOLVE_N_MAX + 1)]
    _dump("solve", {
        "log_lambda": [e.log_lambda for e in ests],
        "a_n": [e.a_n for e in ests],
    })


def record_ratio() -> None:
    pool = w.ratio_pool()
    values = [
        epidual.log_s_j_n(epidual.ConvexProfile(pts, tail), n) for pts, tail, n in pool
    ]
    _dump("ratio", {
        "pool_seed": w.RATIO_POOL_SEED,
        "digest": w.pool_digest(pool),
        "log_s_j_n": values,
    })


def record_verify() -> None:
    for n in range(1, 101):
        epidual.solve_lambda(n)
    worst, failures = {}, {}
    for s, suite in enumerate(w.SUITES):
        worst[suite], failures[suite] = [], []
        for j in range(w.VERIFY_SEEDS_PER_SUITE):
            sampler = epidual.ProfileSampler(w.verify_seed(s, j))
            report = epidual.run_suite(suite, sampler, cases=w.VERIFY_CASES)
            if not report.passed:
                print(f"fails: {suite} pool index {j} (sampler seed {sampler.seed}): "
                      f"{report.failures}")
            worst[suite].append(report.worst_residual)
            failures[suite].append([case for case, _ in report.failures])
    _dump("verify", {"cases": w.VERIFY_CASES, "worst_residual": worst, "failures": failures})


if __name__ == "__main__":
    record_solve()
    record_ratio()
    record_verify()
    sys.exit(0)

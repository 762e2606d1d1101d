"""Run one epidual benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ratio-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory and from nowhere else.  One client drives a
closed loop for --seconds, every output is checked against the recorded
reference, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
print every metric with its unit and sample count, failed_frac included.

--trace 0 reports the end-to-end metrics.  --trace 1 instead runs a fixed
block of operations twice, untraced and then traced, and reports the
per-layer metrics per operation; the spans are saved to perfbench/out/.
See NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from hostspeed import corrected, kernel_s

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# The timed phase is cut into this many equal slices, and after each one a
# fresh process is timed from spawn to the end of its set-up; setup_s is the
# median.  Spreading the probes over the run lets them sample the same host
# conditions as the operations, instead of a few seconds at its end.
SETUP_PROBES = 9
# host-speed kernel calls a set-up probe times before its import and after
# its set-up (median of each); the first ones add about 0.5 ms to its set-up
PROBE_KERNEL_CALLS = 5

# traced runs do a fixed block of operations, so per-operation counts repeat
# exactly for a seed; each block takes a few seconds untraced
TRACE_OPS = {"solve-sweep": 1000, "ratio-stream": 256, "verify-mix": 280}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name or span-name prefix, quantity, unit)
LAYER_METRICS = {
    "gammafn.reg_gamma.calls": ("gammafn.reg_gamma", "calls", "calls/op"),
    "gammafn.reg_gamma.self_s": ("gammafn.reg_gamma", "self_s", "s/op"),
    "gammafn.reg_gamma.us_per_call": ("gammafn.reg_gamma", "us_per_call", "us/call"),
    "extremal.big_g.calls": ("extremal.big_g", "calls", "calls/op"),
    "extremal.big_g.self_s": ("extremal.big_g", "self_s", "s/op"),
    "extremal.roots_of_m.calls": ("extremal.roots_of_m", "calls", "calls/op"),
    "extremal.solve_lambda.self_s": ("extremal.solve_lambda", "self_s", "s/op"),
    "measures.vol_mu.calls": ("measures.vol_mu", "calls", "calls/op"),
    "measures.vol_mu.self_s": ("measures.vol_mu", "self_s", "s/op"),
    "measures.volume_pair.self_s": ("measures.volume_pair", "self_s", "s/op"),
    "logdomain.calls": ("logdomain", "calls", "calls/op"),
    "logdomain.self_s": ("logdomain", "self_s", "s/op"),
    "profile.evaluate.calls": ("profile.evaluate", "calls", "calls/op"),
    "profile.evaluate.self_s": ("profile.evaluate", "self_s", "s/op"),
    "measures.vol_nu_direct.self_s": ("measures.vol_nu_direct", "self_s", "s/op"),
    "profile.transforms.self_s": ("profile.transforms", "self_s", "s/op"),
    "profile.construct.calls": ("profile.construct", "calls", "calls/op"),
    "verify.run_suite.self_s": ("verify.run_suite", "self_s", "s/op"),
    "extremal.solve_lambda.cache_hit_ratio": (None, "cache_hit_ratio", "ratio"),
    "trace.overhead_frac": (None, "overhead_frac", "frac"),
}


def import_program():
    """Import epidual from this checkout's src/, refusing any other copy."""
    init = SRC / "epidual" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no epidual sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import epidual

    if Path(epidual.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported epidual from {epidual.__file__}, not {SRC}")
    return epidual


def parse_args(argv, workloads) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(workloads), "all"],
                    help="'all' runs every workload, each in a fresh process")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, print the monotonic clock, exit (one setup_s sample)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def safe_call(call, x):
    """Run one operation; an exception is its output and counts as a failure."""
    try:
        return call(x)
    except Exception as exc:  # the loop must go on; the checker fails it
        return exc


def passes(check, x, out) -> bool:
    """True when the operation returned and its output matches the reference."""
    try:
        return not isinstance(out, Exception) and check(x, out)
    except Exception:  # an output the checker cannot read is wrong
        return False


def count_failures(check, done) -> int:
    """Number of failed (input, output) pairs; the first is shown on stderr."""
    bad = [(x, out) for x, out in done if not passes(check, x, out)]
    if bad:
        print(f"# first failure: input {bad[0][0]!r} gave {bad[0][1]!r}", file=sys.stderr)
    return len(bad)


def closed_loop(workload, inputs, seconds: float, check):
    """One client, next operation only after the previous returned.

    Returns each operation's wall time, the host-speed kernel's time before
    the first operation and after each one (one more entry than
    operations), and the failed (input, output) pairs.  Each output is
    checked as soon as it arrives, outside its latency, and only failures
    are kept, so memory does not grow with the program's speed.
    """
    wall, kernel, bad = array("d"), array("d", [kernel_s()]), []
    perf = time.perf_counter
    deadline = perf() + seconds
    while True:
        x = next(inputs)
        workload.prepare(x)
        t0 = perf()
        out = safe_call(workload.call, x)
        t1 = perf()
        kernel.append(kernel_s())
        wall.append(t1 - t0)
        if not passes(check, x, out):
            bad.append((x, out))
        if t1 >= deadline:
            return wall, kernel, bad


def kernel_median_s() -> float:
    return statistics.median(kernel_s() for _ in range(PROBE_KERNEL_CALLS))


def setup_probe(args) -> tuple[float, float]:
    """Wall and corrected seconds from spawning a fresh process until its set-up is done.

    The fresh process times the host-speed kernel itself, on whichever core
    it runs, before its import and after its set-up.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    # CLOCK_MONOTONIC is one clock for every process on the machine
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    ready, before, after = map(float, proc.stdout.split()[-3:])
    wall = ready - t0
    return wall, corrected(wall, before, after)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(args, workload, inputs):
    check = workload.checker()
    wall, lat, bad, setups, setups_wall = [], [], [], [], []
    for _ in range(SETUP_PROBES):
        part_wall, kernel, part_bad = closed_loop(workload, inputs, args.seconds / SETUP_PROBES, check)
        wall.extend(part_wall)
        lat.extend(corrected(w, kernel[i], kernel[i + 1]) for i, w in enumerate(part_wall))
        bad.extend(part_bad)
        probe_wall, probe = setup_probe(args)
        setups_wall.append(probe_wall)
        setups.append(probe)
    rss = peak_rss_mb()
    failed = count_failures(check, bad)
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (n - failed) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": p99(lat) * 1e3,
        "peak_rss_mb": rss,
    }
    beyond = sum(1 for t in lat if t * 1e3 > metrics["latency_p99_ms"])
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; wall {statistics.median(setups_wall):.4f} s",
        "ops_per_s": f"{n - failed} ops completed in {sum(lat):.3f} s of operations, closed loop, "
                     f"1 client; wall {(n - failed) / sum(wall):.4f}",
        "latency_p50_ms": f"{n} samples; wall {statistics.median(wall) * 1e3:.4f}",
        "latency_p99_ms": f"{n} samples, {beyond} beyond; wall {p99(wall) * 1e3:.4f}",
        "peak_rss_mb": "peak resident set of the workload process",
    }
    print("# times are corrected for host speed (see hostspeed.py); wall readings follow each note")
    for name, value in metrics.items():
        print(f"{name:<16} {value:>14.6f} {END_TO_END_UNITS[name]:<5} {notes[name]}")
    print(f"{'failed_frac':<16} {failed / n:>14.6f} {'frac':<5} {failed} of {n} attempted")
    return n, failed, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


def layer_values(totals, ops: int, hit_ratio: float, overhead: float) -> dict[str, float]:
    values = {}
    for metric, (span, quantity, _) in LAYER_METRICS.items():
        if quantity == "cache_hit_ratio":
            values[metric] = hit_ratio
            continue
        if quantity == "overhead_frac":
            values[metric] = overhead
            continue
        picked = [
            totals[name] for name in totals
            if name == span or name.startswith(span + ".")
        ]
        calls = sum(c for c, _ in picked)
        self_s = sum(s for _, s in picked)
        if quantity == "calls":
            values[metric] = calls / ops
        elif quantity == "self_s":
            values[metric] = self_s / ops
        else:
            values[metric] = self_s / calls * 1e6 if calls else 0.0
    return values


def traced_pass(workload, block):
    """Run block under a fresh tracer: (tracer, (input, output) pairs, wall s)."""
    from tracer import ROOT_SPAN, Tracer

    tracer = Tracer()
    done = []
    with tracer:
        traced_call = tracer.wrap(workload.call, ROOT_SPAN)
        t0 = time.perf_counter()
        for x in block:
            workload.prepare(x)
            done.append((x, safe_call(traced_call, x)))
        wall = time.perf_counter() - t0
    return tracer, done, wall


def per_layer(args, workload, inputs, epidual):
    block = [next(inputs) for _ in range(TRACE_OPS[args.workload])]
    ops = len(block)
    t0 = time.perf_counter()
    for x in block:
        workload.prepare(x)
        safe_call(workload.call, x)
    untraced = time.perf_counter() - t0

    # resolved before the tracer rebinds solve_lambda
    cache_info = getattr(epidual.solve_lambda, "cache_info", None)
    before = cache_info() if cache_info else None
    tracer, done, traced = traced_pass(workload, block)
    hit_ratio = 0.0
    if cache_info:
        after = cache_info()
        hits = after.hits - before.hits
        attempts = hits + after.misses - before.misses
        hit_ratio = hits / attempts if attempts else 0.0
    if tracer.missing:
        print(f"# not traced, absent from the program: {', '.join(tracer.missing)}")
    failed = count_failures(workload.checker(), done)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}.npz"
    tracer.write(path)

    values = layer_values(tracer.totals(), ops, hit_ratio, traced / untraced - 1.0)
    print(f"# traced {ops} ops: {traced:.3f} s traced, {untraced:.3f} s untraced; "
          f"{len(tracer.name_id)} spans saved to {path.relative_to(HERE.parent)}")
    for name, value in values.items():
        print(f"{name:<40} {value:>16.9g} {LAYER_METRICS[name][2]}")
    print(f"{'failed_frac':<40} {failed / ops:>16.9g} frac  {failed} of {ops} attempted")
    metrics = {k: {"value": v, "unit": LAYER_METRICS[k][2]} for k, v in values.items()}
    return ops, failed, metrics


def run_all(args, names) -> None:
    """Run every workload in its own fresh process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged), flush=True)


def main(argv=None) -> int:
    kernel_before = kernel_median_s()
    epidual = import_program()
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        run_all(args, WORKLOADS)
        return 0
    workload = WORKLOADS[args.workload]()
    workload.setup()
    if args.setup_only:
        ready = time.monotonic()
        print(f"ready {ready!r} {kernel_before!r} {kernel_median_s()!r}", flush=True)
        return 0
    inputs = workload.inputs(args.seed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    gc.collect()
    if args.trace:
        attempted, failed, metrics = per_layer(args, workload, inputs, epidual)
    else:
        attempted, failed, metrics = end_to_end(args, workload, inputs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

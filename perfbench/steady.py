"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 perfbench/steady.py --out perfbench/baseline.json --label "commit abc1234"

For every workload in BENCHMARK.json, each of two sets runs perfbench/run.py
once per seed, ten seeds a set (fresh seeds in the second set), and takes,
for each end-to-end metric, the median and quartiles of its values
(``statistics.quantiles(n=4)``).  A metric is steady when the quartile
distance of each set, as a share of that set's median, stays within the
metric's bound, and when the second set's median is not worse than the
first set's by more than the bound.  The exit code is 1 if any metric is not steady, 2 if a run failed
or reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
SEEDS_PER_SET = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"incorrect outputs: {' '.join(cmd)}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which later is worse than first (negative when better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{cpu}; {os.cpu_count()} CPUs; python {platform.python_version()}; {platform.system()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write every value and summary here as JSON")
    ap.add_argument("--label", default="", help="stored in --out, e.g. the commit measured")
    args = ap.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    report = {"label": args.label, "machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in names:
        sets = []
        for k in range(SETS):
            seeds = [1 + k * SEEDS_PER_SET + i for i in range(SEEDS_PER_SET)]
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, seconds))
                print(f"  {workload} seed {seed}: "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in runs[-1]["metrics"].items()),
                      flush=True)
            sets.append({
                "seeds": seeds,
                "metrics": {
                    name: summary([r["metrics"][name]["value"] for r in runs])
                    for name in metrics
                },
            })
        report["workloads"][workload] = sets
        print(f"{workload}:")
        for name, spec in metrics.items():
            bound = spec["bound"]
            spreads = [s["metrics"][name]["spread"] for s in sets]
            drifts = [
                worse_by(sets[0]["metrics"][name]["median"], s["metrics"][name]["median"], spec["better"])
                for s in sets[1:]
            ]
            ok_spread = max(spreads) <= bound
            ok_drift = all(d <= bound for d in drifts)
            steady &= ok_spread and ok_drift
            medians = " ".join(f"{s['metrics'][name]['median']:.5g}" for s in sets)
            print(
                f"  {name:<16} bound {bound:<5} medians {medians} {spec['unit']:<4} "
                f"spreads {' '.join(f'{x:.4f}' for x in spreads)} "
                f"worse-by {' '.join(f'{d:+.4f}' for d in drifts) or '-'} "
                f"{'ok' if ok_spread and ok_drift else 'NOT STEADY'}"
                f"{' (under a third of bound)' if max(spreads) < bound / 3 else ''}",
                flush=True,
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

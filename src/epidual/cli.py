"""Command-line front end: tables, scans, transform application, checks.

All numbers print with 17 significant digits and rows are emitted in a
fixed order, so identical flags give byte-identical output.  Lines that
begin with '#' carry metadata (dimensions, lambda mode, located roots)
and can be skipped by plotting tools.  Exit codes: 0 success, 1 a
property run reported failures, 2 usage or input errors, unreadable input
and unwritable --out files among them, and a typed failure of any command:
an ArithmeticError from a computation that cannot answer, or a ValueError
for an input the program refuses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .extremal import (
    OneRootCase,
    _island,
    a_bracket,
    big_g,
    roots_of_m,
    solve_lambda,
)
from .logdomain import log_sub_signed
from .profile import (
    from_radius,
    j_transform,
    legendre,
    profile_from_dict,
    profile_to_dict,
    to_radius,
)
from .verify import SUITE_NAMES, ProfileSampler, run_suite

_FAILURES = (ArithmeticError, ValueError)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


def _range_pair(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from exc
    if not (0.0 < lo < hi < math.inf):
        raise argparse.ArgumentTypeError(f"need 0 < LO < HI, got {text!r}")
    return lo, hi


def _lambda_mode(text: str) -> str:
    if text in ("factorial", "solved"):
        return text
    try:
        if math.isfinite(float(text)):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected 'factorial', 'solved' or a finite log value, got {text!r}"
    )


# ---------------------------------------------------------------------------
# commands


# lambda-table columns after n, each read from n and its LambdaEstimate
_TABLE_COLUMNS = {
    "log_lambda": lambda n, est: est.log_lambda,
    "excess": lambda n, est: est.lambda_hat_minus_1,
    "r_n": lambda n, est: n * est.lambda_hat_minus_1,
    "a_n": lambda n, est: est.a_n,
    "n_a_n": lambda n, est: n * est.a_n,
    "residual_n1": lambda n, est: est.residual_n1,
    "residual_n2": lambda n, est: est.residual_n2,
}


def _cmd_lambda_table(args) -> int:
    if args.n_max > 1000:
        return _fail("lambda-table supports n up to 1000")
    if args.n_min > args.n_max:
        return _fail(f"empty range: n-min {args.n_min} > n-max {args.n_max}")
    rows: list[dict] = []
    for n in range(args.n_min, args.n_max + 1):
        try:
            est = solve_lambda(n)
        except _FAILURES as exc:
            if not args.keep_going:
                return _fail(f"solver failed at n={n}: {exc}")
            rows.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({"n": n, **{k: col(n, est) for k, col in _TABLE_COLUMNS.items()}})
    if args.format == "csv":
        lines = ["# columns: " + ",".join(["n", *_TABLE_COLUMNS])]
        for row in rows:
            if "error" in row:
                lines.append(f"{row['n']},error,{row['error'].replace(',', ';')}")
            else:
                values = [_fmt(row[k]) for k in _TABLE_COLUMNS]
                lines.append(",".join([str(row["n"]), *values]))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"rows": rows}, sort_keys=True, indent=2) + "\n"
    _emit(text, args.out)
    return 2 if any("error" in row for row in rows) else 0


def _cmd_maximizer(args) -> int:
    est = solve_lambda(args.n)
    doc = {**asdict(est), "tent": {"a": est.a_n, "b": "inf", "x0": 1.0}}
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _resolve_log_lambda(mode: str, n: int) -> float:
    if mode == "factorial":
        return math.lgamma(n + 1)
    if mode == "solved":
        return solve_lambda(n).log_lambda
    return float(mode)


def _cmd_scan_m(args) -> int:
    n = args.n
    log_lambda = _resolve_log_lambda(args.lam, n)
    lo, hi = args.range if args.range else (1e-3, 1e3)
    lines = [f"# n={n} lambda={args.lam} log_lambda={_fmt(log_lambda)}"]
    try:
        roots = roots_of_m(n, log_lambda)
        lines.append(
            f"# roots: z1={_fmt(roots.z1)} z2={_fmt(roots.z2)} z3={_fmt(roots.z3)}"
        )
    except OneRootCase as exc:
        lines.append(f"# roots: OneRootCase ({exc})")
    lines.append("# columns: z,sign_m,log_abs_m")
    import numpy as np

    for z in np.geomspace(lo, hi, args.points):
        z = float(z)
        decay = -1.0 / z - (n + 2) * math.log(z)
        sign, log_abs = log_sub_signed(decay, log_lambda - z)
        lines.append(f"{_fmt(z)},{sign},{_fmt(log_abs)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_scan_g(args) -> int:
    n = args.n
    if args.alpha is not None:
        lo, hi = a_bracket(n, args.alpha)
    elif args.range:
        lo, hi = args.range
    else:
        lo, hi = _island(n, math.lgamma(n + 1))
    import numpy as np

    grid = [float(a) for a in np.geomspace(lo, hi, args.points)]
    vals = [big_g(a, n) for a in grid]
    best = max(range(len(grid)), key=vals.__getitem__)
    log_factorial = math.lgamma(n + 1)
    lines = [
        f"# n={n} range={_fmt(lo)}:{_fmt(hi)}",
        f"# argmax: a={_fmt(grid[best])} log_g={_fmt(vals[best])}",
        "# columns: a,log_g,excess",
    ]
    for a, v in zip(grid, vals):
        lines.append(f"{_fmt(a)},{_fmt(v)},{_fmt(math.expm1(v - log_factorial))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# A = L J: the paper factors J = L A, and L is an involution
_TRANSFORMS = {
    "J": lambda p: from_radius(j_transform(to_radius(p))),
    "L": legendre,
    "A": lambda p: legendre(from_radius(j_transform(to_radius(p)))),
}


def _cmd_transform(args) -> int:
    if args.input is None:
        raw = sys.stdin.read()
    else:
        raw = Path(args.input).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        return _fail(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    try:
        p = profile_from_dict(doc)
    except ValueError as exc:
        return _fail(f"invalid profile: {exc}")
    try:
        image = _TRANSFORMS[args.op](p)
    except _FAILURES as exc:
        return _fail(f"{args.op} image is not representable: {exc}")
    _emit(json.dumps(profile_to_dict(image), sort_keys=True) + "\n", args.out)
    return 0


def _cmd_check(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    # run_suite seeds a fresh generator from the sampler on every call
    sampler = ProfileSampler(args.seed) if args.seed is not None else None
    reports = [run_suite(name, sampler, args.cases) for name in sorted(names)]
    doc = {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epidual",
        description="Tables, scans and property checks for the tent-ratio solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("lambda-table", help="solved constants for a range of n")
    table.add_argument("--n-min", type=_positive_int, default=1)
    table.add_argument("--n-max", type=_positive_int, default=100)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--out", default=None)
    table.add_argument("--keep-going", action="store_true")
    table.set_defaults(func=_cmd_lambda_table)

    maxi = sub.add_parser("maximizer", help="solver output for one n as JSON")
    maxi.add_argument("--n", type=_positive_int, required=True)
    maxi.add_argument("--out", default=None)
    maxi.set_defaults(func=_cmd_maximizer)

    scan_m = sub.add_parser("scan-m", help="sign map scan as CSV")
    scan_m.add_argument("--n", type=_positive_int, required=True)
    scan_m.add_argument("--lambda", dest="lam", type=_lambda_mode, default="factorial")
    scan_m.add_argument("--range", type=_range_pair, default=None)
    scan_m.add_argument("--points", type=_positive_int, default=2000)
    scan_m.add_argument("--out", default=None)
    scan_m.set_defaults(func=_cmd_scan_m)

    scan_g = sub.add_parser("scan-g", help="capped-tent objective scan as CSV")
    scan_g.add_argument("--n", type=_positive_int, required=True)
    window = scan_g.add_mutually_exclusive_group()
    window.add_argument("--alpha", type=float, default=None)
    window.add_argument("--range", type=_range_pair, default=None)
    scan_g.add_argument("--points", type=_positive_int, default=400)
    scan_g.add_argument("--out", default=None)
    scan_g.set_defaults(func=_cmd_scan_g)

    trans = sub.add_parser("transform", help="apply J, L or A to a profile JSON")
    trans.add_argument("op", choices=("J", "L", "A"))
    trans.add_argument("input", nargs="?", default=None, help="path, or stdin")
    trans.add_argument("--out", default=None)
    trans.set_defaults(func=_cmd_transform)

    check = sub.add_parser("check", help="run property suites and report JSON")
    check.add_argument("suite", nargs="?", default="all", choices=("all", *SUITE_NAMES))
    check.add_argument("--seed", type=_seed, default=None)
    check.add_argument("--cases", type=_positive_int, default=None)
    check.add_argument("--out", default=None)
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError) as exc:  # unreadable input, or --out
        return _fail(str(exc))
    except _FAILURES as exc:
        return _fail(f"{args.command} failed: {type(exc).__name__}: {exc}")


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()

import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import epidual
from epidual.cli import main
from epidual.extremal import (
    BracketFailure,
    LambdaEstimate,
    a_bracket,
    roots_of_m,
    solve_lambda,
)
from epidual.profile import (
    ConvexProfile,
    check_j_factorization,
    from_radius,
    j_transform,
    legendre,
    profile_from_dict,
    profile_to_dict,
    scale,
    to_radius,
)
from epidual.verify import SuiteReport

TENT = {"breakpoints": [[0, 0], [1, 2]], "tail_slope": "inf"}
INDICATOR = {"breakpoints": [[0, 0], [1, 0]], "tail_slope": "inf"}

# two profiles on which a polar envelope built from the meeting points of
# its lines raised: rounded values that are not convex, and two meeting
# points that round to one
POLAR_WITNESSES = [
    ConvexProfile(
        (
            (0.0, 0.0),
            (9.49205909116655e-05, 1.0728851142748011e-10),
            (9.514882870457269e-05, 1.07546488045802e-10),
            (9.521322251176364e-05, 7762434.843311669),
        ),
        120546333801613.83,
    ),
    ConvexProfile(
        (
            (0.0, 0.0),
            (2602.789369891231, 3.5520921769563033e-12),
            (2742.351245412214, 5.295884778861328e-12),
            (3771.2658471410505, 1.2744632035943696e-09),
            (3771.266150502868, 1.2327708116998277),
            (3771.2684584471185, 220606268.76850805),
        ),
        95585613697.13121,
    ),
]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["lambda-table", "--bogus"])[0] == 2


def test_lambda_table_small_range(capsys):
    code, out, _ = run(capsys, ["lambda-table", "--n-min", "1", "--n-max", "5"])
    assert code == 0
    rows = data_rows(out)
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    assert all(float(r[2]) >= 0.0 for r in rows)  # lambda_n / n! - 1
    assert out.splitlines()[0].startswith("# columns:")


def test_lambda_table_csv_and_json_agree(capsys):
    code, csv_text, _ = run(capsys, ["lambda-table", "--n-max", "10"])
    assert code == 0
    code, json_text, _ = run(capsys, ["lambda-table", "--n-max", "10", "--format", "json"])
    assert code == 0
    docs = json.loads(json_text)["rows"]
    for row, doc in zip(data_rows(csv_text), docs):
        assert int(row[0]) == doc["n"]
        for i, key in enumerate(
            ("log_lambda", "excess", "r_n", "a_n", "n_a_n", "residual_n1", "residual_n2")
        ):
            assert float(row[i + 1]) == doc[key]


def test_lambda_table_keep_going_reports_error_rows(capsys, monkeypatch):
    def flaky(n):
        if n == 2:
            raise BracketFailure("no bracket, at n=2")
        return solve_lambda(n)

    monkeypatch.setattr("epidual.cli.solve_lambda", flaky)
    argv = ["lambda-table", "--n-max", "3"]
    assert run(capsys, argv)[0] == 2
    code, csv_text, _ = run(capsys, [*argv, "--keep-going"])
    assert code == 2
    assert data_rows(csv_text)[1] == ["2", "error", "BracketFailure: no bracket; at n=2"]
    code, json_text, _ = run(capsys, [*argv, "--keep-going", "--format", "json"])
    assert code == 2
    docs = json.loads(json_text)["rows"]
    assert docs[1] == {"n": 2, "error": "BracketFailure: no bracket, at n=2"}
    assert [doc["n"] for doc in docs] == [1, 2, 3] and "log_lambda" in docs[2]


def test_lambda_table_row_200_tracks_inverse_dimension(capsys):
    code, out, _ = run(capsys, ["lambda-table", "--n-min", "200", "--n-max", "200"])
    assert code == 0
    (row,) = data_rows(out)
    assert abs(float(row[5]) - 1.0) <= 0.35


def test_lambda_table_rejects_bad_ranges(capsys):
    assert run(capsys, ["lambda-table", "--n-min", "5", "--n-max", "2"])[0] == 2
    assert run(capsys, ["lambda-table", "--n-max", "1001"])[0] == 2


def test_lambda_table_writes_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, ["lambda-table", "--n-max", "3", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert len(data_rows(target.read_text())) == 3


def test_runs_are_byte_identical(capsys):
    args = ["lambda-table", "--n-max", "8", "--format", "json"]
    assert run(capsys, args)[1] == run(capsys, args)[1]
    args = ["scan-m", "--n", "4", "--points", "100"]
    assert run(capsys, args)[1] == run(capsys, args)[1]


@pytest.mark.parametrize("module", ["epidual", "epidual.cli"])
def test_python_dash_m_runs_the_cli(capsys, module):
    expected = run(capsys, ["maximizer", "--n", "5"])[1].encode()
    src = str(Path(epidual.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", module, "maximizer", "--n", "5"],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


def test_maximizer_reports_solver_fields(capsys):
    code, out, _ = run(capsys, ["maximizer", "--n", "7"])
    assert code == 0
    doc = json.loads(out)
    est = solve_lambda(7)
    assert set(doc) == {f.name for f in fields(LambdaEstimate)} | {"tent"}
    assert doc["log_lambda"] == est.log_lambda
    assert doc["bracket"][0] < doc["a_n"] < doc["bracket"][1]
    assert doc["tent"] == {"a": est.a_n, "b": "inf", "x0": 1.0}


def test_maximizer_solves_one_billion(capsys):
    code, out, err = run(capsys, ["maximizer", "--n", "1000000000"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["n"] == 1_000_000_000
    # the residuals cancel terms of size log lambda ~ 2e10
    tol = max(1e-8, 4.0 * math.ulp(doc["log_lambda"]))
    assert abs(doc["residual_n1"]) <= tol
    assert abs(doc["residual_n2"]) <= tol


@pytest.mark.parametrize(
    "argv, problem",
    [
        # h at the island's left end is within its rounding bound from 1e10
        (["maximizer", "--n", "10000000000"], "within its rounding bound"),
        (["maximizer", "--n", "10000000000000000"], "within its rounding bound"),
        (["scan-m", "--n", "10000000000000000", "--points", "3"], "within its rounding bound"),
        (["scan-g", "--n", "10000000000000000", "--points", "3"], "within its rounding bound"),
        (["scan-g", "--n", "10000000000", "--points", "3"], "lower gamma series stalled"),
        # the gap's doubles cancel to 0 at the probe: no false OneRootCase
        (["scan-m", "--n", "100000000000000000000", "--points", "3"], "within its rounding bound"),
    ],
)
def test_solver_arithmetic_failures_exit_two(capsys, argv, problem):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert problem in err


def test_scan_m_default_has_three_flips_and_matching_roots(capsys):
    code, out, _ = run(capsys, ["scan-m", "--n", "10"])
    assert code == 0
    signs = [int(r[1]) for r in data_rows(out)]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    assert flips == 3
    header = next(line for line in out.splitlines() if line.startswith("# roots:"))
    got = dict(part.split("=") for part in header.split()[2:])
    want = roots_of_m(10, math.lgamma(11))
    assert float(got["z1"]) == pytest.approx(want.z1, abs=1e-10)
    assert float(got["z2"]) == pytest.approx(want.z2, abs=1e-10)
    assert float(got["z3"]) == pytest.approx(want.z3, abs=1e-10)


def test_scan_m_low_lambda_records_one_root_case(capsys):
    code, out, _ = run(capsys, ["scan-m", "--n", "2", "--lambda", "-5", "--points", "50"])
    assert code == 0
    assert "OneRootCase" in out
    signs = [int(r[1]) for r in data_rows(out)]
    assert sum(a != b for a, b in zip(signs, signs[1:])) == 1


def test_scan_m_explicit_log_lambda_degenerate_case(capsys):
    code, out, _ = run(capsys, ["scan-m", "--n", "1", "--lambda", "0.0", "--points", "50"])
    assert code == 0
    header = next(line for line in out.splitlines() if line.startswith("# roots:"))
    got = dict(part.split("=") for part in header.split()[2:])
    assert float(got["z2"]) == pytest.approx(1.0, rel=1e-9)


def test_scan_m_solved_mode_runs(capsys):
    assert run(capsys, ["scan-m", "--n", "3", "--lambda", "solved", "--points", "50"])[0] == 0
    assert run(capsys, ["scan-m", "--n", "3", "--lambda", "junk"])[0] == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scan_m_rejects_non_finite_lambda(capsys, value):
    code, out, err = run(capsys, ["scan-m", "--n", "3", f"--lambda={value}"])
    assert code == 2 and out == ""
    assert "finite log value" in err


def test_scan_g_stays_below_solved_constant(capsys):
    code, out, _ = run(capsys, ["scan-g", "--n", "5"])
    assert code == 0
    est = solve_lambda(5)
    vals = [float(r[1]) for r in data_rows(out)]
    assert max(vals) <= est.log_lambda + math.log1p(1e-9)
    assert vals[0] < max(vals) and vals[-1] < max(vals)
    header = next(line for line in out.splitlines() if line.startswith("# argmax:"))
    a_best = float(dict(part.split("=") for part in header.split()[2:])["a"])
    lo, hi = est.bracket
    step = math.log(hi / lo) / 399
    assert abs(math.log(a_best / est.a_n)) <= step


def test_scan_g_alpha_window(capsys):
    code, out, _ = run(capsys, ["scan-g", "--n", "50", "--alpha", "0.9", "--points", "30"])
    assert code == 0
    lo, hi = a_bracket(50, 0.9)
    rows = data_rows(out)
    assert float(rows[0][0]) == pytest.approx(lo, rel=1e-12)
    assert float(rows[-1][0]) == pytest.approx(hi, rel=1e-12)
    assert run(capsys, ["scan-g", "--n", "10", "--alpha", "0.6"])[0] == 2
    assert run(capsys, ["scan-g", "--n", "10", "--alpha", "1.5"])[0] == 2


def test_scan_m_range_sets_the_grid_ends(capsys):
    code, out, _ = run(capsys, ["scan-m", "--n", "5", "--range", "0.1:10", "--points", "3"])
    assert code == 0
    rows = data_rows(out)
    assert len(rows) == 3
    # numbers print as %.17g, so 0.1 prints as 0.10000000000000001
    assert float(rows[0][0]) == 0.1 and float(rows[-1][0]) == 10.0


def test_scan_g_range_heads_its_output(capsys):
    argv = ["scan-g", "--n", "10", "--range", "0.05:0.2", "--points", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == "# n=10 range=0.050000000000000003:0.20000000000000001"


@pytest.mark.parametrize("text", ["10:0.1", "a:b", "1", "0:1"])
def test_bad_range_exits_two(capsys, text):
    assert run(capsys, ["scan-m", "--n", "5", "--range", text])[0] == 2
    assert run(capsys, ["scan-g", "--n", "5", "--range", text])[0] == 2


def test_bad_dimension_and_seed_exit_two(capsys):
    assert run(capsys, ["maximizer", "--n", "0"])[0] == 2
    assert run(capsys, ["check", "--seed", "-1"])[0] == 2


def test_transform_j_twice_is_byte_identical(capsys, monkeypatch, tmp_path):
    src = tmp_path / "tent.json"
    src.write_text(json.dumps(TENT))
    code, once, _ = run(capsys, ["transform", "J", str(src)])
    assert code == 0
    assert json.loads(once) == {"breakpoints": [[0.0, 0.0], [0.5, 0.5]], "tail_slope": "inf"}
    code, twice, _ = run(capsys, ["transform", "J"], stdin=once, monkeypatch=monkeypatch)
    assert code == 0
    canonical = json.dumps(
        profile_to_dict(profile_from_dict(TENT)), sort_keys=True
    ) + "\n"
    assert twice == canonical


def test_transform_legendre_of_indicator(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["transform", "L"], stdin=json.dumps(INDICATOR), monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == {"breakpoints": [[0.0, 0.0]], "tail_slope": 1.0}


def test_transform_legendre_where_values_dwarf_a_rise(capsys, monkeypatch):
    doc = {
        "breakpoints": [
            [0.0, 0.0],
            [3548.7852381159514, 822.0138211183299],
            [3548.8845498442433, 822.0374010376239],
            [3548.8848825503387, 20208807.904420894],
            [3554.9799458531575, 370223685175.9252],
        ],
        "tail_slope": 60847938288.73129,
    }
    code, out, _ = run(
        capsys, ["transform", "L"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 0
    assert profile_from_dict(json.loads(out)).tail_slope == math.inf


def test_transform_polarity_prints_the_exact_profile(capsys, monkeypatch):
    # A psi (s) = max(0, (s - 1) / 2) for the tent psi = 2 r on [0, 1]
    outputs = [
        run(capsys, ["transform", "A"], stdin=json.dumps(TENT), monkeypatch=monkeypatch)
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    code, out, _ = outputs[0]
    assert code == 0
    assert json.loads(out) == {"breakpoints": [[0.0, 0.0], [1.0, 0.0]], "tail_slope": 0.5}
    # the sampling flags are gone with the sampling
    for flag in ("--points", "--range"):
        code, _, _ = run(capsys, ["transform", "A", flag, "1"], stdin="{}", monkeypatch=monkeypatch)
        assert code == 2


def test_transform_polarity_of_the_slab_is_the_slab(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["transform", "A"], stdin=json.dumps(INDICATOR), monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out) == {"breakpoints": [[0.0, 0.0], [1.0, 0.0]], "tail_slope": "inf"}


@pytest.mark.parametrize("a", [1.0, 1e100, 1e-100])
@pytest.mark.parametrize("witness", range(len(POLAR_WITNESSES)))
def test_transform_polarity_of_envelope_witnesses(capsys, monkeypatch, witness, a):
    p = scale(POLAR_WITNESSES[witness], a)
    code, out, err = run(
        capsys,
        ["transform", "A"],
        stdin=json.dumps(profile_to_dict(p)),
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    assert profile_from_dict(json.loads(out)) == legendre(from_radius(j_transform(to_radius(p))))
    assert check_j_factorization(p) <= 1e-15


@pytest.mark.parametrize(
    "op, doc",
    [
        # J's breakpoint (1 / v, r / v) overflows for a subnormal v
        ("J", {"breakpoints": [[0, 0], [1, 1e-310]], "tail_slope": 1}),
        ("A", {"breakpoints": [[0, 0], [1, 1e-310]], "tail_slope": 1}),
        # L's value r s overflows
        ("L", {"breakpoints": [[0, 0], [1e-300, 1e10]], "tail_slope": "inf"}),
    ],
)
def test_transform_unrepresentable_image_is_an_input_error(capsys, monkeypatch, op, doc):
    code, out, err = run(capsys, ["transform", op], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {op} image is not representable")


def test_transform_error_paths(capsys, monkeypatch, tmp_path):
    code, _, err = run(capsys, ["transform", "J"], stdin="nope{", monkeypatch=monkeypatch)
    assert code == 2
    assert "line 1" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"breakpoints": [[0, 0]], "tail_slope": -2}))
    code, _, err = run(capsys, ["transform", "L", str(bad)])
    assert code == 2
    assert "invalid profile" in err
    # a zero tail after a positive value has no radius
    flat = json.dumps({"breakpoints": [[0, 0], [1, 1e-10]], "tail_slope": 0})
    code, _, err = run(capsys, ["transform", "J"], stdin=flat, monkeypatch=monkeypatch)
    assert code == 2
    assert "invalid profile" in err
    assert run(capsys, ["transform", "J", str(tmp_path / "missing.json")])[0] == 2


def _one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_input_exits_two(capsys, monkeypatch, tmp_path):
    # a directory, and bytes that are not UTF-8 from a file or from stdin,
    # are input errors, not tracebacks
    _one_error_line(*run(capsys, ["transform", "J", str(tmp_path)]))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"breakpoints": [[0, 0]], "tail_slope": "\xe9"}')
    _one_error_line(*run(capsys, ["transform", "J", str(latin)]))
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{"), encoding="utf-8")
    )
    _one_error_line(*run(capsys, ["transform", "L"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["maximizer", "--n", "5"],
        ["lambda-table", "--n-max", "3"],
        ["scan-m", "--n", "5", "--points", "3"],
        ["scan-g", "--n", "5", "--points", "3"],
        ["check", "involution", "--cases", "1"],
    ],
)
@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_unwritable_out_exits_two(capsys, tmp_path, argv, target):
    # --out into a missing directory, or onto a directory, on any command
    code, out, err = run(capsys, [*argv, "--out", str(tmp_path / target)])
    _one_error_line(code, out, err)
    assert str(tmp_path) in err


@pytest.mark.parametrize("text", ["1e400", "Infinity", "-Infinity", "NaN"])
def test_transform_refuses_a_non_finite_tail_number(capsys, monkeypatch, text):
    # only the string "inf" selects an indicator tail
    doc = '{"breakpoints": [[0, 0], [1, 1]], "tail_slope": %s}' % text
    code, out, err = run(capsys, ["transform", "J"], stdin=doc, monkeypatch=monkeypatch)
    _one_error_line(code, out, err)
    assert "invalid profile" in err and "tail_slope" in err


def test_check_single_suite_reports_margin(capsys):
    code, out, _ = run(capsys, ["check", "t-improvement", "--cases", "25"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    (suite,) = doc["suites"]
    assert suite["suite"] == "t-improvement"
    assert "worst_residual" in suite


def test_check_unknown_suite_lists_names(capsys):
    code, _, err = run(capsys, ["check", "bogus"])
    assert code == 2
    assert "involution" in err


def test_check_seed_override_is_deterministic(capsys):
    args = ["check", "factorization", "--seed", "99", "--cases", "20"]
    first = run(capsys, args)
    second = run(capsys, args)
    assert first == second
    assert first[0] == 0


def test_check_exit_one_on_failure(capsys, monkeypatch):
    def broken(name, sampler=None, cases=None):
        return SuiteReport(name, 1, ((0, "synthetic failure"),), 1.0)

    monkeypatch.setattr("epidual.cli.run_suite", broken)
    code, out, _ = run(capsys, ["check", "involution"])
    assert code == 1
    assert json.loads(out)["passed"] is False

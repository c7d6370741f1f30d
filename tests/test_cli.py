"""CLI behaviour: output format, exit codes, determinism, and the
no-partial-file rule."""

import errno
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import hahnpoly
from hahnpoly import cli
from hahnpoly.cli import main
from hahnpoly.errors import DomainError
from hahnpoly.discrete_calculus import GridFunction
from hahnpoly.expansion import CoefficientVector, IntervalMap, eval_expansion, project
from hahnpoly.hahn import HahnParams, basis
from hahnpoly.oracle_exact import exact_hahn_column, exact_hahn_eval, exact_norms_sq
# the Clenshaw contract 2 eps S(x), as the expansion tests state it
from test_expansion import _worst_clenshaw_ratio


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def parse_csv(text):
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:]]
    return header, data


def test_weights_flat():
    res = run("weights", "--alpha", "0", "--beta", "0", "--N", "4")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["x", "weight"]
    assert [float(r[1]) for r in data] == [1.0] * 5
    assert "# total: 5" in res.output


def test_eval_on_grid_and_points():
    res = run("eval", "--N", "4", "--n", "1", "--normalized", "false")
    assert res.exit_code == 0
    _, data = parse_csv(res.output)
    # Q_1(x; 0, 0, 4) = 1 - x/2
    assert [float(r[1]) for r in data] == pytest.approx([1.0, 0.5, 0.0, -0.5, -1.0])
    res = run("eval", "--N", "4", "--n", "1", "--normalized", "false",
              "--points", "0.5,3.5")
    _, data = parse_csv(res.output)
    assert [float(r[1]) for r in data] == pytest.approx([0.75, -0.75])


def test_project_default_sine():
    res = run("project", "--N", "30", "--m", "10")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["n", "coeff_0.0_0.0", "abs_0.0_0.0"]
    assert len(data) == 11
    coeffs = [float(r[1]) for r in data]
    # known first coefficient of the sine sample at this size
    assert abs(coeffs[1]) == pytest.approx(2.8657955369454, rel=1e-10)
    assert abs(coeffs[0]) < 1e-13
    assert all(float(r[2]) == abs(float(r[1])) for r in data)


def test_project_multiple_parameter_sets():
    res = run("project", "--N", "30", "--m", "4", "--params", "0,0;0.5,0.5;5,0")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["n", "coeff_0.0_0.0", "abs_0.0_0.0",
                      "coeff_0.5_0.5", "abs_0.5_0.5",
                      "coeff_5.0_0.0", "abs_5.0_0.0"]
    assert len(data) == 5


def test_project_pointwise_polynomial_exact():
    # a degree-4 target with m = 4 must be reproduced at every sample
    res = run("project", "--N", "12", "--m", "4", "--fn", "poly:1,0,-2,0,1",
              "--samples", "101", "--pointwise")
    assert res.exit_code == 0
    head, tail = res.output.split("# pointwise reconstruction\n")
    header, data = parse_csv(tail)
    assert header == ["t", "target", "approx_0.0_0.0", "error_0.0_0.0"]
    assert len(data) == 101
    assert max(abs(float(r[3])) for r in data) <= 1e-9


@pytest.mark.parametrize("fn,N,m,params", [
    ("runge", 30, 10, "0,0"),
    ("runge", 100, 100, "0,0;0.5,0.5;-0.5,3;5,0;0,50"),
    ("sin-pi", 200, 150, "0,0;-0.5,3"),
])
def test_project_pointwise_reconstructs_the_projection(fn, N, m, params):
    # either convention projects orthonormal, and --pointwise evaluates that
    # projection: the pointwise rows are the same bytes.  --normalized false
    # prints the library's classical projection, u_n / ||Q_n||
    args = ["project", "--fn", fn, "--N", str(N), "--m", str(m), "--params", params,
            "--pointwise", "--samples", "401"]
    normal, classical = run(*args), run(*args, "--normalized", "false")
    assert normal.exit_code == classical.exit_code == 0
    head, rows = classical.stdout.split("# pointwise reconstruction\n")
    assert rows == normal.stdout.split("# pointwise reconstruction\n")[1]
    _, data = parse_csv(head)
    imap = IntervalMap(-1.0, 1.0, N)
    for j, family in enumerate(params.split(";")):
        p = HahnParams(*map(float, family.split(",")), N)
        u = GridFunction.from_callable(cli._parse_fn(fn)[1], p, imap.to_interval)
        want = project(u, m, normalized=False).coeffs.tolist()
        assert [float(r[1 + 2 * j]) for r in data] == want, family


def test_decay_bound_columns():
    res = run("decay", "--N", "30", "--m", "12", "--k", "1,2")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["k", "n", "abs_coeff", "bound", "bound_degree_only",
                      "identity_residual"]
    assert len(data) == 24
    for r in data:
        assert float(r[2]) <= float(r[3]) * (1 + 1e-12)
        assert float(r[5]) < 1e-6


def _plant_bound_violation(monkeypatch):
    # the third row of each decay report gets twice its bound
    real = cli.decay_report

    def planted(u, k, n_range):
        rows = real(u, k, n_range)
        rows[2] = rows[2]._replace(coeff=2.0 * rows[2].bound)
        return rows

    monkeypatch.setattr(cli, "decay_report", planted)


def test_decay_constant_target_within_rounding(monkeypatch):
    # L u = 0 for a constant, so every bound is 0, and the projected
    # coefficients carry rounding only: no violation, exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("decay", "--N", "30", "--m", "5", "--k", "1", "--fn", "poly:1")
    assert res.exit_code == 0
    assert res.stderr == ""
    _, data = parse_csv(res.stdout)
    assert [float(r[3]) for r in data] == [0.0] * 5
    # a violation planted far above rounding still exits 4
    _plant_bound_violation(monkeypatch)
    res = run("decay", "--N", "30", "--m", "5", "--k", "1")
    assert res.exit_code == 4
    assert "bound violated at k=1, n=3" in res.stderr


def test_decay_order_zero_allowed():
    res = run("decay", "--N", "30", "--k", "0,1")
    assert res.exit_code == 0  # k = 0 rows are the plain norm bound


def test_runge_reports_errors():
    res = run("runge", "--N", "20", "--m", "8", "--samples", "81",
              "--params", "0,0;5,0")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header[:2] == ["t", "target"]
    assert len(data) == 81
    maxes = {}
    spots = {}
    for ln in res.output.splitlines():
        if ln.startswith("# max_error_"):
            key, val = ln[2:].split(": ")
            mag, spot = val.split(" at t = ")
            maxes[key] = float(mag)
            spots[key] = float(spot)
    # heavy left-end weight concentrates accuracy there and ruins the rest
    assert maxes["max_error_5.0_0.0"] > maxes["max_error_0.0_0.0"] > 0.0
    assert all(-1.0 <= t <= 1.0 for t in spots.values())


def test_compare_legendre_table():
    res = run("compare-legendre", "--N", "30", "--m", "10")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["n", "hahn_classical", "hahn_normalized", "legendre_classical"]
    assert len(data) == 11
    # continuum column reproduces the classical sine coefficient 3/pi
    assert float(data[1][3]) == pytest.approx(3.0 / math.pi, rel=1e-12, abs=0)


def test_verify_passes():
    res = run("verify", "--N", "12")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["check", "value", "tol", "status"]
    assert all(r[3] == "pass" for r in data)


@pytest.mark.parametrize("alpha,beta", [("0", "0"), ("0.5", "0.5"), ("5", "0"), ("-0.5", "3")])
def test_verify_passes_at_sixty(alpha, beta):
    # the basis is still accurate at N = 60, and verify says so
    res = run("verify", "--alpha", alpha, "--beta", beta, "--N", "60")
    assert res.exit_code == 0
    assert "FAIL" not in res.stdout


def test_verify_passes_at_two_hundred():
    res = run("verify", "--N", "200")
    assert res.exit_code == 0
    assert "\ninterpolation," in res.stdout
    assert "FAIL" not in res.stdout


@pytest.mark.parametrize("N", ["30", "200"])
def test_verify_fails_interpolation_where_node_values_miss(N):
    # on (0, 50) the full-degree expansion misses its own samples at the
    # nodes, by 2.9e-8 max|u| at N = 30 and 5.4e8 at N = 200, while every
    # other check passes
    res = run("verify", "--alpha", "0", "--beta", "50", "--N", N)
    assert res.exit_code == 4
    assert res.stderr == "1 check(s) failed\n"
    _, data = parse_csv(res.stdout)
    assert [r[0] for r in data if r[3] == "FAIL"] == ["interpolation"]


def test_rows_refuse_the_first_non_finite_cell_in_row_order():
    assert cli._rows("n,a", range(2), [0.1, -0.0]) == ["n,a", "0,0.10000000000000001", "1,-0"]
    # the nan of column c in row 0 is refused before the inf of column b in
    # row 1, though b comes first in column order
    with pytest.raises(DomainError, match=r"^c at n=0 is not finite: nan$"):
        cli._rows("n,b,c", range(2), [0.5, math.inf], [math.nan, 0.5])
    with pytest.raises(DomainError, match=r"^b at n=1 is not finite: -inf$"):
        cli._rows("n,b,c", range(2), [0.5, -math.inf], [0.5, math.nan])


# one command per table builder: weights, eval, project, _pointwise (runge),
# decay and compare-legendre
WRITER_TABLES = ["weights --N 6", "eval --N 6 --n 2", "project --N 6 --m 3",
                 "runge --N 6 --m 3 --samples 5 --params 0,0", "decay --N 6 --m 3 --k 1",
                 "compare-legendre --N 6 --m 3"]


@pytest.mark.parametrize("command", WRITER_TABLES)
def test_writer_refuses_a_non_finite_cell_in_any_column(monkeypatch, command):
    # every builder hands its column line and columns to cli._rows; a value
    # that is not finite in any column, planted in row 1, exits 3 with one
    # stderr line naming the column and the row's first cell, and no table
    header, data = parse_csv(run(*command.split()).stdout)
    real = cli._rows
    for j, name in enumerate(header):
        bad = (math.inf, -math.inf, math.nan)[j % 3]

        def planted(names, *columns, j=j, bad=bad):
            columns = [list(c) for c in columns]
            columns[j][1] = bad
            return real(names, *columns)

        monkeypatch.setattr(cli, "_rows", planted)
        res = run(*command.split())
        cell = "%.17g" % bad
        first = cell if j == 0 else data[1][0]
        assert res.exit_code == 3, (command, name)
        assert res.stdout == ""
        assert res.stderr == f"error: {name} at {header[0]}={first} is not finite: {cell}\n"


def test_decay_refuses_a_non_finite_cell_before_its_bound_verdict(monkeypatch):
    # a violated bound would exit 4 after the table; a nan cell in the same
    # table is refused first, where the table is formatted
    _plant_bound_violation(monkeypatch)
    violated = cli.decay_report

    def planted(u, k, n_range):
        rows = violated(u, k, n_range)
        rows[3] = rows[3]._replace(identity_residual=math.nan)
        return rows

    monkeypatch.setattr(cli, "decay_report", planted)
    res = run("decay", "--N", "30", "--m", "5", "--k", "1")
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "error: identity_residual at k=1 is not finite: nan\n"


def test_exit_code_usage_error():
    assert run("project", "--fn", "bogus").exit_code == 2
    assert run("project", "--interval", "nope").exit_code == 2
    assert run("decay", "--k", "one").exit_code == 2
    assert run("runge", "--samples", "1").exit_code == 2


def test_samples_bound_is_inclusive():
    # 100001 samples are taken; 100002 are refused (CONFIG_ERRORS), before
    # numpy is asked for an array of that many
    res = run("runge", "--N", "6", "--m", "2", "--samples", "100001", "--params", "0,0")
    assert res.exit_code == 0
    assert len(parse_csv(res.stdout)[1]) == 100001


def test_exit_code_config_validation():
    # out-of-range flag values are caught before computing, with the
    # offending field named
    res = run("verify", "--alpha", "-1.5")
    assert res.exit_code == 2
    assert "alpha" in res.stderr
    res = run("weights", "--alpha", "-1")
    assert res.exit_code == 2
    assert "alpha" in res.stderr
    res = run("project", "--interval", "1,1")
    assert res.exit_code == 2
    assert "interval" in res.stderr
    res = run("project", "--N", "30", "--m", "31")
    assert res.exit_code == 2
    assert "m must not exceed" in res.stderr
    res = run("decay", "--k", "-1")
    assert res.exit_code == 2
    assert "k must be nonnegative" in res.stderr
    res = run("weights", "--N", "0")
    assert res.exit_code == 2
    assert "N must be" in res.stderr
    # a decay report needs at least one nonzero degree
    res = run("decay", "--m", "0")
    assert res.exit_code == 2
    assert "m must be at least 1" in res.stderr


# one flag value out of range per command; each stderr was recorded on the
# code that vetted these flags in the CLI itself, before the checks moved
# into HahnParams and IntervalMap
CONFIG_ERRORS = {
    "project --N 0": "N must be in 1..200, got 0",
    "project --alpha -1": "alpha must be finite and greater than -1, got -1.0",
    "project --beta nan": "beta must be finite and greater than -1, got nan",
    "project --params 0,0;-2,0": "alpha must be finite and greater than -1, got -2.0",
    "project --interval 1,1":
        "interval must satisfy a < b with N (b - a) finite, got 1.0,1.0",
    "project --interval=-1e308,1e308 --N 200":
        "interval must satisfy a < b with N (b - a) finite, got -1e+308,1e+308",
    "project --m -1": "m must be nonnegative, got -1",
    "decay --m 0": "m must be at least 1, got 0",
    "runge --N 0": "N must be in 1..200, got 0",
    "runge --interval 2,1": "interval must satisfy a < b with N (b - a) finite, got 2.0,1.0",
    "compare-legendre --N 0": "N must be in 1..200, got 0",
    "compare-legendre --interval 3,3":
        "interval must satisfy a < b with N (b - a) finite, got 3.0,3.0",
    "weights --N 0": "N must be in 1..200, got 0",
    "verify --alpha -1.5": "alpha must be finite and greater than -1, got -1.5",
    # every message of a comma-list flag, recorded before the flags shared
    # one list parser
    "eval --n 3 --points 1,x": "bad point list '1,x'",
    "project --params 0,0;1": "bad parameter list '0,0;1', expected a,b[;a,b...]",
    "runge --params 0,a": "bad parameter list '0,a', expected a,b[;a,b...]",
    "project --interval nope": "bad interval 'nope', expected a,b",
    "runge --interval 1,2,3": "bad interval '1,2,3', expected a,b",
    "decay --k one": "bad order list 'one', expected k[,k...]",
    "decay --k 1,-1": "k must be nonnegative, got -1",
    "project --fn poly:": "bad polynomial spec 'poly:'",
    "project --fn poly:a": "bad polynomial spec 'poly:a'",
    "runge --samples 1": "samples must be at least 2, got 1",
    "runge --samples 100002": "samples must be at most 100001, got 100002",
}


def _assert_config_error(command, message):
    name = command.split()[0]
    res = run(*command.split())
    assert res.exit_code == 2, command
    assert res.stdout == "", command
    assert res.stderr == (f"Usage: main {name} [OPTIONS]\nTry 'main {name} --help' for help."
                          f"\n\nError: {message}\n")


@pytest.mark.parametrize("command", sorted(CONFIG_ERRORS))
def test_config_error_messages(command):
    _assert_config_error(command, CONFIG_ERRORS[command])


_INTERVAL = "interval must satisfy a < b with N (b - a) finite, got "
# two bad flags per command, each recorded on the code that vetted a
# command's target flags in the command's own body: the first one vetted
# is named, --fn, then the families, then --interval, then the command's
# own flags
FIRST_BAD_FLAG = {
    "project --fn poly:a --params 0,0;1": "bad polynomial spec 'poly:a'",
    "project --fn poly:a --alpha -1": "bad polynomial spec 'poly:a'",
    "project --params 0,0;-2,0 --interval 1,1":
        "alpha must be finite and greater than -1, got -2.0",
    "project --alpha -1 --interval 1,1": "alpha must be finite and greater than -1, got -1.0",
    "project --interval 1,1 --m -1": _INTERVAL + "1.0,1.0",
    "project --m 31 --samples 1": "m must not exceed N = 30, got 31",
    "runge --params 0,a --interval 2,1": "bad parameter list '0,a', expected a,b[;a,b...]",
    "runge --interval 2,1 --m -1": _INTERVAL + "2.0,1.0",
    "runge --m -1 --samples 1": "m must be nonnegative, got -1",
    # an empty --params is refused here; project falls back to --alpha/--beta
    "runge --params=": "bad parameter list '', expected a,b[;a,b...]",
    "decay --fn poly: --beta nan": "bad polynomial spec 'poly:'",
    "decay --beta nan --interval 1,1": "beta must be finite and greater than -1, got nan",
    "decay --interval 1,1 --k one": _INTERVAL + "1.0,1.0",
    "decay --k one --m 0": "bad order list 'one', expected k[,k...]",
    "decay --k 1,-1 --m 31": "k must be nonnegative, got -1",
    "compare-legendre --fn poly:a --interval 3,3": "bad polynomial spec 'poly:a'",
    "compare-legendre --N 0 --fn poly:a": "bad polynomial spec 'poly:a'",
    "compare-legendre --interval 3,3 --m -1": _INTERVAL + "3.0,3.0",
    # the Legendre degree cap is vetted after --interval and --m
    "compare-legendre --N 200 --m 181 --interval 3,3": _INTERVAL + "3.0,3.0",
}


def test_config_errors_name_the_first_bad_flag():
    for command, message in FIRST_BAD_FLAG.items():
        _assert_config_error(command, message)
    res = run("project", "--params=", "--N", "6", "--m", "2")
    assert res.exit_code == 0
    assert "# params: 0.0,0.0\n" in res.stdout


def test_compare_legendre_degree_cap_is_config_error():
    # the continuum series stops at degree 180; m = 181 fits N = 200 but is
    # refused with the field named before any basis is looked up
    from hahnpoly.hahn import basis

    before = basis.cache_info()
    res = run("compare-legendre", "--N", "200", "--m", "181")
    after = basis.cache_info()
    assert res.exit_code == 2
    assert "m must be in 0..180, got 181" in res.stderr
    assert res.stdout == ""
    assert (after.hits, after.misses) == (before.hits, before.misses)


SHARED_OPTIONS = {"grid_n", "interval", "fn_spec", "samples", "orders", "out"}


def test_shared_options_declared_alike():
    # an option that several commands take has one default and one help;
    # --m and --params keep per-command defaults on purpose
    seen = {}
    for command in main.commands.values():
        for param in command.params:
            if param.name in SHARED_OPTIONS:
                seen.setdefault(param.name, set()).add((param.default, param.help))
    assert set(seen) == SHARED_OPTIONS
    for name, declarations in seen.items():
        assert len(declarations) == 1, name
        assert next(iter(declarations))[1], name


def test_exit_code_domain_error():
    # a degree out of range surfaces from the library mid-computation
    res = run("eval", "--N", "30", "--n", "31")
    assert res.exit_code == 3
    assert "degree" in res.stderr


@pytest.mark.parametrize("alpha,beta,N,degrees", [
    (0.0, 0.0, 30, (0, 1, 7, 15, 29, 30)),
    (0.5, 0.5, 30, (2, 15, 30)),
    (-0.5, 3.0, 30, (3, 20, 30)),
    (0.0, 1e3, 30, (1, 15, 30)),
    (-0.9, -0.9, 30, (4, 25, 30)),
    (5.0, 0.0, 200, (0, 1, 60, 125, 200)),
])
def test_eval_at_the_nodes_prints_the_grid(alpha, beta, N, degrees):
    # `eval`, normalized at the default points 0..N, prints row n of the
    # family's grid matrix to the bit (17 digits round-trip a double), so a
    # new grid cannot leave eval's node values behind
    grid = basis(HahnParams(alpha, beta, N)).grid
    for n in degrees:
        res = run("eval", "--alpha", str(alpha), "--beta", str(beta),
                  "--N", str(N), "--n", str(n))
        assert res.exit_code == 0, (n, res.output)
        header, data = parse_csv(res.output)
        assert header == ["x", "value"]
        assert [float(x) for x, _ in data] == list(range(N + 1))
        values = np.array([float(v) for _, v in data])
        assert np.array_equal(values.view(np.int64), grid[n].view(np.int64)), n


def test_eval_classical_at_a_node_matches_exact():
    # Q_150(1) of (0, 0) at N = 200 is -112.25; the forward sweep there lost
    # every digit, while the grid entry times the norm is right
    res = run("eval", "--N", "200", "--n", "150", "--points", "1", "--normalized", "false")
    assert res.exit_code == 0
    _, [[_, value]] = parse_csv(res.output)
    want = float(exact_hahn_column(1, 0, 0, 200)[150])
    assert abs(float(value) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("alpha,beta,degrees", [
    # even degrees: for alpha = beta an odd Q_n(N/2) is exactly 0, where no
    # relative bound applies
    (0.0, 0.0, (2, 150, 200)),
    (-0.5, 3.0, (1, 100, 200)),
    # its norms are finite through degree 83
    (0.0, 1e3, (1, 50, 83)),
])
def test_eval_matches_exact_at_two_hundred(alpha, beta, degrees):
    # `eval` at N = 200, both conventions: at the nodes 0, 1, N/2, N-1, N
    # and their 1-ulp neighbours within 1e-10 relative of the exact value,
    # and at half-nodes within the Clenshaw contract 2 eps S(x).  Every
    # printed value is `eval_expansion` of the unit vector e_n, to the bit,
    # so `eval` has no route of its own
    N = 200
    p = HahnParams(alpha, beta, N)
    nodes = [0.0, 1.0, N / 2, N - 1.0, float(N)]
    near = nodes + [math.nextafter(x, s) for x in nodes for s in (-math.inf, math.inf)]
    halves = [0.5, N / 2 + 0.5, N - 0.5]
    xs = near + halves
    cols = [exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N) for x in halves]
    for n in degrees:
        exact = [exact_hahn_eval(n, x, alpha, beta, N) for x in near]
        norm = Fraction(math.sqrt(float(exact_norms_sq(alpha, beta, N)[n])))
        for normalized in (True, False):
            res = run("eval", "--alpha", str(alpha), "--beta", str(beta), "--N", str(N),
                      "--n", str(n), "--points", ",".join(map(repr, xs)),
                      "--normalized", str(normalized).lower())
            assert res.exit_code == 0, (n, normalized, res.output)
            _, data = parse_csv(res.stdout)
            assert [float(x) for x, _ in data] == xs
            values = [float(v) for _, v in data]
            unit = CoefficientVector(p, np.eye(n + 1)[n], normalized)
            assert values == eval_expansion(unit, np.array(xs)).tolist()
            for x, value, want in zip(near, values, exact):
                want = float(want / norm if normalized else want)
                assert abs(value - want) <= 1e-10 * abs(want), (n, normalized, x, value, want)
            assert _worst_clenshaw_ratio([unit], halves, cols) <= 2.0, (n, normalized)


def test_eval_rejects_non_finite_points():
    for points in ("nan", "inf", "0.5,-inf"):
        res = run("eval", "--N", "30", "--n", "3", "--points", points)
        assert res.exit_code == 2, points
        assert "points" in res.stderr


def test_eval_overflow_is_domain_error():
    # Q_30(1e300) overflows a double: refused with the point named, no nan
    # printed and no numpy warning raised on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("eval", "--n", "30", "--N", "30", "--points", "2.5,1e300")
    assert res.exit_code == 3
    assert res.stderr == "error: value at x=1.0000000000000001e+300 is not finite: nan\n"
    assert res.stdout == ""


def test_eval_refuses_in_one_line():
    # `eval` refuses as `eval_expansion`'s callers do: a norm past the double
    # range by the coefficient vector, naming the first degree k <= n that
    # reaches it, in either convention, and a value that is not finite by
    # the table writer.  Each refusal is one stderr line, with no table and
    # no numpy warning.  The family (-1 + 2^-52, 1.7e308) at N = 1 has a
    # finite ||Q_0|| and an infinite ||Q_1||; (1e305, 0.5) and (0, 1e305)
    # at N = 200 have an infinite ||Q_0||, so even their Q_0 is refused
    tiny = ("--alpha", "-0.9999999999999998", "--beta", "1.7e308", "--N", "1")
    family = ("--alpha", "1e305", "--beta", "0.5", "--N", "200")
    cases = [(("--N", "30", "--n", "30", "--points", "1e300"),
              "value at x=1.0000000000000001e+300 is not finite: nan"),
             (("--alpha", "0", "--beta", "1e305", "--N", "200", "--n", "1", "--points",
               "0,150.5"), "norm of Q_0 is not finite in double precision"),
             ((*tiny, "--n", "1", "--points", "0.5"),
              "norm of Q_1 is not finite in double precision"),
             ((*tiny, "--n", "1", "--normalized", "false"),
              "norm of Q_1 is not finite in double precision")]
    cases += [((*family, "--n", n, "--points", points, *convention),
               "norm of Q_0 is not finite in double precision")
              for n, points in (("3", "0.5"), ("3", "0"), ("3", "0,7,200"), ("1", "0"),
                                ("0", "0,7.5"))
              for convention in ((), ("--normalized", "false"))]
    for args, why in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run("eval", *args)
        assert res.exit_code == 3, args
        assert res.stderr == f"error: {why}\n", args
        assert res.stdout == ""
    # below the degree whose norm is refused, the family prints
    res = run("eval", *tiny, "--n", "0", "--points", "0.5", "--normalized", "false")
    assert res.exit_code == 0
    assert res.stdout.endswith("x,value\n0.5,1\n")


@pytest.mark.parametrize("N", [30, 100, 200])
def test_pointwise_samples_on_exact_nodes(N, monkeypatch):
    # sample k is made at x_k = k N / (S - 1), so every sample on a node is
    # an exact integer, which takes the grid route, and t_k is its image
    seen = []

    def spy(c, x):
        seen.append(np.array(x))
        return eval_expansion(c, x)

    monkeypatch.setattr(hahnpoly.cli, "eval_expansion", spy)
    for samples in (201, 1001):
        seen.clear()
        res = run("runge", "--N", str(N), "--m", "3", "--samples", str(samples), "--params", "0,0")
        assert res.exit_code == 0
        _, data = parse_csv(res.output)
        (xs,) = seen
        imap = IntervalMap(-1.0, 1.0, N)
        for k in range(samples):
            if k * N % (samples - 1) == 0:
                assert xs[k] == k * N // (samples - 1)
            assert float(data[k][0]) == imap.to_interval(xs[k])


def test_printed_numbers_round_trip_at_17_digits(monkeypatch):
    # every number the CLI prints is one "%.17g" format of a float, so it
    # reads back to the same bytes: the table cells (the signed zero, the
    # smallest subnormal and the largest double among them), the weights
    # total, runge's max_error and its t, verify's value and tol, and the
    # two numbers of the decay bound message; the writer refuses a
    # non-finite cell instead of printing it
    imap = IntervalMap(-1.0, 1.0, 12)
    c = CoefficientVector(HahnParams(0.0, 0.0, 12), np.array([1.0, 0.5]))
    for special in (math.inf, -math.inf, math.nan):
        targets = iter([special, 0.0, 0.0])
        with pytest.raises(DomainError, match=f"^target at t=-1 is not finite: {special}$"):
            cli._pointwise(lambda t: next(targets), imap, 3, [c])
    specials = [-0.0, 5e-324, sys.float_info.max, 0.1]
    targets = iter(specials)
    _, _, lines = cli._pointwise(lambda t: next(targets), imap, len(specials), [c])
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["-0", "4.9406564584124654e-324",
                                        "1.7976931348623157e+308", "0.10000000000000001"]
    assert all(len(row) == 4 for row in rows)
    printed = [cell for row in rows for cell in row]

    res = run("weights", "--alpha", "0.3", "--beta", "0.7", "--N", "12")
    (total,) = re.findall(r"^# total: (\S+)$", res.stdout, re.M)
    printed += [total] + [cell for row in parse_csv(res.stdout)[1] for cell in row]
    res = run("runge", "--N", "20", "--m", "8", "--samples", "81", "--interval", "-0.7,1.3")
    maxima = re.findall(r"^# max_error_\S+: (\S+) at t = (\S+)$", res.stdout, re.M)
    assert len(maxima) == 3
    printed += [v for pair in maxima for v in pair]
    printed += [cell for row in parse_csv(res.stdout)[1] for cell in row]
    res = run("verify", "--alpha", "0.5", "--beta", "1.5", "--N", "12")
    assert res.exit_code == 0
    printed += [cell for row in parse_csv(res.stdout)[1] for cell in row[1:3]]
    _plant_bound_violation(monkeypatch)
    res = run("decay", "--N", "30", "--m", "5", "--k", "1")
    assert res.exit_code == 4
    (bound,) = re.findall(r"\|coeff\| (\S+) > bound (\S+)$", res.stderr, re.M)
    printed += list(bound) + [cell for row in parse_csv(res.stdout)[1] for cell in row]
    for s in printed:
        assert "%.17g" % float(s) == s


def test_non_finite_targets_refused():
    # non-finite poly coefficients are a configuration error naming fn;
    # finite ones whose grid samples overflow are a domain error naming
    # the grid index; neither prints nan, a traceback or a numpy warning
    cases = [(("project", "--N", "6", "--m", "3", "--fn", "poly:nan,1"), 2, "fn"),
             (("compare-legendre", "--N", "6", "--m", "3", "--fn", "poly:inf"), 2, "fn"),
             (("project", "--N", "6", "--m", "3", "--fn", "poly:1e308,1e308"), 3,
              "grid index 6"),
             # every sample is finite, the coefficient u_0 is not
             (("project", "--N", "30", "--m", "2", "--fn", "poly:1e308"), 3,
              "coeff_0.0_0.0 at n=0")]
    for args, code, named in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(*args)
        assert res.exit_code == code, args
        assert named in res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.output


def test_target_raising_is_domain_error():
    # the interval is accepted, but sin(pi t) raises ValueError once pi t
    # overflows: a domain error naming the grid index, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("project", "--N", "1", "--m", "1", "--interval=-8e307,8e307")
    assert res.exit_code == 3
    assert "grid index 0" in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.output


def test_runge_huge_interval_no_warnings():
    # 25 t^2 overflows to inf on a Python float without a numpy warning,
    # and the target is exactly 0 there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("runge", "--N", "30", "--m", "10", "--interval=-1e300,1e300")
    assert res.exit_code == 0
    assert res.stderr == ""


def test_interval_width_must_be_finite():
    res = run("project", "--N", "6", "--m", "2", "--fn", "runge",
              "--interval=-1e308,1e308", "--pointwise", "--samples", "3")
    assert res.exit_code == 2
    assert "interval" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", [
    "project --N 6 --m 2 --fn runge --interval=-8e307,8e307 --pointwise --samples 3",
    "runge --N 6 --m 2 --interval=-8e307,8e307 --samples 3",
])
def test_interval_times_n_must_be_finite(command):
    # b - a is finite here, but N (t - a) is not: refused before any sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(*command.split())
    assert res.exit_code == 2
    assert "interval" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["decay --N 30 --m 3 --k 60",
                                     "decay --N 30 --m 3 --k 120",
                                     "verify --N 12 --k 120"])
def test_overflowing_operator_power_refused(command):
    # L^k u overflows double precision: a domain error naming k, with no
    # nan row, traceback or numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(*command.split())
    assert res.exit_code == 3
    assert f"k={command.split()[-1]}" in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command,first", [
    ("weights --alpha 1e6 --beta 0 --N 200", 68),
    ("weights --alpha 1e6 --beta 0.5 --N 200", 67),
    ("verify --alpha 1e6 --beta 0 --N 200", 68),
    ("verify --alpha 1e6 --beta 0.5 --N 200", 67),
])
def test_weights_past_double_range_refused(command, first):
    # integer (beta 0) and binary-fraction (beta 0.5) exponents: a domain
    # error naming the first grid point past the double range, with no
    # nan, traceback or numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(*command.split())
    assert res.exit_code == 3
    assert f"w({first}) is not finite" in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.output


def test_verify_overflowing_eigen_sweep_no_warnings():
    # Q_12(12) is about 1e320 here and the norms pass the double range
    # from n = 1, so the grid entry Q~_12(12) is nan: the eigen-equation
    # check reads it without a numpy warning, and the first projection
    # refuses the family
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run("verify", "--alpha", "-0.9999999999999999", "--beta", "1e26", "--N", "12")
    assert res.exit_code == 3
    assert res.stderr == "error: norm of Q_1 is not finite in double precision\n"
    assert res.stdout == ""


@pytest.mark.parametrize("command,code,line", [
    # the twisted grid is right at all three, yet the node values of the
    # full-degree expansion miss the samples where the weight is small
    # (interpolation reads 1.5e11, 2.9e64 and 1.3e-3 max|u|; ROADMAP item 14)
    ("verify --alpha 1e6 --beta 0 --N 60", 4, "1 check(s) failed"),
    ("verify --alpha 1000 --beta 3 --N 200", 4, "1 check(s) failed"),
    ("verify --alpha 1e6 --beta 0 --N 30", 4, "1 check(s) failed"),
    ("verify --alpha 0 --beta 3162277.6601683795 --N 60", 3,
     "error: norm of Q_1 is not finite in double precision"),
    # the sweep passes the double range quietly, and the writer refuses
    # the value
    ("eval --alpha -0.999 --beta -0.999 --N 30 --n 1 --points 1e308", 3,
     "error: value at x=1e+308 is not finite: nan"),
    # the products of the node sums overflow quietly, and the writer
    # refuses the reconstruction
    ("project --alpha -0.999 --beta -0.999 --N 6 --m 6 --fn poly:1.7976931348623157e308 "
     "--pointwise --samples 13", 3, "error: approx_-0.999_-0.999 at t=-1 is not finite: inf"),
    # L u overflows to both infinities: its projection is NaN, and the
    # decay check refuses ||L u||
    ("verify --alpha 3162277.6601683795 --beta 0 --N 60", 3,
     "error: L^k u, ||L^k u||_w or lam_n^k overflows double precision at k=1"),
    # every weight is finite, their sum is not
    ("weights --alpha 115478198468.94582 --beta 115478198468.94582 --N 30", 3,
     "error: weight total is not finite in double precision"),
    # the Legendre sums pass the double range first, as inf or nan
    ("compare-legendre --N 6 --m 3 --fn poly:1e308,0,1e308", 3,
     "error: sample at grid index 0 is not finite: inf"),
    ("compare-legendre --N 6 --m 3 --fn poly:0,1e308,0,1e308", 3,
     "error: sample at grid index 0 is not finite: -inf"),
    # finite samples whose table is not: refused by the CLI's finite rule
    ("project --N 30 --m 2 --fn poly:1e308", 3,
     "error: coeff_0.0_0.0 at n=0 is not finite: inf"),
    ("project --N 30 --m 2 --fn poly:1e308 --pointwise --samples 3", 3,
     "error: coeff_0.0_0.0 at n=0 is not finite: inf"),
    ("compare-legendre --N 30 --m 2 --fn poly:1e308", 3,
     "error: hahn_classical at n=0 is not finite: inf"),
    # finite rows whose bound check would pass every row: the allowance
    # (N+1) eps ||u||_w reads ||u||_w^2, which is nan here and inf at 1e154
    ("decay --N 30 --m 5 --fn poly:1e308", 3,
     "error: ||u||_w^2 is not finite in double precision"),
    ("decay --N 30 --m 5 --fn poly:1e154", 3,
     "error: ||u||_w^2 is not finite in double precision"),
    # lam_1^200 = 0.002^200 underflows to 0, and the bounds divide by it
    ("decay --alpha -0.999 --beta -0.999 --N 2 --m 2 --k 200", 3,
     "error: lam_n^k or n^(2k) low^k underflows double precision at k=200"),
])
def test_overflow_under_warnings_as_errors(command, code, line):
    # a fresh `python -W error`: the sweep, L u, the squared coefficients,
    # the quotient by the norm and the exact sums pass the double range
    # without a numpy warning or a traceback, and the command ends in its
    # one stderr line; a refused command prints no table
    src = str(Path(hahnpoly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-W", "error", "-m", "hahnpoly.cli", *command.split()],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == code
    assert out.stderr == (line + "\n" if code else "")
    assert (out.stdout == "") == (code == 3)


@pytest.mark.parametrize("command,k", [
    ("project --alpha 0 --beta 1000 --N 200 --m 84", 84),
    ("eval --alpha 0 --beta 1000 --N 200 --n 150 --points 0.5,3", 84),
    ("eval --alpha 1e6 --beta 0 --N 200 --n 100", 0),
    ("project --alpha 0 --beta 3162277.6601683795 --N 60 --m 60", 1),
])
def test_norm_past_double_range_refused(command, k):
    # a degree whose norm ||Q_k|| leaves the double range has no orthonormal
    # Q~_k: refused in one line naming the first such k <= m (or n), not
    # printed as 0, -0 or nan
    res = run(*command.split())
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"error: norm of Q_{k} is not finite in double precision\n"
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["project --alpha 0 --beta 1000 --N 200 --m 83",
                                     "eval --alpha 0 --beta 1000 --N 200 --n 83"])
def test_norm_below_double_range_prints(command):
    res = run(*command.split())
    assert res.exit_code == 0
    _, data = parse_csv(res.output)
    assert all(math.isfinite(float(v)) for row in data for v in row)


def test_out_file_roundtrip(tmp_path):
    out = tmp_path / "w.csv"
    res = run("weights", "--N", "6", "--out", str(out))
    assert res.exit_code == 0
    assert out.read_text().startswith("# hahnpoly")


@pytest.mark.parametrize("command,code,line", [
    ("weights --N 6", 0, ""),
    ("eval --n 3 --N 6", 0, ""),
    ("project --N 6 --m 3 --pointwise --samples 5", 0, ""),
    ("decay --N 6 --m 3", 0, ""),
    ("runge --N 6 --m 3 --samples 5", 0, ""),
    ("compare-legendre --N 6 --m 3", 0, ""),
    ("verify --N 6", 0, ""),
    ("decay --N 200 --m 200", 0, ""),
    ("verify --alpha 1e6 --beta 0 --N 60", 4, "1 check(s) failed"),
    ("verify --alpha 1e6 --beta 0 --N 30", 4, "1 check(s) failed"),
])
def test_out_file_equals_stdout(tmp_path, command, code, line):
    # every command writes its table through one path: --out holds the
    # bytes stdout would, and an exit-4 line follows the whole table
    out = tmp_path / "t.csv"
    to_stdout = run(*command.split())
    to_file = run(*command.split(), "--out", str(out))
    assert to_stdout.exit_code == to_file.exit_code == code
    assert out.read_bytes() == to_stdout.stdout_bytes
    assert to_stdout.stdout.startswith("# hahnpoly")
    assert to_file.stdout == ""
    assert to_file.stderr == to_stdout.stderr
    assert to_file.stderr.startswith(line)
    assert to_file.stderr.count("\n") == (code == 4)


@pytest.mark.parametrize("command", [
    "project --alpha 0 --beta 1000 --N 200 --m 84",
    "project --N 30 --m 2 --fn poly:1e308",
    "project --N 30 --m 2 --fn poly:1e308 --pointwise --samples 3",
    "compare-legendre --N 30 --m 2 --fn poly:1e308",
    "decay --N 30 --m 5 --fn poly:1e308",
])
def test_refused_table_leaves_no_file(tmp_path, command):
    res = run(*command.split(), "--out", str(tmp_path / "t.csv"))
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_no_partial_file_on_error(tmp_path):
    out = tmp_path / "bad.csv"
    res = run("eval", "--N", "30", "--n", "99", "--out", str(out))
    assert res.exit_code == 3
    assert not out.exists()


@pytest.mark.parametrize("errno_code,where", [(errno.ENOENT, "missing/w.csv"),
                                               (errno.EISDIR, ".")])
def test_unwritable_out_is_config_error(tmp_path, errno_code, where):
    # found only after computing, but reported as a configuration error:
    # one line naming --out and the OS reason, no traceback, no file
    out = tmp_path / where
    res = run("weights", "--N", "5", "--out", str(out))
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: --out {out}: {os.strerror(errno_code)}\n"
    assert list(tmp_path.iterdir()) == []


def test_deterministic_output():
    a = run("project", "--N", "30", "--m", "8", "--fn", "runge")
    b = run("project", "--N", "30", "--m", "8", "--fn", "runge")
    assert a.output == b.output


def test_poly_function_spec():
    res = run("project", "--N", "12", "--m", "6", "--fn", "poly:1,2,3",
              "--normalized", "false")
    assert res.exit_code == 0
    _, data = parse_csv(res.output)
    # a quadratic target needs only degrees 0..2
    tail = [abs(float(r[1])) for r in data[3:]]
    assert max(tail) < 1e-12


# exit code and sha256 of stdout for the README commands at N = 30, and
# one verify at N = 60, each recorded on the code before the change that
# pinned it; any change to these bytes is a change of output, not a
# refactor.  The two verify pins were re-recorded when float-vs-exact
# replaced series-vs-recurrence: only that row and three-term-recurrence
# changed, and the N = 60 one went from exit 4 to exit 0.  All but the
# weights and `eval --normalized false` pins were re-recorded when the
# norms became correctly rounded: every value column moved by at most
# 2.8e-15 of its largest magnitude, and no exit code or verify status moved.
# The two pointwise pins were re-recorded when the samples moved onto the
# grid coordinates k N / (S - 1) and off-node points went to the Clenshaw
# sweep: t moved by at most 2.2e-16 in 79 of 201 rows, approx by at most
# 3.3e-15, the coefficients and the max_error lines not at all.  The N = 60
# verify pin was re-recorded when the grid from N = 42 up became the twisted
# build, after its full grid was measured against exact columns (4.0e-16 in
# U units): float-vs-exact went from 1.7e-15 to 3.4e-16, seven more value
# rows moved within their tolerances, and every status stayed pass.  The
# N = 30 pointwise pin was re-recorded when the forward sweep came to read
# the series rows built from the integer recurrence constants: one cell
# moved, u_9 (exactly 0 for exact samples), from -2.1684043449710089e-18 to
# -2.1684043449710062e-18, 1.8e-33 of the column's largest value; both are
# 8.5e-18 of it from the exact projection of the same samples.  The two
# verify pins were re-recorded when eigen-difference-equation came to read
# the grid rows instead of a dd sweep at -1..N+1: every other line is the
# parent's, byte for byte, and that row went from 2.1621161755188358e-16 to
# 2.290198637273874e-16 at N = 30 and from 1.7236050974528173e-16 to
# 1.5578638504742588e-15 at N = 60, both pass.  The two N = 30 pointwise
# pins were re-recorded when off-node samples at least 1/16 from a node came
# to be summed over the Jacobi rows in monic form on x87: 206 cells in 103
# rows of the project pin and 561 cells in 142 rows of the runge pin moved,
# all approx and error cells off the nodes, and no header, coefficient or
# node line did; every moved value is within 0.19 eps S(x) of the exact sum
# over the stored norms (0.12 before), and closer than before to the exact
# orthonormal sum at every one of them (the values are listed in CHANGES.md).
# The two verify pins were re-recorded when verify gained the interpolation
# row, printed after parseval: every other line is the parent's, byte for byte.
# The seven N = 30 pins were re-recorded when the grid from N = 13 up became
# the twisted build, after every moved value was measured against the exact
# reference (parent -> now, the values are listed in CHANGES.md): the
# coefficients within 2.6e-16 ||u||_w (1.1e-16 before), the pointwise
# values within 1.1e-15 max|u| of the exact truncation (3.6e-15), eval's
# Q_5(0) = 1 and Q_5(30) = -1 now 1 ulp below in magnitude, and every
# verify row still a pass
GOLDEN_STDOUT = {
    "project --N 30 --m 10 --fn runge --pointwise --samples 201":
        (0, "de8d4b757cd0af8c4d22c2b328b5df5d56248cc84a50c50d9302e99d9d967b26"),
    "runge --N 30 --m 10 --samples 201":
        (0, "a1a01e8ca4e4f3b583eda1fd7a1b505a4232d1719f5db5eed570810fd4b338d8"),
    "eval --n 5 --N 30 --points 0,7.5,30 --normalized false":
        (0, "5e2286abeb1efc4d6f7be33061e87c48aaec669794ea3befe5bfaf34cc602bc2"),
    "weights --alpha 0.5 --beta 0.5 --N 30":
        (0, "09703b6be620bb0b30a5f5dd5340faa4bf6e0a30bffd2ea74600f247a84ef715"),
    "project --N 30 --m 10 --fn sin-pi --params 0,0;0.5,0.5;5,0":
        (0, "32fcf9551f7a6dc9c65147d42ac4aec7abad635819ad22e65a0a5283a46b09d4"),
    "decay --N 30 --m 20 --k 1,2,3 --fn sin-pi":
        (0, "af3f3306e99889b15c3f73b0330c802e45c967e4cc0b9da93b402b13205aa54b"),
    "compare-legendre --N 30 --m 10":
        (0, "690ee8f293aca38f0d056d1ea2f1d202087bc94ba293f15a54e3abdda65b7989"),
    "verify --alpha 0.5 --beta 0.5 --N 30":
        (0, "909b2e064074b7dccc28ba208acaa6bb93d5101c8f82439a43b29d64568c2fc0"),
    "verify --alpha -0.5 --beta 3 --N 60":
        (0, "250638f8125797ad4f7607f46107267b91cd0f2d4f9f04084155d69d26a0e66e"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command):
    code, digest = GOLDEN_STDOUT[command]
    res = run(*command.split())
    assert res.exit_code == code
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_module_entry_point():
    src = str(Path(hahnpoly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "hahnpoly.cli", "--version"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert "0.1.0" in out.stdout

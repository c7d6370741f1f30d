"""CLI behaviour: output format, exit codes, determinism, and the
no-partial-file rule."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import hahnpoly
from hahnpoly.cli import main


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
    assert float(data[1][3]) == pytest.approx(3.0 / math.pi, rel=1e-12)


def test_verify_passes():
    res = run("verify", "--N", "12")
    assert res.exit_code == 0
    header, data = parse_csv(res.output)
    assert header == ["check", "value", "tol", "status"]
    assert all(r[3] == "pass" for r in data)


def test_exit_code_usage_error():
    assert run("project", "--fn", "bogus").exit_code == 2
    assert run("project", "--interval", "nope").exit_code == 2
    assert run("decay", "--k", "one").exit_code == 2
    assert run("runge", "--samples", "1").exit_code == 2


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


def test_exit_code_domain_error():
    # a degree out of range surfaces from the library mid-computation
    res = run("eval", "--N", "30", "--n", "31")
    assert res.exit_code == 3
    assert "degree" in res.stderr


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
    assert "1e+300" in res.stderr
    assert "nan" not in res.output


def test_non_finite_targets_refused():
    # non-finite poly coefficients are a configuration error naming fn;
    # finite ones whose grid samples overflow are a domain error naming
    # the grid index; neither prints nan, a traceback or a numpy warning
    cases = [(("project", "--N", "6", "--m", "3", "--fn", "poly:nan,1"), 2, "fn"),
             (("compare-legendre", "--N", "6", "--m", "3", "--fn", "poly:inf"), 2, "fn"),
             (("project", "--N", "6", "--m", "3", "--fn", "poly:1e308,1e308"), 3,
              "grid index 6")]
    for args, code, named in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(*args)
        assert res.exit_code == code, args
        assert named in res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.output


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


def test_out_file_roundtrip(tmp_path):
    out = tmp_path / "w.csv"
    res = run("weights", "--N", "6", "--out", str(out))
    assert res.exit_code == 0
    assert out.read_text().startswith("# hahnpoly")


def test_no_partial_file_on_error(tmp_path):
    out = tmp_path / "bad.csv"
    res = run("eval", "--N", "30", "--n", "99", "--out", str(out))
    assert res.exit_code == 3
    assert not out.exists()


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
# one verify past where the series route is accurate (exit 4), each
# recorded on the code before the change that pinned it; any change to
# these bytes is a change of output, not a refactor
GOLDEN_STDOUT = {
    "project --N 30 --m 10 --fn runge --pointwise --samples 201":
        (0, "60ff27f7a30deb5303570502b539beb1a421cb22e61d38fa75e57fa13218d988"),
    "runge --N 30 --m 10 --samples 201":
        (0, "44317340d418bd5e6f3fd77565c5c27cb1cb1fdf19b9054c8c184ef0d3b86544"),
    "eval --n 5 --N 30 --points 0,7.5,30 --normalized false":
        (0, "45374b17dac0e528384240d7a845d961874fe6f8025ede08f8094d75d2533b35"),
    "weights --alpha 0.5 --beta 0.5 --N 30":
        (0, "09703b6be620bb0b30a5f5dd5340faa4bf6e0a30bffd2ea74600f247a84ef715"),
    "project --N 30 --m 10 --fn sin-pi --params 0,0;0.5,0.5;5,0":
        (0, "49d397cf88b693509cbde4ffa0d56df7477e63c7397759dbbe8691c25637a051"),
    "decay --N 30 --m 20 --k 1,2,3 --fn sin-pi":
        (0, "6ca13d74e5947e52beff642bf5c1ab5c03d62eb24cfd5e4c0d7c8b3343b87811"),
    "compare-legendre --N 30 --m 10":
        (0, "d2aeaff2dcccc3b1165be5c7ebae9eae4afe11abd82a754f44d889620f7429dc"),
    "verify --alpha 0.5 --beta 0.5 --N 30":
        (0, "84de33c61c059bfcf63314bdc37c8f8106117e80943ae93db9ff3c391e1c681b"),
    "verify --alpha -0.5 --beta 3 --N 60":
        (4, "6dbc7482e8507f76952f911ec19c366f6089fcfc24813ca9edf05395f3c3efc2"),
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

"""The invariant suite itself, at a smaller grid so the full battery
stays quick, and the array-swept checks against their scalar loops."""

import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hahnpoly import checks, hahn, oracle_exact, oracle_ratios
from hahnpoly.checks import (
    check_eigen_equation,
    check_parseval,
    check_path_agreement,
    check_recurrence_identity,
    run_all,
)
from hahnpoly.errors import HahnPolyError
from hahnpoly.hahn import HahnParams, basis
from hahnpoly.oracle_exact import exact_hahn_eval, exact_norm_sq, exact_weight
from hahnpoly.oracle_ratios import _over_one_denominator, _steps


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0)])
def test_all_invariants_pass(alpha, beta):
    results = run_all(HahnParams(alpha, beta, 12))
    bad = [r for r in results if not r.passed]
    assert not bad, f"failed checks: {[(r.name, r.value, r.tol) for r in bad]}"
    # the battery covers every named identity
    names = {r.name for r in results}
    assert {"orthonormality-offdiag", "float-vs-exact",
            "three-term-recurrence", "eigen-difference-equation",
            "self-adjoint-form", "operator-symmetry", "spectral-multiplier",
            "parseval", "interpolation", "summation-by-parts", "decay-bound-k1",
            "decay-identity-k1"} <= names


@pytest.mark.parametrize("N", [12, 30, 60, 100, 200])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (-0.5, 3.0)])
def test_interpolation_row_passes(alpha, beta, N):
    # at degree N the expansion of the seeded draw takes its values at the
    # nodes; measured at most 9.5e-13 max|u|, on (5, 0) at N = 200
    parseval, interpolation = check_parseval(HahnParams(alpha, beta, N))
    assert (parseval.name, interpolation.name) == ("parseval", "interpolation")
    assert interpolation.tol == 1e-10
    assert interpolation.passed, interpolation.value


def test_interpolation_row_fails_on_a_planted_fault(monkeypatch):
    real = checks.eval_expansion
    monkeypatch.setattr(checks, "eval_expansion", lambda c, x: real(c, x) + 1e-9)
    _, interpolation = check_parseval(HahnParams(0.5, 0.5, 30))
    assert not interpolation.passed
    assert interpolation.value > 5e-10


# verify's rows in the README's order, each check's rows as it returns them
VERIFY_ROWS = ["orthonormality-offdiag", "orthonormality-diag", "float-vs-exact",
               "three-term-recurrence", "eigen-difference-equation", "self-adjoint-form",
               "operator-symmetry", "spectral-multiplier", "parseval", "interpolation",
               "summation-by-parts"] + [f"decay-{row}-k{k}" for k in (1, 2, 3)
                                        for row in ("bound", "identity")]


def _row_bits(rows):
    return [(r.name, np.float64(r.value).view(np.int64), np.float64(r.tol).view(np.int64))
            for r in rows]


def _nan_l_row(monkeypatch):
    # one nan entry in L Q~_3, so self-adjoint-form reads nan
    l_rows = checks._l_rows

    def planted(params, rows):
        out = l_rows(params, rows)
        out[3, 7] = math.nan
        return out

    monkeypatch.setattr(checks, "_l_rows", planted)


@pytest.mark.parametrize("alpha,beta,N,plant", [(0.5, 0.5, 12, None), (0.0, 1e3, 30, None),
                                                 (0.5, 0.5, 30, _nan_l_row)])
def test_run_all_returns_the_rows_of_each_check_alone(alpha, beta, N, plant, monkeypatch):
    if plant:
        plant(monkeypatch)
    p = HahnParams(alpha, beta, N)
    alone = [*checks.check_orthonormality(p), check_path_agreement(p),
             check_recurrence_identity(p), check_eigen_equation(p),
             checks.check_self_adjoint_form(p), checks.check_operator_symmetry(p),
             checks.check_spectral_multiplier(p), *check_parseval(p), checks.check_sbp(p),
             *checks.check_decay_bound(p, (1, 2, 3))]
    assert [r.name for r in alone] == VERIFY_ROWS
    assert _row_bits(run_all(p)) == _row_bits(alone)
    if plant:
        assert math.isnan(alone[VERIFY_ROWS.index("self-adjoint-form")].value)


def test_run_all_calls_each_check_by_its_name_at_call_time(monkeypatch):
    # run_all reads the module's names when it runs, so a rebound check (a
    # trace span, a spy) is the one it calls
    calls, real = [], checks.check_sbp

    def spy(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(checks, "check_sbp", spy)
    p = HahnParams(0.5, 0.5, 12)
    rows = run_all(p)
    assert calls == [p]
    assert rows[VERIFY_ROWS.index("summation-by-parts")] == real(p)


def test_deterministic():
    a = run_all(HahnParams(0.5, 0.5, 12))
    b = run_all(HahnParams(0.5, 0.5, 12))
    assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]


# The checks below as scalar loops over (degree, point), one evaluation
# per call: the two exact checks from the series, closed-form norm and
# weight of the oracle, one value at a time.

def _exact_u(n, x, params):
    a, b, N = Fraction(params.alpha), Fraction(params.beta), params.N
    q = exact_hahn_eval(n, x, a, b, N)
    u_sq = q * q * exact_weight(x, a, b, N) / exact_norm_sq(n, a, b, N)
    return math.sqrt(float(u_sq)) * (-1.0 if q < 0 else 1.0)


def _loop_path_agreement(params):
    N = params.N
    grid, weights = basis(params).grid, basis(params).weights
    worst = 0.0
    for x in sorted({0, 1, N // 2, N - 1, N}):
        for n in range(N + 1):
            u = float(grid[n, x]) * math.sqrt(float(weights[x]))
            worst = max(worst, abs(u - _exact_u(n, x, params)))
    return worst


def _loop_recurrence_identity(params):
    # A_n, A_n + C_n and C_n from the oracle's integer rows, rounded once
    a, b, N = Fraction(params.alpha), Fraction(params.beta), params.N
    (ai, bi), D = _over_one_denominator(params.alpha, params.beta)
    rows = _steps(ai, bi, D, N)
    worst = 0.0
    for x in sorted({0, 1, N // 2, N - 1, N}):
        xf = float(x)
        q = [float(exact_hahn_eval(n, x, a, b, N)) for n in range(N + 1)]
        for n in range(1, N):
            al, sig, ga, e = rows[n]
            A, AC, C = (float(Fraction(v, e * D)) for v in (al, sig, ga))
            lhs = -xf * q[n]
            rhs = A * q[n + 1] - AC * q[n] + C * q[n - 1]
            scale = max(1.0, abs(A * q[n + 1]) + abs(AC * q[n]) + abs(C * q[n - 1]))
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _loop_eigen_equation(params, cap=20):
    # lam_n, B(x) and D(x) from their scalar formulas, not the basis arrays;
    # Q~_n(x) from the grid row, 0 one point off either end of the grid
    a, be, N = params.alpha, params.beta, params.N
    worst = 0.0
    top = min(cap, N)
    for n in range(top + 1):
        lam = n * (n + a + be + 1.0)
        row = [0.0] + basis(params).grid[n].tolist() + [0.0]
        for x in range(N + 1):
            xf = float(x)
            qm, q0, qp = row[x], row[x + 1], row[x + 2]
            b, d = (xf + a + 1.0) * (xf - N), xf * (xf - be - N - 1.0)
            lhs = b * qp - (b + d) * q0 + d * qm
            rhs = lam * q0
            scale = max(1.0, abs(b * qp) + abs((b + d) * q0) + abs(d * qm), abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _loop_self_adjoint_form(params, cap=20):
    # the weighted flux -D(i) w(i) (q(i) - q(i-1)) point by point, one
    # degree at a time, as Python floats
    N, b = params.N, basis(params)
    w, d = b.weights.tolist(), b.d.tolist()
    worst = 0.0
    for n in range(min(cap, N) + 1):
        q, lam = b.grid[n].tolist(), float(b.lam[n])
        flux = [0.0] + [-d[i] * w[i] * (q[i] - q[i - 1]) for i in range(1, N + 1)] + [0.0]
        resid = [abs((flux[x + 1] - flux[x]) / w[x] + lam * q[x]) for x in range(N + 1)]
        scale = max(1.0, max(abs(lam * v) for v in q))
        worst = max(worst, max(resid) / scale)
    return worst


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 3.0)])
def test_swept_checks_equal_scalar_loops(alpha, beta, monkeypatch):
    # every last bit of the values is compared, the eigen-equation check
    # on the grid rows it reads
    p = HahnParams(alpha, beta, 60)
    assert check_path_agreement(p).value == _loop_path_agreement(p)
    assert check_recurrence_identity(p).value == _loop_recurrence_identity(p)
    assert check_eigen_equation(p).value == _loop_eigen_equation(p)
    # the check reads its degree cap from the module at call time
    for top in (0, 1, 7):
        monkeypatch.setattr(checks, "DEGREE_CAP", top)
        assert check_eigen_equation(p).value == _loop_eigen_equation(p, top)


@pytest.mark.parametrize("alpha,beta,N", [(0.0, 0.0, 60), (-0.5, 3.0, 60), (0.0, 1e3, 30),
                                           (0.5, 0.5, 1)])
def test_self_adjoint_form_equals_degree_loop(alpha, beta, N, monkeypatch):
    # the stacked operator gives each degree the bits of a loop over degrees
    p = HahnParams(alpha, beta, N)
    assert checks.check_self_adjoint_form(p).value == _loop_self_adjoint_form(p)
    for top in (0, 7):
        monkeypatch.setattr(checks, "DEGREE_CAP", top)
        assert checks.check_self_adjoint_form(p).value == _loop_self_adjoint_form(p, top)


def test_swept_checks_smallest_grid():
    p = HahnParams(0.5, 0.5, 1)
    assert check_path_agreement(p).value == _loop_path_agreement(p)
    assert check_recurrence_identity(p).value == 0.0 == _loop_recurrence_identity(p)
    assert check_eigen_equation(p).value == _loop_eigen_equation(p)


def test_grid_build_runs_inside_its_own_span(monkeypatch):
    # the two checks that read the whole grid read it through
    # hahn.normalized_grid_matrix, so on a fresh basis the twisted build
    # runs inside that call, which is where a trace times the grid build,
    # and the array is the cached grid itself
    depth, builds = [], []
    read, build = checks.normalized_grid_matrix, hahn._twisted_grid

    def counted_read(m, params):
        depth.append(m)
        try:
            return read(m, params)
        finally:
            depth.pop()

    def counted_build(params, weights):
        builds.append(len(depth))
        return build(params, weights)

    monkeypatch.setattr(checks, "normalized_grid_matrix", counted_read)
    monkeypatch.setattr(hahn, "_twisted_grid", counted_build)
    p = HahnParams(0.25, 0.75, 60)
    for check in (checks.check_orthonormality, checks.check_path_agreement):
        basis.cache_clear()
        check(p)
        assert read(60, p).base is basis(p).grid
    assert builds == [1, 1]


def test_exact_columns_once_per_family(monkeypatch):
    # both exact checks read one read-only set of exact columns, computed
    # once per family in integers: one norm sweep, one column per sampled
    # point, and none of the Fraction functions
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for module, names in ((oracle_ratios, ("_column", "_norms")),
                          (oracle_exact, ("exact_hahn_column", "exact_norms_sq", "exact_hahn_eval",
                                          "exact_norm_sq", "exact_weight"))):
        for name in names:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    checks._exact_columns.cache_clear()
    p = HahnParams(0.5, 0.5, 20)
    check_path_agreement(p)
    check_recurrence_identity(p)
    assert sorted(calls) == ["_column"] * 5 + ["_norms"]
    xs, q, u = checks._exact_columns(p)
    assert xs == [0, 1, 10, 19, 20]
    assert q.shape == u.shape == (21, 5)
    assert not q.flags.writeable and not u.flags.writeable


SIX_FAMILIES = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (-0.5, 3.0), (20.0, 20.0), (-0.9, -0.9)]
# Q_12(12) = (beta+1)_12 / (alpha+1)_12 is about 1e320 here, past the double range
PAST_DOUBLE_RANGE = HahnParams(-1.0 + 2.0 ** -53, 1e26, 12)


def _fraction_double(v):
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _fraction_columns(params):
    # the Fraction route the integer columns replaced: the oracle's columns,
    # norms and weights, each value rounded by float(Fraction)
    a, b, N = Fraction(params.alpha), Fraction(params.beta), params.N
    xs = sorted({0, 1, N // 2, N - 1, N})
    h = oracle_exact.exact_norms_sq(a, b, N)
    q_cols, u_cols = [], []
    for x in xs:
        col = oracle_exact.exact_hahn_column(x, a, b, N)
        w = exact_weight(x, a, b, N)
        q_cols.append([_fraction_double(v) for v in col])
        u_abs = [math.sqrt(float(v * v * w / hn)) for v, hn in zip(col, h)]
        u_cols.append([-u if v < 0 else u for v, u in zip(col, u_abs)])
    return xs, np.array(q_cols).T, np.array(u_cols).T


@pytest.mark.parametrize("p", [HahnParams(a, b, N) for a, b in SIX_FAMILIES
                               for N in (1, 2, 12, 30, 60, 100, 200)] + [PAST_DOUBLE_RANGE,
                               # Q_13(13) is about -1e338: past the range with a minus sign
                               HahnParams(PAST_DOUBLE_RANGE.alpha, PAST_DOUBLE_RANGE.beta, 13)],
                         ids=lambda p: f"{p.alpha}-{p.beta}-{p.N}")
def test_exact_columns_equal_fraction_route(p):
    xs, q, u = checks._exact_columns(p)
    ref_xs, ref_q, ref_u = _fraction_columns(p)
    assert xs == ref_xs
    assert np.array_equal(q.view(np.int64), ref_q.view(np.int64))
    assert np.array_equal(u.view(np.int64), ref_u.view(np.int64))


def test_random_grid_functions_equal_stdlib_stream():
    # the seeded grid functions are 2 r - 1 over the guaranteed random()
    # stream of a fresh stdlib generator, bit for bit, at every grid size
    # and count the checks use
    for N in range(1, 201):
        p = HahnParams(0.0, 0.0, N)
        for count in (1, 2):
            rng = random.Random(checks.DEFAULT_SEED)
            got = checks._random_grid_functions(p, count)
            assert len(got) == count
            for f in got:
                want = np.array([2.0 * rng.random() - 1.0 for _ in range(N + 1)])
                assert np.array_equal(f.values.view(np.int64), want.view(np.int64)), (N, count)


_FRESH_CLI = """
import sys
from hahnpoly.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(*sys.modules, file=sys.stderr)
"""


def _fresh_cli(command):
    # one CLI command in a fresh interpreter, since this test session
    # imports every module; returns its stdout and the modules it loaded
    src = str(Path(checks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _FRESH_CLI, *command.split()], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout, set(out.stderr.split())


def test_verify_does_not_import_numpy_random():
    stdout, modules = _fresh_cli("verify --N 12")
    assert "numpy.random" not in modules, "verify imported numpy.random"
    assert "check,value,tol,status" in stdout


@pytest.mark.parametrize("command,loaded,absent", [
    # `verify` reads the oracle's integer route alone: no Fraction API,
    # so neither `fractions` nor the `decimal` it imports
    ("verify --N 12", {"hahnpoly.oracle_ratios"},
     {"fractions", "decimal", "hahnpoly.oracle_exact"}),
    # a command that runs no check loads no oracle at all
    ("project --pointwise --N 12", set(), {"hahnpoly.oracle_ratios", "hahnpoly.oracle_exact"}),
])
def test_cli_loads_only_the_oracle_route_it_reads(command, loaded, absent):
    _, modules = _fresh_cli(command)
    assert loaded <= modules
    assert not absent & modules, absent & modules


@pytest.mark.parametrize("alpha,beta", SIX_FAMILIES)
def test_float_vs_exact_grows_with_the_defect(monkeypatch, alpha, beta):
    # tolerances stated before measuring: the grid matrix agrees with the
    # exact values in U units to 1e-9, the check's tolerance, at N = 12,
    # where it is the dd point loop, and to 1e-13 from hahn._GRID_ARRAY_N
    # on (N = 30 here), where it is the twisted build; the recurrence
    # identity on exact values holds to 1e-8 at every size.  A defect
    # planted in one grid entry at N = 200 is what the check then reads, and
    # it fails
    for N in (12, 30, 60, 100, 200):
        p = HahnParams(alpha, beta, N)
        assert check_path_agreement(p).value <= (1e-9 if N < hahn._GRID_ARRAY_N else 1e-13), N
        assert check_recurrence_identity(p).value <= 1e-8, N
    b = basis(p)
    x = checks._exact_columns(p)[0][2]
    for defect in (1e-8, 1e-4):
        grid = b.grid.copy()
        grid[150, x] += defect / math.sqrt(b.weights[x])
        planted = SimpleNamespace(grid=grid, weights=b.weights)
        monkeypatch.setattr(checks, "basis", lambda params: planted)
        monkeypatch.setattr(checks, "normalized_grid_matrix", lambda m, params: grid[: m + 1])
        result = check_path_agreement(p)
        assert result.value == pytest.approx(defect, rel=1e-3) and not result.passed


def test_float_vs_exact_fails_on_non_finite_values(monkeypatch):
    # a nan in the grid matrix fails the row instead of being skipped
    p = HahnParams(0.0, 0.0, 12)
    grid = basis(p).grid.copy()
    grid[3, 6] = float("nan")
    broken = SimpleNamespace(grid=grid, weights=basis(p).weights)
    monkeypatch.setattr(checks, "basis", lambda params: broken)
    monkeypatch.setattr(checks, "normalized_grid_matrix", lambda m, params: grid[: m + 1])
    result = check_path_agreement(p)
    assert math.isnan(result.value) and not result.passed


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e300])
def test_orthonormality_fails_on_a_planted_entry(monkeypatch, value):
    # one entry of grid row 5 that is not finite, or whose Gram products
    # pass the double range: both rows fail, with no numpy warning
    p = HahnParams(0.5, 0.5, 12)
    grid = basis(p).grid.copy()
    grid[5, 6] = value
    monkeypatch.setattr(checks, "normalized_grid_matrix", lambda m, params: grid[: m + 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        offdiag, diag = checks.check_orthonormality(p)
    assert (offdiag.name, diag.name) == ("orthonormality-offdiag", "orthonormality-diag")
    assert not offdiag.passed and not diag.passed


def test_eigen_equation_fails_on_non_finite_defect():
    # the grid entry Q~_12(12) is nan here (an overflowed value over an
    # infinite norm), and the row fails with nan instead of skipping it,
    # without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_eigen_equation(PAST_DOUBLE_RANGE)
    assert math.isnan(result.value) and not result.passed


def test_eigen_equation_reads_the_grid(monkeypatch):
    # a fault of 1e-6 planted in one grid entry, row 7 at its largest |U|
    # node, is what the check reads, and it fails; the planted grid reaches
    # the check only through normalized_grid_matrix
    p = HahnParams(0.0, 0.0, 100)
    b = basis(p)
    assert check_eigen_equation(p).passed
    grid = b.grid.copy()
    x = int(np.argmax(np.abs(grid[7] * np.sqrt(b.weights))))
    grid[7, x] *= 1.0 + 1e-6
    monkeypatch.setattr(checks, "normalized_grid_matrix", lambda m, params: grid[: m + 1])
    result = check_eigen_equation(p)
    assert result.value > 1e-7 and not result.passed


def test_exact_values_past_double_range_fail_the_checks():
    # Q_12(12) = (beta+1)_12 / (alpha+1)_12 is about 1e320 here, past the
    # double range, while the weights are finite: both exact checks fail
    # with nan instead of raising OverflowError
    p = HahnParams(-1.0 + 2.0 ** -53, 1e26, 12)
    _, q, _ = checks._exact_columns(p)
    assert math.isinf(q[12, -1])
    for result in (check_path_agreement(p), check_recurrence_identity(p)):
        assert math.isnan(result.value) and not result.passed


def test_operator_symmetry_fails_on_mixed_infinities():
    # at N = 60, beta = 10^6.5, L u overflows to both infinities, and the
    # inner product of mixed infinities has no value: the check fails on
    # it instead of raising, and l_disk_apply overflows without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = checks.check_operator_symmetry(HahnParams(0.0, 3162277.6601683795, 60))
    assert math.isnan(r.value)
    assert not r.passed


# (alpha, 10^6.5) and its mirrors at N = 60: max|D| max w passes the double
# range, so the weighted flux of L Q~_n is formed with w scaled by 2^-e
SELF_ADJOINT_SCALED_CELLS = [cell for a in (-0.5, 0.0, 3.0, 50.0, 1e3)
                             for cell in ((a, 10 ** 6.5), (10 ** 6.5, a))]


@pytest.mark.parametrize("alpha,beta", SELF_ADJOINT_SCALED_CELLS)
def test_self_adjoint_form_passes_where_the_flux_is_scaled(alpha, beta):
    # the grid is right there (for (0, 10^6.5) within 1e-13 of exact U), and
    # L Q~_n = -lam_n Q~_n holds, with no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = checks.check_self_adjoint_form(HahnParams(alpha, beta, 60))
    assert math.isfinite(result.value) and result.passed


@pytest.mark.parametrize("alpha,beta", SELF_ADJOINT_SCALED_CELLS)
def test_self_adjoint_form_fails_on_non_finite_defect(alpha, beta, monkeypatch):
    # an inf planted in one grid row, where the flux is scaled: the defect
    # is not finite, and the check fails on it with no warning
    p = HahnParams(alpha, beta, 60)
    grid = basis(p).grid.copy()
    grid[5, 30] = math.inf
    monkeypatch.setattr(checks, "normalized_grid_matrix", lambda m, params: grid[: m + 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = checks.check_self_adjoint_form(p)
    assert not math.isfinite(result.value) and not result.passed


def test_self_adjoint_form_keeps_a_nan_row(monkeypatch):
    # one NaN defect among finite rows makes the value NaN; a max() over
    # Python floats would drop it
    _nan_l_row(monkeypatch)
    result = checks.check_self_adjoint_form(HahnParams(0.5, 0.5, 30))
    assert math.isnan(result.value) and not result.passed


# The exponent lattice of the domain scan, every family at N in {30, 60,
# 100}, and (0, 10^6.5), where L u overflows to both infinities, as it
# does for its mirrors (10^6.5, beta) at N = 60.  At N = 200: the
# diagonal, three cells whose squared coefficients pass the double range,
# and (0, 1e3), whose norms do.
LATTICE = (-0.999, -0.5, 0.0, 3.0, 50.0, 1e3, 1e6, 1e12)
LATTICE_CELLS = (
    [(a, b, N) for N in (30, 60, 100) for a in LATTICE for b in LATTICE]
    + [(0.0, 10 ** 6.5, N) for N in (30, 60, 100)]
    + [(10 ** 6.5, b, 60) for b in (-0.5, 0.0, 3.0, 1e3)]
    + [(a, a, 200) for a in LATTICE]
    + [(1e3, -0.999, 200), (1e3, 0.0, 200), (1e3, 50.0, 200), (0.0, 1e3, 200)]
)


@pytest.mark.parametrize("alpha,beta,N", LATTICE_CELLS)
def test_run_all_on_the_lattice_rows_or_refusal(alpha, beta, N):
    # every cell gives its rows or a named refusal, with no numpy warning:
    # a value past the double range is inf or nan, and its check fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = run_all(HahnParams(alpha, beta, N))
        except HahnPolyError:
            return
    assert all(math.isfinite(r.value) or not r.passed for r in rows)

"""The invariant suite itself, at a smaller grid so the full battery
stays quick, and the array-swept checks against their scalar loops."""

import pytest

from hahnpoly import checks
from hahnpoly.checks import (
    check_eigen_equation,
    check_path_agreement,
    check_recurrence_identity,
    run_all,
)
from hahnpoly.hahn import (
    HahnParams,
    eigen_data,
    hahn_eval_all,
    hahn_eval_recurrence,
    hahn_eval_series,
    recurrence_coefficients,
)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0)])
def test_all_invariants_pass(alpha, beta):
    results = run_all(HahnParams(alpha, beta, 12))
    bad = [r for r in results if not r.passed]
    assert not bad, f"failed checks: {[(r.name, r.value, r.tol) for r in bad]}"
    # the battery covers every named identity
    names = {r.name for r in results}
    assert {"orthonormality-offdiag", "series-vs-recurrence",
            "three-term-recurrence", "eigen-difference-equation",
            "self-adjoint-form", "operator-symmetry", "spectral-multiplier",
            "parseval", "summation-by-parts", "decay-bound-k1",
            "decay-identity-k1"} <= names


def test_deterministic():
    a = run_all(HahnParams(0.5, 0.5, 12))
    b = run_all(HahnParams(0.5, 0.5, 12))
    assert [(r.name, r.value) for r in a] == [(r.name, r.value) for r in b]


# The three checks below as scalar loops over (degree, point), one
# evaluation per call; `series(n, x)` is the scalar series route.

def _loop_path_agreement(params, series):
    worst = 0.0
    for x in range(params.N + 1):
        rec = hahn_eval_all(params.N, float(x), params)
        for n in range(params.N + 1):
            ser = series(n, float(x))
            err = abs(ser - rec[n]) / max(1.0, abs(ser))
            worst = max(worst, err)
    return worst


def _loop_recurrence_identity(params, series):
    worst = 0.0
    for x in range(params.N + 1):
        xf = float(x)
        q = [series(n, xf) for n in range(params.N + 1)]
        for n in range(1, params.N):
            A, C = recurrence_coefficients(n, params)
            lhs = -xf * q[n]
            rhs = A * q[n + 1] - (A + C) * q[n] + C * q[n - 1]
            scale = max(1.0, abs(A * q[n + 1]) + abs((A + C) * q[n]) + abs(C * q[n - 1]))
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _loop_eigen_equation(params, max_degree=20):
    worst = 0.0
    top = min(max_degree, params.N)
    for n in range(top + 1):
        ed = eigen_data(n, params)
        for x in range(params.N + 1):
            xf = float(x)
            qm = hahn_eval_recurrence(n, xf - 1.0, params)
            q0 = hahn_eval_recurrence(n, xf, params)
            qp = hahn_eval_recurrence(n, xf + 1.0, params)
            b, d = ed.b(xf), ed.d(xf)
            lhs = b * qp - (b + d) * q0 + d * qm
            rhs = ed.lam * q0
            scale = max(1.0, abs(b * qp) + abs((b + d) * q0) + abs(d * qm), abs(rhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 3.0)])
def test_swept_checks_equal_scalar_loops(alpha, beta):
    # N = 60 is past where the series route stays accurate, so the values
    # are large and every last bit of them is compared
    p = HahnParams(alpha, beta, 60)
    table = {(n, float(x)): hahn_eval_series(n, float(x), p)
             for n in range(61) for x in range(61)}
    series = lambda n, x: table[n, x]  # noqa: E731
    assert check_path_agreement(p).value == _loop_path_agreement(p, series)
    assert check_recurrence_identity(p).value == _loop_recurrence_identity(p, series)
    assert check_eigen_equation(p).value == _loop_eigen_equation(p)
    for top in (0, 1, 7):
        assert check_eigen_equation(p, top).value == _loop_eigen_equation(p, top)


def test_swept_checks_smallest_grid():
    p = HahnParams(0.5, 0.5, 1)
    series = lambda n, x: hahn_eval_series(n, x, p)  # noqa: E731
    assert check_path_agreement(p).value == _loop_path_agreement(p, series)
    assert check_recurrence_identity(p).value == 0.0 == _loop_recurrence_identity(p, series)
    assert check_eigen_equation(p).value == _loop_eigen_equation(p)


def test_series_table_once_per_family(monkeypatch):
    # both series checks read one read-only table, summed once per family
    calls = []

    def counted(n, x, params):
        calls.append(params)
        return hahn_eval_series(n, x, params)

    monkeypatch.setattr(checks, "hahn_eval_series", counted)
    checks._series_table.cache_clear()
    p = HahnParams(0.5, 0.5, 20)
    check_path_agreement(p)
    check_recurrence_identity(p)
    assert calls == [p]
    assert not checks._series_table(p).flags.writeable

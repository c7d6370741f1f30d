"""Hahn evaluation routes against the exact oracle, closed-form norms,
weights, the operator's eigenvalues and coefficients, and the parameter
type itself."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly.errors import DegreeOutOfRangeError, DomainError
from hahnpoly.hahn import (
    HahnParams,
    basis,
    hahn_eval_all,
    hahn_eval_recurrence,
    hahn_eval_series,
    norm_sq_closed,
    normalized_grid_matrix,
    recurrence_coefficients,
    weight_table,
)
from hahnpoly.oracle_exact import exact_hahn_eval, exact_norm_sq, exact_weight

PARAM_SETS = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (1.25, 0.75)]
FRACTIONS = {0.0: Fraction(0), 0.5: Fraction(1, 2), 5.0: Fraction(5),
             1.25: Fraction(5, 4), 0.75: Fraction(3, 4)}


def test_params_validation():
    with pytest.raises(DomainError):
        HahnParams(-1.0, 0.0, 10)
    with pytest.raises(DomainError):
        HahnParams(0.0, -2.0, 10)
    with pytest.raises(DomainError):
        HahnParams(0.0, 0.0, 0)
    with pytest.raises(DomainError):
        HahnParams(0.0, 0.0, 500)
    with pytest.raises(DomainError):
        HahnParams(math.inf, 0.0, 10)
    p = HahnParams(0.5, 0.5, 30)
    assert p.npoints == 31
    assert p.grid()[-1] == 30.0


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_series_matches_oracle(alpha, beta):
    N = 12
    p = HahnParams(alpha, beta, N)
    fa, fb = FRACTIONS[alpha], FRACTIONS[beta]
    for n in range(N + 1):
        for x in range(N + 1):
            exact = float(exact_hahn_eval(n, x, fa, fb, N))
            got = hahn_eval_series(n, float(x), p)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_recurrence_matches_oracle(alpha, beta):
    N = 12
    p = HahnParams(alpha, beta, N)
    fa, fb = FRACTIONS[alpha], FRACTIONS[beta]
    for x in range(N + 1):
        vals = hahn_eval_all(N, float(x), p)
        for n in range(N + 1):
            exact = float(exact_hahn_eval(n, x, fa, fb, N))
            assert vals[n] == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_recurrence_matches_oracle_at_full_size():
    # the ill-conditioned corner: large alpha, top degree, far grid end
    p = HahnParams(5.0, 0.0, 30)
    exact = float(exact_hahn_eval(30, 30, Fraction(5), Fraction(0), 30))
    got = hahn_eval_recurrence(30, 30.0, p)
    assert got == pytest.approx(exact, rel=1e-10)


def test_eval_all_consistent_with_single():
    p = HahnParams(0.5, 0.5, 20)
    vals = hahn_eval_all(20, 7.0, p)
    for n in (0, 1, 13, 20):
        assert vals[n] == hahn_eval_recurrence(n, 7.0, p)


def _sweep_points(N):
    # every few grid points with both ends, midpoints between nodes, and
    # shifted sample points, the last one just past N
    grid = np.unique(np.append(np.arange(0, N + 1, max(1, N // 12)), N)).astype(float)
    off = (np.arange(16) + 0.5) * N / 16
    mapped = N * (np.linspace(-1.0, 1.0, 9) + 0.013 + 1.0) / 2.0
    return np.concatenate([grid, off, mapped])


@pytest.mark.parametrize("N", [30, 100, 200])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)])
def test_eval_all_array_equals_point_loop(N, alpha, beta):
    # the array sweep rounds exactly as one sweep per point, to the bit
    p = HahnParams(alpha, beta, N)
    xs = _sweep_points(N)
    for m in (0, 1, N // 2, N):
        got = hahn_eval_all(m, xs, p)
        assert got.shape == (m + 1, len(xs))
        loop = np.stack([hahn_eval_all(m, float(x), p) for x in xs], axis=1)
        assert np.array_equal(got, loop, equal_nan=True)
        assert hahn_eval_all(m, xs[:1], p).shape == (m + 1, 1)


@pytest.mark.parametrize("N", [30, 60, 100])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)])
def test_series_table_equals_scalar_calls(N, alpha, beta):
    # one (degree x point) sweep runs N terms for every entry; each entry
    # still equals its own scalar call, to the bit
    p = HahnParams(alpha, beta, N)
    xs = np.concatenate([p.grid(), [0.5, N / 3 + 0.25, N - 0.5]])
    table = hahn_eval_series(np.arange(N + 1)[:, None], xs, p)
    assert table.shape == (N + 1, len(xs))
    cols = list(range(0, N + 1, N // 10)) + [N - 1, N, N + 1, N + 2, N + 3]
    for n in sorted({0, 1, 2, N // 2, N - 1, N}):
        loop = np.array([hahn_eval_series(n, float(xs[c]), p) for c in cols])
        assert np.array_equal(table[n, cols].view(np.int64), loop.view(np.int64))
    # one array argument broadcasts against a scalar one
    assert np.array_equal(hahn_eval_series(N // 2, xs, p), table[N // 2])
    assert np.array_equal(hahn_eval_series(np.arange(N + 1), xs[7], p), table[:, 7])
    assert type(hahn_eval_series(N // 2, xs[7], p)) is float


def test_recurrence_scalar_returns_float():
    p = HahnParams(0.5, 0.5, 20)
    assert type(hahn_eval_recurrence(7, 3.5, p)) is float
    assert hahn_eval_all(20, 3.5, p).shape == (21,)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_value_one_at_zero(alpha, beta):
    p = HahnParams(alpha, beta, 30)
    vals = hahn_eval_all(30, 0.0, p)
    assert np.max(np.abs(vals - 1.0)) < 1e-13


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_reflection_parity_symmetric_weight(alpha):
    # alpha = beta makes Q_n(N - x) = (-1)^n Q_n(x)
    p = HahnParams(alpha, alpha, 30)
    signs = np.array([(-1.0) ** n for n in range(31)])
    for x in range(31):
        left = hahn_eval_all(30, float(30 - x), p)
        right = hahn_eval_all(30, float(x), p)
        assert np.max(np.abs(left - signs * right)) < 1e-10


def test_degree_out_of_range():
    p = HahnParams(0.0, 0.0, 10)
    with pytest.raises(DegreeOutOfRangeError):
        hahn_eval_series(11, 0.0, p)
    # one degree out of range in an array is enough
    for bad in (11, -1):
        with pytest.raises(DegreeOutOfRangeError):
            hahn_eval_series(np.array([0, 5, bad, 10]), p.grid()[:4], p)
    with pytest.raises(DegreeOutOfRangeError):
        hahn_eval_recurrence(11, 0.0, p)
    with pytest.raises(DegreeOutOfRangeError):
        norm_sq_closed(11, p)


def test_weight_table_flat_and_total():
    p = HahnParams(0.0, 0.0, 30)
    w = weight_table(p)
    assert np.all(w == 1.0)
    assert math.fsum(w) == 31.0
    assert not w.flags.writeable


def test_weight_table_matches_oracle():
    p = HahnParams(0.5, 0.5, 12)
    w = weight_table(p)
    for x in range(13):
        exact = float(exact_weight(x, Fraction(1, 2), Fraction(1, 2), 12))
        assert w[x] == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_norm_closed_matches_oracle(alpha, beta):
    N = 10
    p = HahnParams(alpha, beta, N)
    fa, fb = FRACTIONS[alpha], FRACTIONS[beta]
    for n in range(N + 1):
        exact = float(exact_norm_sq(n, fa, fb, N))
        assert norm_sq_closed(n, p) == pytest.approx(exact, rel=1e-12)


def _norm_sq_interleaved(n, params):
    # reference for norm_sq_closed: the same factors in one loop that
    # tests both list lengths at every step
    a, b, N = params.alpha, params.beta, params.N
    s = a + b
    num = [n + s + 1.0 + j for j in range(N + 1) if j != n]
    num += [b + 1.0 + i for i in range(n)]
    num += [float(i) for i in range(2, n + 1)]
    num += [float(i) for i in range(2, N - n + 1)]
    den = [a + 1.0 + i for i in range(n)]
    den += [float(i) for i in range(2, N + 1)] * 2
    out = 1.0
    i = j = 0
    while i < len(num) or j < len(den):
        if j >= len(den) or (i < len(num) and out <= 1.0):
            out *= num[i]
            i += 1
        else:
            out /= den[j]
            j += 1
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 30, 100, 200])
def test_norm_sq_closed_equals_interleaved_loop(N):
    families = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0), (20.0, 20.0),
                (-0.9, -0.9), (1.25, 0.75)]
    # every degree up to 30, a spread of them above
    degrees = sorted({*range(min(N, 30) + 1), *range(0, N + 1, 7), N - 1, N})
    for alpha, beta in families:
        p = HahnParams(alpha, beta, N)
        got = np.array([norm_sq_closed(n, p) for n in degrees])
        want = np.array([_norm_sq_interleaved(n, p) for n in degrees])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (alpha, beta)


def test_sqrt_norms_once_per_family():
    # one read-only table of all N + 1 norms; callers slice the prefix
    p = HahnParams(-0.5, 3.0, 40)
    norms = basis(p).sqrt_norms
    assert norms is basis(p).sqrt_norms
    assert not norms.flags.writeable
    assert norms.tolist() == [math.sqrt(norm_sq_closed(n, p)) for n in range(41)]


def test_step_coefficients_once_per_family():
    # one tuple of all N - 1 steps (A, A + C, C); a degree-m sweep reads a
    # prefix of it, so a low-degree sweep is a prefix of the full one
    from hahnpoly._compensated import dd_add

    p = HahnParams(-0.5, 3.0, 40)
    steps = basis(p).steps
    assert steps is basis(p).steps
    assert len(steps) == 39
    for n, (A, AC, C) in enumerate(steps, start=1):
        assert AC == dd_add(A, C)
        assert (A[0], C[0]) == pytest.approx(recurrence_coefficients(n, p), rel=1e-14)
    xs = np.array([-1.0, 0.0, 12.5, 40.0, 41.0])
    full = hahn_eval_all(40, xs, p)
    for m in (0, 1, 2, 17, 39):
        assert np.array_equal(hahn_eval_all(m, xs, p), full[: m + 1])


def test_norm_flat_weight_degree_zero():
    # ||Q_0||^2 = sum of the flat weight = N + 1
    p = HahnParams(0.0, 0.0, 30)
    assert norm_sq_closed(0, p) == pytest.approx(31.0, rel=1e-12)


def _normalized(n, x, p):
    return hahn_eval_recurrence(n, x, p) / math.sqrt(norm_sq_closed(n, p))


def test_normalized_degree_zero():
    p = HahnParams(0.0, 0.0, 30)
    assert _normalized(0, 17.0, p) == pytest.approx(1.0 / math.sqrt(31.0), rel=1e-12)
    assert normalized_grid_matrix(0, p)[0, 17] == pytest.approx(1.0 / math.sqrt(31.0), rel=1e-12)


def test_normalized_matrix_shape_and_rows():
    p = HahnParams(0.5, 0.5, 12)
    mat = normalized_grid_matrix(5, p)
    assert mat.shape == (6, 13)
    for x in (0, 5, 12):
        assert mat[3, x] == pytest.approx(_normalized(3, float(x), p), rel=1e-13)


def test_recurrence_coefficients_positive_and_bounded():
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, 30)
        for n in range(1, 30):
            A, C = recurrence_coefficients(n, p)
            assert A > 0
            assert C > 0
    with pytest.raises(DegreeOutOfRangeError):
        recurrence_coefficients(0, HahnParams(0.0, 0.0, 30))
    with pytest.raises(DegreeOutOfRangeError):
        recurrence_coefficients(30, HahnParams(0.0, 0.0, 30))


def test_recurrence_identity_against_oracle_values():
    # -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1} with exact Q values
    N = 8
    p = HahnParams(0.5, 0.5, N)
    half = Fraction(1, 2)
    for x in range(N + 1):
        q = [float(exact_hahn_eval(n, x, half, half, N)) for n in range(N + 1)]
        for n in range(1, N):
            A, C = recurrence_coefficients(n, p)
            lhs = -float(x) * q[n]
            rhs = A * q[n + 1] - (A + C) * q[n] + C * q[n - 1]
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_eigen_data():
    p = HahnParams(0.0, 0.0, 30)
    hb = basis(p)
    assert hb.lam[0] == 0.0
    assert hb.lam[2] == 6.0  # 2 * (2 + 1)
    assert hb.d[0] == 0.0         # left closure
    assert hb.b[30] == 0.0        # right factor vanishes at x = N
    assert hb.b[0] == pytest.approx(-30.0)
    # one eigenvalue per degree 0..N, none past it
    assert hb.lam.shape == hb.b.shape == hb.d.shape == (31,)


def test_eigenvalues_increasing():
    p = HahnParams(0.5, 0.5, 30)
    lams = basis(p).lam.tolist()
    assert all(b > a for a, b in zip(lams, lams[1:]))


# the operator data as the scalar formulas of the closures they replaced
def _lam(n, a, b):
    return n * (n + a + b + 1.0)


def _b(x, a, N):
    return (x + a + 1.0) * (x - N)


def _d(x, b, N):
    return x * (x - b - N - 1.0)


@pytest.mark.parametrize("N", [1, 2, 3, 12, 30, 100, 200])
def test_basis_operator_data_equals_scalar_formulas(N):
    families = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0), (20.0, 20.0),
                (-0.9, -0.9), (0.3, 7.25)]
    bits = lambda v: np.asarray(v, dtype=float).view(np.int64)  # noqa: E731
    for alpha, beta in families:
        p = HahnParams(alpha, beta, N)
        hb = basis(p)
        assert hb.lam is basis(p).lam
        for arr in (hb.lam, hb.b, hb.d):
            assert not arr.flags.writeable
        lam = [_lam(n, alpha, beta) for n in range(N + 1)]
        assert np.array_equal(bits(hb.lam), bits(lam)), (alpha, beta)
        assert np.array_equal(bits(hb.b), bits([_b(float(x), alpha, N) for x in range(N + 1)]))
        assert np.array_equal(bits(hb.d), bits([_d(float(x), beta, N) for x in range(N + 1)]))
        # powers as decay_report takes them, of Python floats: numpy's array
        # power can round lam**3 differently from Python's
        for k in range(4):
            got = [v**k for v in hb.lam.tolist()]
            assert np.array_equal(bits(got), bits([v**k for v in lam])), k

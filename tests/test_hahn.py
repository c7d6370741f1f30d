"""Hahn evaluation routes against the exact oracle, closed-form norms,
weights, the operator's eigenvalues and coefficients, and the parameter
type itself."""

import math
import struct
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly import hahn
from hahnpoly.errors import DegenerateRecurrenceError, DegreeOutOfRangeError, DomainError
from hahnpoly.expansion import GridFunction, decay_report, project
from hahnpoly.hahn import (
    HahnBasis,
    HahnParams,
    basis,
    hahn_eval_all,
    hahn_eval_recurrence,
    hahn_eval_series,
    norm_sq_closed,
    normalized_grid_matrix,
    weight_table,
)
from hahnpoly.oracle_exact import (
    _exact_ratios,
    _over_one_denominator,
    _steps,
    exact_hahn_eval,
    exact_norm_sq,
    exact_norms_sq,
    exact_weight,
)

PARAM_SETS = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (1.25, 0.75)]
FRACTIONS = {0.0: Fraction(0), 0.5: Fraction(1, 2), 5.0: Fraction(5),
             1.25: Fraction(5, 4), 0.75: Fraction(3, 4)}


def test_params_validation():
    # each message names the CLI field, which reports it verbatim
    with pytest.raises(DomainError, match=r"^alpha must be finite and greater than -1, got -1\.0$"):
        HahnParams(-1.0, 0.0, 10)
    with pytest.raises(DomainError, match=r"^beta must be finite and greater than -1, got -2\.0$"):
        HahnParams(0.0, -2.0, 10)
    with pytest.raises(DomainError, match=r"^N must be in 1\.\.200, got 0$"):
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


GRID_ARRAY_N = hahn._GRID_ARRAY_N
BENCHMARK_FAMILIES = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)]


def _fresh_grid(p):
    # the cached grid built anew, with warnings as errors
    basis.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return basis(p).grid


def _dd_point_loop(p):
    # one scalar dd sweep per grid point over the norms
    loop = np.array([hahn_eval_all(p.N, float(x), p) for x in range(p.N + 1)]).T
    return loop / basis(p).sqrt_norms[:, None]


def _exact_u(p, xs):
    # exact U[n, x] = Q~_n(x) sqrt(w(x)) at the points xs, each rounded once
    cols, h, ws = _exact_ratios(p.alpha, p.beta, p.N, xs)
    u = [[math.sqrt(q * q * wn * hd / (r * r * wd * hn)) * (-1.0 if q < 0 else 1.0)
          for (q, r), (hn, hd) in zip(col, h)] for col, (wn, wd) in zip(cols, ws)]
    return np.array(u).T


def _sampled(N):
    return sorted({0, 1, N // 3, N // 2, N - 1, N})


@pytest.mark.parametrize("N", [GRID_ARRAY_N - 1, GRID_ARRAY_N, 100, 200])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0),
                                        (0.0, 1e3)])
def test_grid_build_equals_point_loop(N, alpha, beta):
    # below the crossover the grid is one dd sweep per point, to the bit;
    # from it on every column is its own eigenvector solve, and agrees in U
    # units with the exact column at that point to 1e-13.  Either way the
    # build raises no warning and the matrix is read-only
    p = HahnParams(alpha, beta, N)
    got = _fresh_grid(p)
    assert got.shape == (N + 1, N + 1) and not got.flags.writeable
    if N < GRID_ARRAY_N:
        want = _dd_point_loop(p)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    else:
        xs = _sampled(N)
        u = got[:, xs] * np.sqrt(basis(p).weights[xs])
        assert np.max(np.abs(u - _exact_u(p, xs))) <= 1e-13


@pytest.mark.parametrize("N,shapes", [(GRID_ARRAY_N - 1, [()] * GRID_ARRAY_N),
                                      (GRID_ARRAY_N, [])])
def test_grid_build_switches_batching_at_the_constant(monkeypatch, N, shapes):
    # one scalar sweep per grid point just below the constant; from it on
    # no sweep at all, and one twisted build
    seen, twisted = [], []
    sweep, build = hahn.hahn_eval_all, hahn._twisted_grid

    def counted(m, x, params):
        seen.append(np.shape(x))
        return sweep(m, x, params)

    def counted_build(params, weights):
        twisted.append(params)
        return build(params, weights)

    monkeypatch.setattr(hahn, "hahn_eval_all", counted)
    monkeypatch.setattr(hahn, "_twisted_grid", counted_build)
    basis.cache_clear()
    p = HahnParams(0.5, 0.5, N)
    basis(p).grid
    assert seen == shapes
    assert twisted == ([] if N < GRID_ARRAY_N else [p])


def test_grid_build_overflow_is_silent():
    # (0, 10^6.5) at N = 60, where a dd sweep overflows to NaN at the top
    # degrees near x = N: the twisted build stays in range, every entry is
    # finite, it raises no warning, and U agrees with the exact columns
    p = HahnParams(0.0, 10**6.5, 60)
    got = _fresh_grid(p)
    assert np.isfinite(got).all()
    xs = _sampled(60)
    u = got[:, xs] * np.sqrt(basis(p).weights[xs])
    assert np.max(np.abs(u - _exact_u(p, xs))) <= 1e-13


# tolerance stated before measuring: 1e-13 in U units, about 100 eps,
# against every exact column; the twisted build's error bound is a few
# eps ||J|| / gap with gap 1, and rows rounded once
@pytest.mark.parametrize("alpha,beta,N", [(0.0, 0.0, 200), (5.0, 0.0, 200), (20.0, 20.0, 200),
                                          (1e6, 0.0, 60)])
def test_twisted_grid_against_exact_columns(alpha, beta, N):
    p = HahnParams(alpha, beta, N)
    u = basis(p).grid * np.sqrt(basis(p).weights)
    assert np.max(np.abs(u - _exact_u(p, list(range(N + 1))))) <= 1e-13


@pytest.mark.parametrize("alpha,beta", BENCHMARK_FAMILIES + [(20.0, 20.0), (0.0, 1e3)])
def test_twisted_grid_reflection(alpha, beta):
    # w_(a,b)(N - x) = w_(b,a)(x), so U(b,a)[n, N-x] = (-1)^n U(a,b)[n, x]
    # at N = 100, to 1e-13, with no reference; a planted 1e-9 breaks it
    u_ab, u_ba = (basis(HahnParams(a, b, 100)).grid * np.sqrt(basis(HahnParams(a, b, 100)).weights)
                  for a, b in ((alpha, beta), (beta, alpha)))
    assert _mirror_defect(u_ab, u_ba) <= 1e-13
    u_ab[17, 4] += 1e-9
    assert not _mirror_defect(u_ab, u_ba) <= 1e-13


def test_twisted_sign_where_row_0_underflows():
    # (3, 1e12) at N = 100: rho = w / h_0 underflows near x = N, so U[0, x]
    # is 0 there, yet each column keeps its sign, from the upward ratios;
    # with unit weights the build returns U itself
    p = HahnParams(3.0, 1e12, 100)
    xs = [97, 98, 99, 100]
    u = hahn._twisted_grid(p, np.ones(101))[:, xs]
    assert u[0].tolist() == [0.0] * 4
    assert np.max(np.abs(u - _exact_u(p, xs))) <= 1e-13


@pytest.mark.parametrize("N", [1, 2, 30, 200])
def test_jacobi_rows_equal_exact_steps_rounded_once(N):
    # d_n = (A_n + C_n) and p_n = A_n C_(n+1) are the oracle's integer rows,
    # each rounded once; p_N = 0 closes the matrix
    for alpha, beta in NORM_FAMILIES + [(1e6, 0.0), (-0.999, 1e12)]:
        d, prod = hahn._jacobi_rows(HahnParams(alpha, beta, N))
        (a, b), D = _over_one_denominator(alpha, beta)
        rows = _steps(a, b, D, N)
        assert d.tolist() == [float(Fraction(sig, e * D)) for _, sig, _, e in rows]
        assert prod.tolist() == [float(Fraction(al * ga, e0 * e1 * D * D))
                                 for (al, _, _, e0), (_, _, ga, e1) in zip(rows, rows[1:])] + [0.0]


def test_jacobi_rows_name_a_non_finite_row(monkeypatch):
    monkeypatch.setattr(dd, "_quotient", lambda num, den: math.inf)
    with pytest.raises(DegenerateRecurrenceError,
                       match=r"^Jacobi row at n=0 is not finite in double precision$"):
        hahn._jacobi_rows(HahnParams(0.0, 0.0, 12))


@pytest.mark.parametrize("N", [30, GRID_ARRAY_N - 1])
@pytest.mark.parametrize("alpha,beta", BENCHMARK_FAMILIES)
def test_twisted_build_agrees_with_dd_below_the_constant(N, alpha, beta):
    # below the constant the grid stays the dd point loop; the twisted
    # build called there agrees with it to 1e-14 in U units
    p = HahnParams(alpha, beta, N)
    sqrt_w = np.sqrt(basis(p).weights)
    twisted = hahn._twisted_grid(p, basis(p).weights) * sqrt_w
    assert np.max(np.abs(twisted - basis(p).grid * sqrt_w)) <= 1e-14


def test_recurrence_scalar_returns_float():
    p = HahnParams(0.5, 0.5, 20)
    assert type(hahn_eval_recurrence(7, 3.5, p)) is float
    assert type(hahn_eval_series(np.int64(7), np.float64(3.5), p)) is float
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


def _u_units(alpha, beta):
    hb = basis(HahnParams(alpha, beta, 30))
    return hb.grid * np.sqrt(hb.weights)


def _mirror_defect(u_ab, u_ba):
    # largest |U_(a,b)[n, N-x] - (-1)^n U_(b,a)[n, x]|
    signs = np.array([(-1.0) ** n for n in range(len(u_ab))])
    return np.max(np.abs(u_ab[:, ::-1] - signs[:, None] * u_ba))


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (-0.5, 3.0),
                                        (20.0, 20.0), (-0.9, -0.9), (-0.9, 20.0)])
def test_mirror_swaps_exponents(alpha, beta):
    # w_(a,b)(N - x) = w_(b,a)(x), so the orthonormal values in U units,
    # U = Q~ sqrt(w), mirror with a sign: no reference is needed
    u_ab, u_ba = _u_units(alpha, beta), _u_units(beta, alpha)
    assert _mirror_defect(u_ab, u_ba) < 1e-12
    u_ab[17, 4] += 1e-9
    assert not _mirror_defect(u_ab, u_ba) < 1e-12


def test_degree_out_of_range():
    p = HahnParams(0.0, 0.0, 10)
    for bad in (11, -1):
        with pytest.raises(DegreeOutOfRangeError):
            hahn_eval_series(bad, 0.0, p)
    with pytest.raises(DegreeOutOfRangeError):
        hahn_eval_recurrence(11, 0.0, p)
    with pytest.raises(DegreeOutOfRangeError):
        norm_sq_closed(11, p)
    for bad in (11, -1):
        with pytest.raises(DegreeOutOfRangeError):
            norm_sq_closed(np.array([0, bad, 10]), p)



@pytest.mark.parametrize("call", [
    lambda p: hahn_eval_all(2.5, 0.0, p),
    lambda p: hahn_eval_recurrence(2.5, 0.5, p),
    lambda p: hahn_eval_series(2.5, 0.5, p),
    lambda p: normalized_grid_matrix(2.5, p),
    lambda p: project(GridFunction(p, np.ones(p.N + 1)), 2.5),
    lambda p: norm_sq_closed(2.5, p),
    lambda p: norm_sq_closed(np.array([1.0, 2.0]), p),
    lambda p: decay_report(GridFunction(p, np.ones(p.N + 1)), 1, [3, 2.5]),
], ids=["eval_all", "recurrence", "series", "grid_matrix", "project", "norm", "norm_array",
        "decay_report"])
def test_non_integer_degree_is_refused(call):
    # a degree is an integer in the sense of operator.index: a float,
    # even an integral one, is refused with the package's own error
    with pytest.raises(DegreeOutOfRangeError, match="not an integer"):
        call(HahnParams(0.0, 0.0, 10))


def test_numpy_integer_degrees_are_accepted():
    p = HahnParams(0.5, 0.5, 10)
    assert norm_sq_closed(np.int64(3), p) == norm_sq_closed(3, p)
    assert np.array_equal(norm_sq_closed(np.array([1, 3]), p),
                          [norm_sq_closed(1, p), norm_sq_closed(3, p)])
    assert np.array_equal(hahn_eval_all(np.int64(3), 0.5, p), hahn_eval_all(3, 0.5, p))

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
        assert w[x] == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha,beta", PARAM_SETS)
def test_norm_closed_matches_oracle(alpha, beta):
    N = 10
    p = HahnParams(alpha, beta, N)
    fa, fb = FRACTIONS[alpha], FRACTIONS[beta]
    for n in range(N + 1):
        exact = float(exact_norm_sq(n, fa, fb, N))
        assert norm_sq_closed(n, p) == pytest.approx(exact, rel=1e-12, abs=0)


NORM_FAMILIES = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (-0.5, 3.0), (-0.5, -0.5),
                 (-0.3, -0.7), (0.1, 0.3), (-0.9, -0.9), (20.0, 20.0), (1e5, 1e-3),
                 (1e6, 0.5)]


def _rounded(value: Fraction) -> float:
    # the double nearest the exact value; past the double range, inf
    try:
        return float(value)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("N", [1, 2, 3, 30, 100, 200])
def test_norm_sq_closed_equals_oracle_bit_for_bit(N):
    # every norm is the exact rational rounded once, and a norm past the
    # double range is inf, with no exception and no warning
    # (-0.3, -0.7) has alpha + beta = -1, where h_1/h_0 is 0/0 uncancelled
    for alpha, beta in NORM_FAMILIES:
        p = HahnParams(alpha, beta, N)
        want = np.array([_rounded(h) for h in exact_norms_sq(alpha, beta, N)])
        table = norm_sq_closed(np.arange(N + 1), p)
        assert table.shape == (N + 1,)
        assert np.array_equal(table.view(np.int64), want.view(np.int64)), (alpha, beta)
        if (alpha, beta, N) == (1e6, 0.5, 200):
            assert np.isfinite(table).sum() == 96
        # scalar and column calls give the same bits in their own shapes
        degrees = sorted({0, 1, min(2, N), N // 2, N - 1, N})
        scalars = [norm_sq_closed(n, p) for n in degrees]
        assert all(type(h) is float for h in scalars)
        assert np.array_equal(np.array(scalars).view(np.int64), want[degrees].view(np.int64))
        block = norm_sq_closed(np.array(degrees[::-1]).reshape(-1, 1), p)
        assert block.shape == (len(degrees), 1)
        assert np.array_equal(block[::-1, 0].view(np.int64), want[degrees].view(np.int64))
        assert norm_sq_closed(np.array([], dtype=int), p).shape == (0,)


def test_sqrt_norms_once_per_family():
    # one read-only table of all N + 1 norms; callers slice the prefix
    p = HahnParams(-0.5, 3.0, 40)
    norms = basis(p).sqrt_norms
    assert norms is basis(p).sqrt_norms
    assert not norms.flags.writeable
    assert norms.tolist() == [math.sqrt(norm_sq_closed(n, p)) for n in range(41)]


def test_step_coefficients_once_per_family():
    # one tuple of all N - 1 step rows (A, A_lo, A's split, A + C, its lo,
    # C, C_lo, C's split); a degree-m sweep reads a prefix of it, so a
    # low-degree sweep is a prefix of the full one
    from hahnpoly._compensated import dd_add

    p = HahnParams(-0.5, 3.0, 40)
    steps = basis(p).steps
    assert steps is basis(p).steps
    assert len(steps) == 39
    # the exact A_n = al/(e D) and C_n = ga/(e D) of the oracle's integer rows
    (a, b), D = _over_one_denominator(p.alpha, p.beta)
    exact = _steps(a, b, D, p.N)
    for n, row in enumerate(steps, start=1):
        A, AC, C = row[0:2], row[4:6], row[6:8]
        al, _, ga, e = exact[n]
        assert AC == dd_add(A, C)
        assert A[0] == pytest.approx(float(Fraction(al, e * D)), rel=1e-15, abs=0)
        assert C[0] == pytest.approx(float(Fraction(ga, e * D)), rel=1e-15, abs=0)
    xs = np.array([-1.0, 0.0, 12.5, 40.0, 41.0])
    full = hahn_eval_all(40, xs, p)
    for m in (0, 1, 2, 17, 39):
        assert np.array_equal(hahn_eval_all(m, xs, p), full[: m + 1])


def _split(v):
    # Dekker's split, written out
    t = 134217729.0 * v
    hi = t - (t - v)
    return hi, v - hi


def _steps_scalar(a, b, N):
    # reference for HahnBasis.steps: the same dd operations one j at a time
    ab = dd.two_sum(a, b)
    out = []
    for j in range(1, N):
        f1 = dd.dd_add(ab, dd.dd_from(j + 1.0))
        f2 = dd.two_sum(a, j + 1.0)
        num = dd.dd_mul_d(dd.dd_mul(f1, f2), float(N - j))
        g1 = dd.dd_add(ab, dd.dd_from(2.0 * j + 1.0))
        g2 = dd.dd_add(ab, dd.dd_from(2.0 * j + 2.0))
        A = dd.dd_div(num, dd.dd_mul(g1, g2))
        h1 = dd.dd_add(ab, dd.dd_from(j + N + 1.0))
        h2 = dd.two_sum(b, float(j))
        num = dd.dd_mul_d(dd.dd_mul(h1, h2), float(j))
        g0 = dd.dd_add(ab, dd.dd_from(2.0 * j))
        C = dd.dd_div(num, dd.dd_mul(g0, g1))
        row = (*A, *_split(A[0]), *dd.dd_add(A, C), *C, *_split(C[0]))
        if A[0] == 0.0:
            raise DegenerateRecurrenceError(f"vanishing step coefficient at n={j}")
        if not all(map(math.isfinite, row)):
            raise DegenerateRecurrenceError(
                f"step coefficient at n={j} is not finite in double precision")
        out.append(row)
    return tuple(out)


def _packed(steps):
    # float64 bytes of every entry
    return b"".join(struct.pack("<d", v) for row in steps for v in row)


@pytest.mark.parametrize("N", [1, 2, 3, 30, 200])
def test_steps_equal_scalar_build(N):
    # the array build, its splits included, has the bits of a build one j
    # at a time, without a warning
    for alpha, beta in NORM_FAMILIES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = _steps_scalar(alpha, beta, N)
            got = HahnBasis(HahnParams(alpha, beta, N)).steps
        assert len(got) == max(N - 1, 0)
        assert all(len(row) == 10 for row in got)
        assert all(type(v) is float for row in got for v in row)
        assert _packed(got) == _packed(want), (alpha, beta)
    # (1e305, 0.5) overflows every step coefficient: the first row is
    # refused, still without a warning; at N = 1 there is no row
    fam = HahnParams(1e305, 0.5, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if N == 1:
            assert HahnBasis(fam).steps == () == _steps_scalar(1e305, 0.5, N)
        else:
            for build in (lambda: _steps_scalar(1e305, 0.5, N), lambda: HahnBasis(fam).steps):
                with pytest.raises(DegenerateRecurrenceError,
                                   match=r"^step coefficient at n=1 is not finite in double precision$"):
                    build()


@pytest.mark.parametrize("N", [1, 2, 30, 200])
def test_series_rows_against_exact_steps(N):
    # a_n = (A_n + C_n) / A_n, r_n = 1 / A_n and g_n = C_n / A_n in dd, row 0
    # the Q_1 closed form, against the exact integer rows; the splits are
    # those of the high parts, and the build raises no warning
    for alpha, beta in NORM_FAMILIES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = HahnBasis(HahnParams(alpha, beta, N)).series
        (a, b), D = _over_one_denominator(alpha, beta)
        assert len(rows) == N
        assert rows[0][0:2] == (1.0, 0.0) and rows[0][6:10] == (0.0, 0.0, 0.0, 0.0)
        for row, (al, sig, ga, e) in zip(rows, _steps(a, b, D, N)):
            assert all(type(v) is float for v in row)
            for (hi, lo), exact in [(row[0:2], Fraction(sig, al)),
                                    (row[2:4], Fraction(e * D, al)),
                                    (row[6:8], Fraction(ga, al))]:
                assert hi + lo == hi
                assert abs(Fraction(hi) + Fraction(lo) - exact) <= 2.0**-100 * abs(exact)
            assert row[4:6] == _split(row[2]) and row[8:10] == _split(row[6])
    with pytest.raises(DegenerateRecurrenceError, match="n=1"):
        HahnBasis(HahnParams(1e305, 0.5, 200)).series


def test_q1_closed_form_past_the_split_range():
    # the dd closed form of Q_1 splits factors near 1e305 scaled, so
    # Q_1(0) = 1 exactly, as it is for every family
    assert hahn_eval_all(1, 0.0, HahnParams(1e305, 0.5, 200)).tolist() == [1.0, 1.0]


def test_steps_name_vanishing_coefficient():
    # outside the family domain A_n vanishes where j + alpha + 1 = 0, and
    # the check on the built list names that n
    for alpha, beta, n in [(-3.0, 0.5, 2), (-5.0, 0.5, 4)]:
        fake = SimpleNamespace(alpha=alpha, beta=beta, N=8)
        with pytest.raises(DegenerateRecurrenceError, match=f"^vanishing step coefficient at n={n}$"):
            _steps_scalar(alpha, beta, 8)
        with pytest.raises(DegenerateRecurrenceError, match=f"^vanishing step coefficient at n={n}$"):
            HahnBasis(fake).steps


def test_refused_weights_come_before_sweeps_and_norms():
    # project reads the grid, which reads the weights first: a family they
    # refuse builds neither the sweeps nor the exact norm products
    p = HahnParams(1e305, 0.5, 200)
    u = GridFunction(p, np.ones(201))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^weight w\(2\) is not finite"):
            project(u, 200)
    assert {"grid", "sqrt_norms", "steps"}.isdisjoint(vars(basis(p)))


def test_norm_flat_weight_degree_zero():
    # ||Q_0||^2 = sum of the flat weight = N + 1
    p = HahnParams(0.0, 0.0, 30)
    assert norm_sq_closed(0, p) == pytest.approx(31.0, rel=1e-12, abs=0)


def _normalized(n, x, p):
    return hahn_eval_recurrence(n, x, p) / math.sqrt(norm_sq_closed(n, p))


def test_normalized_degree_zero():
    p = HahnParams(0.0, 0.0, 30)
    want = pytest.approx(1.0 / math.sqrt(31.0), rel=1e-12, abs=0)
    assert _normalized(0, 17.0, p) == want
    assert normalized_grid_matrix(0, p)[0, 17] == want


def test_normalized_matrix_shape_and_rows():
    p = HahnParams(0.5, 0.5, 12)
    mat = normalized_grid_matrix(5, p)
    assert mat.shape == (6, 13)
    for x in (0, 5, 12):
        assert mat[3, x] == pytest.approx(_normalized(3, float(x), p), rel=1e-13, abs=0)


def test_recurrence_coefficients_positive_and_bounded():
    for alpha, beta in PARAM_SETS:
        steps = basis(HahnParams(alpha, beta, 30)).steps
        assert len(steps) == 29
        for row in steps:
            assert row[0] > 0
            assert row[6] > 0


def test_recurrence_identity_against_oracle_values():
    # -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1} with exact Q values
    N = 8
    p = HahnParams(0.5, 0.5, N)
    half = Fraction(1, 2)
    for x in range(N + 1):
        q = [float(exact_hahn_eval(n, x, half, half, N)) for n in range(N + 1)]
        # the hi parts of the dd steps A_n and C_n
        for n, row in enumerate(basis(p).steps, start=1):
            A, C = row[0], row[6]
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

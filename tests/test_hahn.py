"""Hahn evaluation routes against the exact oracle, closed-form norms,
weights, the operator's eigenvalues and coefficients, and the parameter
type itself."""

import contextlib
import hashlib
import math
import struct
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from hahnpoly import _compensated as dd
from hahnpoly import checks, cli, hahn
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
from hahnpoly.oracle_exact import exact_hahn_eval, exact_norm_sq, exact_norms_sq, exact_weight
from hahnpoly.oracle_ratios import _exact_ratios, _over_one_denominator, _steps

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


@pytest.mark.parametrize("N", [GRID_ARRAY_N - 1, GRID_ARRAY_N, 41, 42, 100, 200])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0),
                                        (0.0, 1e3)])
def test_grid_build_equals_point_loop(N, alpha, beta):
    # below the crossover the grid is one dd sweep per point, to the bit;
    # from it on (41 and 42 are either side of where it was) every column
    # is its own eigenvector solve, and agrees in U units with the exact
    # column at that point to 1e-13.  Either way the build raises no
    # warning and the matrix is read-only
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


@pytest.mark.parametrize("N,shapes", [(41, []), (42, []), (GRID_ARRAY_N - 1, [()] * GRID_ARRAY_N),
                                      (GRID_ARRAY_N, [])])
def test_grid_build_switches_batching_at_the_constant(monkeypatch, N, shapes):
    # one scalar sweep per grid point just below the constant; from it on
    # no sweep at all, and one twisted build, also either side of 42, where
    # the constant was
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


TWISTED_LATTICE = [-0.999, -0.5, 0.0, 3.0, 50.0, 1e3, 1e6]


# tolerance stated before measuring: 1e-14 in U units, the bound the
# twisted build must meet below the crossover to serve every N, on the
# lattice where the per-point grid prints wrong coefficients.  The grid
# takes it from hahn._GRID_ARRAY_N = 13, so N = 30 and 41 here are sizes it
# already serves, and N <= 12 the sizes it would take over
@pytest.mark.parametrize("N", [1, 2, 5, 6, 12, 30, 41])
def test_twisted_grid_below_the_crossover(N):
    # the twisted build, with unit weights so that it returns U itself,
    # against every exact column of every lattice family
    for alpha in TWISTED_LATTICE:
        for beta in TWISTED_LATTICE:
            p = HahnParams(alpha, beta, N)
            u = hahn._twisted_grid(p, np.ones(N + 1))
            assert np.max(np.abs(u - _exact_u(p, list(range(N + 1))))) <= 1e-14, (alpha, beta)


def test_twisted_sign_where_row_0_underflows():
    # (3, 1e12) at N = 100: rho = w / h_0 underflows near x = N, so U[0, x]
    # is 0 there, yet each column keeps its sign, from the upward ratios;
    # with unit weights the build returns U itself
    p = HahnParams(3.0, 1e12, 100)
    xs = [97, 98, 99, 100]
    u = hahn._twisted_grid(p, np.ones(101))[:, xs]
    assert u[0].tolist() == [0.0] * 4
    assert np.max(np.abs(u - _exact_u(p, xs))) <= 1e-13


# sha256 of _twisted_grid(p, w).tobytes() over the families
# PINNED_EXPONENTS^2, alpha outer, recorded on the row-loop build at commit
# a906586 that the whole-matrix build replaced; unit weights where the
# weights are refused
PINNED_EXPONENTS = [-0.999, 0.0, 0.5, 3.0, 1e3, 1e6, 1e12]
PINNED_DIGESTS = {
    1: "c3767b79481280c685830457b158985041775abf8df8e42f774c8ec9cd514c59",
    2: "28a4b18d104f58ebd46e7fa20d42e6003c1b9d2b0bfba1959c26535437b3fa4c",
    30: "6af747ce2290cbe349244cbc0c5804ecb5a86aea79f282c74ee09db1763c915b",
    41: "ef075a84830ff5ac05103b4f591e0a599fd47cef3f12067faef99624f4bb6c7c",
    42: "28af4ea9ee0201aeca2df118651f80fac21adfe18a1855cc4adefd7f72947f2f",
    100: "7d9e8eaf75026dec360ed2c0e37659eb9ba20e6e40bfeddad05a42d1bded06ef",
    200: "598bd880d6d1593667100db81ee510453efec0af1dce2a09f7dd09ed153068ca",
}


@pytest.mark.parametrize("N", sorted(PINNED_DIGESTS))
def test_twisted_grid_bits_are_pinned(N):
    digest = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in PINNED_EXPONENTS:
            for beta in PINNED_EXPONENTS:
                p = HahnParams(alpha, beta, N)
                try:
                    w = weight_table(p)
                except DomainError:
                    w = np.ones(N + 1)
                digest.update(hahn._twisted_grid(p, w).tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[N]


def _reference_twisted_column(d, p, x, tiny):
    # column x of _twisted_grid before the weights, one recurrence of its
    # own in Python floats: both pivot loops guarded at every step, the
    # twist by a first-minimum scan, the ratios multiplied outwards from
    # v_k = 1 and the norm summed in row order; also returns how many
    # pivots the guard replaced
    N = len(d) - 1
    zeros = 0
    minus = [0.0] * (N + 1)
    piv = d[N] - x
    for n in range(N, 0, -1):
        if piv == 0.0:
            piv, zeros = tiny, zeros + 1
        minus[n] = piv
        piv = (d[n - 1] - x) - p[n - 1] / piv
    minus[0] = piv
    plus = []
    for n in range(N + 1):
        piv = (d[n] - x) - p[n - 1] / piv if n else d[0] - x
        if piv == 0.0:
            piv, zeros = tiny, zeros + 1
        plus.append(piv)
    best, k = math.inf, 0
    for n in range(N + 1):
        gamma = abs(plus[n] + minus[n] - (d[n] - x))
        if gamma < best:
            best, k = gamma, n
    u = [1.0] * (N + 1)
    cur = 1.0
    for n in range(k + 1, N + 1):
        cur = cur * (math.sqrt(p[n - 1]) / minus[n])
        u[n] = cur
    cur = 1.0
    for n in range(k - 1, -1, -1):
        cur = cur * (math.sqrt(p[n]) / plus[n])
        u[n] = cur
    norm_sq = 0.0
    for value in u:
        norm_sq += value * value
    sign = -1.0 if sum(piv < 0.0 for piv in plus[:k]) % 2 else 1.0
    return [value * (sign / math.sqrt(norm_sq)) for value in u], zeros


@pytest.mark.parametrize("N", [1, 2, 12, 42])
def test_twisted_grid_equals_a_guarded_column_loop(N):
    # the unguarded pivot loops, the re-run of each column that meets an
    # exact-zero pivot and the blocked twist search give the bits of a
    # plain guarded loop per column, over PINNED_EXPONENTS^2; some cell
    # meets a zero pivot, so the re-run runs here
    tiny = float(np.finfo(float).eps * N)
    replaced = 0
    for alpha in PINNED_EXPONENTS:
        for beta in PINNED_EXPONENTS:
            p = HahnParams(alpha, beta, N)
            d, prod = (row.tolist() for row in hahn._jacobi_rows(p))
            got = hahn._twisted_grid(p, np.ones(N + 1))
            for x in range(N + 1):
                want, zeros = _reference_twisted_column(d, prod, float(x), tiny)
                replaced += zeros
                want = np.array(want).view(np.int64)
                assert got[:, x].view(np.int64).tolist() == want.tolist(), (alpha, beta, x)
    assert replaced >= 1


@pytest.mark.parametrize("d,prod", [((1.0, 2.0), (2.0, 0.0)),
                                    ((1.0, 2.0, 3.0), (2.0, 2.0, 0.0)),
                                    ((1.0, 1.0, 2.0), (2.0**-51, 2.0, 0.0))])
def test_twisted_grid_at_hand_made_jacobi_rows(monkeypatch, d, prod):
    # rows whose pivots are exactly 0 at D-_0, D+_0 and D+_N, which no
    # pinned family reaches: the guard replaces the last two and leaves
    # D-_0, which divides nothing, as the guarded column loop does; in the
    # last rows column 0 meets D-_1 = 0, whose replacement eps N = 2^-51
    # makes D-_0 = 1 - 2^-51 / 2^-51 = 0 in a re-run column
    N = len(d) - 1
    monkeypatch.setattr(hahn, "_jacobi_rows", lambda params: (np.array(d), np.array(prod)))
    got = hahn._twisted_grid(HahnParams(0.0, 0.0, N), np.ones(N + 1))
    tiny = float(np.finfo(float).eps * N)
    for x in range(N + 1):
        want, _ = _reference_twisted_column(list(d), list(prod), float(x), tiny)
        assert got[:, x].view(np.int64).tolist() == np.array(want).view(np.int64).tolist(), x


def test_twisted_grid_memory_peak():
    # the result, the pivots of one side and small masks: at most 2.5
    # (N+1)^2 doubles traced at N = 200, after a first call fills the caches
    p = HahnParams(0.5, 0.5, 200)
    w = weight_table(p)
    hahn._twisted_grid(p, w)
    tracemalloc.start()
    try:
        hahn._twisted_grid(p, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 201**2 * 8


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


@pytest.mark.parametrize("N", [1, 2, 30, 200])
def test_monic_rows_are_exact_quotients_in_long_double(N):
    # the long double rows of the x87 Clenshaw sweep: d_n, p_n (n < N) and
    # h_0, each the oracle's exact value to within one rounding to long
    # double (the dd quotient rounded once), its double rounding the
    # twisted build's row; the grid build does not build them
    ulp = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
    for alpha, beta in NORM_FAMILIES + [(1e6, 0.0), (-0.999, 1e12)]:
        p = HahnParams(alpha, beta, N)
        b = HahnBasis(p)
        with contextlib.suppress(DomainError):
            b.grid  # a family whose weights are refused has no grid
        assert "monic_rows" not in vars(b)
        h0 = exact_norms_sq(Fraction(alpha), Fraction(beta), N)[0]
        if h0 > sys.float_info.max:
            with pytest.raises(DegenerateRecurrenceError,
                               match=r"^norm of Q_0 is not finite in double precision$"):
                b.monic_rows
            continue
        d, prod, h0_ld = b.monic_rows
        (a, bb), D = _over_one_denominator(alpha, beta)
        rows = _steps(a, bb, D, N)
        exact = ([Fraction(sig, e * D) for _, sig, _, e in rows],
                 [Fraction(al * ga, e0 * e1 * D * D)
                  for (al, _, _, e0), (_, _, ga, e1) in zip(rows, rows[1:])],
                 [h0])
        for got, want in zip((d, prod, [h0_ld]), exact):
            assert len(got) == len(want)
            for v, w in zip(got, want):
                assert abs(Fraction(*v.as_integer_ratio()) - w) <= ulp * w
        assert [float(v) for v in d] == hahn._jacobi_rows(p)[0].tolist()


JACOBI_BOUND_EXPONENTS = [-0.999, -0.5, 0.0, 3.0, 50.0, 1e3, 1e6, 10**6.5, 1e12, 1e305,
                          -1.0 + 2.0**-52]


@pytest.mark.parametrize("N", [1, 2, 30, 200])
def test_jacobi_rows_lie_in_the_spectral_bounds(N):
    # d_n and p_n are the diagonal and the squared off-diagonal of a
    # symmetric matrix with spectrum 0..N, so every family's rows lie in
    # [0, N] and [0, N^2/4] and are finite: `_jacobi_rows` needs no guard
    try:
        for alpha in JACOBI_BOUND_EXPONENTS:
            for beta in JACOBI_BOUND_EXPONENTS:
                d, prod = hahn._jacobi_rows(HahnParams(alpha, beta, N))
                assert len(d) == len(prod) == N + 1
                assert 0.0 <= d.min() and d.max() <= N, (alpha, beta)
                assert 0.0 <= prod.min() and prod.max() <= N * N / 4, (alpha, beta)
    finally:
        basis.cache_clear()


@pytest.mark.parametrize("N", [30, 41, GRID_ARRAY_N - 1])
@pytest.mark.parametrize("alpha,beta", BENCHMARK_FAMILIES)
def test_twisted_build_agrees_with_dd_below_the_constant(N, alpha, beta):
    # on the benchmark families the twisted build agrees with the dd point
    # loop to 1e-14 in U units: just below the constant, where the grid is
    # still that loop, and at N = 30 and 41, where it was until the
    # constant moved from 42 to 13
    p = HahnParams(alpha, beta, N)
    sqrt_w = np.sqrt(basis(p).weights)
    twisted = hahn._twisted_grid(p, basis(p).weights) * sqrt_w
    assert np.max(np.abs(twisted - _dd_point_loop(p) * sqrt_w)) <= 1e-14


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
    # one tuple of all N series rows (a, a_lo, r, r_lo, r's split, g, g_lo,
    # g's split); a degree-m sweep reads a prefix of it, so a low-degree
    # sweep is a prefix of the full one
    p = HahnParams(-0.5, 3.0, 40)
    rows = basis(p).series
    assert rows is basis(p).series
    assert len(rows) == 40
    # a_n = 1 + g_n, each rounded once from its own exact quotient
    for row in rows:
        assert row[0] == pytest.approx(1.0 + row[6], rel=2**-52, abs=0)
    xs = np.array([-1.0, 0.0, 12.5, 40.0, 41.0])
    full = hahn_eval_all(40, xs, p)
    for m in (0, 1, 2, 17, 39, 40):
        assert np.array_equal(hahn_eval_all(m, xs, p), full[: m + 1])


def _split(v):
    # Dekker's split, written out; above 2^996 of v scaled by 2^-28, and the
    # parts scaled back
    s = 2.0**-28 if abs(v) > 2.0**996 else 1.0
    t = 134217729.0 * (v * s)
    hi = t - (t - v * s)
    return hi / s, (v * s - hi) / s


def _rounded_pair(exact):
    # an exact rational as a dd pair: the value rounded once, then the
    # remainder rounded once
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _series_scalar(alpha, beta, N):
    # reference for HahnBasis.series: Koekoek, Lesky & Swarttouw's A_n and
    # C_n in Fractions, one n at a time, each row entry rounded as a pair
    a, b = Fraction(alpha), Fraction(beta)
    out = []
    for n in range(N):
        if n == 0:
            A, C = (a + 1) * N / (a + b + 2), Fraction(0)
        else:
            A = (n + a + b + 1) * (n + a + 1) * (N - n) / ((2 * n + a + b + 1) * (2 * n + a + b + 2))
            C = n * (n + a + b + N + 1) * (n + b) / ((2 * n + a + b) * (2 * n + a + b + 1))
        r, g = _rounded_pair(1 / A), _rounded_pair(C / A)
        out.append((*_rounded_pair((A + C) / A), *r, *_split(r[0]), *g, *_split(g[0])))
    return tuple(out)


def _packed(rows):
    # float64 bytes of every entry
    return b"".join(struct.pack("<d", v) for row in rows for v in row)


@pytest.mark.parametrize("N", [1, 2, 3, 30, 200])
def test_steps_equal_scalar_build(N):
    # the series rows, their splits included, have the bits of a build one
    # n at a time from the recurrence constants in Fractions, and the build
    # raises no warning.  (1e305, 0.5) and (0.5, 1e305) are built too: the
    # old dd factor assembly overflowed their rows from n = 1, the integer
    # quotients do not
    for alpha, beta in NORM_FAMILIES + [(1e305, 0.5), (0.5, 1e305)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = HahnBasis(HahnParams(alpha, beta, N)).series
        assert len(got) == N
        assert all(len(row) == 10 for row in got)
        assert all(type(v) is float and math.isfinite(v) for row in got for v in row)
        assert _packed(got) == _packed(_series_scalar(alpha, beta, N)), (alpha, beta)


@pytest.mark.parametrize("N", [1, 2, 30, 200])
def test_series_rows_against_exact_steps(N):
    # every dd entry of a row is the correctly rounded pair of the oracle's
    # exact a_n = (A_n + C_n) / A_n, r_n = 1 / A_n and g_n = C_n / A_n: the
    # high part the exact value rounded once, the low part the exact
    # remainder rounded once.  Row 0 is the Q_1 closed form, and the splits
    # are those of the high parts
    for alpha, beta in NORM_FAMILIES:
        rows = HahnBasis(HahnParams(alpha, beta, N)).series
        (a, b), D = _over_one_denominator(alpha, beta)
        assert len(rows) == N
        assert rows[0][0:2] == (1.0, 0.0) and rows[0][6:10] == (0.0, 0.0, 0.0, 0.0)
        for row, (al, sig, ga, e) in zip(rows, _steps(a, b, D, N)):
            for pair, exact in [(row[0:2], Fraction(sig, al)),
                                (row[2:4], Fraction(e * D, al)),
                                (row[6:8], Fraction(ga, al))]:
                assert pair == _rounded_pair(exact), (alpha, beta)
            assert row[4:6] == _split(row[2]) and row[8:10] == _split(row[6])


def test_q1_closed_form_past_the_split_range():
    # the dd closed form of Q_1 splits factors near 1e305 scaled, so
    # Q_1(0) = 1 exactly, as it is for every family
    assert hahn_eval_all(1, 0.0, HahnParams(1e305, 0.5, 200)).tolist() == [1.0, 1.0]


def test_steps_name_vanishing_coefficient():
    # a family whose A_0 = (alpha+1) N / (alpha+beta+2) is positive but
    # vanishes in double precision: r_0 = 1 / A_0, an integer quotient,
    # passes the double range, and row 0 is refused as not finite, not
    # divided by a rounded zero
    p = HahnParams(-1.0 + 2.0**-52, 1.7e308, 1)
    A, _, _ = hahn._integer_steps(p)
    assert A[0][0] > 0 and dd._quotient(*A[0]) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateRecurrenceError,
                           match=r"^step coefficient at n=0 is not finite in double precision$"):
            HahnBasis(p).series
        with pytest.raises(DegenerateRecurrenceError, match=r"n=0 is not finite"):
            hahn_eval_all(1, 0.5, p)


def test_refused_weights_come_before_sweeps_and_norms():
    # project reads the grid, which reads the weights first: a family they
    # refuse builds neither the sweeps nor the exact norm products
    p = HahnParams(1e305, 0.5, 200)
    basis.cache_clear()
    u = GridFunction(p, np.ones(201))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^weight w\(2\) is not finite"):
            project(u, 200)
    assert {"grid", "sqrt_norms", "series"}.isdisjoint(vars(basis(p)))


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
    # 0 < A_n, C_n <= N for n = 1..N-1, as A_n + C_n is a diagonal entry of
    # a Jacobi matrix with spectrum 0..N; so r_n = 1 / A_n >= 1 / N and
    # g_n > 0 in the series rows
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, 30)
        A, C, _ = hahn._integer_steps(p)
        assert len(A) == len(C) == 31
        for (an, ad), (cn, cd) in zip(A[1:-1], C[1:-1]):
            assert 0 < Fraction(an, ad) <= 30 and 0 < Fraction(cn, cd) <= 30
        rows = basis(p).series
        assert all(row[2] >= 1.0 / 30.0 and row[6] > 0 for row in rows[1:])


def test_recurrence_identity_against_oracle_values():
    # -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1} with exact Q values
    # and A_n, C_n the integer rows rounded once, n = 0..N-1 (C_0 = 0)
    N = 8
    p = HahnParams(0.5, 0.5, N)
    half = Fraction(1, 2)
    A, C, _ = hahn._integer_steps(p)
    for x in range(N + 1):
        q = [float(exact_hahn_eval(n, x, half, half, N)) for n in range(N + 1)]
        for n in range(N):
            An, Cn = dd._quotient(*A[n]), dd._quotient(*C[n])
            lhs = -float(x) * q[n]
            rhs = An * q[n + 1] - (An + Cn) * q[n] + Cn * (q[n - 1] if n else 0.0)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_integer_steps_run_once_per_family(monkeypatch):
    # every float constant is read from the family's `HahnBasis.steps`: a
    # pointwise projection (nodes, points 1/32 from a node and far ones), a
    # classical one, a decay report and verify on two families compute
    # each family's integer rows once
    calls = Counter()
    steps = hahn._integer_steps

    def counted(params):
        calls[params] += 1
        return steps(params)

    monkeypatch.setattr(hahn, "_integer_steps", counted)
    basis.cache_clear()
    for N in (30, 60):
        family = ["--alpha", "0.5", "--beta", "1.5", "--N", str(N)]
        for args in (["project", "--m", str(N), "--fn", "runge", "--pointwise",
                      "--samples", str(32 * N + 1)],
                     ["project", "--m", "10", "--normalized", "false", "--pointwise"],
                     ["decay", "--m", "10"],
                     ["verify"]):
            res = CliRunner().invoke(cli.main, args + family)
            assert res.exit_code == 0, res.output
    assert calls == {HahnParams(0.5, 1.5, N): 1 for N in (30, 60)}


def _bits(value) -> bytes:
    if isinstance(value, tuple) and isinstance(value[0], np.ndarray):
        return b"".join(np.asarray(v).tobytes() for v in value)
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("row", [0, 1])
def test_a_planted_step_fault_moves_every_constant(row):
    # a relative fault of 1e-6 planted in the integer pair of A_3 (row 0)
    # or C_3 (row 1) of the cached `HahnBasis.steps` moves the series rows,
    # the Jacobi rows, the long double rows, the norms and the value of
    # `three-term-recurrence`: each is read from those rows, none from a
    # copy of its own
    p = HahnParams(0.5, 1.5, 60)

    def constants():
        hb = basis(p)
        return [hb.series, hahn._jacobi_rows(p), hb.monic_rows, hb.sqrt_norms,
                checks.check_recurrence_identity(p).value]

    basis.cache_clear()
    try:
        clean = constants()
        basis.cache_clear()
        steps = hahn._integer_steps(p)
        num, den = steps[row][3]
        steps[row][3] = (num * 1_000_001, den * 1_000_000)
        vars(basis(p))["steps"] = steps
        moved = constants()
    finally:
        basis.cache_clear()
    for got, want in zip(moved, clean):
        assert _bits(got) != _bits(want)
    assert checks.check_recurrence_identity(p).value == clean[-1] < 1e-14


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

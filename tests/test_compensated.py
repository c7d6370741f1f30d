"""The double-double forward sweep against the oracle's exact values off
the grid; the dd Clenshaw sweep against exact sums of the oracle's values;
the scaled split of operands past 2^996, and the one exact-sum rule,
`exact_sum`."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly.discrete_calculus import GridFunction, l_disk_power
from hahnpoly.expansion import project
from hahnpoly.hahn import HahnParams, basis, hahn_eval_all
from hahnpoly.oracle_exact import exact_hahn_column

FAMILIES = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0), (20.0, 20.0)]


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _assert_same(got, want):
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


@pytest.mark.parametrize("N", [1, 2, 30, 100, 200])
@pytest.mark.parametrize("alpha,beta", FAMILIES)
def test_forward_sweep_matches_exact_columns(N, alpha, beta):
    # hahn_eval_all, the dd forward sweep, against the exact Q_n(x) of the
    # oracle at points off [0, N], where the levels grow far past those on
    # the grid (x = -1 and N + 1 are read by the eigen-equation check): a
    # value whose exact value is in the double range is finite and within
    # 1e-14 of it, relative, levels past 1e300 included, where an unscaled
    # Dekker split overflows.  An array of the points gives each point's bits
    p = HahnParams(alpha, beta, N)
    xs = [-1.0, -0.5, N + 0.5, N + 1.0, 2.0 * N, 5.0 * N, 1000.0]
    got = hahn_eval_all(N, np.array(xs), p)
    for j, x in enumerate(xs):
        assert np.array_equal(_bits(got[:, j]), _bits(hahn_eval_all(N, x, p)))
        col = exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N)
        for q, exact in zip(got[:, j].tolist(), col):
            if abs(exact) <= Fraction(sys.float_info.max):
                assert math.isfinite(q), (x, exact)
                assert abs(Fraction(q) - exact) <= Fraction(1e-14) * abs(exact), (x, q)


@pytest.mark.parametrize("N", [1, 2, 30, 200])
@pytest.mark.parametrize("alpha,beta", FAMILIES)
def test_clenshaw_equals_composition(N, alpha, beta):
    # the dd Clenshaw sweep, the composition of the dd primitives, against
    # the exact sums it composes: at every truncation degree, at scalar
    # points off the nodes, one 2^-20 from N and two past the ends among
    # them, hi + lo is within 2 eps S(x) of the exact sum of k_n Q_n(x),
    # with the dd k_n and exact Q_n(x) (oracle_exact), S(x) = sum_n |k_n|
    # max_(j<=n) |Q_j(x)|.  At a node, where the Q_n(x) are the minimal
    # solution of the recurrence, no sweep meets it (eval_expansion reads
    # the grid there).  An array of the same points gives each point's bits
    p = HahnParams(alpha, beta, N)
    rows = basis(p).series
    rng = np.random.default_rng(N)
    ks = [(float(v), float(v) * 2.0**-60) for v in rng.standard_normal(N + 1)]
    degrees = sorted({0, 1, N // 2, N - 1, N})
    xs = [-1.0, 0.5, N / 3.0 + 0.25, N - 2.0**-20, N + 0.5]
    bound = 2 * Fraction(np.finfo(float).eps)
    for x in xs:
        col = exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N)
        exact, scale, top, sums = Fraction(0), Fraction(0), Fraction(0), []
        for (hi, lo), q in zip(ks, col):
            k = Fraction(hi) + Fraction(lo)
            exact += k * q
            top = max(top, abs(q))
            scale += abs(k) * top
            sums.append((exact, scale))
        for m in degrees:
            hi, lo = dd.dd_clenshaw_sweep(rows[:m], ks[: m + 1], x)
            exact, scale = sums[m]
            assert abs(Fraction(hi + lo) - exact) <= bound * scale
    for m in degrees:
        # at m = 0 the sum is k_0, the same scalar for every point
        got = np.broadcast_arrays(*dd.dd_clenshaw_sweep(rows[:m], ks[: m + 1], np.array(xs)), xs)
        want = [dd.dd_clenshaw_sweep(rows[:m], ks[: m + 1], x) for x in xs]
        _assert_same(got[:2], np.array(want).T)


def test_split_past_2_996_is_scaled():
    # below 2^996 every split and product error keeps the plain split's
    # bits; above it, where 134217729 v overflows, the parts are the scaled
    # split's, and they still sum to v with an exact product error
    big = 2.0**996
    small = [0.0, -0.0, 5e-324, 1.0 / 3.0, -7.25, 1e300, math.nextafter(big, 0.0), big,
             -big, math.inf, math.nan]
    for v in small:
        t = 134217729.0 * v
        hi = t - (t - v)
        want = np.array([hi, v - hi]).view(np.int64)
        assert np.array_equal(np.array(dd.split(v)).view(np.int64), want)
        with np.errstate(invalid="ignore"):
            parts = dd.split(np.array([v]))
        assert np.array_equal(np.array(parts).ravel().view(np.int64), want)
    for v in (math.nextafter(big, math.inf), 1e305, -1.7e308, 1e308):
        for parts in (dd.split(v), [float(q[0]) for q in dd.split(np.array([v, 1.0]))]):
            hi, lo = parts
            assert hi + lo == v and Fraction(hi) + Fraction(lo) == Fraction(v)
            assert all(math.ldexp(math.frexp(q)[0], 26).is_integer() for q in (hi, lo))
        p, e = dd.two_prod(v, 1e-10)
        assert Fraction(p) + Fraction(e) == Fraction(v) * Fraction(1e-10)


INF, NAN = math.inf, math.nan


# fsum raises OverflowError on [1e308, 1e308, -1e308] and returns 1e308 on
# [1e308, -1e308, 1e308]; the rule gives 1e308 in every order
@pytest.mark.parametrize("terms,want", [
    *[(list(terms), 1e308) for terms in itertools.permutations([1e308, 1e308, -1e308])],
    ([1e308, 1e308], INF),
    ([-1e308, -1e308], -INF),
    ([INF, -INF], NAN),
    ([1e308, 1e308, INF, -INF], NAN),
    ([1e308, 1e308, -INF], -INF),
    ([NAN, 1.0], NAN),
    ([1e308, 1e308, -1e308, -1e308, 1e-300], 1e-300),
    ([], 0.0),
])
def test_exact_sum_rule_cases(terms, want):
    # fsum returns only on four of the orders, [nan, 1.0] and []; the rule
    # gives the exact sum rounded once, +-inf past the range, NaN for
    # -inf + inf or a NaN term
    got = dd.exact_sum(terms)
    assert math.isnan(got) if math.isnan(want) else _bits(got) == _bits(want)


def _seeded_terms(rng):
    # lists of mixed sizes, subnormals and terms near the double range's
    # end, so that partial sums often overflow
    out = []
    for _ in range(rng.randrange(0, 12)):
        kind = rng.random()
        if kind < 0.3:
            v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-20, 21)
        elif kind < 0.5:
            v = rng.uniform(0.5, 1.0) * sys.float_info.max
        elif kind < 0.6:
            v = rng.randrange(1, 1 << 20) * 5e-324
        elif kind < 0.7:
            v = rng.choice(out) if out else 0.0
        else:
            v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(290, 309)
        out.append(-v if rng.random() < 0.5 else v)
    return out


def test_exact_sum_is_fsum_where_fsum_returns():
    # bit for bit against fsum where it returns; where it overflows, the
    # exact Fraction sum rounded once, the same in every order
    rng = random.Random(20261018)
    returned = 0
    for _ in range(3000):
        terms = _seeded_terms(rng)
        try:
            want = math.fsum(terms)
            returned += 1
        except OverflowError:
            want = dd._quotient(*sum(map(Fraction, terms)).as_integer_ratio())
        assert _bits(dd.exact_sum(terms)) == _bits(want), terms
        rng.shuffle(terms)
        assert _bits(dd.exact_sum(terms)) == _bits(want), terms
    assert returned >= 1000


def _row_sums_by_row(a, b):
    # what every caller did before exact_row_sums: one exact_sum per row
    return np.array([dd.exact_sum((v * b).tolist()) for v in a])


def _assert_row_sums(a, b):
    got, want = dd.exact_row_sums(a, b), _row_sums_by_row(a, b)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])


def _adversarial_rows(rng, n):
    # rows of n terms, enough of them to pass the cut, whose exact sums
    # are hard to round: half-ulp ties, ties broken by a term 2^-57 ulp
    # below, partial sums that cancel to about 1e-17 of max|p|, scales
    # near both ends of the exponent range, subnormal terms, zeros of both
    # signs, and non-finite terms
    out = []
    for kind in range(12):
        for _ in range(max(8, dd._ROW_SUM_CUT // (12 * n) + 1)):
            row = np.zeros(n)
            base = rng.standard_normal(n // 2)
            row[: n // 2] = base
            row[n // 2: n // 2 * 2] = -base
            scale = 2.0 ** int(rng.integers(-60, 60))
            if kind == 0:    # exact ties at the last bit of 1, 1.5 and -3
                row[-3:] = [rng.choice([1.0, 1.5, -3.0]), 2.0**-53, 0.0]
            elif kind == 1:  # a tie broken by a term far below it, either way
                row[-3:] = [1.0, 2.0**-53, rng.choice([-1.0, 1.0]) * 2.0**-110]
            elif kind == 2:  # tau1 + tau2 cancel, the sum is tau3-sized
                row[:] = rng.standard_normal(n)
                row[-1] = -math.fsum(row[:-1])
                row[-2] += rng.standard_normal() * 1e-17
            elif kind == 3:
                row *= 1e300
                scale = 2.0 ** int(rng.integers(-30, 8))
            elif kind == 4:
                row *= 1e-300
                scale = 2.0 ** int(rng.integers(-8, 30))
            elif kind == 5:  # subnormal terms beside normal ones
                row[1 - min(n, 5):] = rng.integers(-1000, 1000, min(n, 5) - 1) * 5e-324
                row[0] = 2.0**-1000
            elif kind == 6:  # all subnormal
                row[:] = rng.integers(-1 << 20, 1 << 20, n) * 5e-324
                scale = 1.0
            elif kind == 7:  # zeros of both signs only
                row[:] = rng.choice([0.0, -0.0], n)
                scale = 1.0
            elif kind == 8:
                row[int(rng.integers(n))] = rng.choice([math.inf, -math.inf, math.nan])
                if rng.random() < 0.5:
                    row[0] = -row[int(rng.integers(1, n))] if row[0] else math.inf
            elif kind == 9:  # fsum overflows: the Fraction route
                row[:3] = [1e308, 1e308, -1e308]
                scale = 1.0
            elif kind == 10:  # ties in a random order, at random scales
                row[-2:] = [1.0, -(2.0**-53)]
                rng.shuffle(row)
            out.append(row * scale)
    return np.array(out)


@pytest.mark.parametrize("n", [3, 7, 40, 201])
def test_exact_row_sums_is_exact_sum_per_row(n):
    # bit for bit against one exact_sum per row, NaN matched, on b of ones
    # (products exact), on powers of two, and on a random b, rows of a
    # permuted too
    rng = np.random.default_rng(n)
    a = _adversarial_rows(rng, n)
    assert a.shape[0] * n > dd._ROW_SUM_CUT
    with np.errstate(all="ignore"):
        for b in (np.ones(n), 2.0 ** rng.integers(-3, 4, n), rng.standard_normal(n)):
            _assert_row_sums(a, b)
            _assert_row_sums(a[rng.permutation(len(a))], b)


@pytest.mark.parametrize("rows", [1, 2, 63, 64, 65, 129])
def test_exact_row_sums_at_block_edges(rows):
    # 63, 64 and 65 rows straddle the first block edge; one and two rows
    # of long b take the array route too
    rng = np.random.default_rng(rows)
    n = dd._ROW_SUM_CUT // rows + 1
    a = rng.standard_normal((rows, n)) * 2.0 ** rng.integers(-40, 40, (rows, 1))
    a[:, -1] = -a[:, :-1].sum(axis=1)
    _assert_row_sums(a, rng.standard_normal(n))


def test_exact_row_sums_around_the_cut():
    # just below the cut each row is one exact_sum; just above it the
    # extraction route gives the same bits, certified on these rows
    rng = np.random.default_rng(7)
    n = 40
    below, above = dd._ROW_SUM_CUT // n, dd._ROW_SUM_CUT // n + 1
    a = rng.standard_normal((above, n))
    b = rng.standard_normal(n)
    for rows in (below, above):
        _assert_row_sums(a[:rows], b)
    parts = np.empty((5, 1, above))
    dd._extract(a * b, parts)
    out = np.empty(above)
    assert dd._certify(parts.reshape(5, -1), n, out).all()


def test_projection_rows_are_certified(monkeypatch):
    # the extraction leaves a sum small enough to round almost every row
    # of a projection: at most 1 in 100 falls back to exact_sum
    for p in (HahnParams(0.5, 0.5, 200), HahnParams(-0.5, 3.0, 100), HahnParams(20.0, 20.0, 200)):
        b = basis(p)
        x = np.linspace(-1.0, 1.0, p.N + 1)
        for u in (1.0 / (1.0 + 25.0 * x * x), np.sin(np.pi * x), x**3):
            parts = np.empty((5, 1, p.N + 1))
            dd._extract(b.grid * (u * b.weights), parts)
            out = np.empty(p.N + 1)
            certified = dd._certify(parts.reshape(5, -1), p.N + 1, out)
            assert certified.sum() >= 0.99 * certified.size
    # so do the projections of u and L^3 u, though their scales differ by
    # about lam_N^3 = 6e13: each vector is its own exact_row_sums call,
    # with its own sigma, once the family's basis holds no rows of either
    seen, certify = [], dd._certify
    monkeypatch.setattr(dd, "_certify", lambda *args: seen.append(certify(*args)) or seen[-1])
    for p in (HahnParams(0.5, 0.5, 200), HahnParams(20.0, 20.0, 200)):
        x = np.linspace(-1.0, 1.0, p.N + 1)
        for u in (1.0 / (1.0 + 25.0 * x * x), np.sin(np.pi * x)):
            basis(p).projections.clear()
            v = GridFunction(p, u)
            project(v, p.N)
            project(l_disk_power(v, 3), p.N)
    assert len(seen) == 8
    for certified in seen:
        assert certified.size == 201
        assert certified.sum() >= 0.99 * certified.size

"""The fused double-double sweeps against the compositions of dd
primitives they replace, compared bit for bit on the recurrence's own
values, the scaled split of operands past 2^996, and the one exact-sum
rule, `exact_sum`."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly.hahn import HahnParams, basis, hahn_eval_all

FAMILIES = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0), (20.0, 20.0)]


def _composed_step(row, x, cur, prev):
    # the step as the primitives make it: (a - r x) y_n - g y_{n-1}
    w = dd.dd_sub(row[0:2], dd.dd_mul_d(row[2:4], x))
    return dd.dd_sub(dd.dd_mul(w, cur), dd.dd_mul(row[6:8], prev))


def _row(a, r, g):
    # one row of HahnBasis.series, as both sweep kernels read it
    return (*a, *r, *dd.split(r[0]), *g, *dd.split(g[0]))


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _assert_same(got, want):
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


def _sweep(rows, x):
    out = np.empty((len(rows),) + np.shape(x))
    return dd.dd_three_term_sweep(rows, x, out), out


def _walk(params, x, counts):
    # the composed chain over every row of a full-degree sweep from
    # y_0 = 1 and y_{-1} = 0; a sweep over the first k rows returns the
    # chain's level k and writes each level rounded
    rows = basis(params).series
    levels = [dd.dd_from(1.0)]
    prev, cur = dd.dd_from(0.0), dd.dd_from(1.0)
    for row in rows:
        prev, cur = cur, _composed_step(row, x, cur, prev)
        levels.append(cur)
    rounded = np.array([hi + lo for hi, lo in levels[1:]]).reshape((-1,) + np.shape(x))
    for k in counts:
        last, out = _sweep(rows[:k], x)
        _assert_same(np.broadcast_arrays(*last, x)[:2], np.broadcast_arrays(*levels[k], x)[:2])
        assert np.array_equal(_bits(out), _bits(rounded[:k]))


@pytest.mark.parametrize("N", [1, 2, 30, 100, 200])
@pytest.mark.parametrize("alpha,beta", FAMILIES)
def test_fused_step_equals_composition(N, alpha, beta):
    # x = -1 and x = N + 1 are read by the eigen-equation check; the sweep
    # values there grow far past those on the grid.  Scalar points take
    # every step count; the array, whose levels the full sweep also writes
    # out, takes the empty, one-step and full sweeps and a stride between.
    # The sweep reads the series rows, so its Q_1 is their row 0
    p = HahnParams(alpha, beta, N)
    assert len(basis(p).series) == N
    for x in (-1.0, 0.0, 0.5, N / 3.0, float(N), N + 1.0):
        _walk(p, x, range(N + 1))
    xs = np.concatenate([np.arange(-1.0, N + 2.0), np.linspace(-1.0, N + 1.0, 37)])
    _walk(p, xs, sorted({0, 1, *range(0, N + 1, 17), N}))
    assert np.array_equal(hahn_eval_all(N, xs, p)[1:], _sweep(basis(p).series, xs)[1])


def test_fused_step_keeps_signed_zeros():
    # rows and points holding zeros of both signs, and zero low parts, give
    # the composition's bits, for one step and for two, where the second
    # reuses the first level's split.  From y_0 = 1 and y_{-1} = 0 every
    # zero level is +0 in the composition too, and the kernel must not
    # make it -0
    parts = [(1.0, 0.0), (1.0, -0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0),
             (-1.0, 0.0), (2.0, 1e-17)]
    zeros = 0
    for a, r, g in itertools.product(parts, repeat=3):
        row = _row(a, r, g)
        for x in (0.0, -0.0, 1.0, -1.0):
            one_step = _composed_step(row, x, (1.0, 0.0), (0.0, 0.0))
            for seq, want in [((row,), one_step),
                              ((row, row), _composed_step(row, x, one_step, (1.0, 0.0)))]:
                last, out = _sweep(seq, x)
                _assert_same(last, want)
                assert _bits(out[-1]) == _bits(want[0] + want[1])
                zeros += want[0] == 0.0
    assert zeros > 100


def _composed_clenshaw(rows, ks, x):
    # y_n = k_n + (a_n - r_n x) y_{n+1} - g_{n+1} y_{n+2} from the primitives;
    # g_m multiplies y_{m+1} = 0, and row m may not exist, so it is zero
    y1, y2, g = ks[-1], (0.0, 0.0), (0.0, 0.0)
    for row, k in zip(reversed(rows), reversed(ks[:-1])):
        w = dd.dd_sub(row[0:2], dd.dd_mul_d(row[2:4], x))
        y = dd.dd_add(k, dd.dd_sub(dd.dd_mul(w, y1), dd.dd_mul(g, y2)))
        y1, y2, g = y, y1, row[6:8]
    return y1


@pytest.mark.parametrize("N", [1, 2, 30, 200])
@pytest.mark.parametrize("alpha,beta", FAMILIES)
def test_clenshaw_equals_composition(N, alpha, beta):
    # every truncation degree at scalar points, grid nodes and the ends
    # included, and one array of points, against the composed chain; the
    # sum also matches the forward sweep's terms to dd accuracy
    p = HahnParams(alpha, beta, N)
    rows = basis(p).series
    rng = np.random.default_rng(N)
    ks = [(float(v), float(v) * 2.0**-60) for v in rng.standard_normal(N + 1)]
    xs = np.concatenate([np.arange(-1.0, N + 2.0), np.linspace(-1.0, N + 1.0, 37)])
    for m in sorted({0, 1, N // 2, N - 1, N}):
        for x in (-1.0, 0.0, 0.5, N / 3.0, float(N), N + 0.5):
            _assert_same(dd.dd_clenshaw_sweep(rows[:m], ks[: m + 1], x),
                         _composed_clenshaw(rows[:m], ks[: m + 1], x))
        # at m = 0 the sum is k_0, the same scalar for every point
        got = np.broadcast_arrays(*dd.dd_clenshaw_sweep(rows[:m], ks[: m + 1], xs), xs)[:2]
        _assert_same(got, np.broadcast_arrays(*_composed_clenshaw(rows[:m], ks[: m + 1], xs), xs)[:2])
    x = N / 3.0
    terms = hahn_eval_all(N, x, p)
    value = dd.dd_clenshaw_sweep(rows, ks, x)
    scale = math.fsum(abs(k[0] * t) for k, t in zip(ks, terms))
    assert abs(sum(value) - math.fsum(k[0] * t for k, t in zip(ks, terms))) <= 1e-14 * scale


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

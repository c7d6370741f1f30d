"""Projection, expansion evaluation, interval maps, and the decay report."""

import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly import hahn
from hahnpoly.discrete_calculus import GridFunction
from hahnpoly.errors import (
    DegenerateIntervalError,
    DegreeOutOfRangeError,
    DomainError,
    LengthMismatchError,
    ZeroLambdaError,
)
from hahnpoly.expansion import (
    CoefficientVector,
    IntervalMap,
    decay_report,
    eval_expansion,
    inner_product,
    project,
)
from hahnpoly.hahn import (
    HahnParams,
    basis,
    normalized_grid_matrix,
    weight_table,
)
from hahnpoly.oracle_exact import (
    exact_hahn_column,
    exact_hahn_eval,
    exact_norm_sq,
    exact_weight,
)


def test_interval_map_endpoints_exact():
    m = IntervalMap(-1.0, 1.0, 30)
    assert m.to_interval(0.0) == -1.0
    assert m.to_interval(30.0) == 1.0
    m2 = IntervalMap(0.1, 0.3, 7)
    assert m2.to_interval(0.0) == 0.1
    assert m2.to_interval(7.0) == 0.3


def test_interval_map_roundtrip():
    m = IntervalMap(-1.0, 1.0, 30)
    for i in range(31):
        back = m.to_grid(m.to_interval(float(i)))
        assert back == pytest.approx(float(i), abs=1e-12)
    assert m.to_interval(15.0) == pytest.approx(0.0, abs=1e-15)


def test_interval_map_grid_points():
    m = IntervalMap(-1.0, 1.0, 4)
    assert list(m.grid_points()) == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_interval_map_validation():
    # the message names the CLI field, which reports it verbatim
    with pytest.raises(DegenerateIntervalError, match=r"^interval must satisfy a < b with "
                       r"N \(b - a\) finite, got 1\.0,1\.0$"):
        IntervalMap(1.0, 1.0, 10)
    with pytest.raises(DegenerateIntervalError):
        IntervalMap(2.0, -2.0, 10)
    # both ends finite, but the width b - a overflows
    with pytest.raises(DegenerateIntervalError):
        IntervalMap(-1e308, 1e308, 10)
    with pytest.raises(DomainError):
        IntervalMap(0.0, 1.0, 0)


def test_interval_map_refuses_overflowing_grid_coordinate():
    # b - a = 1.6e308 is finite, but N (t - a) overflows for N = 6; at
    # N = 1 the same interval maps t = 0 to the middle of the grid
    with pytest.raises(DegenerateIntervalError):
        IntervalMap(-8e307, 8e307, 6)
    assert IntervalMap(-8e307, 8e307, 1).to_grid(0.0) == 0.5


def test_coefficient_vector_validation():
    p = HahnParams(0.0, 0.0, 4)
    with pytest.raises(DegreeOutOfRangeError):
        CoefficientVector(p, np.zeros(6))
    with pytest.raises(LengthMismatchError):
        CoefficientVector(p, np.zeros(0))
    # (0, 1e3) at N = 200: ||Q_84|| is past the double range, ||Q_83|| is not
    with pytest.raises(DomainError, match="norm of Q_84 is not finite"):
        CoefficientVector(HahnParams(0.0, 1e3, 200), np.zeros(85))
    assert CoefficientVector(HahnParams(0.0, 1e3, 200), np.zeros(84)).degree == 83
    c = CoefficientVector(p, np.zeros(3))
    assert c.degree == 2


def test_inner_product_against_oracle():
    # <Q_2, Q_2>_w on a small grid, float route vs exact rationals
    N = 8
    half = Fraction(1, 2)
    p = HahnParams(0.5, 0.5, N)
    q2 = GridFunction(
        p, np.array([float(exact_hahn_eval(2, x, half, half, N)) for x in range(N + 1)])
    )
    got = inner_product(q2, q2)
    assert got == pytest.approx(float(exact_norm_sq(2, half, half, N)), rel=1e-12, abs=0)


def test_inner_product_constant_gives_total():
    p = HahnParams(5.0, 0.0, 12)
    one = GridFunction(p, np.ones(13))
    assert inner_product(one, one) == pytest.approx(math.fsum(weight_table(p)), rel=1e-14, abs=0)


def test_inner_product_unit_weight_counts_points():
    # flat weight: the all-ones inner product is just the point count
    p = HahnParams(0.0, 0.0, 30)
    one = GridFunction(p, np.ones(31))
    assert inner_product(one, one) == 31.0


def _inner_product_loop(f, g):
    # the reference route: two_prod on Python floats one grid point at a
    # time, the parts in point order, and fsum's refusal of -inf + inf as NaN
    parts = []
    for fv, gv, wv in zip(f.values.tolist(), g.values.tolist(), basis(f.params).weights.tolist()):
        hi, lo = dd.two_prod(fv, gv)
        hi2, lo2 = dd.two_prod(hi, wv)
        parts += [hi2, lo2 + lo * wv]
    try:
        return math.fsum(parts)
    except ValueError:
        return math.nan


def _seeded_pair(kind, rng, w):
    # f and g on one grid of weights w; "huge" products reach 1.7e308 / k
    # for a random k in 1..n, so that some partial sums pass the double range
    n = len(w)
    f, g = rng.standard_normal(n), rng.standard_normal(n)
    if kind == "inf":
        f[rng.integers(0, n, 2)] = rng.choice([math.inf, -math.inf], 2)
    elif kind == "nan":
        g[rng.integers(0, n)] = math.nan
    elif kind == "subnormal":
        f = rng.integers(-(1 << 20), 1 << 20, n) * 5e-324
    elif kind == "huge":
        f = rng.uniform(-1.0, 1.0, n) * (1.7e308 / rng.integers(1, n + 1))
        g = rng.uniform(-1.0, 1.0, n) / w
    elif kind == "mixed":
        f *= 10.0 ** rng.integers(-160, 155, n)
        g *= 10.0 ** rng.integers(-160, 155, n)
    elif kind == "zeros":
        f = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return f, g


@pytest.mark.parametrize("alpha,beta,N", [
    (0.0, 0.0, 12), (0.5, 0.5, 30), (5.0, 0.0, 30), (-0.5, 3.0, 60),
    (-0.999, 50.0, 30), (1e3, 0.0, 100),
])
def test_inner_product_equals_point_loop_bit_for_bit(alpha, beta, N):
    # the array products and the one exact sum against the per-point loop,
    # wherever the loop returns; NaN counts as NaN
    p = HahnParams(alpha, beta, N)
    w = basis(p).weights
    rng = np.random.default_rng(N)
    for kind in ("normal", "inf", "nan", "subnormal", "huge", "mixed", "zeros"):
        for _ in range(10):
            f, g = (GridFunction(p, v) for v in _seeded_pair(kind, rng, w))
            try:
                want = _inner_product_loop(f, g)
            except OverflowError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = inner_product(f, g)
            if math.isnan(want):
                assert math.isnan(got), kind
            else:
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), kind


def test_inner_product_mismatch():
    p = HahnParams(0.0, 0.0, 4)
    q = HahnParams(0.0, 0.0, 5)
    with pytest.raises(LengthMismatchError):
        inner_product(GridFunction(p, np.zeros(5)), GridFunction(q, np.zeros(6)))


def test_inner_product_mismatch_message():
    # one grid rule for the package: discrete_calculus._same_grid
    p = HahnParams(0.5, 0.0, 4)
    q = HahnParams(0.0, 0.0, 4)
    with pytest.raises(LengthMismatchError) as info:
        inner_product(GridFunction(p, np.zeros(5)), GridFunction(q, np.zeros(5)))
    assert str(info.value) == ("grid mismatch: HahnParams(alpha=0.5, beta=0.0, N=4) vs "
                               "HahnParams(alpha=0.0, beta=0.0, N=4)")


def test_project_recovers_basis_vector():
    p = HahnParams(0.5, 0.5, 12)
    qmat = normalized_grid_matrix(12, p)
    u = GridFunction(p, qmat[3])
    c = project(u, 12).coeffs
    expect = np.zeros(13)
    expect[3] = 1.0
    assert np.max(np.abs(c - expect)) < 1e-12


def test_project_degree_validation():
    p = HahnParams(0.0, 0.0, 10)
    u = GridFunction(p, np.ones(11))
    for m in (11, -1):
        with pytest.raises(DegreeOutOfRangeError, match=rf"^degree {m} outside 0\.\.10$"):
            project(u, m)
    # normalized is keyword-only: a third positional argument, such as a
    # weight table, is refused rather than read as normalized=True
    with pytest.raises(TypeError):
        project(u, 3, weight_table(p))


def _project_row_loop(u, m, normalized):
    # the reference route: math.fsum over each row's numpy scalars
    p = u.params
    qmat = normalized_grid_matrix(m, p)
    wu = u.values * basis(p).weights
    coeffs = np.array([math.fsum(qmat[n] * wu) for n in range(m + 1)])
    return coeffs if normalized else coeffs / basis(p).sqrt_norms[: m + 1]


@pytest.mark.parametrize("N", [30, 100, 200])
def test_project_equals_row_loop_bit_for_bit(N):
    imap = IntervalMap(-1.0, 1.0, N)
    targets = [lambda t: math.sin(math.pi * t), lambda t: 1.0 / (1.0 + 25.0 * t * t)]
    for alpha, beta in [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)]:
        p = HahnParams(alpha, beta, N)
        for f in targets:
            u = GridFunction.from_callable(f, p, imap.to_interval)
            for m in (N // 3, N):
                for normalized in (True, False):
                    got = project(u, m, normalized=normalized).coeffs
                    want = _project_row_loop(u, m, normalized)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                        (alpha, beta, m, normalized)


def test_classical_convention_weights_by_norm():
    # normalized=False coefficients are the orthonormal ones divided by ||Q_n||
    p = HahnParams(0.0, 0.0, 12)
    rng = np.random.default_rng(3)
    u = GridFunction(p, rng.standard_normal(13))
    cn = project(u, 8, normalized=True).coeffs
    cc = project(u, 8, normalized=False).coeffs
    for n in range(9):
        norm = math.sqrt(float(exact_norm_sq(n, 0, 0, 12)))
        assert cc[n] == pytest.approx(cn[n] / norm, rel=1e-12, abs=1e-15)


def test_full_degree_expansion_interpolates_grid():
    p = HahnParams(0.5, 0.5, 10)
    rng = np.random.default_rng(5)
    u = GridFunction(p, rng.standard_normal(11))
    c = project(u, 10)
    recon = np.array([eval_expansion(c, float(x)) for x in range(11)])
    assert np.max(np.abs(recon - u.values)) < 1e-10


def test_polynomial_target_reproduced_off_grid():
    # u(t) = 1 + 2t + 3t^2 has degree 2, so its degree-5 projection is u
    # itself, everywhere, not just at grid points
    p = HahnParams(0.0, 0.0, 12)
    imap = IntervalMap(-1.0, 1.0, 12)
    poly = lambda t: 1.0 + 2.0 * t + 3.0 * t * t
    u = GridFunction.from_callable(poly, p, imap.to_interval)
    c = project(u, 5)
    for t in (-0.913, -0.4, 0.0333, 0.77):
        got = eval_expansion(c, imap.to_grid(t))
        assert got == pytest.approx(poly(t), rel=1e-11)


def test_projection_idempotent():
    # resample the reconstruction on the grid, project again, and the
    # coefficients come back componentwise
    p = HahnParams(0.5, 0.5, 20)
    rng = np.random.default_rng(11)
    u = GridFunction(p, rng.standard_normal(21))
    c = project(u, 9)
    resampled = GridFunction(
        p, np.array([eval_expansion(c, float(x)) for x in range(21)])
    )
    again = project(resampled, 9)
    assert np.max(np.abs(again.coeffs - c.coeffs)) < 1e-8


def test_eval_expansion_classical_convention():
    p = HahnParams(0.0, 0.0, 12)
    rng = np.random.default_rng(9)
    u = GridFunction(p, rng.standard_normal(13))
    cn = project(u, 12, normalized=True)
    cc = project(u, 12, normalized=False)
    for x in (0.0, 4.0, 11.5):
        assert eval_expansion(cc, x) == pytest.approx(eval_expansion(cn, x),
                                                      rel=1e-10, abs=1e-12)


BENCH_FAMILIES = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)]


def _runge_coeffs(p: HahnParams, m: int, normalized: bool) -> CoefficientVector:
    imap = IntervalMap(-1.0, 1.0, p.N)
    u = GridFunction.from_callable(lambda t: 1.0 / (1.0 + 25.0 * t * t), p,
                                   imap.to_interval)
    return project(u, m, normalized=normalized)


@pytest.mark.parametrize("N", [30, 100, 200])
@pytest.mark.parametrize("alpha,beta", BENCH_FAMILIES)
def test_eval_expansion_array_equals_point_loop(N, alpha, beta):
    # grid nodes and sample points between them, swept together, in both
    # coefficient conventions; lower degrees truncate the full projection
    p = HahnParams(alpha, beta, N)
    imap = IntervalMap(-1.0, 1.0, N)
    xs = np.concatenate([np.arange(0.0, N + 1, max(1, N // 10)),
                         imap.to_grid(np.linspace(-1.0, 1.0, 23))])
    for normalized in (True, False):
        full = _runge_coeffs(p, N, normalized).coeffs
        for m in (0, 1, N // 2, N):
            c = CoefficientVector(p, full[: m + 1], normalized)
            got = eval_expansion(c, xs)
            loop = np.array([eval_expansion(c, float(x)) for x in xs])
            assert got.shape == xs.shape
            assert np.array_equal(got, loop, equal_nan=True)


def test_eval_expansion_array_longer_than_block():
    # a long array, nodes and off-grid points mixed, as one Clenshaw sweep
    p = HahnParams(0.5, 0.5, 100)
    imap = IntervalMap(-1.0, 1.0, 100)
    xs = np.concatenate([imap.to_grid(np.linspace(-1.0, 1.0, 2500)), np.arange(0.0, 101.0, 7.0)])
    c = _runge_coeffs(p, 40, True)
    got = eval_expansion(c, xs)
    assert np.array_equal(got, np.array([eval_expansion(c, float(x)) for x in xs]))


def test_eval_expansion_scalar_returns_float():
    c = _runge_coeffs(HahnParams(0.0, 0.0, 30), 10, True)
    assert type(eval_expansion(c, 7.5)) is float
    assert type(eval_expansion(c, np.float64(7.5))) is float
    assert eval_expansion(c, 7.5) == eval_expansion(c, np.array([7.5]))[0]


def _route_points(N: int) -> list[float]:
    # half-integers, thirds, an off-centre point and one point past each end
    return ([j + 0.5 for j in range(N)] + [j + f for j in range(N) for f in (1 / 3, 2 / 3)]
            + [N / 2 + 0.25, -0.5, N + 0.5])


_BITS = 1074 + 300  # every double is an integer times 2^-1074; Q_n kept to 2^-300


def _scaled(v: float) -> int:
    num, den = v.as_integer_ratio()
    return num * ((1 << _BITS) // den)


def _exact_sums(c: CoefficientVector, col: list[Fraction]) -> tuple[list[int], list[float]]:
    # prefix sums of k_n Q_n(x) in units of 2^-_BITS, k_n = c_n / ||Q_n|| from
    # the stored doubles (orthonormal) or c_n, exact to (m+1) 2^-300 |c|, and
    # the prefix scales S_m(x) = sum_{n<=m} |k_n| max_{j<=n} |Q_j(x)| of the bound
    norms = basis(c.params).sqrt_norms.tolist()
    sums, scales, total, top, scale = [], [], 0, 0.0, 0.0
    for n, cn in enumerate(c.coeffs.tolist()):
        num, den = col[n].numerator, col[n].denominator
        k = cn
        if c.normalized:
            sn, sd = norms[n].as_integer_ratio()
            num, den, k = num * sd, den * sn, cn / norms[n]
        total += _scaled(cn) * ((num << 300) // den) >> 300
        sums.append(total)
        top = max(top, abs(float(col[n])))
        scale += abs(k) * top
        scales.append(scale)
    return sums, scales


def _worst_clenshaw_ratio(vectors: list[CoefficientVector], xs: list[float],
                          cols: list[list[Fraction]]) -> float:
    # largest |eval_expansion - exact| / (eps S_m(x)) over the truncations
    # of one full vector
    worst = 0.0
    for x, col in zip(xs, cols):
        sums, scales = _exact_sums(vectors[-1], col)
        for c in vectors:
            err = Fraction(abs(_scaled(eval_expansion(c, x)) - sums[c.degree]), 1 << _BITS)
            worst = max(worst, float(err) / (np.finfo(float).eps * scales[c.degree]))
    return worst


@pytest.mark.parametrize("N", [30, 60])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 3.0), (0.0, 1e3)])
def test_eval_expansion_against_exact(N, alpha, beta, monkeypatch):
    # off the grid the Clenshaw sweep is within 2 eps S(x) of the exact sum
    # of its own coefficients; on a node the value is the exact sum of the
    # grid column times the orthonormal coefficients, to the bit.  A step
    # row off by 1e-12 must fail the bound.
    p = HahnParams(alpha, beta, N)
    xs = _route_points(N)
    cols = [exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N) for x in xs]
    for normalized in (True, False):
        full = _runge_coeffs(p, N, normalized).coeffs
        vectors = [CoefficientVector(p, full[: m + 1], normalized) for m in (0, 1, N // 2, N)]
        assert _worst_clenshaw_ratio(vectors, xs, cols) <= 2.0
        for c in vectors:
            u = c.coeffs if normalized else c.coeffs * basis(p).sqrt_norms[: c.degree + 1]
            for k in range(N + 1):
                node = math.fsum((basis(p).grid[: c.degree + 1, k] * u).tolist())
                assert eval_expansion(c, float(k)) == node
    rows = list(basis(p).series)
    bad = list(rows[1])
    bad[2] *= 1.0 + 1e-12
    bad[4:6] = dd.split(bad[2])
    rows[1] = tuple(bad)
    monkeypatch.setitem(basis(p).__dict__, "series", tuple(rows))
    assert _worst_clenshaw_ratio(vectors[-1:], xs, cols) > 2.0


def test_eval_expansion_norms_past_double_range():
    # at N = 200 the (0, 1e3) norms pass the double range from n = 84 on:
    # no vector reaches that degree, in either convention.  Below it a
    # classical vector at a node is the grid's exact sum
    p = HahnParams(0.0, 1e3, 200)
    for normalized in (True, False):
        with pytest.raises(DomainError, match="norm of Q_84 is not finite"):
            CoefficientVector(p, np.ones(201), normalized)
    top = 84
    below = CoefficientVector(p, np.ones(top), False)
    on_grid = math.fsum((basis(p).grid[:top, 3] * basis(p).sqrt_norms[:top]).tolist())
    assert eval_expansion(below, 3.0) == on_grid


def test_eval_expansion_infinite_coefficient_is_nan():
    # an inf coefficient sums to NaN off the grid with no warning, at an
    # array of points and at one point
    p = HahnParams(0.0, 0.0, 10)
    c = CoefficientVector(p, np.array([1.0, math.inf]))
    got = eval_expansion(c, np.array([0.5, 1.5]))
    assert np.isnan(got).all()
    assert math.isnan(eval_expansion(c, 0.5))


# the families of the lattice alpha, beta in {-0.999, -0.5, 0, 3, 50, 1e3,
# 1e6, 1e12} whose weights and step rows are accepted but whose norms pass
# the double range, with the first such degree
NORM_PAST_RANGE = [(a, 1e6, 60, k) for a, k in [(-0.999, 7), (-0.5, 7), (0.0, 8), (3.0, 8),
                                                 (50.0, 10), (1e3, 15)]] + \
                  [(a, 1e3, 200, k) for a, k in [(-0.999, 79), (-0.5, 83), (0.0, 84),
                                                 (3.0, 89), (50.0, 120)]]


@pytest.mark.parametrize("alpha,beta,N,k", NORM_PAST_RANGE)
def test_project_refuses_from_the_first_norm_past_range(alpha, beta, N, k):
    p = HahnParams(alpha, beta, N)
    u = GridFunction.from_callable(lambda t: math.sin(math.pi * t), p,
                                   IntervalMap(-1.0, 1.0, N).to_interval)
    for normalized in (True, False):
        with pytest.raises(DomainError, match=f"^norm of Q_{k} is not finite"):
            project(u, k, normalized=normalized)
        assert np.isfinite(project(u, k - 1, normalized=normalized).coeffs).all()


def test_eval_expansion_memory_stays_small():
    # the 1001 samples of a pointwise request at N = 200, full degree: no
    # (m+1) x points table of basis values is kept
    p = HahnParams(0.5, 0.5, 200)
    c = _runge_coeffs(p, 200, True)
    xs = np.arange(1001) * 200 / 1000
    eval_expansion(c, xs)
    tracemalloc.start()
    try:
        eval_expansion(c, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_parseval_small_grid():
    p = HahnParams(5.0, 0.0, 12)
    rng = np.random.default_rng(13)
    u = GridFunction(p, rng.standard_normal(13))
    c = project(u, 12).coeffs
    assert math.fsum(c * c) == pytest.approx(inner_product(u, u), rel=1e-12, abs=0)


def _sine_sample(p: HahnParams) -> GridFunction:
    imap = IntervalMap(-1.0, 1.0, p.N)
    return GridFunction.from_callable(lambda t: math.sin(math.pi * t), p,
                                      imap.to_interval)


def test_decay_report_structure():
    p = HahnParams(0.0, 0.0, 20)
    rows = decay_report(_sine_sample(p), 2, range(1, 11))
    assert [r.n for r in rows] == list(range(1, 11))
    assert all(r.k == 2 for r in rows)
    assert all(r.bound > 0 for r in rows)
    # lam_n >= n^2 here, so the operator bound is at most the degree-only one
    assert all(r.bound <= r.bound_degree_only * (1 + 1e-12) for r in rows)


def test_decay_bound_holds():
    p = HahnParams(0.0, 0.0, 20)
    u = _sine_sample(p)
    for k in (0, 1, 2, 3):
        for r in decay_report(u, k, range(1, 16)):
            assert abs(r.coeff) <= r.bound * (1 + 1e-12)
            assert r.identity_residual < 1e-6


def test_decay_order_zero_is_norm_bound():
    # k = 0 degenerates to the plain Bessel bound ||u||_w for every degree
    p = HahnParams(0.5, 0.5, 16)
    u = _sine_sample(p)
    norm = math.sqrt(inner_product(u, u))
    for r in decay_report(u, 0, range(1, 17)):
        assert r.bound == pytest.approx(norm, rel=1e-13, abs=0)
        assert abs(r.coeff) <= r.bound * (1 + 1e-12)


def test_decay_saturated_by_single_mode():
    # an eigenfunction input turns the bound into an equality at its
    # own degree, for every operator power
    p = HahnParams(0.0, 0.0, 30)
    q5 = GridFunction(p, np.array(normalized_grid_matrix(5, p)[5]))
    for k in (1, 2, 3):
        (r,) = decay_report(q5, k, range(5, 6))
        assert abs(r.coeff) == pytest.approx(r.bound, rel=1e-10)


def test_decay_report_validation():
    p = HahnParams(0.0, 0.0, 20)
    u = _sine_sample(p)
    with pytest.raises(ZeroLambdaError):
        decay_report(u, 1, range(0, 5))
    with pytest.raises(DegreeOutOfRangeError):
        decay_report(u, 1, range(1, 25))
    with pytest.raises(DomainError):
        decay_report(u, -1, range(1, 5))
    with pytest.raises(DomainError):
        decay_report(u, 1, range(5, 5))


def test_decay_report_descending_range():
    # a range is checked and projected by its extremes, not its ends
    p = HahnParams(0.5, 0.5, 12)
    u = _sine_sample(p)
    rows = decay_report(u, 1, range(1, 13))
    assert decay_report(u, 1, range(12, 0, -1)) == rows[::-1]
    assert decay_report(u, 1, range(12, 0, -3)) == rows[::-3]
    with pytest.raises(DegreeOutOfRangeError, match=r"outside 1\.\.12"):
        decay_report(u, 1, range(13, 0, -1))
    with pytest.raises(ZeroLambdaError):
        decay_report(u, 1, range(5, -1, -1))


def test_decay_report_refuses_overflowing_powers():
    # at N = 30, ||L^k u||_w^2 of the sine sample stays in the double range
    # through k = 57, where the exact sum of the float L^57 u is 2.34e305;
    # past that it overflows, and a constant input (L u = 0) still needs
    # lam_n^k, which overflows at k = 300
    p = HahnParams(0.0, 0.0, 30)
    u = _sine_sample(p)
    for k in (55, 57):
        rows = decay_report(u, k, range(1, 4))
        assert all(math.isfinite(r.bound) for r in rows)
    assert rows[0].bound == math.sqrt(2.3434068073729885e+305) / 2.0**57
    for k in (58, 60, 120):
        with pytest.raises(DomainError, match=f"k={k}"):
            decay_report(u, k, range(1, 4))
    with pytest.raises(DomainError, match="k=300"):
        decay_report(GridFunction(p, np.ones(31)), 300, range(1, 31))


# sha256 of the float64 bytes of the sine sample's `project` coefficients at
# m = N and m = 3N/4, and of its decay_report rows (coeff, bound,
# bound_degree_only, identity_residual) at k = 2 over degrees 1..N; recorded
# on the code before the recurrence step was fused, and re-recorded when the
# norms became correctly rounded (coefficients moved by at most 6.9e-16 of
# their largest magnitude, bounds not at all).  Re-recorded again when the
# grid from N = 42 up became the twisted build, after the coefficients at
# m = N were measured against ones from exact U columns: 2.9e-16 ||u||_w or
# less for all four, where the dd grid was off by 6.2e-9 and 1.2e-7 at
# N = 100 and by 1.1e21 and 1.5e23 at N = 200
GOLDEN_SPECTRA = {
    (0.0, 0.0, 100): (
        "c69457eea3aabebbd32c1a1584dcf8768e1def7f9fa0e4b6c198bbf25d8d1d51",
        "74cb90aec76e55199aa2cb46728d0784109827bf1b17fdbb07a93d71329ae4cc",
        "00d82d588dfcf5a2156ae289a54801afb9b1a5f26519001065b70c818f83c7f2"),
    (0.0, 0.0, 200): (
        "164d88437560119ee069225e291f87bfc7d0c115f18baf7032bf55bb9b504ee3",
        "ce7ee3fc681eb545f2a5820a8cc3c999b8c6d5551402bf30c564ecccf5fdc8a8",
        "d0093b05ab50aa7b47a44b61ee14465d40e57d383f748d09eb883eaf8e67eb94"),
    (-0.5, 3.0, 100): (
        "095b0ef4d01bf765a0cb39c0be470183d91240e521bb48c902b5e827aa0ca821",
        "93589db329ef36d17fd86279a355941a44e4eff1cbc02b835240547be90ebf9c",
        "683c69f1879fbf1fc88f6dca98551d464d9be8a5159161e921a6ec1908a82fa4"),
    (-0.5, 3.0, 200): (
        "3a4806051985a5e3c37b47a0b4ad7706ce0a8f7ceda7ce4434b8c1443e0c53ca",
        "aed5635987cf77df2de1d9d122741904fa0acd5f957f981d2c9d42eb5ac8bc83",
        "aa127174749f6f0058c411b5f6b50924d342a6d9f0ecde8673b95b9986047786"),
}


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("alpha,beta,N", sorted(GOLDEN_SPECTRA))
def test_golden_spectra_full_size(alpha, beta, N):
    p = HahnParams(alpha, beta, N)
    u = _sine_sample(p)
    rows = decay_report(u, 2, range(1, N + 1))
    got = (
        _digest(project(u, N).coeffs),
        _digest(project(u, 3 * N // 4).coeffs),
        _digest([(r.coeff, r.bound, r.bound_degree_only, r.identity_residual) for r in rows]),
    )
    assert got == GOLDEN_SPECTRA[alpha, beta, N]


SESSION_FAMILIES = [HahnParams(alpha, beta, N) for N in (30, 100, 200)
                    for alpha, beta in [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0)]]


def test_session_builds_each_grid_once(monkeypatch):
    # a session cycling 12 families keeps every family's basis: the grid
    # matrix is built once per family, at N = 30 by one scalar sweep per
    # grid point, at N = 100 and 200 by one twisted build and no sweep, and
    # no build raises a warning
    sweeps = []  # per round, the (degree, points) of each call per family
    builds = []  # per round, the families of each twisted build
    sweep, build = hahn.hahn_eval_all, hahn._twisted_grid

    def counted(m, x, params):
        sweeps[-1].setdefault(params, []).append((m, np.array(x, dtype=float)))
        return sweep(m, x, params)

    def counted_build(params, weights):
        builds[-1].append(params)
        return build(params, weights)

    monkeypatch.setattr(hahn, "hahn_eval_all", counted)
    monkeypatch.setattr(hahn, "_twisted_grid", counted_build)
    basis.cache_clear()
    rounds = []
    for _ in range(2):
        sweeps.append({})
        builds.append([])
        coeffs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in SESSION_FAMILIES:
                u = GridFunction.from_callable(lambda t: 1.0 / (1.0 + 25.0 * t * t), p,
                                               IntervalMap(-1.0, 1.0, p.N).to_interval)
                coeffs.append(project(u, p.N).coeffs)
        rounds.append(coeffs)
    assert sweeps[1] == {} and builds[1] == []
    assert builds[0] == [p for p in SESSION_FAMILIES if p.N >= hahn._GRID_ARRAY_N]
    assert sweeps[0].keys() == {p for p in SESSION_FAMILIES if p.N < hahn._GRID_ARRAY_N}
    for p, calls in sweeps[0].items():
        assert [(m, x.shape) for m, x in calls] == [(p.N, ())] * (p.N + 1)
        assert np.array_equal([x for _, x in calls], np.arange(p.N + 1.0))
    for first, second in zip(*rounds):
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
    for p in SESSION_FAMILIES:
        b = basis(p)
        assert b is basis(p)
        assert isinstance(b.steps, tuple)
        for arr in (b.weights, b.sqrt_norms, b.grid):
            assert not arr.flags.writeable

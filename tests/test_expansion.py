"""Projection, expansion evaluation, interval maps, and the decay report."""

import hashlib
import math
import platform
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly import expansion, hahn
from hahnpoly.discrete_calculus import GridFunction, l_disk_apply
from hahnpoly.errors import (
    DegenerateIntervalError,
    DegreeOutOfRangeError,
    DomainError,
    LengthMismatchError,
    ZeroLambdaError,
)
from hahnpoly.expansion import (
    BOUND_SLACK,
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
from hahnpoly.oracle_exact import exact_hahn_column, exact_hahn_eval, exact_norm_sq, exact_weight
from hahnpoly.oracle_ratios import _exact_ratios


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


@pytest.fixture(params=["long double", "dd"])
def route(request, monkeypatch):
    # the off-node sweep of `_compensated.clenshaw_sum`: the long double
    # one where numpy's long double is x87 extended, the dd one forced
    if request.param == "dd":
        monkeypatch.setattr(dd, "EXTENDED", False)
    elif not dd.EXTENDED:
        pytest.skip("numpy's long double is not x87 extended here")
    return request.param


def test_x87_long_double_selects_the_long_double_route():
    # the probe finds a 64-bit significand exactly where numpy reports one,
    # and x86-64 Linux has it
    assert dd.EXTENDED == dd._has_extended_long_double()
    assert dd.EXTENDED == (np.finfo(np.longdouble).nmant == 63)
    if platform.machine() == "x86_64" and sys.platform.startswith("linux"):
        assert dd.EXTENDED


def test_eval_expansion_sweeps_by_the_selected_route(route, monkeypatch):
    # each route calls its own kernel over its own rows: the long double
    # sweep the Jacobi rows in monic form, and no series row is built; the
    # dd sweep the first m series rows, and no long double row is built.
    # From N = 13 up the grid build reads neither
    p = HahnParams(0.0, 0.0, 50)
    basis.cache_clear()
    called = []
    for name in ("ld_clenshaw_sweep", "dd_clenshaw_sweep"):
        kernel = getattr(dd, name)
        monkeypatch.setattr(dd, name, lambda rows, *a, _k=kernel, _n=name:
                            called.append((_n, rows)) or _k(rows, *a))
    eval_expansion(_runge_coeffs(p, 5, True), np.array([0.5, 3.0, 7.25]))
    (name, rows), = called
    b = basis(p)
    if route == "long double":
        assert name == "ld_clenshaw_sweep" and rows is b.monic_rows
        assert "series" not in vars(b)
    else:
        assert name == "dd_clenshaw_sweep" and rows == b.series[:5]
        assert "monic_rows" not in vars(b)


def test_off_node_sums_on_x87_build_no_series_rows():
    # the samples of a pointwise request, nodes and off-node points, in
    # the orthonormal convention: on x87 no series row is built
    if not dd.EXTENDED:
        pytest.skip("numpy's long double is not x87 extended here")
    p = HahnParams(0.5, 0.5, 100)
    basis.cache_clear()
    c = _runge_coeffs(p, 100, True)
    eval_expansion(c, np.arange(1001) * 100 / 1000)
    eval_expansion(c, 0.5)
    assert "series" not in basis(p).__dict__


def _list_split(xs: list[float], N: int) -> tuple[list[int], list[int], list[int]]:
    # the per-point rule that the array pass replaced
    nodes, near, far = [], [], []
    for i, v in enumerate(xs):
        if v.is_integer() and 0.0 <= v <= N:
            nodes.append(i)
        elif v == v and abs(v - round(min(max(v, 0.0), N))) < dd.NEAR_NODE:
            near.append(i)
        else:
            far.append(i)
    return nodes, near, far


def test_point_split_equals_the_list_rule():
    # signed zero, integers past either end, points just past N, NEAR_NODE
    # and one ulp inside it either side of every node, ties of the
    # rounding, NaN, +-inf and huge values each fall in the class of the
    # list rule
    N = 30
    inside = math.nextafter(dd.NEAR_NODE, 0.0)
    xs = ([-0.0, 0.0, -1.0, N + 0.03, N + 1.0, -0.03, 2.5, 3.5, N - 0.5, math.nan, math.inf,
           -math.inf, 1e300, -1e300, 5e-324, math.nextafter(float(N), math.inf)]
          + [k + s for k in range(N + 1) for s in (-dd.NEAR_NODE, dd.NEAR_NODE, -inside, inside)])
    got = expansion._split_points(np.array(xs), N)
    assert tuple(g.tolist() for g in got) == _list_split(xs, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = _runge_coeffs(HahnParams(0.0, 0.0, N), N, True)
        assert np.array_equal(eval_expansion(c, np.array(xs)),
                              [eval_expansion(c, x) for x in xs], equal_nan=True)


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


_EPS = Fraction(np.finfo(float).eps)


def _exact_terms(c: CoefficientVector, col: list[Fraction]) -> tuple[list[Fraction], list[float]]:
    # the exact terms k_n Q_n(x), k_n = c_n / ||Q_n|| from the stored doubles
    # (orthonormal) or c_n, and the prefix scales
    # S_m(x) = sum_{n<=m} |k_n| max_{j<=n} |Q_j(x)| of the bound
    norms = basis(c.params).sqrt_norms.tolist()
    terms, scales, top, scale = [], [], 0.0, 0.0
    for n, cn in enumerate(c.coeffs.tolist()):
        k, exact_k = cn, Fraction(cn)
        if c.normalized:
            k, exact_k = cn / norms[n], exact_k / Fraction(norms[n])
        terms.append(exact_k * col[n])
        top = max(top, abs(float(col[n])))
        scale += abs(k) * top
        scales.append(scale)
    return terms, scales


def _pairwise_sum(terms: list[Fraction]) -> Fraction:
    # exact; in pairs, since the gcds of a running Fraction sum cost about
    # 2.5 times as much at N = 200
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0] if terms else Fraction(0)


def _worst_clenshaw_ratio(vectors: list[CoefficientVector], xs: list[float],
                          cols: list[list[Fraction]]) -> float:
    # largest |eval_expansion - exact| / (eps S_m(x)) over the truncations
    # of one full vector, in order of degree; each ratio exact, rounded once
    worst = 0.0
    for x, col in zip(xs, cols):
        terms, scales = _exact_terms(vectors[-1], col)
        total, done = Fraction(0), 0
        for c in vectors:
            total += _pairwise_sum(terms[done : c.degree + 1])
            done = c.degree + 1
            err = abs(Fraction(eval_expansion(c, x)) - total)
            worst = max(worst, float(err / (_EPS * Fraction(scales[c.degree]))))
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
    _plant_row_fault(p, monkeypatch)
    assert _worst_clenshaw_ratio(vectors[-1:], xs, cols) > 2.0


def _plant_row_fault(p: HahnParams, monkeypatch) -> None:
    # one step row that the platform's off-node sweep reads, off by 1e-12:
    # the Jacobi d_1 on the long double sweep, the series r_1 on the dd one
    b = basis(p)
    if dd.EXTENDED:
        d, prod, h0 = b.monic_rows
        d = d.copy()
        d[1] *= 1.0 + 1e-12
        monkeypatch.setitem(b.__dict__, "monic_rows", (d, prod, h0))
        return
    rows = list(b.series)
    bad = list(rows[1])
    bad[2] *= 1.0 + 1e-12
    bad[4:6] = dd.split(bad[2])
    rows[1] = tuple(bad)
    monkeypatch.setitem(b.__dict__, "series", tuple(rows))


@pytest.mark.parametrize("alpha,beta,N", [(0.0, 0.0, 200), (5.0, 0.0, 200), (0.0, 1e3, 100)])
def test_eval_expansion_against_exact_at_large_n(alpha, beta, N, route, monkeypatch):
    # where the long double scales sqrt(h_0) S_n of the monic sweep pass the
    # double range (2.5e315 and 2.4e319 at N = 200), and for (0, 1e3) up to
    # its highest accepted degree, N: half-integers, thirds and points
    # NEAR_NODE either side of 0, N/2 and N are within 2 eps S(x) in both
    # conventions, and a row fault of 1e-12 fails the bound
    p = HahnParams(alpha, beta, N)
    xs = ([j + f for j in (0, N // 4, N // 2, N - 1) for f in (0.5, 1 / 3, 2 / 3)]
          + [k + s * dd.NEAR_NODE for k in (0, N // 2, N) for s in (-1.0, 1.0)])
    cols = [exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N) for x in xs]
    for normalized in (True, False):
        full = _runge_coeffs(p, N, normalized).coeffs
        vectors = [CoefficientVector(p, full[: m + 1], normalized)
                   for m in (1, N // 2, 7 * N // 8, N)]
        assert _worst_clenshaw_ratio(vectors, xs, cols) <= 2.0
    _plant_row_fault(p, monkeypatch)
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


# The off-node tests above sweep by this platform's route, the long double
# one on x87.  Each runs again here with the dd sweep forced, the route of a
# platform whose long double is not x87 extended, its planted row fault
# included.

@pytest.fixture
def dd_route(monkeypatch):
    monkeypatch.setattr(dd, "EXTENDED", False)


@pytest.mark.parametrize("N", [30, 100, 200])
@pytest.mark.parametrize("alpha,beta", BENCH_FAMILIES)
def test_eval_expansion_array_equals_point_loop_on_dd(N, alpha, beta, dd_route):
    test_eval_expansion_array_equals_point_loop(N, alpha, beta)


def test_eval_expansion_array_longer_than_block_on_dd(dd_route):
    test_eval_expansion_array_longer_than_block()


def test_eval_expansion_scalar_returns_float_on_dd(dd_route):
    test_eval_expansion_scalar_returns_float()


@pytest.mark.parametrize("N", [30, 60])
@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, 3.0), (0.0, 1e3)])
def test_eval_expansion_against_exact_on_dd(N, alpha, beta, dd_route, monkeypatch):
    test_eval_expansion_against_exact(N, alpha, beta, monkeypatch)


@pytest.mark.parametrize("alpha,beta,N", [(-0.999, -0.999, 30), (0.0, 1e6, 30), (3.0, -0.999, 60),
                                          (1e6, 1e6, 60)])
def test_eval_expansion_at_the_near_node_distance(alpha, beta, N):
    # NEAR_NODE either side of every node, the nearest points the long
    # double sweep takes, are within 2 eps S(x) like any off-node point;
    # on the long double sweep these families reach 2.1-5.7 eps S(x) at
    # 1/256 of a node.  For (1e6, 1e6) the Q~_n(x) are near 1e-148 and the
    # coefficients near 1e148, which only exact prefix sums can judge
    p = HahnParams(alpha, beta, N)
    xs = [k + s * dd.NEAR_NODE for k in range(N + 1) for s in (-1.0, 1.0)]
    cols = [exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), N) for x in xs]
    full = _runge_coeffs(p, N, True).coeffs
    vectors = [CoefficientVector(p, full[: m + 1]) for m in (N // 2, 7 * N // 8, N)]
    assert _worst_clenshaw_ratio(vectors, xs, cols) <= 2.0


def test_eval_expansion_near_a_node_takes_the_dd_sweep(monkeypatch):
    # nearer a node than NEAR_NODE the sum is as sensitive to the last bits
    # of the rows as 1 / distance: the dd sweep meets 2 eps S(x) there, and
    # the long double sweep, planted in its place, does not
    p = HahnParams(0.0, 1e3, 30)
    xs = [1.0 + 2.0**-20, 15.0 - 2.0**-30, 29.0 + 2.0**-8, math.nextafter(30.0, 0.0)]
    cols = [exact_hahn_column(Fraction(x), Fraction(0), Fraction(1000), 30) for x in xs]
    full = _runge_coeffs(p, 30, True).coeffs
    vectors = [CoefficientVector(p, full[: m + 1]) for m in (26, 30)]
    assert _worst_clenshaw_ratio(vectors, xs, cols) <= 2.0
    if dd.EXTENDED:
        monkeypatch.setattr(expansion, "NEAR_NODE", 0.0)
        assert _worst_clenshaw_ratio(vectors, xs, cols) > 2.0


@pytest.mark.parametrize("alpha,beta,top", [(0.0, 0.0, 200), (-0.5, 3.0, 200), (0.0, 1e3, 83)])
def test_eval_expansion_near_node_zero_is_anchored(alpha, beta, top, monkeypatch):
    # within NEAR_NODE of node 0 the sum is F(0) - x sum_n r_n y_(n+1),
    # which holds Q_n(0) = 1 fixed: within 2 eps S(x) at N = 200 for runge
    # truncations and unit vectors, where the plain dd sum y_0, planted
    # back, reads up to 14, 1900 and 2400 eps S(x) on the three families
    # (the rounding of levels far above a sum near Q_n(0) = 1)
    p = HahnParams(alpha, beta, 200)
    xs = [2.0**-60, -(2.0**-60), 2.0**-53, 2.0**-30, 1 / 32, -1 / 32]
    cols = [exact_hahn_column(Fraction(x), Fraction(alpha), Fraction(beta), 200) for x in xs]
    vectors = []
    for normalized in (True, False):
        full = _runge_coeffs(p, top, normalized).coeffs
        vectors += [[CoefficientVector(p, full[: m + 1], normalized) for m in (top // 2, top)]]
        vectors += [[CoefficientVector(p, np.eye(m + 1)[m], normalized)] for m in (top // 2, top)]
    assert max(_worst_clenshaw_ratio(v, xs, cols) for v in vectors) <= 2.0
    sweep = dd.dd_clenshaw_sweep
    monkeypatch.setattr(dd, "dd_clenshaw_sweep", lambda rows, ks, x, from_zero: sweep(rows, ks, x))
    assert max(_worst_clenshaw_ratio(v, xs, cols) for v in vectors) > 2.0


def test_eval_expansion_sum_past_double_range_is_nan(route):
    # an inf coefficient, or a sum past the double range, is NaN off the
    # grid on either route, with no warning: 1.5e308 (1 + Q_1(1/2)) with
    # Q_1(1/2) = 0.9 is inf in double, finite in long double
    p = HahnParams(0.0, 0.0, 10)
    for coeffs, normalized in (([1.0, math.inf], True), ([1.5e308, 1.5e308], False)):
        c = CoefficientVector(p, np.array(coeffs), normalized)
        assert np.isnan(eval_expansion(c, np.array([0.5, 1.5]))).all()
        assert math.isnan(eval_expansion(c, 0.5))


@pytest.mark.parametrize("x,forced", [(0.5, True), (2.0**-20, False)])
def test_eval_expansion_big_levels_on_dd(x, forced, monkeypatch):
    # levels near 2e301, past 2^996, where an unscaled Dekker split
    # overflows: the dd sweep splits them scaled by 2^-28 and meets
    # 2 eps S(x), with Q_1(x) = 1 - x/5 and S(x) = 2e301.  0.5 takes the dd
    # sweep forced; 2^-20, within NEAR_NODE of node 0, takes it on every
    # platform
    if forced:
        monkeypatch.setattr(dd, "EXTENDED", False)
    c = CoefficientVector(HahnParams(0.0, 0.0, 10), np.array([1e301, 1e301]), normalized=False)
    exact = Fraction(1e301) * (2 - Fraction(x) / 5)
    bound = 2 * Fraction(np.finfo(float).eps) * Fraction(2e301)
    for got in (eval_expansion(c, x), float(eval_expansion(c, np.array([x]))[0])):
        assert math.isfinite(got)
        assert abs(Fraction(got) - exact) <= bound


def _exact_projection(u: GridFunction) -> tuple[list[float], float]:
    # the full-degree orthonormal coefficients of the samples, sum_x Q_n(x)
    # w(x) u(x) / sqrt(h_n) with every sum exact, each rounded about once,
    # and ||u||_w
    p = u.params
    N = p.N
    cols, h, ws = _exact_ratios(p.alpha, p.beta, N, list(range(N + 1)))
    uw = [Fraction(v) * Fraction(wn, wd) for v, (wn, wd) in zip(u.values.tolist(), ws)]
    coeffs = []
    for n, (hn, hd) in enumerate(h):
        s = sum(f * Fraction(*col[n]) for f, col in zip(uw, cols))
        sq = s * s * Fraction(hd, hn)
        coeffs.append(math.copysign(math.sqrt(sq.numerator / sq.denominator), s))
    norm_sq = sum(f * Fraction(v) for f, v in zip(uw, u.values.tolist()))
    return coeffs, math.sqrt(norm_sq.numerator / norm_sq.denominator)


def _runge(t):
    return 1.0 / (1.0 + 25.0 * t * t)


def _sin_pi(t):
    return math.sin(math.pi * t)


# full-degree coefficients against the exact projection, within
# 1e-10 ||u||_w.  Two known wrong outputs that exit 0 stay: the per-point dd
# grid at N <= 12 is off for large exponents (ROADMAP item 1 step 2, which
# waits for item 17); errors today, in ||u||_w, are 9.91 and 8.6e33.  The
# six cells at N = 30 and 41, wrong on the per-point grid by 1.9e41,
# 2.5e-6, 332, 287, 2.5e33 and 1.2e-4, pass on the twisted build
_SMALL_GRID_XFAIL = pytest.mark.xfail(strict=True, reason="per-point grid at N <= 12; "
                                      "ROADMAP items 17 and 1")


@pytest.mark.parametrize("alpha,beta,N,fn", [
    pytest.param(1e6, 0.0, 30, _runge, id="runge-1e6-0"),
    pytest.param(1e3, 0.0, 30, _sin_pi, id="sin-pi-1e3-0"),
    pytest.param(1e6, -0.999, 12, _runge, id="runge-1e6--0.999-12", marks=_SMALL_GRID_XFAIL),
    pytest.param(0.0, 1e6, 30, _runge, id="runge-0-1e6-30"),
    pytest.param(1e3, 0.0, 41, _sin_pi, id="sin-pi-1e3-0-41"),
    pytest.param(1e12, 0.0, 6, _runge, id="runge-1e12-0-6", marks=_SMALL_GRID_XFAIL),
    pytest.param(-0.999, 1e6, 30, _runge, id="runge--0.999-1e6-30"),
    pytest.param(1e3, -0.5, 30, _runge, id="runge-1e3--0.5-30"),
])
def test_small_grid_projection_matches_exact(alpha, beta, N, fn):
    p = HahnParams(alpha, beta, N)
    u = GridFunction.from_callable(fn, p, IntervalMap(-1.0, 1.0, N).to_interval)
    want, norm = _exact_projection(u)
    got = project(u, N).coeffs
    assert np.max(np.abs(got - np.array(want))) <= 1e-10 * norm


CENSUS_LATTICE = [-0.999, -0.5, 0.0, 3.0, 50.0, 1e3, 1e6]


# ROADMAP item 1's census criterion at the sizes the twisted build took
# over from the per-point grid: every accepted family of the lattice, runge
# and sin-pi projected to full degree, each coefficient within 1e-10 ||u||_w
# of the exact projection.  On the per-point grid 20 families at N = 30 and
# 15 at N = 41 failed it, by up to 6.9e67 ||u||_w; the refused families are
# refused by their weights or norms, and their count is pinned
@pytest.mark.parametrize("N,accepted", [(30, 49), (41, 43)])
def test_full_degree_projection_matches_exact_on_the_lattice(N, accepted):
    checked = 0
    for alpha in CENSUS_LATTICE:
        for beta in CENSUS_LATTICE:
            p = HahnParams(alpha, beta, N)
            for fn in (_runge, _sin_pi):
                u = GridFunction.from_callable(fn, p, IntervalMap(-1.0, 1.0, N).to_interval)
                try:
                    got = project(u, N).coeffs
                except DomainError:
                    continue
                checked += 1
                want, norm = _exact_projection(u)
                assert np.max(np.abs(got - np.array(want))) <= 1e-10 * norm, (alpha, beta, fn)
    assert checked == 2 * accepted


# at degree N the exact expansion equals its samples at every node; on
# (0,50,200) 48 of 201 printed node values are off by more than 1e-6, the
# last by 1.16e8.  verify's interpolation row fails there (ROADMAP item 14
# step 1); mending the values is step 2
@pytest.mark.parametrize("alpha,beta,N", [
    (0.0, 0.0, 200),
    (0.5, 0.5, 100),
    (-0.5, 3.0, 200),
    pytest.param(0.0, 50.0, 200, marks=pytest.mark.xfail(
        strict=True, reason="node values where w(x) is small; ROADMAP item 14")),
])
def test_full_degree_expansion_reproduces_runge_samples_at_the_nodes(alpha, beta, N):
    p = HahnParams(alpha, beta, N)
    u = GridFunction.from_callable(_runge, p, IntervalMap(-1.0, 1.0, N).to_interval)
    got = eval_expansion(project(u, N), p.grid())
    assert np.max(np.abs(got - u.values)) <= 1e-12 * np.max(np.abs(u.values))


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


def test_project_memory_stays_small():
    # exact_row_sums extracts a block of 64 rows at a time: a full-degree
    # projection at N = 200 holds no (m+1) x (N+1) temporary
    p = HahnParams(0.5, 0.5, 200)
    u = _sine_sample(p)
    project(u, 200)
    tracemalloc.start()
    try:
        project(u, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400_000


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


def _entry_bits(reports):
    # every field of every row as int64 bits, so a NaN matches only a NaN
    # with the same payload and -0.0 differs from 0.0
    return [[(r.n, r.k) + tuple(np.array([r.coeff, r.bound, r.bound_degree_only,
                                          r.identity_residual]).view(np.int64).tolist())
             for r in rows] for rows in reports]


DECAY_FAMILIES = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0), (-0.5, 3.0), (0.0, 1e3), (-0.999, 50.0),
                  (20.0, 20.0)]
DECAY_ORDERS = [(1, 2, 3), (3, 1), (2, 2), (0, 1), (4,)]


@pytest.mark.parametrize("N", [1, 6, 30, 60, 200])
@pytest.mark.parametrize("alpha,beta", DECAY_FAMILIES)
def test_decay_pass_equals_one_report_per_order(alpha, beta, N):
    # the shared pass gives every order the rows of its own decay_report
    # call, bit for bit; no cell here is refused
    p = HahnParams(alpha, beta, N)
    imap = IntervalMap(-1.0, 1.0, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (lambda t: math.sin(math.pi * t), lambda t: 1.0 / (1.0 + 25.0 * t * t)):
            u = GridFunction.from_callable(fn, p, imap.to_interval)
            for ks in DECAY_ORDERS:
                n_range = range(1, min(20, N) + 1)
                got = expansion._decay_pass(u, ks, n_range)
                want = [decay_report(u, k, n_range) for k in ks]
                assert _entry_bits(got) == _entry_bits(want), ks


@pytest.mark.parametrize("alpha,beta", [(-0.999, -0.999), (-0.9, -0.5)] + DECAY_FAMILIES)
def test_degree_only_bound_holds(alpha, beta):
    # lam_n >= min(1, alpha + beta + 2) n^2 for n >= 1, so the degree-only
    # bound is a bound for every accepted family, within the slack and the
    # projection's rounding that `decay` allows the operator bound.  With
    # n^(2k) in its place, as where alpha + beta >= -1, (-0.999, -0.999)
    # fails at k = 1, n = 3 (|u_3| = 3.2e-4 against 2.4e-4)
    p = HahnParams(alpha, beta, 30)
    imap = IntervalMap(-1.0, 1.0, 30)
    for fn in (lambda t: math.sin(math.pi * t), lambda t: 1.0 / (1.0 + 25.0 * t * t)):
        u = GridFunction.from_callable(fn, p, imap.to_interval)
        floor = 31 * np.finfo(float).eps * math.sqrt(inner_product(u, u))
        for rows in expansion._decay_pass(u, (1, 2, 3), range(1, 31)):
            for r in rows:
                assert abs(r.coeff) <= r.bound_degree_only * (1.0 + BOUND_SLACK) + floor, r


@pytest.mark.parametrize("ks,first", [((1, 60), 60), ((60, 120), 60), ((120, 1), 120),
                                      ((1, 2, 58), 58)])
def test_decay_pass_refuses_the_first_overflowing_order(ks, first):
    # at N = 30 ||L^k u||_w of the sine sample passes the double range from
    # k = 58: the pass refuses the first such order of the tuple, with the
    # message of its decay_report call
    p = HahnParams(0.0, 0.0, 30)
    u = _sine_sample(p)
    with pytest.raises(DomainError) as exc:
        expansion._decay_pass(u, ks, range(1, 4))
    with pytest.raises(DomainError) as ref:
        decay_report(u, first, range(1, 4))
    assert str(exc.value) == str(ref.value) and f"k={first}" in str(exc.value)
    # an invalid order after a refused one: the refusal comes first, as in
    # one call per order
    with pytest.raises(DomainError, match=f"k={first}"):
        expansion._decay_pass(u, ks + (-1,), range(1, 4))
    with pytest.raises(DomainError, match="nonnegative"):
        expansion._decay_pass(u, (1, -1, first), range(1, 4))
    assert expansion._decay_pass(u, (), range(1, 4)) == []


def _decay_bits(p: HahnParams) -> tuple[str, str, str]:
    # sha256 of the float64 bytes of the sine sample's L u, L^2 u and L^3 u,
    # and of its decay rows (n, k, coeff, bound, bound_degree_only,
    # identity_residual) of orders (1, 2, 3) over 1..N and of order 2 over
    # N..1, or the text of their refusal
    u = _sine_sample(p)
    chain = [u]
    for _ in range(3):
        chain.append(l_disk_apply(chain[-1]))
    out = [_digest([v.values for v in chain[1:]])]
    for ks, n_range in (((1, 2, 3), range(1, p.N + 1)), ((2,), range(p.N, 0, -1))):
        try:
            reports = expansion._decay_pass(u, ks, n_range)
        except DomainError as exc:
            out.append(str(exc))
            continue
        out.append(_digest([(r.n, r.k, r.coeff, r.bound, r.bound_degree_only,
                             r.identity_residual) for rows in reports for r in rows]))
    return tuple(out)


# `_decay_bits`, recorded on the code whose decay rows held numpy scalars
# and whose operator recomputed its family constants on every call.
# (0, 10^6.5) at N = 60 scales its weights (e > 0) and refuses the decay
# rows by its norms; the other families refuse none.  The two row digests
# of (0, 0, 30) were re-recorded when the grid at N = 30 became the twisted
# build, after the rows were measured against rows of exact coefficients:
# coeff within 2.3e-16 ||u||_w (1.1e-16 on the dd grid), the bounds
# unchanged, and every identity_residual at most 7.3e-12 (2.7e-12)
DECAY_BITS = {
    (0.0, 0.0, 30): (
        "2f6bf0ca30e9f980cd94551e1218259fcc9267ede05be9d8ffa07953a7d1d332",
        "64257b8064bdcf2cbac0d9805fc553251416a5f95672ba801e57ed8c68bbd1f1",
        "cc72b27d7ae0c5d075193226346a398388868f0d18126a50b172ae50db42a839"),
    (0.5, 0.5, 100): (
        "4951e8cba17d8047f7f187e836979a771312c6bcf09689aac5e776fd09bc6936",
        "51017065c6639c125dd553e6088dc56a379e4129508c44b4989386f4abf7eb36",
        "63d5f0eb0ae002b0d07dde80ed691afdfaedab9875422aa6cb4eaa34ee861f7a"),
    (5.0, 0.0, 200): (
        "046950f5a10b9dfb90dec129ced3bd9ad39a0d77db87e410cf95942fc344f152",
        "3fb48beb857afd1aae85ff267fae2bc303e83a421c848087c88e8c9328f048bc",
        "21b280b078048a65eab50a6a228c99453c5b8ab3ef0da99e5ad620124433236c"),
    (-0.5, 3.0, 60): (
        "7ba33117c222e6df932ba2d13a88d3daa67becbb2f90189914cf1b63044ac134",
        "47acd09406eafe35d477e8501da8909c23dc7ed6e2c76f1aff54cf76a19da8c5",
        "04f8c692bff68608cb07ca1c9e56119283337f66ab651b9bd8dedb05567fc248"),
    (0.0, 10**6.5, 60): (
        "b23ddbaa94898ab80cb3c5348736e1945744c09a7e3c0c375e50cb56669426c7",
        "norm of Q_1 is not finite in double precision",
        "norm of Q_1 is not finite in double precision"),
}


@pytest.mark.parametrize("alpha,beta,N", list(DECAY_BITS))
def test_decay_rows_and_operator_keep_their_bits(alpha, beta, N):
    p = HahnParams(alpha, beta, N)
    assert (basis(p).flux[0] > 0) == (beta > 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _decay_bits(p) == DECAY_BITS[alpha, beta, N]


def test_decay_rows_are_named_tuples_of_python_floats():
    p = HahnParams(0.5, 0.5, 30)
    reports = expansion._decay_pass(_sine_sample(p), (1, 2, 3), range(30, 0, -1))
    for r in (r for rows in reports for r in rows):
        assert type(r.n) is int and type(r.k) is int
        assert all(type(v) is float for v in r[2:])
    r = reports[0][0]
    with pytest.raises(AttributeError):
        r.coeff = 0.0
    planted = r._replace(coeff=2.0 * r.bound)
    assert planted.coeff == 2.0 * r.bound and planted[:2] == r[:2] and planted[3:] == r[3:]
    assert r == reports[0][0] and hash(r) == hash(tuple(r))


def test_decay_report_takes_any_iterable_of_degrees():
    # a range is checked by its extremes; any other iterable entry by entry
    # (tests/test_hahn.py refuses [3, 2.5]), which takes a numpy integer
    p = HahnParams(0.0, 0.0, 20)
    u = _sine_sample(p)
    rows = decay_report(u, 1, range(1, 6))
    assert decay_report(u, 1, [3, 1, np.int64(2)]) == [rows[2], rows[0], rows[1]]


@pytest.mark.parametrize("k,n_range", [(200, range(1, 3)), (150, range(2, 3))])
def test_decay_report_refuses_a_power_that_underflows(k, n_range):
    # lam_1 = alpha + beta + 2 = 0.002 = low: 0.002^200 and 0.002^150 are 0
    # in double, though ||L^k u||_w is finite.  At n = 1 lam_n^k vanishes;
    # at n = 2 only n^(2k) low^k does (lam_2^150 = 4.008^150 is finite).
    # The bounds divide by both, so the order is refused by name, as an
    # overflow is; one order lower, every row is finite
    p = HahnParams(-0.999, -0.999, 2)
    u = _sine_sample(p)
    with pytest.raises(DomainError, match=rf"^lam_n\^k or n\^\(2k\) low\^k underflows double "
                                          rf"precision at k={k}$"):
        decay_report(u, k, n_range)
    rows = decay_report(u, 100, n_range)
    assert all(math.isfinite(v) for r in rows for v in r[2:])


def test_decay_residual_past_the_double_range_is_inf_without_warning(monkeypatch):
    # a planted u_3 = 1e307 times lam_3^2 = 144 passes the double range: as
    # Python floats the residual is inf with no warning, where numpy's
    # float64 scalar warns of the overflow
    p = HahnParams(0.0, 0.0, 30)
    real = expansion._project_rows

    def planted(p, m, values):
        rows = real(p, m, values)
        rows[0, 3] = 1e307
        return rows

    monkeypatch.setattr(expansion, "_project_rows", planted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = decay_report(_sine_sample(p), 2, range(1, 5))
        with pytest.raises(RuntimeWarning, match="overflow"):
            np.float64(1e307) * 144.0
    assert rows[2].identity_residual == math.inf
    assert all(math.isfinite(r.identity_residual) for r in rows if r.n != 3)


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
    # matrix is built once per family, at N = 30, 100 and 200 alike by one
    # twisted build and no sweep, and no build raises a warning
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
    assert sweeps == [{}, {}] and builds == [SESSION_FAMILIES, []]
    for first, second in zip(*rounds):
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
    for p in SESSION_FAMILIES:
        b = basis(p)
        assert b is basis(p)
        assert isinstance(b.series, tuple)
        for arr in (b.weights, b.sqrt_norms, b.grid):
            assert not arr.flags.writeable

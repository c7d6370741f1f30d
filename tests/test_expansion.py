"""Projection, expansion evaluation, interval maps, and the decay report."""

import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

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
    _EVAL_BLOCK,
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
from hahnpoly.oracle_exact import exact_hahn_eval, exact_norm_sq, exact_weight


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
    with pytest.raises(DegenerateIntervalError):
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
    assert got == pytest.approx(float(exact_norm_sq(2, half, half, N)), rel=1e-12)


def test_inner_product_constant_gives_total():
    p = HahnParams(5.0, 0.0, 12)
    one = GridFunction(p, np.ones(13))
    assert inner_product(one, one) == pytest.approx(math.fsum(weight_table(p)), rel=1e-14)


def test_inner_product_unit_weight_counts_points():
    # flat weight: the all-ones inner product is just the point count
    p = HahnParams(0.0, 0.0, 30)
    one = GridFunction(p, np.ones(31))
    assert inner_product(one, one) == 31.0


def test_inner_product_mismatch():
    p = HahnParams(0.0, 0.0, 4)
    q = HahnParams(0.0, 0.0, 5)
    with pytest.raises(LengthMismatchError):
        inner_product(GridFunction(p, np.zeros(5)), GridFunction(q, np.zeros(6)))


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
    with pytest.raises(DegreeOutOfRangeError):
        project(u, 11)
    # normalized is keyword-only: a third positional argument, such as a
    # weight table, is refused rather than read as normalized=True
    with pytest.raises(TypeError):
        project(u, 3, weight_table(p))


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
    # more points than one block, and not a multiple of it
    p = HahnParams(0.5, 0.5, 100)
    imap = IntervalMap(-1.0, 1.0, 100)
    xs = imap.to_grid(np.linspace(-1.0, 1.0, 2500))
    assert len(xs) > 2 * _EVAL_BLOCK and len(xs) % _EVAL_BLOCK != 0
    c = _runge_coeffs(p, 40, True)
    got = eval_expansion(c, xs)
    assert np.array_equal(got, np.array([eval_expansion(c, float(x)) for x in xs]))


def test_eval_expansion_scalar_returns_float():
    c = _runge_coeffs(HahnParams(0.0, 0.0, 30), 10, True)
    assert type(eval_expansion(c, 7.5)) is float
    assert type(eval_expansion(c, np.float64(7.5))) is float
    assert eval_expansion(c, 7.5) == eval_expansion(c, np.array([7.5]))[0]


def test_parseval_small_grid():
    p = HahnParams(5.0, 0.0, 12)
    rng = np.random.default_rng(13)
    u = GridFunction(p, rng.standard_normal(13))
    c = project(u, 12).coeffs
    assert math.fsum(c * c) == pytest.approx(inner_product(u, u), rel=1e-12)


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
        assert r.bound == pytest.approx(norm, rel=1e-13)
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


def test_decay_report_refuses_overflowing_powers():
    # at N = 30, ||L^k u||_w of the sine sample stays finite through k = 56;
    # past that L^k u or its norm overflows, and a constant input (L u = 0)
    # still needs lam_n^k, which overflows at k = 300
    p = HahnParams(0.0, 0.0, 30)
    u = _sine_sample(p)
    rows = decay_report(u, 55, range(1, 4))
    assert all(math.isfinite(r.bound) for r in rows)
    for k in (57, 60, 120):
        with pytest.raises(DomainError, match=f"k={k}"):
            decay_report(u, k, range(1, 4))
    with pytest.raises(DomainError, match="k=300"):
        decay_report(GridFunction(p, np.ones(31)), 300, range(1, 31))


# sha256 of the float64 bytes of the sine sample's `project` coefficients at
# m = N and m = 3N/4, and of its decay_report rows (coeff, bound,
# bound_degree_only, identity_residual) at k = 2 over degrees 1..N; recorded
# on the code before the recurrence step was fused.  Above N ~ 70 these
# values are far from the true coefficients (the basis loses accuracy), so
# they pin the bits the code computes, not the mathematics
GOLDEN_SPECTRA = {
    (0.0, 0.0, 100): (
        "454d3edd9f894b1b204714e2e625de94c625de0dd1a889b6de9c90e58c939e12",
        "c948e97776be4d587cc77fc203e895002cd816bdd0ce33a3bc3ee3f70340f43b",
        "33e4ce5e83d69537e72dd4d44879f8fef64d515ba9a9fd6aad64f686405c2bb3"),
    (0.0, 0.0, 200): (
        "9ce2d8b86a8d52efdd9e7c5e56c09e93e36d15a5583c8bcf7bf2b6474914b6c2",
        "79c0c772bcba866d06ab7fa77043acf2ff0661682a39e17678ff00e9a0c32f5f",
        "e777394195913504edecdfffe73d2e014e96c8288be60dd1f1a68826e06a8f69"),
    (-0.5, 3.0, 100): (
        "0113a942948d15c7f2d7597f82108f97e3b90fdd819caf4663dd701f449956fa",
        "bb7b6c809b760c1dd5c37213c841f2e5e0f543ef5354dce7285d1165ea515317",
        "a98d270856787637fd148e4aa3cf74a34c10a08b43798cc5ec85e3f0dbc5d8a7"),
    (-0.5, 3.0, 200): (
        "67ba1cb70b9ff42c8645019dbcc58feecedcde4ecd4bf9d2ed672c4308a8139a",
        "f3c082846db44975ade503c3d9c6380a1347f7a5d387780b8357e1e9b1bfb4c5",
        "7ed91c0b9350a592f74f1f36dfe4a196dd70fb69018fbb30b5bcf49cab605e9a"),
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
    # matrix (one scalar sweep per grid point) is built once per family
    sweeps = Counter()
    sweep = hahn.hahn_eval_all

    def counted(m, x, params):
        if np.ndim(x) == 0:
            sweeps[params] += 1
        return sweep(m, x, params)

    monkeypatch.setattr(hahn, "hahn_eval_all", counted)
    basis.cache_clear()
    rounds = []
    for _ in range(2):
        coeffs = []
        for p in SESSION_FAMILIES:
            u = GridFunction.from_callable(lambda t: 1.0 / (1.0 + 25.0 * t * t), p,
                                           IntervalMap(-1.0, 1.0, p.N).to_interval)
            coeffs.append(project(u, p.N).coeffs)
        rounds.append(coeffs)
    assert sweeps == {p: p.N + 1 for p in SESSION_FAMILIES}
    for first, second in zip(*rounds):
        assert np.array_equal(first.view(np.int64), second.view(np.int64))
    for p in SESSION_FAMILIES:
        b = basis(p)
        assert b is basis(p)
        assert isinstance(b.steps, tuple)
        for arr in (b.weights, b.sqrt_norms, b.grid):
            assert not arr.flags.writeable

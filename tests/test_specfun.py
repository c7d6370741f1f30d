"""Terminating 3F2 and the weight route, tested against the exact
rational oracle and a handful of hand values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly.errors import DomainError, NonTerminatingError, ZeroDenominatorError
from hahnpoly.hahn import HahnParams, weight_table
from hahnpoly.oracle_exact import exact_weight
from hahnpoly.specfun import binomial_weight, terminating_3f2


def test_3f2_zeroth_term_only():
    # leading parameter 0 terminates immediately: the sum is 1
    assert terminating_3f2((0.0, 3.3, -2.0), (1.5, -8.0)) == 1.0


def test_3f2_hand_value():
    # 3F2(-2, 4, -1; 3/2, -4; 1) = 1 - 4/3 = -1/3 (third term vanishes)
    val = terminating_3f2((-2.0, 4.0, -1.0), (1.5, -4.0))
    assert val == pytest.approx(-1.0 / 3.0, rel=1e-14, abs=1e-15)
    # numpy scalar arguments give the same Python float
    same = terminating_3f2((np.float64(-2.0), np.float64(4.0), np.float64(-1.0)), (1.5, -4.0))
    assert type(val) is float and type(same) is float and same == val


def test_3f2_against_rational_loop():
    # independent Fraction evaluation of the same series
    num = (-4.0, 2.5, -3.0)
    den = (1.25, -6.0)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(4):
        term *= Fraction(-4 + k) * (Fraction(5, 2) + k) * (-3 + k)
        term /= (Fraction(5, 4) + k) * (-6 + k) * (k + 1)
        total += term
    got = terminating_3f2(num, den)
    assert got == pytest.approx(float(total), rel=1e-14, abs=0)


def test_3f2_nonterminating_raises():
    for lead in (0.5, 2.0, -2.5, math.nan, -math.inf):
        with pytest.raises(NonTerminatingError):
            terminating_3f2((lead, 1.0, 1.0), (2.0, 3.0))


def test_3f2_zero_denominator_raises():
    # b1 + k hits zero at k = 2 before the series ends at k = 3
    with pytest.raises(ZeroDenominatorError):
        terminating_3f2((-3.0, 1.0, 1.0), (-2.0, 5.0))
    # a series of two terms ends before that zero
    assert math.isfinite(terminating_3f2((-2.0, 1.0, 1.0), (-2.0, 5.0)))


def test_3f2_series_too_long_raises():
    with pytest.raises(DomainError):
        terminating_3f2((-500.0, 1.0, 1.0), (1.0, 1000.0))


def test_weight_integer_fast_path():
    # (alpha=5, beta=0, N=30): w(1) = C(6,1) = 6, exactly
    assert binomial_weight(1, 5.0, 0.0, 30) == 6.0
    assert binomial_weight(0, 0.0, 0.0, 12) == 1.0


@pytest.mark.parametrize("x", [0, 3, 7, 12])
def test_weight_matches_oracle_fractional(x):
    # orthogonality residuals scale with the weight error, so the product
    # route has to be accurate to the last digit or two
    exact = float(exact_weight(x, Fraction(1, 2), Fraction(1, 2), 12))
    got = binomial_weight(x, 0.5, 0.5, 12)
    assert got == pytest.approx(exact, rel=1e-15, abs=0)


def _exact_or_none(x, alpha, beta, N):
    try:
        return float(exact_weight(x, Fraction(alpha), Fraction(beta), N))
    except OverflowError:
        return None


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (5.0, 0.0), (20.0, 20.0), (0.5, 0.5),
                                        (-0.5, 3.0), (0.1, 0.3), (-0.9, -0.9), (1e5, 1e-3),
                                        (-1.0 + 2.0 ** -53, 1e26), (-0.999, 1e4), (1e6, 0.5)])
def test_weights_equal_oracle_bit_for_bit(alpha, beta):
    # integer, fractional, near -1 and near the double range: every weight
    # is the exact rational weight rounded once; where some exact weight is
    # past the double range, the row names the first such point and each
    # finite weight is checked on its own
    for N in (1, 30, 200):
        exact = [_exact_or_none(x, alpha, beta, N) for x in range(N + 1)]
        if None in exact:
            with pytest.raises(DomainError, match=rf"w\({exact.index(None)}\) is not finite"):
                weight_table(HahnParams(alpha, beta, N))
            xs = [x for x, w in enumerate(exact) if w is not None]
            got = [binomial_weight(x, alpha, beta, N) for x in xs]
            exact = [exact[x] for x in xs]
        else:
            got = weight_table(HahnParams(alpha, beta, N))
        assert np.array_equal(np.array(got).view(np.int64), np.array(exact).view(np.int64))


def test_weight_symmetric_parameters():
    w0 = binomial_weight(0, 0.5, 0.5, 2)
    w2 = binomial_weight(2, 0.5, 0.5, 2)
    assert w0 == pytest.approx(w2, rel=1e-14, abs=0)


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        binomial_weight(5, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        binomial_weight(-1, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        binomial_weight(1, -1.0, 0.0, 4)


@pytest.mark.parametrize("alpha,beta,message", [
    (math.nan, 0.0, "alpha must be finite and greater than -1, got nan"),
    (math.inf, 0.0, "alpha must be finite and greater than -1, got inf"),
    (0.0, -math.inf, "beta must be finite and greater than -1, got -inf"),
    (-1.0, 0.0, "alpha must be finite and greater than -1, got -1.0"),
])
def test_weight_exponents_refused_in_params_wording(alpha, beta, message):
    # the same rule and text as HahnParams; nan and inf used to give 1.0
    with pytest.raises(DomainError, match=f"^{message}$"):
        binomial_weight(0, alpha, beta, 4)
    with pytest.raises(DomainError, match=f"^{message}$"):
        weight_table(HahnParams(alpha, beta, 4))


def test_weight_accepts_numpy_scalars():
    for alpha, beta in ((np.int64(2), np.float64(0.5)), (np.float32(0.5), np.int32(0))):
        want = weight_table(HahnParams(float(alpha), float(beta), 6)).tolist()
        assert weight_table(HahnParams(alpha, beta, 6)).tolist() == want
        assert binomial_weight(np.int64(3), alpha, beta, 6) == want[3]


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (-0.5, 3.0), (0.3, 7.25), (5.0, 0.0)])
def test_weight_row_equals_scalar_weights(alpha, beta):
    # the running ratio, divided only at the points asked for, gives
    # every grid point's own quotient
    for N in (1, 30, 200):
        row = weight_table(HahnParams(alpha, beta, N))
        loop = np.array([binomial_weight(x, alpha, beta, N) for x in range(N + 1)])
        assert np.array_equal(row.view(np.int64), loop.view(np.int64))
    with pytest.raises(DomainError):
        weight_table(HahnParams(-1.0, 0.0, 4))


@pytest.mark.parametrize("alpha,beta,N,first", [(1e6, 0.0, 200, 68), (1e6, 0.5, 200, 67),
                                                (-0.999, 1e4, 200, 0), (1e305, 0.5, 2, 2),
                                                (1e305, 0.5, 200, 2)])
def test_weights_past_double_range_refused(alpha, beta, N, first):
    # the weights before the first grid point whose exact weight is past
    # the double range equal the oracle, up to 2.4e304 and 1.5e305 here,
    # and that point is named: the integer quotient raises OverflowError
    # there and nowhere before
    with pytest.raises(DomainError, match=rf"w\({first}\) is not finite"):
        weight_table(HahnParams(alpha, beta, N))
    with pytest.raises(DomainError, match=rf"w\({first}\)"):
        binomial_weight(first, alpha, beta, N)
    with pytest.raises(OverflowError):
        float(exact_weight(first, Fraction(alpha), Fraction(beta), N))
    for x in range(max(first - 2, 0), first):
        exact = float(exact_weight(x, Fraction(alpha), Fraction(beta), N))
        assert binomial_weight(x, alpha, beta, N) == pytest.approx(exact, rel=1e-15, abs=0)


def test_weight_near_double_range_is_finite():
    # w(0) = C(1e26 + 12, 12) is about 2e303: finite and right, from
    # integer products far past the double range
    alpha, beta = -1.0 + 2.0 ** -53, 1e26
    w = weight_table(HahnParams(alpha, beta, 12))
    for x in (0, 1, 6, 12):
        exact = float(exact_weight(x, Fraction(alpha), Fraction(beta), 12))
        assert w[x] == pytest.approx(exact, rel=1e-15, abs=0)
    assert w[0] > 1e303

"""Terminating 3F2 and the weight route, tested against the exact
rational oracle and a handful of hand values."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly.errors import DomainError, NonTerminatingError, ZeroDenominatorError
from hahnpoly.oracle_exact import exact_weight
from hahnpoly.specfun import binomial_weight, binomial_weights, terminating_3f2


def test_3f2_zeroth_term_only():
    # leading parameter 0 terminates immediately: the sum is 1
    assert terminating_3f2((0.0, 3.3, -2.0), (1.5, -8.0)) == 1.0


def test_3f2_hand_value():
    # 3F2(-2, 4, -1; 3/2, -4; 1) = 1 - 4/3 = -1/3 (third term vanishes)
    val = terminating_3f2((-2.0, 4.0, -1.0), (1.5, -4.0))
    assert val == pytest.approx(-1.0 / 3.0, rel=1e-14, abs=1e-15)


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
    assert got == pytest.approx(float(total), rel=1e-14)


def test_3f2_nonterminating_raises():
    with pytest.raises(NonTerminatingError):
        terminating_3f2((0.5, 1.0, 1.0), (2.0, 3.0))
    with pytest.raises(NonTerminatingError):
        terminating_3f2((2.0, 1.0, 1.0), (2.0, 3.0))


def test_3f2_zero_denominator_raises():
    # b1 + k hits zero at k = 2 before the series ends at k = 3
    with pytest.raises(ZeroDenominatorError):
        terminating_3f2((-3.0, 1.0, 1.0), (-2.0, 5.0))


def test_3f2_series_too_long_raises():
    with pytest.raises(DomainError):
        terminating_3f2((-500.0, 1.0, 1.0), (1.0, 1000.0))


def test_3f2_array_equals_scalar_calls():
    # broadcast numerators: a sweep of max(n) terms gives each entry
    # exactly its own scalar call, to the bit
    lead = -np.arange(13.0)[:, None]
    a2 = np.linspace(0.5, 7.5, 13)[:, None]
    a3 = -np.array([0.0, 1.5, 4.0, 9.25, 12.0])
    den = (1.25, -12.0)
    got = terminating_3f2((lead, a2, a3), den)
    assert got.shape == (13, 5)
    loop = np.array([
        [terminating_3f2((float(l), float(b), float(c)), den) for c in a3]
        for l, b in zip(lead[:, 0], a2[:, 0])
    ])
    assert np.array_equal(got.view(np.int64), loop.view(np.int64))
    assert type(terminating_3f2((-3.0, 1.0, 1.0), (2.0, 3.0))) is float


def test_3f2_array_with_one_bad_entry_raises():
    good = -np.arange(5.0)
    for bad in (-2.5, 2.0, math.nan, -math.inf):
        with pytest.raises(NonTerminatingError):
            terminating_3f2((np.append(good, bad), 1.0, 1.0), (2.0, 3.0))
    # only the n = 3 entry reaches the zero of b1 + k at k = 2
    with pytest.raises(ZeroDenominatorError):
        terminating_3f2((np.array([0.0, -1.0, -2.0, -3.0]), 1.0, 1.0), (-2.0, 5.0))
    with pytest.raises(DomainError):
        terminating_3f2((np.append(good, -500.0), 1.0, 1.0), (1.0, 1000.0))


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
    assert got == pytest.approx(exact, rel=1e-15)


def test_weight_product_route_matches_comb_route():
    # the dd prefix product at integer arguments reproduces the exact
    # binomials at every step
    from hahnpoly.specfun import _binomial_prefix_dd

    for a in (2.0, 5.0):
        prefix = _binomial_prefix_dd(a, 11)
        assert len(prefix) == 12
        for k, (hi, lo) in enumerate(prefix):
            assert hi + lo == float(math.comb(int(a) + k, k))


def test_weight_symmetric_parameters():
    w0 = binomial_weight(0, 0.5, 0.5, 2)
    w2 = binomial_weight(2, 0.5, 0.5, 2)
    assert w0 == pytest.approx(w2, rel=1e-14)


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        binomial_weight(5, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        binomial_weight(-1, 0.0, 0.0, 4)
    with pytest.raises(DomainError):
        binomial_weight(1, -1.0, 0.0, 4)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (-0.5, 3.0), (0.3, 7.25), (5.0, 0.0)])
def test_weight_row_equals_scalar_weights(alpha, beta):
    # the running prefix products give every grid point's own product
    for N in (1, 30, 200):
        row = np.array(binomial_weights(alpha, beta, N))
        loop = np.array([binomial_weight(x, alpha, beta, N) for x in range(N + 1)])
        assert np.array_equal(row.view(np.int64), loop.view(np.int64))
    with pytest.raises(DomainError):
        binomial_weights(-1.0, 0.0, 4)

"""Difference operators, the weighted-flux operator, and summation by
parts, on small hand-checkable grids plus spectral identities."""

import math

import numpy as np
import pytest

from hahnpoly.discrete_calculus import (
    GridFunction,
    backward_diff,
    forward_diff,
    l_disk_apply,
    l_disk_power,
    sbp_residual,
)
from hahnpoly.errors import DomainError, LengthMismatchError
from hahnpoly.hahn import HahnParams, basis, normalized_grid_matrix

P4 = HahnParams(0.0, 0.0, 4)


def test_grid_function_length_check():
    with pytest.raises(LengthMismatchError):
        GridFunction(P4, np.arange(4.0))
    with pytest.raises(LengthMismatchError):
        GridFunction(P4, np.zeros((5, 1)))


def test_grid_function_from_callable_with_transform():
    f = GridFunction.from_callable(lambda t: t * t, P4, lambda i: i - 2.0)
    assert list(f.values) == [4.0, 1.0, 0.0, 1.0, 4.0]


def test_grid_function_from_callable_rejects_non_finite_samples():
    # the first grid index whose sample is not finite is named
    for fn, index in ((lambda t: 1e308 + 1e308 * t, "4"),     # overflows at t = 1
                      (lambda t: math.nan if t == 0.0 else t, "2"),
                      (lambda t: -math.inf, "0")):
        with pytest.raises(DomainError, match=f"grid index {index} "):
            GridFunction.from_callable(fn, P4, lambda i: i / 2.0 - 1.0)


def test_forward_diff_squares():
    # Delta x^2 = 2x + 1 on 0..3; the undefined last slot is 0
    f = GridFunction(P4, np.array([0.0, 1.0, 4.0, 9.0, 16.0]))
    assert list(forward_diff(f).values) == [1.0, 3.0, 5.0, 7.0, 0.0]


def test_backward_diff_powers_of_two():
    f = GridFunction(P4, np.array([1.0, 2.0, 4.0, 8.0, 16.0]))
    assert list(backward_diff(f).values) == [0.0, 1.0, 2.0, 4.0, 8.0]


def test_diff_of_constant_is_zero():
    f = GridFunction(P4, np.full(5, 3.25))
    assert np.all(forward_diff(f).values == 0.0)
    assert np.all(backward_diff(f).values == 0.0)


def test_shift_identity_between_diffs():
    rng = np.random.default_rng(3)
    f = GridFunction(P4, rng.standard_normal(5))
    fwd = forward_diff(f).values
    bwd = backward_diff(f).values
    # the two operators are the same stencil read one slot apart
    assert np.all(fwd[:-1] == bwd[1:])


def test_product_rules_random_grid():
    # differences of a pointwise product split against the factors:
    # forward picks up g one slot ahead, backward picks up f one behind
    rng = np.random.default_rng(7)
    p = HahnParams(0.5, 0.5, 50)
    fv = rng.standard_normal(51)
    gv = rng.standard_normal(51)
    fg = GridFunction(p, fv * gv)
    df = forward_diff(GridFunction(p, fv)).values
    dg = forward_diff(GridFunction(p, gv)).values
    dfg = forward_diff(fg).values
    scale = float(np.max(np.abs(fv)) * np.max(np.abs(gv)))
    for x in range(50):
        assert abs(dfg[x] - (fv[x] * dg[x] + gv[x + 1] * df[x])) <= 1e-13 * scale
    bf = backward_diff(GridFunction(p, fv)).values
    bg = backward_diff(GridFunction(p, gv)).values
    bfg = backward_diff(fg).values
    for x in range(1, 51):
        assert abs(bfg[x] - (fv[x - 1] * bg[x] + gv[x] * bf[x])) <= 1e-13 * scale


def test_operator_annihilates_constants():
    p = HahnParams(0.5, 0.5, 12)
    u = GridFunction(p, np.full(13, 2.0))
    assert np.all(l_disk_apply(u).values == 0.0)


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0)])
def test_operator_eigenfunctions(alpha, beta):
    p = HahnParams(alpha, beta, 12)
    qmat = normalized_grid_matrix(12, p)
    for n in (0, 1, 5, 12):
        q = GridFunction(p, qmat[n])
        lam = basis(p).lam[n]
        resid = l_disk_apply(q).values + lam * q.values
        scale = max(1.0, lam)
        assert np.max(np.abs(resid)) < 1e-10 * scale


def test_operator_power_composition():
    p = HahnParams(0.5, 0.5, 12)
    rng = np.random.default_rng(7)
    u = GridFunction(p, rng.standard_normal(13))
    once = l_disk_apply(l_disk_apply(u))
    twice = l_disk_power(u, 2)
    assert np.allclose(once.values, twice.values, rtol=1e-13, atol=1e-13)
    same = l_disk_power(u, 0)
    assert np.all(same.values == u.values)
    assert same.values is not u.values


def test_operator_power_validation():
    p = HahnParams(0.0, 0.0, 4)
    u = GridFunction(p, np.zeros(5))
    with pytest.raises(DomainError):
        l_disk_power(u, -1)


def test_sbp_zero_end_values():
    p = HahnParams(0.0, 0.0, 20)
    rng = np.random.default_rng(11)
    f = GridFunction(p, rng.standard_normal(21))
    g = GridFunction(p, rng.standard_normal(21))
    assert sbp_residual(f, g) < 1e-12


def test_sbp_grid_mismatch():
    f = GridFunction(P4, np.zeros(5))
    g = GridFunction(HahnParams(0.0, 0.0, 5), np.zeros(6))
    with pytest.raises(LengthMismatchError):
        sbp_residual(f, g)

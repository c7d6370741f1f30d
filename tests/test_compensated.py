"""The fused double-double recurrence step against the composition of dd
primitives it replaces, compared bit for bit on the recurrence's own
values."""

import numpy as np
import pytest

from hahnpoly import _compensated as dd
from hahnpoly.hahn import HahnParams, _step_coefficients, hahn_eval_all

FAMILIES = [(0.0, 0.0), (5.0, 0.0), (0.5, 0.5), (-0.5, 3.0), (20.0, 20.0)]


def _composed_step(A, C, x, cur, prev):
    # the step as the recurrence sweep made it from the primitives
    w = dd.dd_sub(dd.dd_add(A, C), dd.dd_from(x))
    q = dd.dd_sub(dd.dd_mul(w, cur), dd.dd_mul(C, prev))
    return dd.dd_div(q, A)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _assert_same(got, want):
    assert np.array_equal(_bits(got[0]), _bits(want[0]))
    assert np.array_equal(_bits(got[1]), _bits(want[1]))


def _walk(params, x):
    # every step of a full-degree sweep: the fused step on the composed
    # chain's values, Q_0 = 1 and Q_1 rounded to a double as the seeds
    q1 = hahn_eval_all(1, x, params)[1]
    prev, cur = dd.dd_from(1.0), dd.dd_from(q1 if np.ndim(x) else float(q1))
    for A, AC, C in _step_coefficients(params):
        want = _composed_step(A, C, x, cur, prev)
        got = dd.dd_three_term_step(A, AC, C, x, cur, prev)
        _assert_same(got, want)
        prev, cur = cur, want


@pytest.mark.parametrize("N", [1, 2, 30, 100, 200])
@pytest.mark.parametrize("alpha,beta", FAMILIES)
def test_fused_step_equals_composition(N, alpha, beta):
    # x = -1 and x = N + 1 are read by the eigen-equation check; the sweep
    # values there grow far past those on the grid
    p = HahnParams(alpha, beta, N)
    assert len(_step_coefficients(p)) == N - 1
    for x in (-1.0, 0.0, 0.5, N / 3.0, float(N), N + 1.0):
        _walk(p, x)
    _walk(p, np.concatenate([np.arange(-1.0, N + 2.0), np.linspace(-1.0, N + 1.0, 37)]))


def test_fused_step_keeps_signed_zeros():
    # zero values and zero low parts come out with the composition's signs
    one, zero, nzero = (1.0, 0.0), (0.0, 0.0), (-0.0, -0.0)
    for A, C in [(one, one), (one, zero), ((2.0, 1e-17), (0.5, -1e-18))]:
        AC = dd.dd_add(A, C)
        for x in (0.0, -0.0, 1.0, 2.0):
            for cur in (zero, nzero, one):
                for prev in (zero, nzero, one):
                    got = dd.dd_three_term_step(A, AC, C, x, cur, prev)
                    _assert_same(got, _composed_step(A, C, x, cur, prev))

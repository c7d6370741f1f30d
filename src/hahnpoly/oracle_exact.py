"""Exact rational reference route, deliberately independent of the float
modules: no shared helpers, exact rational arithmetic only, N <= 200.
The float implementations are tested against these values; keep the two
routes separate so a bug cannot cancel itself out.

Two routes to the same numbers: the terminating series (`exact_hahn_eval`,
`exact_norm_sq`, one value per call, in plain Fraction arithmetic, here)
and the three-term recurrence (`exact_hahn_column`, `exact_norms_sq`,
every degree at once), whose integer helpers live in `oracle_ratios`:
alpha, beta and x over one common denominator, one gcd per step.  This
module returns Fractions from them, and `exact_weight` reads the same
integer weight.  Its readers are the tests and the benchmark's gate and
tracer; `verify` reads the integer pairs from `oracle_ratios` directly
and never imports this module.  The tests hold the two routes equal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .oracle_ratios import _check, _column, _norms, _over_one_denominator, _steps, _weight

RationalLike = Fraction | int


def exact_pochhammer(a: RationalLike, k: int) -> Fraction:
    """(a)_k as an exact rational."""
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    a = Fraction(a)
    out = Fraction(1)
    for j in range(k):
        out *= a + j
    return out


def exact_hahn_eval(
    n: int, x: RationalLike, alpha: RationalLike, beta: RationalLike, N: int
) -> Fraction:
    """Q_n(x) as an exact rational: the terminating series
    sum_k t_k, t_(k+1) = s_k t_k, summed by Horner from the last term,
    1 + s_0 (1 + s_1 (1 + ...)), over one integer numerator and
    denominator reduced once, at the end.  At x = 5e-324 every term
    carries the 2^-1074 of x, and a running Fraction sum spends its time
    in the gcds of those long integers."""
    alpha, beta, x = Fraction(alpha), Fraction(beta), Fraction(x)
    _check(alpha, beta, N)
    if not 0 <= n <= N:
        raise DomainError(f"degree {n} outside 0..{N}")
    num = den = 1
    for k in reversed(range(n)):
        s = (-n + k) * (n + alpha + beta + 1 + k) * (k - x) / ((alpha + 1 + k) * (-N + k) * (k + 1))
        num, den = s.denominator * den + s.numerator * num, s.denominator * den
    return Fraction(num, den)


def exact_weight(
    x: int, alpha: RationalLike, beta: RationalLike, N: int
) -> Fraction:
    """w(x) = (alpha+1)_x / x! * (beta+1)_{N-x} / (N-x)! exactly: the
    reduced integer pair of `_weight`, as a Fraction."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    _check(alpha, beta, N)
    if not 0 <= x <= N:
        raise DomainError(f"grid point {x} outside 0..{N}")
    (a, b), D = _over_one_denominator(alpha, beta)
    return Fraction(*_weight(x, a, b, D, N))


def exact_inner_product(
    n: int, m: int, alpha: RationalLike, beta: RationalLike, N: int
) -> Fraction:
    """<Q_n, Q_m>_w summed over the grid, exactly."""
    total = Fraction(0)
    for x in range(N + 1):
        total += (
            exact_hahn_eval(n, x, alpha, beta, N)
            * exact_hahn_eval(m, x, alpha, beta, N)
            * exact_weight(x, alpha, beta, N)
        )
    return total


def exact_norm_sq(
    n: int, alpha: RationalLike, beta: RationalLike, N: int
) -> Fraction:
    """||Q_n||_w^2 from the closed form

        (-1)^n (n+a+b+1)_{N+1} (b+1)_n n!
        ----------------------------------------
        (2n+a+b+1) (a+1)_n (-N)_n N!

    evaluated in exact arithmetic (no cancellation tricks needed here)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    _check(alpha, beta, N)
    if not 0 <= n <= N:
        raise DomainError(f"degree {n} outside 0..{N}")
    s = alpha + beta
    num = (
        Fraction(-1) ** n
        * exact_pochhammer(n + s + 1, N + 1)
        * exact_pochhammer(beta + 1, n)
        * exact_pochhammer(1, n)
    )
    den = (
        (2 * n + s + 1)
        * exact_pochhammer(alpha + 1, n)
        * exact_pochhammer(Fraction(-N), n)
        * exact_pochhammer(1, N)
    )
    return num / den


def exact_hahn_column(
    x: RationalLike, alpha: RationalLike, beta: RationalLike, N: int
) -> list[Fraction]:
    """[Q_0(x), ..., Q_N(x)] as exact rationals, from the three-term
    recurrence  Q_{n+1} = ((A_n + C_n - x) Q_n - C_n Q_{n-1}) / A_n."""
    alpha, beta, x = Fraction(alpha), Fraction(beta), Fraction(x)
    _check(alpha, beta, N)
    (a, b, X), D = _over_one_denominator(alpha, beta, x)
    return [Fraction(p, r) for p, r in _column(X, _steps(a, b, D, N))]


def exact_norms_sq(
    alpha: RationalLike, beta: RationalLike, N: int
) -> list[Fraction]:
    """[||Q_0||_w^2, ..., ||Q_N||_w^2] exactly: h_0 = (alpha+beta+2)_N / N!
    (the weights' total, by Vandermonde's identity), then
    A_n h_{n+1} = C_{n+1} h_n, which follows from <x Q_n, Q_{n+1}>_w."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    _check(alpha, beta, N)
    (a, b), D = _over_one_denominator(alpha, beta)
    return [Fraction(p, r) for p, r in _norms(a, b, D, _steps(a, b, D, N))]

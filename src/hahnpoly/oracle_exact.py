"""Exact rational reference route, deliberately independent of the float
modules: no shared helpers, exact rational arithmetic only, N <= 200.
The float implementations are tested against these values; keep the two
routes separate so a bug cannot cancel itself out.

Two routes to the same numbers: the terminating series (`exact_hahn_eval`,
`exact_norm_sq`, one value per call, in plain Fraction arithmetic) and the
three-term recurrence (`exact_hahn_column`, `exact_norms_sq`, every degree
at once).  In exact arithmetic the recurrence has no stability problem.
It runs on Python integers: alpha, beta and x over one common denominator,
so that each step is a few integer products reduced by one gcd, several
times cheaper than the same step in Fractions.  The public functions return
Fractions; `_exact_ratios` hands the integer pairs to callers that only
round them.  The tests hold the two routes equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

_MAX_EXACT_N = 200

RationalLike = Fraction | int


def _check(alpha: Fraction, beta: Fraction, N: int) -> None:
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"need alpha, beta > -1, got ({alpha}, {beta})")
    if not 1 <= N <= _MAX_EXACT_N:
        raise DomainError(f"exact route supports N in 1..{_MAX_EXACT_N}, got {N}")


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
    """Q_n(x) as an exact rational, summed term by term."""
    alpha, beta, x = Fraction(alpha), Fraction(beta), Fraction(x)
    _check(alpha, beta, N)
    if not 0 <= n <= N:
        raise DomainError(f"degree {n} outside 0..{N}")
    term = Fraction(1)
    total = Fraction(1)
    for k in range(n):
        term *= (-n + k) * (n + alpha + beta + 1 + k) * (-x + k)
        term /= (alpha + 1 + k) * (-N + k) * (k + 1)
        total += term
    return total


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


def _over_one_denominator(*values: RationalLike | float) -> tuple[list[int], int]:
    """Integers n_i and the least D > 0 with values[i] = n_i / D."""
    ratios = [v.as_integer_ratio() for v in values]
    D = math.lcm(*(d for _, d in ratios))
    return [n * (D // d) for n, d in ratios], D


@lru_cache(maxsize=8)
def _steps(a: int, b: int, D: int, N: int) -> tuple[tuple[int, int, int, int], ...]:
    """The three-term recurrence

        -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1},

    with C_0 = 0 and A_N = 0, for alpha = a/D and beta = b/D, as integers
    (al, sig, ga, e) per n = 0..N with A_n = al/(e D), A_n + C_n = sig/(e D)
    and C_n = ga/(e D), each row reduced by its gcd.  A step at x = X/D is
    then Q_{n+1} = ((sig - X e) Q_n - ga Q_{n-1}) / al.  A_0 is written with
    the factor (alpha+beta+1) cancelled, which vanishes when
    alpha + beta = -1.  Shared by every column and the norms of one family."""
    s = a + b
    al = (a + D) * N * D
    out = [(al, al, 0, s + 2 * D)]
    for n in range(1, N + 1):
        # A_n and C_n over their own denominators, with every D cancelled
        An = (n * D + s + D) * (n * D + a + D) * (N - n)
        Ad = (2 * n * D + s + D) * (2 * n * D + s + 2 * D)
        Cn = n * ((n + N + 1) * D + s) * (n * D + b)
        Cd = (2 * n * D + s) * (2 * n * D + s + D)
        al, ga, e = An * Cd * D, Cn * Ad * D, Ad * Cd
        g = math.gcd(al, ga, e)
        out.append((al // g, (al + ga) // g, ga // g, e // g))
    return tuple(out)


def _column(X: int, steps: tuple[tuple[int, int, int, int], ...]) -> list[tuple[int, int]]:
    """Q_0(x) .. Q_N(x) at x = X/D as reduced (numerator, denominator > 0)
    pairs, one gcd per step; D is the denominator `steps` was built with."""
    out = [(1, 1)]
    p, r, pm, rm = 1, 1, 0, 1
    for al, sig, ga, e in steps[:-1]:
        num = (sig - X * e) * p * rm - ga * pm * r
        den = al * r * rm
        g = math.gcd(num, den)
        pm, rm = p, r
        p, r = num // g, den // g
        out.append((p, r))
    return out


def _norms(a: int, b: int, D: int, steps: tuple[tuple[int, int, int, int], ...]
           ) -> list[tuple[int, int]]:
    """h_0 .. h_N as reduced (numerator, denominator) pairs, both positive:
    h_0 = (alpha+beta+2)_N / N!, then h_{n+1} = h_n C_{n+1} / A_n."""
    N = len(steps) - 1
    num = math.prod(a + b + (2 + j) * D for j in range(N))
    den = D ** N * math.factorial(N)
    g = math.gcd(num, den)
    out = [(num // g, den // g)]
    for (al, _, _, e), (_, _, ga, e1) in zip(steps, steps[1:]):
        p, r = out[-1]
        num, den = p * ga * e, r * e1 * al
        g = math.gcd(num, den)
        out.append((num // g, den // g))
    return out


def _weight(x: int, a: int, b: int, D: int, N: int) -> tuple[int, int]:
    """w(x) = (alpha+1)_x / x! * (beta+1)_{N-x} / (N-x)! as a reduced
    (numerator, denominator) pair, both positive."""
    num = math.prod(a + (1 + j) * D for j in range(x))
    num *= math.prod(b + (1 + j) * D for j in range(N - x))
    den = D ** N * math.factorial(x) * math.factorial(N - x)
    g = math.gcd(num, den)
    return num // g, den // g


def _exact_ratios(
    alpha: float, beta: float, N: int, xs: list[int]
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int]], list[tuple[int, int]]]:
    """Integer (numerator, denominator) pairs, denominators positive, of
    Q_0(x) .. Q_N(x) at each grid point x in xs, of h_0 .. h_N, and of w(x)
    at each x in xs: the recurrence route with no Fraction, for callers
    that only round the values.  `alpha` and `beta` may be floats."""
    _check(alpha, beta, N)
    (a, b), D = _over_one_denominator(alpha, beta)
    steps = _steps(a, b, D, N)
    return ([_column(x * D, steps) for x in xs], _norms(a, b, D, steps),
            [_weight(x, a, b, D, N) for x in xs])


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

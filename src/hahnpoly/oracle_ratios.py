"""The exact oracle's integer route: the three-term recurrence for every
degree at once, on Python integers with no Fraction, N <= 200.

alpha, beta and x are put over one common denominator, so that each step
is a few integer products reduced by one gcd, several times cheaper than
the same step in Fractions; in exact arithmetic the recurrence has no
stability problem.  Values are reduced (numerator, denominator) pairs.
`_exact_ratios` hands them to `checks._exact_columns`, the reference of
`verify`, which rounds each pair once; `oracle_exact` builds its Fraction
API on the same helpers (`exact_hahn_column`, `exact_norms_sq`,
`exact_weight`).  Like `oracle_exact`, it borrows nothing from the float
modules, and it imports neither `fractions` nor `decimal`, so that a
`verify` process compiles and loads only this route.  Inputs may be ints,
floats or Fractions: anything with `as_integer_ratio`.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

_MAX_EXACT_N = 200


def _check(alpha: float, beta: float, N: int) -> None:
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"need alpha, beta > -1, got ({alpha}, {beta})")
    if not 1 <= N <= _MAX_EXACT_N:
        raise DomainError(f"exact route supports N in 1..{_MAX_EXACT_N}, got {N}")


def _over_one_denominator(*values: float) -> tuple[list[int], int]:
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

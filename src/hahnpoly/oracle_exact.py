"""Exact rational reference route, deliberately independent of the float
modules: no shared helpers, plain Fraction arithmetic, N <= 200.
The float implementations are tested against these values; keep the two
routes separate so a bug cannot cancel itself out.

Two routes to the same numbers: the terminating series (`exact_hahn_eval`,
`exact_norm_sq`, one value per call) and the three-term recurrence
(`exact_hahn_column`, `exact_norms_sq`, every degree at once).  In exact
arithmetic the recurrence has no stability problem, so a column costs
about as much as one series value; the tests hold the two routes equal.
"""

from __future__ import annotations

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
    """w(x) = (alpha+1)_x / x! * (beta+1)_{N-x} / (N-x)! exactly."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    _check(alpha, beta, N)
    if not 0 <= x <= N:
        raise DomainError(f"grid point {x} outside 0..{N}")
    left = exact_pochhammer(alpha + 1, x) / exact_pochhammer(1, x)
    right = exact_pochhammer(beta + 1, N - x) / exact_pochhammer(1, N - x)
    return left * right


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


@lru_cache(maxsize=8)
def _steps(
    alpha: Fraction, beta: Fraction, N: int
) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """(A_n, A_n + C_n, C_n), n = 0..N, of the three-term recurrence

        -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1},

    with C_0 = 0 and A_N = 0.  A_0 is written with the factor
    (alpha+beta+1) cancelled, which vanishes when alpha + beta = -1.
    Shared by every column and the norms of one family."""
    s = alpha + beta
    out = [((alpha + 1) * N / (s + 2), (alpha + 1) * N / (s + 2), Fraction(0))]
    for n in range(1, N + 1):
        A = (n + s + 1) * (n + alpha + 1) * (N - n) / ((2 * n + s + 1) * (2 * n + s + 2))
        C = n * (n + s + N + 1) * (n + beta) / ((2 * n + s) * (2 * n + s + 1))
        out.append((A, A + C, C))
    return tuple(out)


def exact_hahn_column(
    x: RationalLike, alpha: RationalLike, beta: RationalLike, N: int
) -> list[Fraction]:
    """[Q_0(x), ..., Q_N(x)] as exact rationals, from the three-term
    recurrence  Q_{n+1} = ((A_n + C_n - x) Q_n - C_n Q_{n-1}) / A_n."""
    alpha, beta, x = Fraction(alpha), Fraction(beta), Fraction(x)
    _check(alpha, beta, N)
    out = [Fraction(1)]
    prev = Fraction(0)
    for n, (A, AC, C) in enumerate(_steps(alpha, beta, N)[:N]):
        out.append(((AC - x) * out[n] - C * prev) / A)
        prev = out[n]
    return out


def exact_norms_sq(
    alpha: RationalLike, beta: RationalLike, N: int
) -> list[Fraction]:
    """[||Q_0||_w^2, ..., ||Q_N||_w^2] exactly: h_0 = (alpha+beta+2)_N / N!
    (the weights' total, by Vandermonde's identity), then
    A_n h_{n+1} = C_{n+1} h_n, which follows from <x Q_n, Q_{n+1}>_w."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    _check(alpha, beta, N)
    steps = _steps(alpha, beta, N)
    out = [exact_pochhammer(alpha + beta + 2, N) / exact_pochhammer(1, N)]
    for n in range(N):
        out.append(out[n] * steps[n + 1][2] / steps[n][0])
    return out

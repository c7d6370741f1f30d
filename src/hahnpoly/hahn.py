"""Hahn polynomials Q_n(x) on the integer grid 0..N with weight
w(x) = C(alpha+x, x) C(beta+N-x, N-x).

Two independent evaluation routes are provided, a terminating series and a
three-term recurrence sweep, plus the closed-form squared norms and the
eigen-data (eigenvalue and difference-operator coefficients) attached to
each degree.  Both evaluation routes run in double-double arithmetic; at
N = 30 the plain-double recurrence can be wrong in the leading digit at
the grid ends, while the compensated version stays near 1e-14 relative.

Both routes also take arrays and sweep every entry at once: the
recurrence an array of points, the series arrays of degrees and points
that broadcast together.  Their dd operations are elementwise float
arithmetic, which numpy rounds exactly as Python floats do, so each
entry's value is the same to the bit as a call with that entry alone.

A recurrence step is one call of the fused kernel
`_compensated.dd_three_term_step`, which computes what the composed dd
primitives would, to the bit, without their call overhead; its
x-independent coefficients (A_n, A_n + C_n, C_n) are computed once per
family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import _compensated as dd
from .errors import (
    DegenerateRecurrenceError,
    DegreeOutOfRangeError,
    DomainError,
)
from .specfun import binomial_weights, terminating_3f2

_MAX_N = 200


@dataclass(frozen=True)
class HahnParams:
    """Family parameters: weight exponents alpha, beta > -1 and grid size N."""

    alpha: float
    beta: float
    N: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")
        if self.alpha <= -1.0 or self.beta <= -1.0:
            raise DomainError(
                f"need alpha, beta > -1, got ({self.alpha}, {self.beta})"
            )
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise DomainError(f"N must be an integer, got {self.N!r}")
        if not 1 <= self.N <= _MAX_N:
            raise DomainError(f"N must be in 1..{_MAX_N}, got {self.N}")

    @property
    def npoints(self) -> int:
        return self.N + 1

    def grid(self) -> np.ndarray:
        return np.arange(self.N + 1, dtype=float)


@dataclass(eq=False)
class WeightTable:
    """Weight values w(0..N) and their sum.

    `padded` appends the conventional w(N+1) = 0 entry used by the
    difference operator, so flux terms one past the grid vanish without
    ever reading off-grid data.
    """

    params: HahnParams
    values: np.ndarray
    total: float

    @property
    def padded(self) -> np.ndarray:
        return np.append(self.values, 0.0)


@dataclass(frozen=True)
class EigenData:
    """Eigenvalue lam = n(n+alpha+beta+1) and the difference-operator
    coefficient functions b, d for degree n.

    b(x) = (x+alpha+1)(x-N) and d(x) = x(x-beta-N-1); d(0) = 0, which is
    what closes the operator at the left end of the grid.
    """

    degree: int
    lam: float
    b: Callable[[float], float]
    d: Callable[[float], float]


def _check_degree(n: int | np.ndarray, params: HahnParams) -> None:
    if np.ndim(n):
        n = np.asarray(n)
        outside = n[(n < 0) | (n > params.N)]
        if not outside.size:
            return
        n = outside[0]
    if not 0 <= n <= params.N:
        raise DegreeOutOfRangeError(f"degree {n} outside 0..{params.N}")


def hahn_eval_series(
    n: int | np.ndarray, x: float | np.ndarray, params: HahnParams
) -> float | np.ndarray:
    """Q_n(x) summed as the terminating series
    3F2(-n, n+alpha+beta+1, -x; alpha+1, -N; 1).

    n and x may be arrays that broadcast together, e.g. a column of
    degrees against a row of points; the whole table is summed in one
    array sweep, each entry equal to a scalar call bit for bit.  Scalar
    arguments return a float.
    """
    _check_degree(n, params)
    a, b, N = params.alpha, params.beta, params.N
    if np.ndim(n) or np.ndim(x):
        n = np.asarray(n)
        lead, x = (-n).astype(float), np.asarray(x, dtype=float)
    else:
        lead, x = float(-n), float(x)
    return terminating_3f2(
        (lead, n + a + b + 1.0, -x),
        (a + 1.0, float(-N)),
    )


def recurrence_coefficients(n: int, params: HahnParams) -> tuple[float, float]:
    """(A_n, C_n) in  -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1}.

    Valid for 1 <= n <= N-1; C_0 multiplies Q_{-1} and is never needed.
    """
    if not 1 <= n <= params.N - 1:
        raise DegreeOutOfRangeError(f"recurrence step {n} outside 1..{params.N - 1}")
    a, b, N = params.alpha, params.beta, params.N
    s = a + b
    A = (n + s + 1.0) * (n + a + 1.0) * (N - n) / ((2 * n + s + 1.0) * (2 * n + s + 2.0))
    C = n * (n + s + N + 1.0) * (n + b) / ((2 * n + s) * (2 * n + s + 1.0))
    return A, C


@lru_cache(maxsize=64)
def _step_coefficients(params: HahnParams) -> tuple[tuple[dd.DD, dd.DD, dd.DD], ...]:
    """Double-double (A_j, A_j + C_j, C_j) for j = 1..N-1; x-independent,
    so cached per family, and a degree-m sweep reads the first m-1."""
    a, b, N = params.alpha, params.beta, params.N
    ab = dd.two_sum(a, b)
    out = []
    for j in range(1, N):
        # assembled factor by factor in dd
        f1 = dd.dd_add(ab, dd.dd_from(j + 1.0))          # j+alpha+beta+1
        f2 = dd.two_sum(a, j + 1.0)                      # j+alpha+1
        num = dd.dd_mul_d(dd.dd_mul(f1, f2), float(N - j))
        g1 = dd.dd_add(ab, dd.dd_from(2.0 * j + 1.0))    # 2j+alpha+beta+1
        g2 = dd.dd_add(ab, dd.dd_from(2.0 * j + 2.0))
        A = dd.dd_div(num, dd.dd_mul(g1, g2))
        h1 = dd.dd_add(ab, dd.dd_from(j + N + 1.0))      # j+alpha+beta+N+1
        h2 = dd.two_sum(b, float(j))                     # j+beta
        num = dd.dd_mul_d(dd.dd_mul(h1, h2), float(j))
        g0 = dd.dd_add(ab, dd.dd_from(2.0 * j))          # 2j+alpha+beta
        C = dd.dd_div(num, dd.dd_mul(g0, g1))
        if A[0] == 0.0:
            raise DegenerateRecurrenceError(f"vanishing step coefficient at n={j}")
        out.append((A, dd.dd_add(A, C), C))
    return tuple(out)


def _recurrence_sweep(m: int, x: float | np.ndarray, params: HahnParams) -> np.ndarray:
    """Q_0(x) .. Q_m(x) from one upward double-double sweep, each rounded
    to a double; shape (m+1,) + shape(x).

    Every dd operation is elementwise float arithmetic, so an array x
    sweeps all its points at once with exactly the rounding of a sweep
    per point.  Only the two dd levels the recurrence reads stay alive.
    """
    out = np.empty((m + 1,) + np.shape(x))
    out[0] = 1.0
    if m == 0:
        return out
    a, N = params.alpha, params.N
    # Q_1 = 1 - (alpha+beta+2) x / ((alpha+1) N), the n = 1 series closed form
    ab = dd.two_sum(a, params.beta)
    t = dd.dd_mul_d(dd.dd_add(ab, dd.dd_from(2.0)), x)
    t = dd.dd_div(t, dd.dd_mul_d(dd.two_sum(a, 1.0), float(N)))
    prev, cur = dd.dd_from(1.0), dd.dd_sub(dd.dd_from(1.0), t)
    out[1] = cur[0] + cur[1]
    for j, (A, AC, C) in enumerate(_step_coefficients(params)[: m - 1], start=1):
        # Q_{j+1} = ((A + C - x) Q_j - C Q_{j-1}) / A
        prev, cur = cur, dd.dd_three_term_step(A, AC, C, x, cur, prev)
        out[j + 1] = cur[0] + cur[1]
    return out


def hahn_eval_recurrence(n: int, x: float, params: HahnParams) -> float:
    """Q_n(x) from the three-term recurrence, seeded with Q_0 = 1 and the
    degree-one closed form."""
    _check_degree(n, params)
    return float(_recurrence_sweep(n, x, params)[n])


def hahn_eval_all(m: int, x: float | np.ndarray, params: HahnParams) -> np.ndarray:
    """Q_0(x) .. Q_m(x) in one recurrence sweep (cheaper than m+1 calls).

    x is a float or an array of points; the result has shape
    (m+1,) + shape(x), and each point's values equal those of a call with
    that point alone, bit for bit.
    """
    _check_degree(m, params)
    return _recurrence_sweep(m, x, params)


def weight_table(params: HahnParams) -> WeightTable:
    vals = np.array(binomial_weights(params.alpha, params.beta, params.N))
    return WeightTable(params, vals, math.fsum(vals))


def norm_sq_closed(n: int, params: HahnParams) -> float:
    """Squared weighted norm of Q_n from the closed-form Pochhammer quotient.

    The sign-carrying pieces pair off exactly: (-1)^n / (-N)_n = (N-n)!/N!
    and the j = n factor of (n+alpha+beta+1)_{N+1} equals the denominator
    factor 2n+alpha+beta+1.  What is left is a quotient of strictly
    positive factors, accumulated interleaved so the running value never
    strays far from the result.
    """
    _check_degree(n, params)
    a, b, N = params.alpha, params.beta, params.N
    s = a + b
    num: list[float] = [n + s + 1.0 + j for j in range(N + 1) if j != n]
    num += [b + 1.0 + i for i in range(n)]            # (beta+1)_n
    num += [float(i) for i in range(2, n + 1)]        # n!
    num += [float(i) for i in range(2, N - n + 1)]    # (N-n)!
    den: list[float] = [a + 1.0 + i for i in range(n)]
    den += [float(i) for i in range(2, N + 1)] * 2    # N! twice
    out = 1.0
    i = j = 0
    while i < len(num) or j < len(den):
        if j >= len(den) or (i < len(num) and out <= 1.0):
            out *= num[i]
            i += 1
        else:
            out /= den[j]
            j += 1
    return out


@lru_cache(maxsize=64)
def _sqrt_norms(params: HahnParams) -> np.ndarray:
    """||Q_n||_w for n = 0..N, computed once per family; read-only, and
    callers take the prefix [: m + 1] they need."""
    out = np.array([math.sqrt(norm_sq_closed(n, params)) for n in range(params.N + 1)])
    out.setflags(write=False)
    return out


def normalized_eval(n: int, x: float, params: HahnParams) -> float:
    """Orthonormal evaluation Q_n(x) / ||Q_n||_w."""
    return hahn_eval_recurrence(n, x, params) / math.sqrt(norm_sq_closed(n, params))


@lru_cache(maxsize=8)
def _full_grid_matrix(params: HahnParams) -> np.ndarray:
    cols = [hahn_eval_all(params.N, float(x), params) for x in range(params.N + 1)]
    mat = np.array(cols).T
    mat /= _sqrt_norms(params)[:, None]
    mat.setflags(write=False)
    return mat


def normalized_grid_matrix(m: int, params: HahnParams) -> np.ndarray:
    """Matrix of orthonormal values, shape (m+1, N+1), row n = Q~_n on 0..N.

    Returns a read-only view of a cached full-degree table, so repeated
    projections on the same family pay the recurrence sweeps only once.
    """
    _check_degree(m, params)
    return _full_grid_matrix(params)[: m + 1]


def eigen_data(n: int, params: HahnParams) -> EigenData:
    _check_degree(n, params)
    a, b, N = params.alpha, params.beta, params.N
    lam = n * (n + a + b + 1.0)

    def bfun(x: float) -> float:
        return (x + a + 1.0) * (x - N)

    def dfun(x: float) -> float:
        return x * (x - b - N - 1.0)

    return EigenData(n, lam, bfun, dfun)

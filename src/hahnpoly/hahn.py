"""Hahn polynomials Q_n(x) on the integer grid 0..N with weight
w(x) = C(alpha+x, x) C(beta+N-x, N-x).

Two independent evaluation routes, a terminating series and a three-term
recurrence sweep, both in double-double arithmetic: at N = 30 the
plain-double recurrence can be wrong in the leading digit at the grid
ends, while the compensated one stays near 1e-14 relative.  Both take
arrays, the recurrence of points and the series of degrees and points
that broadcast together.  Their dd operations are elementwise float
arithmetic, which numpy rounds as Python floats do, so every entry equals
a call with that entry alone, to the bit.  A recurrence step is one call
of the fused kernel `_compensated.dd_three_term_step`.

Closed-form squared norms complete the module.  What depends on the family
alone lives in its one `HahnBasis`, from the `basis(params)` cache: the
weight array, the step coefficients (A_n, A_n + C_n, C_n), the norms, the
orthonormal grid matrix and the difference operator's eigenvalues and
coefficients B(x), D(x), each computed on first read and read-only after.
So the grid matrix lives as long as the norms and steps it is made of,
and off-grid sweeps never build it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _compensated as dd
from .errors import (
    DegenerateRecurrenceError,
    DegreeOutOfRangeError,
    DomainError,
)
from .specfun import binomial_weights, terminating_3f2

_MAX_N = 200


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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


@dataclass(frozen=True, eq=False)
class HahnBasis:
    """One family's shared data, each field computed on first read, then read-only."""

    params: HahnParams
    weights = cached_property(lambda self: weight_table(self.params))

    @cached_property
    def steps(self) -> tuple[tuple[dd.DD, dd.DD, dd.DD], ...]:
        """Double-double (A_j, A_j + C_j, C_j), j = 1..N-1; degree m reads m-1."""
        a, b, N = self.params.alpha, self.params.beta, self.params.N
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

    @cached_property
    def sqrt_norms(self) -> np.ndarray:
        """||Q_n||_w for n = 0..N; callers take the prefix [: m + 1]."""
        p = self.params
        norms = [math.sqrt(norm_sq_closed(n, p)) for n in range(p.N + 1)]
        return _read_only(np.array(norms))

    @cached_property
    def grid(self) -> np.ndarray:
        """Orthonormal Q~_n(x), row n, column x, one sweep per grid point."""
        p = self.params
        mat = np.array([hahn_eval_all(p.N, float(x), p) for x in range(p.N + 1)]).T
        mat /= self.sqrt_norms[:, None]
        return _read_only(mat)

    @cached_property
    def lam(self) -> np.ndarray:
        """Difference-operator eigenvalues lam_n = n(n+alpha+beta+1), n = 0..N."""
        p = self.params
        n = np.arange(p.N + 1, dtype=float)
        return _read_only(n * (n + p.alpha + p.beta + 1.0))

    @cached_property
    def b(self) -> np.ndarray:
        """Operator coefficient B(x) = (x+alpha+1)(x-N) on the grid; B(N) = 0."""
        p = self.params
        x = p.grid()
        return _read_only((x + p.alpha + 1.0) * (x - p.N))

    @cached_property
    def d(self) -> np.ndarray:
        """Operator coefficient D(x) = x(x-beta-N-1) on the grid; D(0) = 0,
        which is what closes the operator at the left end of the grid."""
        p = self.params
        x = p.grid()
        return _read_only(x * (x - p.beta - p.N - 1.0))


@lru_cache(maxsize=64)
def basis(params: HahnParams) -> HahnBasis:
    """The family's one cached `HahnBasis`."""
    return HahnBasis(params)


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
    for j, (A, AC, C) in enumerate(basis(params).steps[: m - 1], start=1):
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


def weight_table(params: HahnParams) -> np.ndarray:
    """Weights w(0) .. w(N) as a read-only array."""
    return _read_only(np.array(binomial_weights(params.alpha, params.beta, params.N)))


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
    out, i, top = 1.0, 0, len(num)
    for d in den:
        while i < top and out <= 1.0:
            out *= num[i]
            i += 1
        out /= d
    for f in num[i:]:
        out *= f
    return out


def normalized_grid_matrix(m: int, params: HahnParams) -> np.ndarray:
    """Matrix of orthonormal values, shape (m+1, N+1), row n = Q~_n on 0..N.

    A read-only view of the family's cached `HahnBasis.grid`, so the
    projections on one family pay the recurrence sweeps once.
    """
    _check_degree(m, params)
    return basis(params).grid[: m + 1]


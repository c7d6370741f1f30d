"""Hahn polynomials Q_n(x) on the integer grid 0..N with weight
w(x) = C(alpha+x, x) C(beta+N-x, N-x).

Values come from a three-term recurrence sweep in double-double
arithmetic: at N = 30 the plain-double recurrence can be wrong in the
leading digit at the grid ends, while the compensated one stays near
1e-14 relative.  The recurrence takes an array of points; its dd
operations are elementwise float arithmetic, which numpy rounds as Python
floats do, so every point equals a call with that point alone, to the
bit.  A sweep, `hahn_eval_all`, is one call of the fused kernel
`_compensated.dd_three_term_sweep`, which reads the Dekker splits of the
family's step coefficients from its `HahnBasis.steps`; it passes the
double range to inf or nan silently, as Python floats do.  The terminating
series `hahn_eval_series`, also in dd, stays a tested public function of
one degree and one point, but no other code calls it: `verify`'s
independent reference is the exact oracle (`oracle_exact`).

Closed-form squared norms complete the module.  `norm_sq_closed` writes
alpha and beta over one common denominator, as the weights do, and runs
the ratio h_n / h_{n-1} as an integer numerator and denominator: each
norm is one int true division, the exact value rounded once.  It also
takes an array of degrees, so one call gives a family's N + 1 norms.

What depends on the family alone lives in its one `HahnBasis`, from the
`basis(params)` cache: the weight array, the step coefficients (A_n,
A_n + C_n, C_n, and the splits of A_n and C_n), the series rows divided
out of them for the Clenshaw sweep of `expansion.eval_expansion`, the
norms, the orthonormal grid matrix and the difference operator's
eigenvalues and coefficients B(x), D(x), each computed on first read and
read-only after; off-grid sweeps never build the grid matrix.

The grid matrix is Q~_n(x) = U[n, x] / sqrt(w(x)), U the orthogonal matrix
of eigenvectors of the family's Jacobi matrix, whose eigenvalues are the
integers 0..N.  From N = 42 up it is built that way: the Jacobi rows are
integer quotients rounded once (`_jacobi_rows`), and one twisted
factorization gives every eigenvector at once (`_twisted_grid`), right
to a few 1e-15 in U units for every family measured, up to N = 200 and
exponents 1e12.  Below 42 it is still one dd sweep per grid point over
the norms, which the outputs pinned at those sizes were recorded on; the
forward sweep is right to 1e-14 for moderate exponents, but it loses
accuracy from N ~ 70 and for large exponents (4e-8 for (0, 1e3) and
1.9e41 for (1e6, 0) at N = 30).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _compensated as dd
from .errors import (
    DegenerateRecurrenceError,
    DegreeOutOfRangeError,
    DomainError,
)
from .specfun import (
    _check_weight_exponents,
    _exact_exponents,
    binomial_weights,
    terminating_3f2,
)

_MAX_N = 200
# from here the grid is the twisted build; below it stays one dd sweep per
# point, with the bits that outputs at N <= 41 and the benchmark's sweep
# count at N = 12 are pinned to, until those pins move (ROADMAP item 1)
_GRID_ARRAY_N = 42


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
        _check_weight_exponents(self.alpha, self.beta)
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
    def steps(self) -> tuple[tuple[float, ...], ...]:
        """The step coefficients of
        -x Q_j = A_j Q_{j+1} - (A_j + C_j) Q_j + C_j Q_{j-1}, j = 1..N-1, in
        double-double, one flat row per j as `dd_three_term_sweep` reads it:
        (A, A_lo, A_split_hi, A_split_lo, AC, AC_lo, C, C_lo, C_split_hi,
        C_split_lo), with AC = A + C and the Dekker splits of the high parts
        of A and C.  The one source of the step coefficients; a degree-m
        sweep reads the first m-1 rows.  Built over all j at once; the dd
        operations are elementwise float arithmetic, so each entry has the
        bits of a scalar build.  The first vanishing or non-finite row
        raises `DegenerateRecurrenceError` naming its n."""
        a, b, N = self.params.alpha, self.params.beta, self.params.N
        j = np.arange(1.0, N)
        ab = dd.two_sum(a, b)
        # a family near the double range overflows here as Python floats
        # would, silently; the check on the rows below refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            # assembled factor by factor in dd
            f1 = dd.dd_add(ab, dd.dd_from(j + 1.0))          # j+alpha+beta+1
            f2 = dd.two_sum(a, j + 1.0)                      # j+alpha+1
            num = dd.dd_mul_d(dd.dd_mul(f1, f2), N - j)
            g1 = dd.dd_add(ab, dd.dd_from(2.0 * j + 1.0))    # 2j+alpha+beta+1
            g2 = dd.dd_add(ab, dd.dd_from(2.0 * j + 2.0))
            A = dd.dd_div(num, dd.dd_mul(g1, g2))
            h1 = dd.dd_add(ab, dd.dd_from(j + N + 1.0))      # j+alpha+beta+N+1
            h2 = dd.two_sum(b, j)                            # j+beta
            num = dd.dd_mul_d(dd.dd_mul(h1, h2), j)
            g0 = dd.dd_add(ab, dd.dd_from(2.0 * j))          # 2j+alpha+beta
            C = dd.dd_div(num, dd.dd_mul(g0, g1))
            AC = dd.dd_add(A, C)
            parts = (*A, *dd.split(A[0]), *AC, *C, *dd.split(C[0]))
        return _checked_rows(parts, 1)

    @cached_property
    def series(self) -> tuple[tuple[float, ...], ...]:
        """The recurrence Q_{n+1} = (a_n - r_n x) Q_n - g_n Q_{n-1},
        n = 0..N-1, in double-double, one flat row per n as
        `dd_clenshaw_sweep` reads it: (a, a_lo, r, r_lo, r_split_hi,
        r_split_lo, g, g_lo, g_split_hi, g_split_lo), with
        a_n = (A_n + C_n) / A_n, r_n = 1 / A_n, g_n = C_n / A_n and the
        Dekker splits of the high parts of r_n and g_n.  Rows 1..N-1 are
        divided out of `steps`, in one numpy pass, so their refusals hold
        here too.  Row 0 is the Q_1 closed form: A_0 = (alpha+1) N /
        (alpha+beta+2) and C_0 = 0, so a_0 = 1 and g_0 = 0."""
        a, b, N = self.params.alpha, self.params.beta, self.params.N
        steps = np.array(self.steps, dtype=float).reshape(-1, 10).T
        A = (steps[0], steps[1])
        r0 = dd.dd_div(dd.dd_add(dd.two_sum(a, b), dd.dd_from(2.0)),
                       dd.dd_mul_d(dd.two_sum(a, 1.0), float(N)))
        with np.errstate(over="ignore", invalid="ignore"):
            ac = dd.dd_div((steps[4], steps[5]), A)
            r = dd.dd_div((1.0, 0.0), A)
            g = dd.dd_div((steps[6], steps[7]), A)
            # row 0 first: a_0 = 1, the closed form's r_0, g_0 = 0
            ac, r, g = [tuple(np.concatenate(([h], v)) for h, v in zip(head, col))
                        for head, col in (((1.0, 0.0), ac), (r0, r), ((0.0, 0.0), g))]
            parts = (*ac, *r, *dd.split(r[0]), *g, *dd.split(g[0]))
        return _checked_rows(parts, 0)

    @cached_property
    def sqrt_norms(self) -> np.ndarray:
        """||Q_n||_w for n = 0..N; callers take the prefix [: m + 1]."""
        return _read_only(np.sqrt(norm_sq_closed(np.arange(self.params.N + 1), self.params)))

    @cached_property
    def grid(self) -> np.ndarray:
        """Orthonormal Q~_n(x), row n, column x.  From N = _GRID_ARRAY_N
        up, the eigenvectors of the Jacobi matrix by one twisted
        factorization (`_twisted_grid`), divided by sqrt(w); below, one dd
        sweep per grid point divided by the norms.  The weights are read
        first: a family they refuse is refused before either build.  An
        entry past the double range is inf or nan, silently."""
        p = self.params
        w = self.weights
        if p.N >= _GRID_ARRAY_N:
            return _read_only(_twisted_grid(p, w))
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


def _checked_rows(parts, first: int) -> tuple[tuple[float, ...], ...]:
    # rows of the column arrays parts, row i numbered n = first + i; the
    # first row whose leading entry vanishes or with a non-finite entry is
    # refused, in a list pass, not numpy masks (see _check_degree)
    out = tuple(zip(*(v.tolist() for v in parts)))
    for n, row in enumerate(out, start=first):
        if row[0] == 0.0:
            raise DegenerateRecurrenceError(f"vanishing step coefficient at n={n}")
        if not all(map(math.isfinite, row)):
            raise DegenerateRecurrenceError(
                f"step coefficient at n={n} is not finite in double precision")
    return out


def _jacobi_rows(params: HahnParams) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal recurrence x Q~_n = d_n Q~_n - sqrt(p_n) Q~_{n+1}
    - sqrt(p_{n-1}) Q~_{n-1} as its Jacobi diagonal d_n = A_n + C_n and
    products p_n = A_n C_{n+1}, n = 0..N, each an integer quotient over the
    common denominator of the weights, rounded once; p_N = 0, as A_N = 0.
    With alpha = a/D, beta = b/D and s = a + b, every D cancels:

        A_n = (nD+s+D)(nD+a+D)(N-n) / ((2nD+s+D)(2nD+s+2D)),
        C_n = n((n+N+1)D+s)(nD+b) / ((2nD+s)(2nD+s+D)),

    A_0 = (a+D) N / (s+2D) with the factor (alpha+beta+1) cancelled, and
    C_0 = 0.  Both rows lie in [0, N] and [0, N^2/4], the spectrum being
    0..N; a row that is not finite raises DegenerateRecurrenceError
    naming its n."""
    N = params.N
    a, b, D = _exact_exponents(params.alpha, params.beta)
    s = a + b
    A = [((a + D) * N, s + 2 * D)]
    C = [(0, 1)]
    for n in range(1, N + 1):
        A.append(((n * D + s + D) * (n * D + a + D) * (N - n),
                  (2 * n * D + s + D) * (2 * n * D + s + 2 * D)))
        C.append((n * ((n + N + 1) * D + s) * (n * D + b), (2 * n * D + s) * (2 * n * D + s + D)))
    d = [dd._quotient(an * cd + cn * ad, ad * cd) for (an, ad), (cn, cd) in zip(A, C)]
    p = [dd._quotient(an * cn, ad * cd) for (an, ad), (cn, cd) in zip(A, C[1:])] + [0.0]
    for n, row in enumerate(zip(d, p)):
        if not all(map(math.isfinite, row)):
            raise DegenerateRecurrenceError(f"Jacobi row at n={n} is not finite in double precision")
    return np.array(d), np.array(p)


def _twisted_grid(params: HahnParams, weights: np.ndarray) -> np.ndarray:
    """Q~_n(x) = U[n, x] / sqrt(w(x)), with column x of the orthogonal U
    the unit eigenvector of the Jacobi matrix J (`_jacobi_rows`) for its
    eigenvalue x, every x = 0..N at once (Parlett & Dhillon, Linear
    Algebra Appl. 267, 1997; Dhillon & Parlett, LAA 387, 2004).

    The backward pivots D-_n and the forward pivots D+_n of J - x run
    elementwise over all x, a zero pivot replaced by eps ||J|| = eps N;
    the twist k minimizes |D+_k + D-_k - (d_k - x)|.  From v_k = 1 the
    vector expands downwards by v_n = sqrt(p_{n-1}) / D-_n v_{n-1} and
    upwards by v_n = sqrt(p_n) / D+_n v_{n+1}; each column is scaled to
    unit length and to a positive row 0, whose sign is the product of the
    signs of the upward ratios, since v_0 itself can underflow to 0.
    Elementwise numpy rounds as Python floats do, so no BLAS or LAPACK
    build changes a bit.  The one (N+1)^2 array is the result: it holds
    the backward pivots, then, above the twist, the forward pivots, which
    are computed twice for that, and is overwritten with v row by row.
    The division by sqrt(w) passes the double range to inf or nan
    silently."""
    N = params.N
    d, p = _jacobi_rows(params)
    e = np.sqrt(p)
    x = np.arange(N + 1.0)
    tiny = np.finfo(float).eps * N

    def nonzero(pivot):
        return np.where(pivot == 0.0, tiny, pivot)

    def forward():
        fwd = d[0] - x
        for n in range(N + 1):
            if n:
                fwd = (d[n] - x) - p[n - 1] / fwd
            fwd = nonzero(fwd)
            yield n, fwd

    v = np.empty((N + 1, N + 1))
    v[N] = d[N] - x
    for n in range(N - 1, -1, -1):
        v[n + 1] = nonzero(v[n + 1])
        v[n] = (d[n] - x) - p[n] / v[n + 1]
    best, k = np.full(N + 1, np.inf), np.zeros(N + 1)
    for n, fwd in forward():
        gamma = np.abs(fwd + v[n] - (d[n] - x))
        better = gamma < best
        k, best = np.where(better, float(n), k), np.where(better, gamma, best)
    # downwards from the twist over D-_n, and D+_n in its place above it
    cur = np.ones(N + 1)
    for n, fwd in forward():
        if n:
            cur = np.where(n > k, cur * (e[n - 1] / v[n]), cur)
        v[n] = np.where(n < k, fwd, np.where(n > k, cur, v[n]))
    # upwards from v_k = 1; e[N] = 0 closes the matrix
    cur, sign = np.ones(N + 1), np.ones(N + 1)
    for n in range(N, -1, -1):
        up = n < k
        cur = np.where(up, cur * (e[n] / np.where(up, v[n], 1.0)), cur)
        sign = np.where(up, sign * np.where(v[n] < 0.0, -1.0, 1.0), sign)
        v[n] = np.where(n <= k, cur, v[n])
    norm_sq = np.zeros(N + 1)
    for row in v:
        norm_sq += row * row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v *= sign / np.sqrt(norm_sq)
        v /= np.sqrt(weights)
    return v


@lru_cache(maxsize=64)
def basis(params: HahnParams) -> HahnBasis:
    """The family's one cached `HahnBasis`."""
    return HahnBasis(params)


def _check_degree(n: int | np.ndarray, params: HahnParams) -> None:
    # a Python loop, not numpy masks: those map about 256 KB more numpy
    # code into a process that has not used them, which shows in peak RSS;
    # a degree is an integer in the sense of operator.index, so 2.5 and
    # 2.0 are refused and np.int64(2) is not
    for k in np.ravel(n).tolist() if np.ndim(n) else (n,):
        try:
            k = operator.index(k)
        except TypeError:
            raise DegreeOutOfRangeError(f"degree {k!r} is not an integer") from None
        if not 0 <= k <= params.N:
            raise DegreeOutOfRangeError(f"degree {k} outside 0..{params.N}")


def hahn_eval_series(n: int, x: float, params: HahnParams) -> float:
    """Q_n(x) summed as the terminating series
    3F2(-n, n+alpha+beta+1, -x; alpha+1, -N; 1)."""
    _check_degree(n, params)
    a, b, N = params.alpha, params.beta, params.N
    return terminating_3f2(
        (float(-n), n + a + b + 1.0, -float(x)),
        (a + 1.0, float(-N)),
    )


def hahn_eval_all(m: int, x: float | np.ndarray, params: HahnParams) -> np.ndarray:
    """Q_0(x) .. Q_m(x) from one upward double-double recurrence sweep,
    each rounded to a double (cheaper than m+1 calls); the one forward
    sweep of the package.

    x is a float or an array of points; the result has shape
    (m+1,) + shape(x).  Every dd operation is elementwise float
    arithmetic, so each point's values equal those of a call with that
    point alone, bit for bit.  Q_0 and Q_1 seed one call of the kernel
    `_compensated.dd_three_term_sweep` over the family's first m-1 step
    rows; a sweep of degree 1 or less does not read the steps.  A value
    past the double range is inf or nan, with no warning, as Python
    floats give it; callers refuse or fail on it.
    """
    _check_degree(m, params)
    out = np.empty((m + 1,) + np.shape(x))
    out[0] = 1.0
    if m == 0:
        return out
    a, N = params.alpha, params.N
    with np.errstate(over="ignore", invalid="ignore"):
        # Q_1 = 1 - (alpha+beta+2) x / ((alpha+1) N), the n = 1 series closed form
        ab = dd.two_sum(a, params.beta)
        t = dd.dd_mul_d(dd.dd_add(ab, dd.dd_from(2.0)), x)
        t = dd.dd_div(t, dd.dd_mul_d(dd.two_sum(a, 1.0), float(N)))
        cur = dd.dd_sub(dd.dd_from(1.0), t)
        out[1] = cur[0] + cur[1]
        if m > 1:
            dd.dd_three_term_sweep(basis(params).steps[: m - 1], x, cur, dd.dd_from(1.0), out[2:])
    return out


def hahn_eval_recurrence(n: int, x: float, params: HahnParams) -> float:
    """Q_n(x) at one point: the last value of `hahn_eval_all`."""
    return float(hahn_eval_all(n, x, params)[n])


def weight_table(params: HahnParams) -> np.ndarray:
    """Weights w(0) .. w(N) as a read-only array."""
    return _read_only(np.array(binomial_weights(params.alpha, params.beta, params.N)))


def norm_sq_closed(n: int | np.ndarray, params: HahnParams) -> float | np.ndarray:
    """Squared weighted norm of Q_n, the closed form

        (-1)^n (n+alpha+beta+1)_{N+1} (beta+1)_n n!
        --------------------------------------------------
        (2n+alpha+beta+1) (alpha+1)_n (-N)_n N!

    (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials,
    Springer 2010, section 9.5), rounded once and correctly.

    With alpha = a/D, beta = b/D exactly and s = a + b, h_0 is
    prod_{j<N} (s + (2+j)D) / (D^N N!), and each degree multiplies an
    integer numerator and denominator by the factors of h_k / h_{k-1}:

        k = 1:   (s+(N+2)D)(b+D)  /  ((s+3D)(a+D) N)
        k >= 2:  (s+(k+N+1)D)(s+(2k-1)D)(b+kD) k
                 /  ((s+kD)(s+(2k+1)D)(a+kD)(N-k+1))

    Every factor is a positive integer.  The k = 1 ratio is the general
    one with its factor (1 + alpha + beta) cancelled, which vanishes when
    alpha + beta = -1.  h_k is one int true division of the running
    products; a norm past the double range is inf.

    n may be an array of degrees: one call runs the products once, up to
    the largest degree, and returns an array of n's shape, each entry
    equal to a scalar call.
    """
    _check_degree(n, params)
    degrees = np.ravel(n).tolist() if np.ndim(n) else [n]
    N = params.N
    a, b, D = _exact_exponents(params.alpha, params.beta)
    s = a + b
    num = math.prod(s + (2 + j) * D for j in range(N))
    den = D**N * math.factorial(N)
    norms = [dd._quotient(num, den)]
    for k in range(1, max(degrees, default=0) + 1):
        if k == 1:
            num *= (s + (N + 2) * D) * (b + D)
            den *= (s + 3 * D) * (a + D) * N
        else:
            num *= (s + (k + N + 1) * D) * (s + (2 * k - 1) * D) * (b + k * D) * k
            den *= (s + k * D) * (s + (2 * k + 1) * D) * (a + k * D) * (N - k + 1)
        norms.append(dd._quotient(num, den))
    if np.ndim(n):
        return np.array([norms[k] for k in degrees]).reshape(np.shape(n))
    return norms[n]


def normalized_grid_matrix(m: int, params: HahnParams) -> np.ndarray:
    """Matrix of orthonormal values, shape (m+1, N+1), row n = Q~_n on 0..N.

    A read-only view of the family's cached `HahnBasis.grid`, so the
    projections on one family pay its grid sweeps (see there) once.
    """
    _check_degree(m, params)
    return basis(params).grid[: m + 1]


"""Hahn polynomials Q_n(x) on the integer grid 0..N with weight
w(x) = C(alpha+x, x) C(beta+N-x, N-x).

From N = 13 up the grid values come from one twisted factorization of
the Jacobi matrix (`_twisted_grid`).  The three-term recurrence
sweep in double-double arithmetic, `hahn_eval_all`, has two callers: the
grid at N <= 12 and `hahn_eval_recurrence`.  It is one call of
`_compensated.dd_three_term_sweep`, the composition of the dd primitives
over the `HahnBasis.series` rows, which the dd Clenshaw sweep reads too,
on an array of points; its operations are elementwise float arithmetic,
rounded by numpy as by Python floats, so each point has the bits of a
call with it alone, and it passes the double range to inf or nan
silently.  `eval` prints `expansion.eval_expansion` of a unit vector,
with no sweep of its own.
The dd terminating series `hahn_eval_series` stays a tested function of
one degree and one point that no other code calls: `verify`'s reference
is the exact oracle.

The recurrence constants A_n and C_n and the norm h_0 have one source,
`_integer_steps`: integer numerator and denominator pairs over the common
denominator of the weights, computed once per family as
`HahnBasis.steps`.  Every float constant is an integer quotient of them
rounded once: the series rows (each dd entry an exact quotient and its
exact remainder), the Jacobi rows, the norms and the constants of the
recurrence check.  No dd arithmetic assembles a constant.

Closed-form squared norms complete the module.  `norm_sq_closed` starts
from the integer numerator and denominator of h_0 and multiplies them by
h_n / h_{n-1} = C_n / A_{n-1}, each ratio reduced by its gcd: each norm
is one int true division, the exact value rounded once.  It also takes an
array of degrees, so one call gives a family's N + 1 norms.

What depends on the family alone lives in its one `HahnBasis`, from the
`basis(params)` cache: the integer rows, the weight array, the series
rows of the dd sweeps, the long double Jacobi rows of the x87 Clenshaw
sweep, the norms, the orthonormal grid matrix, the difference operator's
eigenvalues and coefficients B(x), D(x), and its flux constants (the
scale exponent, the weights scaled by it and the flux factor -D w), each
computed on first read and read-only after; off-grid sweeps never build
the grid matrix, and only the x87 sweep builds the long double rows.

The grid matrix is Q~_n(x) = U[n, x] / sqrt(w(x)), U the orthogonal matrix
of eigenvectors of the family's Jacobi matrix, whose eigenvalues are the
integers 0..N.  From N = 13 up it is built that way: the Jacobi rows are
integer quotients rounded once (`_jacobi_rows`), and one twisted
factorization gives every eigenvector at once (`_twisted_grid`): one pivot
routine, run on each side, loops over n with no guard, then re-runs with
the guard the few columns that meet a zero pivot; then whole-matrix ratios
and cumulative products, no BLAS.
It is right to a few 1e-15 in U units for every family measured, up to
N = 200 and exponents 1e12, and to 2.6e-15 from N = 1 to 41 on the
lattice {-0.999, -0.5, 0, 3, 50, 1e3, 1e6}^2.  At N <= 12 it is still one
dd sweep per grid point over the norms, kept only for the benchmark's
sweep count at N = 12 (ROADMAP item 17); that sweep loses accuracy for
large exponents (9.9 ||u||_w in a runge coefficient of (1e6, -0.999) at
N = 12).
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
    _weights,
    terminating_3f2,
)

_MAX_N = 200
# from here the grid is the twisted build.  The dd sweep per point below it
# stays solely for the benchmark's pin of 13 sweeps of degree 12 in
# check_parseval at N = 12 (ROADMAP item 17); its known wrong coefficient
# cells at N <= 12 stay strict xfails in tests/test_expansion.py
_GRID_ARRAY_N = 13
# rows per block of the twist search: its temporaries beside both pivot
# arrays stay below the build's peak at the sign stage
_TWIST_BLOCK = 16


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
    """One family's shared data, each field computed on first read, then
    read-only, but for `projections`.  The recurrence constants (`series`,
    `monic_rows`, the Jacobi rows of the grid build) and the norms are
    integer quotients of `steps`, each rounded once; the operator's `lam`,
    `b`, `d` and `flux` are float formulas of alpha, beta and N, and the
    weights come from `weight_table`.  `projections` is the one field that
    grows: it is the store that `expansion.project` hands to
    `_compensated.held_row_sums`, which keeps there, by the bytes of each
    weighted sample vector v w, the grid array it summed over and the
    coefficients of degrees 0..done - 1, for at most
    `_compensated._HELD_VECTORS` (16) vectors, in the order of their last
    use."""

    params: HahnParams
    weights = cached_property(lambda self: weight_table(self.params))
    steps = cached_property(lambda self: _integer_steps(self.params))
    projections = cached_property(lambda self: {})

    @cached_property
    def series(self) -> tuple[tuple[float, ...], ...]:
        """The recurrence Q_{n+1} = (a_n - r_n x) Q_n - g_n Q_{n-1},
        n = 0..N-1, in double-double, one flat row per n: (a, a_lo, r,
        r_lo, g, g_lo), with a_n = (A_n + C_n) / A_n, r_n = 1 / A_n and
        g_n = C_n / A_n.  Only the two dd sweeps read these rows, the
        forward `_compensated.dd_three_term_sweep` and
        `_compensated.dd_clenshaw_sweep`, both at row[0:2], row[2:4] and
        row[4:6].  Each dd value is one exact quotient of the integer rows
        (`steps`), rounded once to its high part, with the exact
        remainder rounded once as its low part.  Row 0 is the Q_1 closed
        form, as C_0 = 0: a_0 = 1 and g_0 = 0.  The first row with an
        entry past the double range raises `DegenerateRecurrenceError`
        naming its n; a degree-m sweep reads the first m rows."""
        A, C, _ = self.steps
        rows = []
        for n, ((an, ad), (cn, cd)) in enumerate(zip(A[:-1], C)):
            row = f"step coefficient at n={n}"
            a = _dd_quotient(an * cd + cn * ad, an * cd, row)
            r = _dd_quotient(ad, an, row)
            g = _dd_quotient(cn * ad, cd * an, row)
            rows.append((*a, *r, *g))
        return tuple(rows)

    @cached_property
    def monic_rows(self) -> tuple[np.ndarray, np.ndarray, np.longdouble]:
        """The Jacobi rows d_n, n = 0..N, and p_n, n = 0..N-1, of
        `_jacobi_rows`, and h_0 = ||Q_0||^2, in numpy's long double, as
        the long double Clenshaw sweep reads them: each a dd quotient of
        the integers of `steps`, whose high part has `_jacobi_rows`' bits,
        rounded once to long double as hi + lo.  Built on first read by
        that sweep alone: the grid build reads the double rows.  An h_0
        past the double range, which every coefficient vector refuses by
        ||Q_0||, raises `DegenerateRecurrenceError` with the norm
        message."""
        # the rows lie in [0, N] and [0, N^2/4]: only h_0 can be refused
        d, p = _jacobi_quotients(self.steps, lambda num, den: _dd_quotient(num, den, "Jacobi row"))
        h0 = [_dd_quotient(*self.steps[2], "norm of Q_0")]
        # each double converts to long double exactly, and hi + lo rounds once
        rows = (np.array(r).astype(np.longdouble) for r in (d, p, h0))
        d, p, h0 = (_read_only(r[:, 0] + r[:, 1]) for r in rows)
        return d, p, h0[0]

    @cached_property
    def sqrt_norms(self) -> np.ndarray:
        """||Q_n||_w for n = 0..N; callers take the prefix [: m + 1]."""
        return _read_only(np.sqrt(norm_sq_closed(np.arange(self.params.N + 1), self.params)))

    @cached_property
    def grid(self) -> np.ndarray:
        """Orthonormal Q~_n(x), row n, column x.  From N = 13
        (`_GRID_ARRAY_N`) up, the eigenvectors of the Jacobi matrix by one
        twisted factorization (`_twisted_grid`), divided by sqrt(w); at
        N <= 12, one dd sweep per grid point divided by the norms.  The
        weights are read first: a family they refuse is refused before
        either build.  An entry past the double range is inf or nan,
        silently."""
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

    @cached_property
    def flux(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The difference operator's family constants, as
        `discrete_calculus._l_rows` reads them: the scale exponent e, the
        weights scaled by 2^-e, and the flux factor -D(i) w(i) of the
        scaled weights, i = 1..N.  L does not change when w is scaled by a
        constant, so where max|D| max w could pass 2^1000, e brings it
        below; a power of two keeps every bit, and every other family
        takes e = 0 and the plain weights."""
        w = self.weights
        e = math.frexp(abs(self.d).max())[1] + math.frexp(w.max())[1] - 1000
        if e > 0:
            w = _read_only(np.ldexp(w, -e))
        # (-D) w, then times nabla u in `_l_rows`: that order gives L its bits
        return max(e, 0), w, _read_only(-self.d[1:] * w[1:])


def _dd_quotient(num: int, den: int, name: str) -> tuple[float, float]:
    # num / den for den > 0 as a dd pair: the quotient rounded once, then
    # the exact remainder num/den - hi = (num q - p den) / (den q), with
    # hi = p/q, rounded once; a quotient past the double range is refused
    # by name
    hi = dd._quotient(num, den)
    if not math.isfinite(hi):
        raise DegenerateRecurrenceError(f"{name} is not finite in double precision")
    p, q = hi.as_integer_ratio()
    return hi, dd._quotient(num * q - p * den, den * q)


def _integer_steps(params: HahnParams) -> tuple[list[tuple[int, int]], list[tuple[int, int]],
                                                 tuple[int, int]]:
    """The step coefficients of -x Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n
    + C_n Q_{n-1}, n = 0..N, as integer (numerator, denominator) pairs, both
    parts positive but C_0 = 0 and A_N = 0 (Koekoek, Lesky & Swarttouw,
    Hypergeometric Orthogonal Polynomials, Springer 2010, section 9.5), and
    the pair of h_0 = ||Q_0||^2: the one source of the family's recurrence
    constants and of its norms, whose ratios are h_n / h_{n-1} =
    C_n / A_{n-1}.  Read it as `HahnBasis.steps`, which computes it once per
    family.  With alpha = a/D, beta = b/D over the common denominator of
    the weights and s = a + b, every D cancels:

        A_n = (nD+s+D)(nD+a+D)(N-n) / ((2nD+s+D)(2nD+s+2D)),
        C_n = n((n+N+1)D+s)(nD+b) / ((2nD+s)(2nD+s+D)),
        h_0 = prod_{j<N} (s + (2+j)D) / (D^N N!), the sum of the weights,

    A_0 = (a+D) N / (s+2D) with the factor (alpha+beta+1) cancelled, and
    C_0 = 0."""
    N = params.N
    a, b, D = _exact_exponents(params.alpha, params.beta)
    s = a + b
    A = [((a + D) * N, s + 2 * D)]
    C = [(0, 1)]
    for n in range(1, N + 1):
        A.append(((n * D + s + D) * (n * D + a + D) * (N - n),
                  (2 * n * D + s + D) * (2 * n * D + s + 2 * D)))
        C.append((n * ((n + N + 1) * D + s) * (n * D + b), (2 * n * D + s) * (2 * n * D + s + D)))
    return A, C, (math.prod(s + (2 + j) * D for j in range(N)), D**N * math.factorial(N))


def _jacobi_rows(params: HahnParams) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal recurrence x Q~_n = d_n Q~_n - sqrt(p_n) Q~_{n+1}
    - sqrt(p_{n-1}) Q~_{n-1} as its Jacobi diagonal d_n = A_n + C_n and
    products p_n = A_n C_{n+1}, n = 0..N, each an integer quotient of the
    family's `HahnBasis.steps`, rounded once; p_N = 0, as A_N = 0.  They
    are the diagonal and the squared off-diagonal of a symmetric matrix
    whose spectrum is 0..N, so d_n lies in [0, N] and p_n in [0, N^2/4]:
    every row is finite, for every family."""
    d, p = _jacobi_quotients(basis(params).steps, dd._quotient)
    return np.array(d), np.array(p + [0.0])


def _jacobi_quotients(steps, quotient) -> tuple[list, list]:
    # d_n = A_n + C_n, n = 0..N, and p_n = A_n C_(n+1), n = 0..N-1, each
    # quotient(num, den) of the integer rows `steps`
    A, C, _ = steps
    return ([quotient(an * cd + cn * ad, ad * cd) for (an, ad), (cn, cd) in zip(A, C)],
            [quotient(an * cn, ad * cd) for (an, ad), (cn, cd) in zip(A, C[1:])])


def _twisted_grid(params: HahnParams, weights: np.ndarray) -> np.ndarray:
    """Q~_n(x) = U[n, x] / sqrt(w(x)), with column x of the orthogonal U
    the unit eigenvector of the Jacobi matrix J (`_jacobi_rows`) for its
    eigenvalue x, every x = 0..N at once (Parlett & Dhillon, Linear
    Algebra Appl. 267, 1997; Dhillon & Parlett, LAA 387, 2004).

    The forward pivots D+_0 .. D+_N of J - x and the backward pivots
    D-_N .. D-_1, which are the forward pivots of J reversed, come from one
    routine, `_pivots`, run once on each side over all x: a division and a
    subtraction per row with no guard, then a re-run in Python floats of
    each column that meets an exact-zero pivot, which is replaced by
    eps ||J|| = eps N (Marques, Riedy & Vomel, SIAM J. Sci. Comput. 28,
    2006, run the same fast loop and guarded re-run).  D-_0 divides
    nothing: it enters only |D+_0 + D-_0 - (d_0 - x)| = |D-_0|, where an
    exact zero is an exact twist at n = 0, so it is one step with no
    guard.  Then, over blocks of rows, the twist k is the first n that
    minimizes |D+_n + D-_n - (d_n - x)|; a NaN never wins.  From v_k = 1
    the vector expands downwards by v_n = sqrt(p_{n-1}) / D-_n v_{n-1} and
    upwards by v_n = sqrt(p_n) / D+_n v_{n+1}: each side's ratios, 1 on
    the other side, are multiplied outwards by one cumulative product over
    the rows, which rounds as a loop cur = cur * ratio does, and U is the
    product of the two sides, one factor exactly 1 at every entry.  Each
    column is scaled to unit length and to a positive row 0, whose sign is
    the parity of the negative D+_n for n < k, since v_0 itself can
    underflow to 0.  Elementwise numpy rounds as Python floats do, so the
    re-run and the loops agree bit for bit, and no BLAS or LAPACK build
    changes a bit.  At its peak the build holds the result, the pivots of
    one side and small masks.  The division by sqrt(w) passes the double
    range to inf or nan silently."""
    N = params.N
    d, p = _jacobi_rows(params)
    e = np.sqrt(p)
    x = np.arange(N + 1.0)
    # fwd holds d_n - x, then D+_n, then the upward products; v holds D-_n,
    # then the downward products, then U
    fwd = d[:, None] - x
    v = np.empty_like(fwd)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # D-_N .. D-_1 are the forward pivots of J reversed, read from the
        # rows d_n - x before fwd is pivoted in place; the rows go as Python
        # floats, which index faster than numpy scalars, with the same bits
        _pivots(d[:0:-1].tolist(), p[-2::-1].tolist(), fwd[:0:-1], v[:0:-1])
        v[0] = fwd[0] - p[0] / v[1]
        _pivots(d.tolist(), p.tolist(), fwd, fwd)
    # the twist as int16, which holds 0.._MAX_N: numpy buffers 8192 entries
    # of each operand of the broadcast comparison below, and int16 takes a
    # quarter of the bytes of int64
    best, k = np.full(N + 1, np.inf), np.zeros(N + 1, dtype=np.int16)
    for r in range(0, N + 1, _TWIST_BLOCK):
        rows = slice(r, r + _TWIST_BLOCK)
        gamma = fwd[rows] + v[rows]
        gamma -= d[rows, None] - x
        np.abs(gamma, out=gamma)
        np.fmin(gamma, np.inf, out=gamma)  # a NaN never wins
        low = gamma.min(axis=0)
        better = low < best
        np.copyto(k, gamma.argmin(axis=0) + r, where=better, casting="same_kind")
        np.copyto(best, low, where=better)
    del gamma  # else it adds to the peak at the sign mask below
    up = np.arange(N + 1, dtype=np.int16)[:, None] < k
    sign = np.where(np.logical_xor.reduce(up & (fwd < 0.0), axis=0), -1.0, 1.0)
    # the ratios e_n / D+_n above the twist and e_(n-1) / D-_n below it,
    # each 1 elsewhere (up[n - 1] is n <= k), multiplied outwards from v_k
    np.divide(e[:, None], fwd, out=fwd)
    np.putmask(fwd, ~up, 1.0)
    np.divide(e[:-1, None], v[1:], out=v[1:])
    np.putmask(v[1:], up[:-1], 1.0)
    v[0] = 1.0
    np.multiply.accumulate(fwd[::-1], axis=0, out=fwd[::-1])
    np.multiply.accumulate(v, axis=0, out=v)
    v *= fwd
    del fwd
    # a reduction over axis 0 adds the rows in order, as a loop over them does
    norm_sq = np.add.reduce(np.square(v), axis=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v *= sign / np.sqrt(norm_sq)
        v /= np.sqrt(weights)
    return v


def _pivots(d: list[float], p: list[float], dx: np.ndarray, out: np.ndarray) -> None:
    """The pivots out[n] = dx[n] - p[n-1] / out[n-1] from out[0] = dx[0],
    column x of the rows dx being d_n - x (out may be dx itself): one
    division and one subtraction per row over all columns, with no guard,
    under the caller's np.errstate, so a zero pivot passes on inf or nan.
    Then each column that met an exact-zero pivot re-runs, in Python
    floats, from its first one, with that pivot and every later zero one
    replaced by eps N, N + 1 the number of columns.  The re-run takes
    d_n - x from d, since dx may be overwritten; the pivots before it are
    those of the guarded loop, and each step makes that loop's operations,
    so the column gets its bits.  Only a few columns of a family meet a
    zero pivot."""
    tiny = float(np.finfo(float).eps * (out.shape[1] - 1))
    out[0] = dx[0]
    ratio = np.empty(out.shape[1])
    for n in range(1, len(out)):
        np.divide(p[n - 1], out[n - 1], out=ratio)
        np.subtract(dx[n], ratio, out=out[n])
    for c in np.flatnonzero((out == 0.0).any(axis=0)).tolist():
        low = int(np.flatnonzero(out[:, c] == 0.0)[0])
        piv, col = tiny, [tiny]
        for n in range(low + 1, len(out)):
            piv = (d[n] - c) - p[n - 1] / piv
            if piv == 0.0:
                piv = tiny
            col.append(piv)
        out[low:, c] = col


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
    sweep of the package, read by the grid at N <= 12 and by
    `hahn_eval_recurrence`.

    x is a float or an array of points; the result has shape
    (m+1,) + shape(x).  Every dd operation is elementwise float
    arithmetic, so each point's values equal those of a call with that
    point alone, bit for bit.  One call of
    `_compensated.dd_three_term_sweep`, the composition of the dd
    primitives, runs over the family's first m series rows, from
    Q_0 = 1; row 0 is the Q_1 closed form.  Its products split a level
    above 2^996 scaled, so a value in the double range stays finite; a
    value past it is inf or nan, with no warning, as Python floats give
    it; callers refuse or fail on it.
    """
    _check_degree(m, params)
    out = np.empty((m + 1,) + np.shape(x))
    out[0] = 1.0
    if m:
        with np.errstate(over="ignore", invalid="ignore"):
            dd.dd_three_term_sweep(basis(params).series[:m], x, out[1:])
    return out


def hahn_eval_recurrence(n: int, x: float, params: HahnParams) -> float:
    """Q_n(x) at one point: the last value of `hahn_eval_all`."""
    return float(hahn_eval_all(n, x, params)[n])


def weight_table(params: HahnParams) -> np.ndarray:
    """Weights w(0) .. w(N) as a read-only array, each equal to
    `specfun.binomial_weight` bit for bit.

    The weights come from one running integer ratio, so the grid costs
    O(N) integer products and N + 1 correctly rounded quotients.  The first
    weight past the double range raises DomainError naming its grid point,
    before any later product is formed.
    """
    return _read_only(np.array(_weights(params.alpha, params.beta, params.N, range(params.N + 1))))


def norm_sq_closed(n: int | np.ndarray, params: HahnParams) -> float | np.ndarray:
    """Squared weighted norm of Q_n, the closed form

        (-1)^n (n+alpha+beta+1)_{N+1} (beta+1)_n n!
        --------------------------------------------------
        (2n+alpha+beta+1) (alpha+1)_n (-N)_n N!

    (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials,
    Springer 2010, section 9.5), rounded once and correctly.

    With alpha = a/D, beta = b/D exactly and s = a + b, h_0 is
    prod_{j<N} (s + (2+j)D) / (D^N N!), and each degree multiplies its
    integer numerator and denominator by h_k / h_{k-1} = C_k / A_{k-1},
    the ratio of the recurrence's own integer rows, each step's ratio
    reduced by its gcd; h_0 and the rows are the family's
    `HahnBasis.steps`.  A_0 there has its factor (1 + alpha + beta)
    cancelled, which vanishes when alpha + beta = -1; every other factor
    is a positive integer.  h_k is one int true division of the running
    products; a norm past the double range is inf.

    n may be an array of degrees: one call runs the products once, up to
    the largest degree, and returns an array of n's shape, each entry
    equal to a scalar call.
    """
    _check_degree(n, params)
    degrees = np.ravel(n).tolist() if np.ndim(n) else [n]
    A, C, (num, den) = basis(params).steps
    norms = [dd._quotient(num, den)]
    top = max(degrees, default=0)
    for (an, ad), (cn, cd) in zip(A[:top], C[1 : top + 1]):
        rn, rd = cn * ad, cd * an
        g = math.gcd(rn, rd)
        num *= rn // g
        den *= rd // g
        norms.append(dd._quotient(num, den))
    if np.ndim(n):
        return np.array([norms[k] for k in degrees]).reshape(np.shape(n))
    return norms[n]


def normalized_grid_matrix(m: int, params: HahnParams) -> np.ndarray:
    """Matrix of orthonormal values, shape (m+1, N+1), row n = Q~_n on 0..N.

    A read-only view of the family's cached `HahnBasis.grid`, so the
    projections on one family pay its grid build (see there) once.
    """
    _check_degree(m, params)
    return basis(params).grid[: m + 1]


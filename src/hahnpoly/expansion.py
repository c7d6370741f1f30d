"""Weighted projections onto the Hahn basis, expansion evaluation, affine
interval maps between the grid and a target interval, and per-degree decay
diagnostics for the projection coefficients.

Coefficient conventions.  With normalized=True (default) the stored
coefficients are u_n = <Q~_n, u>_w against the orthonormal basis, so
sum u_n^2 equals ||u||_w^2 when m = N.  With normalized=False they are
classical coefficients <Q_n, u>_w / ||Q_n||_w^2 multiplying the plain
Q_n, the convention usually seen next to Legendre series.  Either way
a degree whose norm ||Q_k|| is past the double range has no double
orthonormal Q~_k, so a `CoefficientVector` reaching it is refused.

Every exact sum here is `_compensated.exact_sum`, the package's one rule
for a sum with no double value.  A set of row sums (the values at the
nodes, the coefficients of a grid function) is one `exact_row_sums`
call, which gives exact_sum's bits for every row.  Projections of grid
functions have one owner, `project`: the grid read and the norm check,
then the row sums.  `decay_report` is two `project` calls, of u and of
L^k u, and `checks.check_spectral_multiplier` two more, of u and of L u.
Each coefficient is the exact sum rounded once, whatever other rows are
summed with it, so the family's `HahnBasis.projections` keeps the rows
summed for each weighted sample vector, and a later projection of the
same vector sums only the rows it does not hold yet: `project` hands
that store to `_compensated.held_row_sums`, the package's one memo of
row sums, which `legendre_ref.legendre_coeffs` shares.

Evaluation reads one convention: `eval_expansion` makes a classical
vector orthonormal once, u_n = c_n ||Q_n|| rounded in double, and hands
the same u to both of its routes, which one array pass sorts the points
between.  At a grid node (an exact integer in 0..N) the value is the
exact sum of the family's cached grid column times u, all nodes of an
array in one call.  Everywhere else the whole series is summed by one
Clenshaw sweep (`_compensated.clenshaw_sum`), all points at once and
without a table of basis values.  Where numpy's long double is x87
extended, as on x86-64 Linux, points at least `NEAR_NODE` from every
node are summed in long double over the family's Jacobi rows in monic
form (`HahnBasis.monic_rows`), with no norm; other points, and every
point on other platforms, in double-double over the family's
`HahnBasis.series` rows and norms, anchored on node 0 near it.  An
import-time arithmetic probe finds the platform, and both sweeps meet
the same 2 eps S(x) contract.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._compensated import (NEAR_NODE, clenshaw_sum, exact_row_sums, exact_sum, held_row_sums,
                           two_prod)
from .discrete_calculus import GridFunction, _check_power, _same_grid, l_disk_apply
from .errors import (
    DegenerateIntervalError,
    DegreeOutOfRangeError,
    DomainError,
    LengthMismatchError,
    ZeroLambdaError,
)
# hahn_eval_all is unused here; the bench tracer's rebind test names it
from .hahn import (HahnParams, _check_degree, basis, hahn_eval_all,  # noqa: F401
                   normalized_grid_matrix)


@dataclass(frozen=True)
class IntervalMap:
    """Affine bijection between grid indices 0..N and an interval [a, b];
    index i maps to a + (b - a) i / N.  N (b - a) must be finite, so that
    `to_grid` cannot overflow on [a, b]."""

    a: float
    b: float
    N: int

    def __post_init__(self) -> None:
        if not (self.a < self.b and math.isfinite(self.N * (self.b - self.a))):
            raise DegenerateIntervalError(
                f"interval must satisfy a < b with N (b - a) finite, got {self.a},{self.b}"
            )
        if self.N < 1:
            raise DomainError(f"need N >= 1, got {self.N}")

    def to_interval(self, i: float) -> float:
        # convex combination rather than a + (b-a) i/N, so the endpoints
        # i = 0 and i = N land on a and b exactly
        s = i / self.N
        return self.a * (1.0 - s) + self.b * s

    def to_grid(self, t: float) -> float:
        return self.N * (t - self.a) / (self.b - self.a)

    def grid_points(self) -> np.ndarray:
        return np.array([self.to_interval(i) for i in range(self.N + 1)])


@dataclass(eq=False)
class CoefficientVector:
    """Projection coefficients for degrees 0..m on a given parameter set.

    DegreeOutOfRangeError for more than N + 1 coefficients, and DomainError
    naming the first k <= m whose norm ||Q_k|| is past the double range.
    """

    params: HahnParams
    coeffs: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        vals = np.asarray(self.coeffs, dtype=float)
        if vals.ndim != 1 or len(vals) == 0:
            raise LengthMismatchError(f"coefficients must be a 1-d vector, got {vals.shape}")
        if len(vals) > self.params.N + 1:
            raise DegreeOutOfRangeError(
                f"{len(vals)} coefficients exceed the {self.params.N + 1} basis degrees"
            )
        _check_norms(self.params, len(vals) - 1)
        self.coeffs = vals

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _check_norms(params: HahnParams, m: int) -> None:
    # no double Q~_k = Q_k / ||Q_k|| exists past the double range; a list
    # pass, not numpy masks (see hahn._check_degree)
    norms = basis(params).sqrt_norms[: m + 1].tolist()
    if math.inf in norms:
        raise DomainError(f"norm of Q_{norms.index(math.inf)} is not finite in double precision")


class DecayEntry(NamedTuple):
    """One row of a decay report: the coefficient of degree n, its operator
    bound, the degree-only bound, and the spectral-identity defect.  A
    named tuple of Python ints and floats: immutable, hashable and
    compared by value; `_replace` gives a changed copy."""

    n: int
    k: int
    coeff: float
    bound: float
    bound_degree_only: float
    identity_residual: float


# relative rounding allowance on the coefficient decay bound; the
# inequality itself is exact in real arithmetic.  `decay` adds the absolute
# allowance (N+1) eps ||u||_w, the rounding level of a projected
# coefficient, so that a bound of 0 is not failed by rounding alone.
BOUND_SLACK = 1e-8


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted inner product sum_x f(x) g(x) w(x), w the family's weight.

    The products are split error-free, all grid points at once, before
    the exact sum (`exact_sum`), so the only rounding left is the final
    one; orthogonality residuals then sit at the level of the stored
    values' own accuracy, not the term sizes.  A product past the double
    range is inf or nan, with no warning, and so is the sum: -inf + inf
    has no value, so a check fails on it.
    """
    _same_grid(f, g)
    w = basis(f.params).weights
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = two_prod(f.values, g.values)
        hi2, lo2 = two_prod(hi, w)
        return exact_sum(hi2.tolist() + (lo2 + lo * w).tolist())


def project(u: GridFunction, m: int, *, normalized: bool = True) -> CoefficientVector:
    """Projection coefficients of u for degrees 0..m: every orthonormal
    coefficient the exact sum of a grid row times u w, rounded once
    (`exact_row_sums`, which extracts a block of rows at a time).  The grid
    is read first (`normalized_grid_matrix` refuses m outside 0..N with
    DegreeOutOfRangeError), then the norms are checked (DomainError for a
    norm past the double range), then u is read.  The row sums are
    `_compensated.held_row_sums` over the family's `HahnBasis.projections`:
    a weighted vector u w held there for the array that holds the grid
    rows sums only the rows 0..m not held yet, any other sums 0..m.  The
    coefficients are a fresh array."""
    p = u.params
    qmat = normalized_grid_matrix(m, p)
    _check_norms(p, m)
    b = basis(p)
    # L u from a weighted flux that was scaled into range can be finite
    # while L u w is not: that product is inf, with no warning
    with np.errstate(over="ignore"):
        vw = u.values * b.weights
    coeffs = held_row_sums(b.projections, qmat, vw)
    if not normalized:
        coeffs /= b.sqrt_norms[: m + 1]
    return CoefficientVector(p, coeffs, normalized)


def eval_expansion(c: CoefficientVector, x: float | np.ndarray) -> float | np.ndarray:
    """Value of the expansion at a real point x (off-grid allowed), or at
    each point of an array x.

    The orthonormal coefficients u are formed once, for every point:
    u = c, or the classical c_n ||Q_n|| rounded once in double, inf where
    that product passes the double range.  A point that is an exact
    integer k in 0..N takes the exact sum of the products of
    `basis(p).grid` column k with u, rounded once, every node in one
    `exact_row_sums` call.  A family whose weights are refused is refused
    there, by the grid.  Every other point is summed by a Clenshaw sweep
    of u (`_compensated.clenshaw_sum`): in long double on x87 at least
    `NEAR_NODE` from every node, over the Jacobi rows in monic form; in
    dd elsewhere, over the series rows with k_n = u_n / ||Q_n||, anchored
    on the exact Q_n(0) = 1 within `NEAR_NODE` of node 0.  All such
    points of an array take one sweep per route, and the sum is rounded
    once to a double, or is NaN where it is not finite.  One array pass
    (`_split_points`) sorts the points into nodes, near and far points.
    Either way an array point equals a one-point call to the bit.
    """
    b = basis(c.params)
    m, N = c.degree, c.params.N
    with np.errstate(over="ignore"):
        u = c.coeffs if c.normalized else c.coeffs * b.sqrt_norms[: m + 1]
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    nodes, near, far = _split_points(flat, N)
    out = np.empty(len(flat))
    if len(nodes):
        out[nodes] = exact_row_sums(b.grid.T[flat[nodes].astype(int), : m + 1], u)
    for off, near_node in ((far, False), (near, True)):
        if len(off):
            # a scalar point sweeps as a Python float, with the same rounding
            pts = flat[off] if xs.ndim else float(flat[0])
            out[off] = clenshaw_sum(b, u, pts, near_node=near_node)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _split_points(x: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the nodes, the near points and the far points of
    the float array x, in one array pass: with r = round(clip(x, 0, N)),
    a node has x == r, a near point |x - r| < NEAR_NODE, and the rest,
    NaN and +-inf among them, are far.  Each class is an index array from
    np.flatnonzero, not a boolean mask to index with (see
    hahn._check_degree)."""
    r = np.round(np.clip(x, 0.0, N))
    near = np.abs(x - r) < NEAR_NODE
    on = x == r
    return np.flatnonzero(on), np.flatnonzero(near & ~on), np.flatnonzero(~near)


def decay_report(u: GridFunction, k: int, n_range: Iterable[int]) -> list[DecayEntry]:
    """Per-degree decay diagnostics for the normalized coefficients of u.

    For each n in n_range the report carries |u_n|, the operator bound
    ||L^k u||_w / lam_n^k, the weaker degree-only bound
    ||L^k u||_w / (low n^2)^k, with low = min(1, alpha + beta + 2) so that
    lam_n >= low n^2 for every accepted family, and the defect of the
    identity u_n (-lam_n)^k = <Q~_n, L^k u>_w scaled by ||L^k u||_w.  The
    operator bound is a hard inequality; the degree-only bound is
    reported for reference and not asserted here.

    The order k is an integer in the sense of operator.index, as a degree
    is.  A `range` of degrees is checked by its extremes; any other
    iterable, a generator among them, is read once into a tuple and also
    checked entry by entry (`_check_degree`), which refuses 2.5.  Then u
    is projected (`project`, with its grid and norm refusals).
    DomainError if lam_n^k overflows double precision, before L^k u is
    formed; if L^k u or ||L^k u||_w does (`l_disk_apply` passes the double
    range silently, and `inner_product` carries a non-finite value of
    L^k u into ||L^k u||_w, where the overflow is found), where L^k u is
    formed one power at a time and refused at the first L^j u that is not
    finite, since L keeps a non-finite entry non-finite; or if lam_n^k or
    n^(2k) low^k underflows to 0, which the bounds divide by.  L^k u is
    projected last.  Every row is made of Python floats: the same IEEE
    operations, in the same order, as on numpy's scalars, so the same
    bits, at a fraction of the cost per row.
    """
    p = u.params
    k = _check_power(k, "order k")
    if not isinstance(n_range, range):
        # a generator has no len, and max would use it up before min
        n_range = tuple(n_range)
    if len(n_range) == 0:
        raise DomainError("empty degree range")
    # a range may run either way; it is checked, and projected, by its
    # extremes
    top = max(n_range)
    if min(n_range) < 1 or top > p.N:
        if 0 in n_range and k >= 1:
            raise ZeroLambdaError("degree 0 has eigenvalue 0; no order-k bound exists")
        raise DegreeOutOfRangeError(f"degree range {n_range} outside 1..{p.N}")
    if not isinstance(n_range, range):
        _check_degree(n_range, p)
    coeffs = project(u, top).coeffs.tolist()
    lams = basis(p).lam.tolist()
    # lam_n = n (n + alpha + beta + 1) >= low n^2 for n >= 1: low is 1
    # where alpha + beta >= -1, and alpha + beta + 2 below
    low = min(1.0, p.alpha + p.beta + 2.0)
    try:
        # float ** int raises past the double range, before L^k u is
        # formed; math.sqrt raises below zero
        powers = [(lams[n] ** k, (-lams[n]) ** k, float(n) ** (2 * k) * low**k)
                  for n in n_range]
        lku = u
        for _ in range(k):
            lku = l_disk_apply(lku)
            # L keeps a non-finite entry non-finite, and so does ||.||_w:
            # the first such power decides the refusal
            if not np.isfinite(lku.values).all():
                raise OverflowError
        s_k = math.sqrt(inner_product(lku, lku))
    except (OverflowError, ValueError):
        s_k = math.nan
    if not math.isfinite(s_k):
        raise DomainError(f"L^k u, ||L^k u||_w or lam_n^k overflows double precision at k={k}")
    # float ** int underflows to 0 silently, and the rows divide by it
    if any(lam_k == 0.0 or n_2k == 0.0 for lam_k, _, n_2k in powers):
        raise DomainError(f"lam_n^k or n^(2k) low^k underflows double precision at k={k}")
    lk_coeffs = project(lku, top).coeffs.tolist()
    # as Python floats, a product past the double range is inf with no warning
    rows = ((n, k, coeffs[n], s_k / lam_k, s_k / n_2k,
             abs(coeffs[n] * signed_lam_k - lk_coeffs[n]) / s_k if s_k > 0 else 0.0)
            for n, (lam_k, signed_lam_k, n_2k) in zip(n_range, powers))
    # _make wraps each tuple as it is, at half the cost of DecayEntry(...)
    return list(map(DecayEntry._make, rows))

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
functions have one owner, `_project_rows`: the grid read and the norm
check, then the row sums; `project`, the decay pass and
`checks.check_spectral_multiplier` use it.  Each coefficient is the
exact sum rounded once, whatever other rows are summed with it, so the
family's `HahnBasis.projections` keeps the rows summed for each weighted
sample vector, and a later projection of the same vector sums only the
rows it does not hold yet.

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

from ._compensated import NEAR_NODE, clenshaw_sum, exact_row_sums, exact_sum, two_prod
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
# weighted sample vectors whose coefficients a family's basis keeps
_HELD_VECTORS = 16


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
    """Projection coefficients of u for degrees 0..m, each the exact sum
    of a grid row times u w, rounded once (`_project_rows`);
    DegreeOutOfRangeError for m outside 0..N and DomainError for a norm
    past the double range, as `_project_rows` refuses."""
    p = u.params
    (coeffs,) = _project_rows(p, m, [u.values])
    if not normalized:
        coeffs /= basis(p).sqrt_norms[: m + 1]
    return CoefficientVector(p, coeffs, normalized)


def _project_rows(p: HahnParams, m: int, values: Iterable[np.ndarray]) -> np.ndarray:
    """The orthonormal coefficients of degrees 0..m of each grid function
    in values, one row each: every coefficient the exact sum of a grid row
    times the values times w, rounded once (`exact_row_sums`, which
    extracts a block of rows at a time).  The grid is read
    (`normalized_grid_matrix` refuses m outside 0..N) and the norms are
    checked before values is read, so a generator forms L u, or refuses
    it, only for a family that passes both, and every vector is formed
    before any row is summed.  The family's `HahnBasis.projections` keeps,
    for the last `_HELD_VECTORS` weighted vectors v w by their bytes, the
    rows 0..done - 1 summed over the array that holds the grid rows; a
    vector held for that array sums only rows done..m, any other sums
    0..m.  The result is a fresh array."""
    qmat = normalized_grid_matrix(m, p)
    _check_norms(p, m)
    b = basis(p)
    # a grid planted or rebuilt since an entry was summed is another array
    grid = qmat if qmat.base is None else qmat.base
    # L u from a weighted flux that was scaled into range can be finite
    # while L u w is not: that product is inf, with no warning
    with np.errstate(over="ignore"):
        vws = [v * b.weights for v in values]
    out = np.empty((len(vws), m + 1))
    for row, vw in zip(out, vws):
        key = vw.tobytes()
        summed_over, held = b.projections.pop(key, (None, None))
        held = held if summed_over is grid else np.empty(0)
        if len(held) <= m:
            held = np.concatenate((held, exact_row_sums(qmat[len(held):], vw)))
        # re-inserted last: the first key is the least recently used
        b.projections[key] = (grid, held)
        row[:] = held[: m + 1]
    while len(b.projections) > _HELD_VECTORS:
        del b.projections[next(iter(b.projections))]
    return out


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
    DomainError if L^k u, ||L^k u||_w or lam_n^k overflows double precision,
    or if lam_n^k or n^(2k) low^k underflows to 0, which the bounds divide
    by; `l_disk_apply` passes the double range silently, and `inner_product`
    carries a non-finite value of L^k u into ||L^k u||_w, where the
    overflow is found.  The report is the one-order case of `_decay_pass`,
    which serves several orders from one grid read, one operator chain and
    one `_project_rows` call, each row with the bits of this call.  The
    degrees n_range may be any iterable of integers, a generator among
    them.
    """
    return _decay_pass(u, (k,), n_range)[0]


def _decay_pass(u: GridFunction, ks: tuple[int, ...],
                n_range: Iterable[int]) -> list[list[DecayEntry]]:
    """The `decay_report` rows of each order in ks, in order, from one pass:
    one chain L u, L^2 u, .. up to the largest order and one
    `_project_rows` call over u and every L^k u, which sums only the rows
    the family's basis does not hold yet.  Refusals come as from one
    `decay_report` call per order, in turn: the first order's checks, the
    grid and the norms, then for each order its own check and its
    overflow, all before any row is summed.  An order is an integer in the
    sense of operator.index, as a degree is.  A `range` is checked by its
    extremes; any other iterable of degrees is read once into a tuple and
    also checked entry by entry (`_check_degree`), which refuses 2.5.  The
    summed rows are read once as Python lists, and every row is made of
    Python floats: the same IEEE operations, in the same order, as on
    numpy's scalars, so the same bits, at a fraction of the cost per row."""
    if not ks:
        return []
    p = u.params
    first = _check_power(ks[0], "order k")
    if not isinstance(n_range, range):
        # a generator has no len, and max would use it up before min
        n_range = tuple(n_range)
    if len(n_range) == 0:
        raise DomainError("empty degree range")
    # a range may run either way; it is checked, and projected, by its
    # extremes
    top = max(n_range)
    if min(n_range) < 1 or top > p.N:
        if 0 in n_range and first >= 1:
            raise ZeroLambdaError("degree 0 has eigenvalue 0; no order-k bound exists")
        raise DegreeOutOfRangeError(f"degree range {n_range} outside 1..{p.N}")
    if not isinstance(n_range, range):
        _check_degree(n_range, p)
    lams = basis(p).lam.tolist()
    # lam_n = n (n + alpha + beta + 1) >= low n^2 for n >= 1: low is 1
    # where alpha + beta >= -1, and alpha + beta + 2 below
    low = min(1.0, p.alpha + p.beta + 2.0)
    chain, orders = [u], []

    def values():
        # read by _project_rows after the grid and norm refusals; every
        # order's own refusals come before the row sums
        yield u.values
        for k in ks:
            k = _check_power(k, "order k")
            while len(chain) <= k:
                chain.append(l_disk_apply(chain[-1]))
            try:
                # float ** int raises past the double range, math.sqrt below zero
                s_k = math.sqrt(inner_product(chain[k], chain[k]))
                powers = [(lams[n] ** k, (-lams[n]) ** k, float(n) ** (2 * k) * low**k)
                          for n in n_range]
            except (OverflowError, ValueError):
                s_k = math.nan
            if not math.isfinite(s_k):
                raise DomainError(f"L^k u, ||L^k u||_w or lam_n^k overflows double precision at k={k}")
            # float ** int underflows to 0 silently, and the rows divide by it
            if any(lam_k == 0.0 or n_2k == 0.0 for lam_k, _, n_2k in powers):
                raise DomainError(f"lam_n^k or n^(2k) low^k underflows double precision at k={k}")
            orders.append((k, s_k, powers))
            yield chain[k].values

    # as Python floats, a product past the double range is inf with no warning
    coeffs, *lku_sums = _project_rows(p, top, values()).tolist()
    out = []
    for (k, s_k, powers), lku in zip(orders, lku_sums):
        rows = ((n, k, coeffs[n], s_k / lam_k, s_k / n_2k,
                 abs(coeffs[n] * signed_lam_k - lku[n]) / s_k if s_k > 0 else 0.0)
                for n, (lam_k, signed_lam_k, n_2k) in zip(n_range, powers))
        # _make wraps each tuple as it is, at half the cost of DecayEntry(...)
        out.append(list(map(DecayEntry._make, rows)))
    return out

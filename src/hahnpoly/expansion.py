"""Weighted projections onto the Hahn basis, expansion evaluation, affine
interval maps between the grid and a target interval, and per-degree decay
diagnostics for the projection coefficients.

Coefficient conventions.  With normalized=True (default) the stored
coefficients are u_n = <Q~_n, u>_w against the orthonormal basis, so
sum u_n^2 equals ||u||_w^2 when m = N.  With normalized=False they are
classical coefficients <Q_n, u>_w / ||Q_n||_w^2 multiplying the plain
Q_n, the convention usually seen next to Legendre series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._compensated import two_prod
from .discrete_calculus import GridFunction, l_disk_power
from .errors import (
    DegenerateIntervalError,
    DegreeOutOfRangeError,
    DomainError,
    LengthMismatchError,
    ZeroLambdaError,
)
from .hahn import HahnParams, basis, hahn_eval_all, normalized_grid_matrix


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
                f"need a < b and a finite N (b - a), got [{self.a}, {self.b}] with N = {self.N}"
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
    """Projection coefficients for degrees 0..m on a given parameter set."""

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
        self.coeffs = vals

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class DecayEntry:
    """One row of a decay report: the coefficient of degree n, its operator
    bound, the degree-only bound, and the spectral-identity defect."""

    n: int
    k: int
    coeff: float
    bound: float
    bound_degree_only: float
    identity_residual: float


# rounding allowance on the coefficient decay bound; the inequality itself
# is exact in real arithmetic
BOUND_SLACK = 1e-8

# points per off-grid recurrence sweep in eval_expansion
_EVAL_BLOCK = 1024


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted inner product sum_x f(x) g(x) w(x), w the family's weight.

    The products are split error-free before the exact sum, so the only
    rounding left is the final one; orthogonality residuals then sit at
    the level of the stored values' own accuracy, not the term sizes.
    """
    if f.params != g.params:
        raise LengthMismatchError("inner product needs matching grids")
    parts: list[float] = []
    for fv, gv, wv in zip(f.values, g.values, basis(f.params).weights):
        hi, lo = two_prod(float(fv), float(gv))
        hi2, lo2 = two_prod(hi, float(wv))
        parts.append(hi2)
        parts.append(lo2 + lo * float(wv))
    return math.fsum(parts)


def project(u: GridFunction, m: int, *, normalized: bool = True) -> CoefficientVector:
    """Projection coefficients of u for degrees 0..m."""
    p = u.params
    if not 0 <= m <= p.N:
        raise DegreeOutOfRangeError(f"degree {m} outside 0..{p.N}")
    qmat = normalized_grid_matrix(m, p)
    wu = u.values * basis(p).weights
    coeffs = np.array([math.fsum(qmat[n] * wu) for n in range(m + 1)])
    if not normalized:
        coeffs /= basis(p).sqrt_norms[: m + 1]
    return CoefficientVector(p, coeffs, normalized)


def _weighted_terms(c: CoefficientVector, x: float | np.ndarray) -> np.ndarray:
    # c_n q_n(x), shape (m+1,) + shape(x), in the sweep's own array: the
    # norm division comes before the coefficient product, as for one point
    m = c.degree
    col = (slice(None),) + (None,) * np.ndim(x)
    terms = hahn_eval_all(m, x, c.params)
    if c.normalized:
        terms /= basis(c.params).sqrt_norms[: m + 1][col]
    terms *= c.coeffs[col]
    return terms


def eval_expansion(c: CoefficientVector, x: float | np.ndarray) -> float | np.ndarray:
    """Value of the expansion at a real point x (off-grid allowed), or at
    each point of an array x.

    Array points are swept together, _EVAL_BLOCK (1024) at a time, so the
    transient basis table stays (m+1) x 1024 doubles however many points
    there are.  Every value is the exact sum (math.fsum) of its
    terms, rounded once, and equals a one-point call to the bit.
    """
    if np.ndim(x) == 0:
        return math.fsum(_weighted_terms(c, x))
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.empty(flat.shape)
    for start in range(0, len(flat), _EVAL_BLOCK):
        terms = _weighted_terms(c, flat[start:start + _EVAL_BLOCK])
        out[start:start + _EVAL_BLOCK] = [math.fsum(t.tolist()) for t in terms.T]
    return out.reshape(xs.shape)


def decay_report(u: GridFunction, k: int, n_range: range) -> list[DecayEntry]:
    """Per-degree decay diagnostics for the normalized coefficients of u.

    For each n in n_range the report carries |u_n|, the operator bound
    ||L^k u||_w / lam_n^k, the weaker degree-only bound ||L^k u||_w / n^(2k),
    and the defect of the identity u_n (-lam_n)^k = <Q~_n, L^k u>_w scaled
    by ||L^k u||_w.  The operator bound is a hard inequality; the
    degree-only bound is reported for reference and not asserted here.
    DomainError if L^k u, ||L^k u||_w or lam_n^k overflows double precision.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"order k must be a nonnegative integer, got {k!r}")
    p = u.params
    if len(n_range) == 0:
        raise DomainError("empty degree range")
    if n_range[0] < 1 or n_range[-1] > p.N:
        if 0 in n_range and k >= 1:
            raise ZeroLambdaError("degree 0 has eigenvalue 0; no order-k bound exists")
        raise DegreeOutOfRangeError(f"degree range {n_range} outside 1..{p.N}")
    top = n_range[-1]
    coeffs = project(u, top).coeffs
    lams = basis(p).lam.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        lku = l_disk_power(u, k)
    try:
        # math.fsum and float ** int raise where a result leaves the double range
        s_k = math.sqrt(inner_product(lku, lku)) if np.isfinite(lku.values).all() else math.nan
        powers = [(lams[n] ** k, (-lams[n]) ** k, float(n) ** (2 * k)) for n in n_range]
    except (OverflowError, ValueError):
        s_k = math.nan
    if not math.isfinite(s_k):
        raise DomainError(f"L^k u, ||L^k u||_w or lam_n^k overflows double precision at k={k}")
    lku_coeffs = project(lku, top).coeffs
    out = []
    for n, (lam_k, signed_lam_k, n_2k) in zip(n_range, powers):
        resid = abs(coeffs[n] * signed_lam_k - lku_coeffs[n]) / s_k if s_k > 0 else 0.0
        out.append(
            DecayEntry(
                n=n,
                k=k,
                coeff=coeffs[n],
                bound=s_k / lam_k,
                bound_degree_only=s_k / n_2k,
                identity_residual=resid,
            )
        )
    return out

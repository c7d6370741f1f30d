"""Forward/backward differences on the grid 0..N, the self-adjoint
difference operator attached to the Hahn weight, and a summation-by-parts
residual used to test it.

Difference outputs keep full-grid indexing: the slot with no defined
difference (x = N for the forward, x = 0 for the backward operator) is
set to 0.0 rather than shrinking the array, so operators compose without
index bookkeeping.  A grid function holds N + 1 >= 2 values.  The
operator's one implementation, `_l_rows`, runs on a stack of grid rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._compensated import exact_sum
from .errors import DomainError, LengthMismatchError
from .hahn import HahnParams, basis


@dataclass(eq=False)
class GridFunction:
    """Real values on the integer grid 0..N of a Hahn parameter set."""

    params: HahnParams
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) != self.params.N + 1:
            raise LengthMismatchError(
                f"expected {self.params.N + 1} grid values, got shape {vals.shape}"
            )
        self.values = vals

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[float], float],
        params: HahnParams,
        transform: Callable[[float], float],
    ) -> "GridFunction":
        """Sample fn on the grid through a coordinate transform applied to
        each grid index first.  A sample that is not finite, or a ValueError
        or ArithmeticError raised while taking it, raises DomainError naming
        its grid index."""
        samples = []
        for i in params.grid().tolist():
            try:
                samples.append(fn(transform(i)))
            except (ValueError, ArithmeticError) as exc:
                raise DomainError(f"sample at grid index {int(i)} failed: {exc}") from exc
        vals = np.array(samples, dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise DomainError(f"sample at grid index {bad[0]} is not finite: {vals[bad[0]]}")
        return cls(params, vals)


def _same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.params != g.params:
        raise LengthMismatchError(f"grid mismatch: {f.params} vs {g.params}")


def forward_diff(f: GridFunction) -> GridFunction:
    """(Delta f)(x) = f(x+1) - f(x); valid on 0..N-1, last slot 0."""
    out = np.zeros_like(f.values)
    out[:-1] = np.diff(f.values)
    return GridFunction(f.params, out)


def backward_diff(f: GridFunction) -> GridFunction:
    """(nabla f)(x) = f(x) - f(x-1); valid on 1..N, first slot 0."""
    out = np.zeros_like(f.values)
    out[1:] = np.diff(f.values)
    return GridFunction(f.params, out)


def _l_rows(p: HahnParams, rows: np.ndarray) -> np.ndarray:
    """L u = (1/w) Delta(-D w nabla u) for each grid row u along the last
    axis of rows; every row gets the bits of a one-row call.

    Flux at x = 0 vanishes because D(0) = 0, and flux at x = N+1 vanishes
    because w(N+1) = 0 by convention, so no off-grid value of u is ever
    read.  The family's constants are read once, from `HahnBasis.flux`:
    the weights, scaled by 2^-e where max|D| max w could pass 2^1000, and
    the flux factor -D w.  Each application is then one product, one
    difference and one division.  A value past the double range is still
    inf or nan, with no warning, as Python floats give it; callers refuse
    or fail on it.
    """
    _, w, dw = basis(p).flux
    # flux[..., i] = -D(i) w(i) (u(i) - u(i-1)), i = 1..N; 0 at i = 0, N+1
    flux = np.zeros(rows.shape[:-1] + (p.N + 2,))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(dw, np.diff(rows), out=flux[..., 1:-1])
        out = flux[..., 1:] - flux[..., :-1]
        out /= w
        return out


def l_disk_apply(u: GridFunction) -> GridFunction:
    """Apply L u = (1/w) Delta(-D w nabla u) on the grid (`_l_rows`).
    The orthonormal basis functions satisfy L Q~_n = -lam_n Q~_n."""
    return GridFunction(u.params, _l_rows(u.params, u.values))


def _check_power(k: int, name: str) -> int:
    """k as an int, where k is an integer in the sense of operator.index,
    as a degree is (`hahn._check_degree`): np.int64(2) is accepted, and
    2.0, 2.5 or a negative k is refused with DomainError."""
    if not hasattr(type(k), "__index__") or operator.index(k) < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {k!r}")
    return operator.index(k)


def l_disk_power(u: GridFunction, k: int) -> GridFunction:
    """k-fold application of the operator; k = 0 returns a copy of u."""
    k = _check_power(k, "power")
    out = GridFunction(u.params, u.values.copy())
    for _ in range(k):
        out = l_disk_apply(out)
    return out


def sbp_residual(f: GridFunction, g: GridFunction) -> float:
    """Absolute defect of the summation-by-parts identity

        sum_{i=0}^{N} f(i) Delta g(i)
            = f(N+1) g(N+1) - f(0) g(0) - sum_{i=0}^{N} g(i+1) Delta f(i).

    The identity involves values one past the grid; f(N+1) = g(N+1) = 0,
    the convention that also sets w(N+1) = 0.  Both sums are exact
    (`exact_sum`), so a sum with no double value is inf or nan and the
    residual with it.
    """
    _same_grid(f, g)
    fv = np.append(f.values, 0.0)
    gv = np.append(g.values, 0.0)
    lhs = exact_sum((fv[:-1] * np.diff(gv)).tolist())
    rhs = -fv[0] * gv[0] - exact_sum((gv[1:] * np.diff(fv)).tolist())
    return abs(lhs - rhs)

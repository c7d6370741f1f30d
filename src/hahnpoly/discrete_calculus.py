"""Forward/backward differences on the grid 0..N, the self-adjoint
difference operator attached to the Hahn weight, and a summation-by-parts
residual used to test it.

Difference outputs keep full-grid indexing: the slot with no defined
difference (x = N for the forward, x = 0 for the backward operator) is
set to 0.0 rather than shrinking the array, so operators compose without
index bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, LengthMismatchError, TooShortError
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
        each grid index first.  A sample that is not finite raises
        DomainError naming its grid index."""
        vals = np.array([fn(transform(float(i))) for i in params.grid()], dtype=float)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise DomainError(f"sample at grid index {bad[0]} is not finite: {vals[bad[0]]}")
        return cls(params, vals)


def _same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.params != g.params:
        raise LengthMismatchError(
            f"grid mismatch: {f.params} vs {g.params}"
        )


def forward_diff(f: GridFunction) -> GridFunction:
    """(Delta f)(x) = f(x+1) - f(x); valid on 0..N-1, last slot 0."""
    if len(f.values) < 2:
        raise TooShortError("forward difference needs at least two points")
    out = np.zeros_like(f.values)
    out[:-1] = np.diff(f.values)
    return GridFunction(f.params, out)


def backward_diff(f: GridFunction) -> GridFunction:
    """(nabla f)(x) = f(x) - f(x-1); valid on 1..N, first slot 0."""
    if len(f.values) < 2:
        raise TooShortError("backward difference needs at least two points")
    out = np.zeros_like(f.values)
    out[1:] = np.diff(f.values)
    return GridFunction(f.params, out)


def l_disk_apply(u: GridFunction) -> GridFunction:
    """Apply L u = (1/w) Delta(-D w nabla u) on the grid.

    Flux at x = 0 vanishes because D(0) = 0, and flux at x = N+1 vanishes
    because w(N+1) = 0 by convention, so no off-grid value of u is ever
    read.  The orthonormal basis functions satisfy L Q~_n = -lam_n Q~_n.
    """
    p = u.params
    hb = basis(p)
    w = hb.weights
    # flux[i] = -D(i) w(i) (u(i) - u(i-1)), i = 1..N; flux[0] = flux[N+1] = 0
    flux = np.zeros(p.N + 2)
    flux[1 : p.N + 1] = -hb.d[1:] * w[1:] * np.diff(u.values)
    return GridFunction(p, (flux[1:] - flux[:-1]) / w)


def l_disk_power(u: GridFunction, k: int) -> GridFunction:
    """k-fold application of the operator; k = 0 returns a copy of u."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"power must be a nonnegative integer, got {k!r}")
    out = GridFunction(u.params, u.values.copy())
    for _ in range(k):
        out = l_disk_apply(out)
    return out


def sbp_residual(f: GridFunction, g: GridFunction) -> float:
    """Absolute defect of the summation-by-parts identity

        sum_{i=0}^{N} f(i) Delta g(i)
            = f(N+1) g(N+1) - f(0) g(0) - sum_{i=0}^{N} g(i+1) Delta f(i).

    The identity involves values one past the grid; f(N+1) = g(N+1) = 0,
    the convention that also sets w(N+1) = 0.
    """
    _same_grid(f, g)
    fv = np.append(f.values, 0.0)
    gv = np.append(g.values, 0.0)
    lhs = math.fsum(fv[:-1] * np.diff(gv))
    rhs = -fv[0] * gv[0] - math.fsum(gv[1:] * np.diff(fv))
    return abs(lhs - rhs)

"""Continuum reference: Legendre polynomial values, Gauss-Legendre
quadrature by Newton iteration, and classical Legendre series coefficients
on [-1, 1].  Used to compare discrete Hahn projections against their
continuum analogue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailureError, DomainError

_MAX_DEGREE = 200
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(eq=False)
class QuadratureRule:
    """Nodes (ascending, inside (-1, 1)) and positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def npoints(self) -> int:
        return len(self.nodes)


def _legendre_sweep(m: int, t: float | np.ndarray) -> np.ndarray:
    """P_0(t) .. P_m(t), shape (m+1,) + shape(t), by the upward recurrence
    (j+1) P_{j+1} = (2j+1) t P_j - j P_{j-1}, stable on [-1, 1].  Each
    point of an array t gets the rounding of a sweep of its own."""
    out = np.empty((m + 1,) + np.shape(t))
    out[0] = 1.0
    if m:
        out[1] = t
    for j in range(1, m):
        out[j + 1] = ((2 * j + 1) * t * out[j] - j * out[j - 1]) / (j + 1)
    return out


def legendre_eval(n: int, t: float) -> float:
    """P_n(t), row n of `_legendre_sweep`."""
    if not 0 <= n <= _MAX_DEGREE:
        raise DomainError(f"degree {n} outside 0..{_MAX_DEGREE}")
    return float(_legendre_sweep(n, t)[n])


def _legendre_pair(n: int, t: float) -> tuple[float, float]:
    """(P_n(t), P_n'(t)) for t strictly inside (-1, 1)."""
    pm, p = 1.0, t
    for j in range(1, n):
        pm, p = p, ((2 * j + 1) * t * p - j * pm) / (j + 1)
    dp = n * (t * p - pm) / (t * t - 1.0)
    return p, dp


def gauss_legendre_rule(q: int) -> QuadratureRule:
    """q-point Gauss-Legendre rule on [-1, 1].

    Each node is found by Newton iteration on P_q from the Chebyshev-like
    initial guess cos(pi (4i - 1) / (4q + 2)); weights are
    2 / ((1 - t^2) P_q'(t)^2).  The rule integrates polynomials through
    degree 2q - 1 exactly.
    """
    if not 1 <= q <= _MAX_DEGREE:
        raise DomainError(f"point count {q} outside 1..{_MAX_DEGREE}")
    nodes = np.empty(q)
    weights = np.empty(q)
    for i in range(1, q + 1):
        t = math.cos(math.pi * (4 * i - 1) / (4 * q + 2))
        for _ in range(_NEWTON_MAX_ITER):
            p, dp = _legendre_pair(q, t)
            step = p / dp
            t -= step
            if abs(step) <= _NEWTON_TOL * max(1.0, abs(t)):
                break
        else:
            raise ConvergenceFailureError(f"Newton stalled at node {i} of {q}")
        _, dp = _legendre_pair(q, t)
        nodes[i - 1] = t
        weights[i - 1] = 2.0 / ((1.0 - t * t) * dp * dp)
    order = np.argsort(nodes)
    return QuadratureRule(nodes[order], weights[order])


def legendre_coeffs(f: Callable[[float], float], m: int) -> np.ndarray:
    """Classical Legendre coefficients a_n = (2n+1)/2 * integral of f P_n
    over [-1, 1], degrees 0..m, via an (m+20)-point Gauss rule.

    The extra points put the quadrature error well below the coefficient
    sizes for the smooth integrands used here.
    """
    if not 0 <= m <= _MAX_DEGREE - 20:
        raise DomainError(f"degree {m} outside 0..{_MAX_DEGREE - 20}")
    rule = gauss_legendre_rule(m + 20)
    fvals = np.array([f(t) for t in rule.nodes])
    pvals = _legendre_sweep(m, rule.nodes)
    out = np.empty(m + 1)
    for n in range(m + 1):
        out[n] = (2 * n + 1) / 2.0 * math.fsum(rule.weights * fvals * pvals[n])
    return out

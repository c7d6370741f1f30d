"""Continuum reference: Legendre polynomial values, Gauss-Legendre
quadrature by Newton iteration over all nodes at once, and classical
Legendre series coefficients on [-1, 1].  Every Legendre value, the
Newton terms included, comes from the one upward recurrence
`_legendre_sweep`.  Used to compare discrete Hahn projections against
their continuum analogue.

`legendre_coeffs` reads its rule from a private cache, one rule per point
count with read-only arrays, together with the rule's table of Legendre
values at the nodes and the coefficient sums held for it, so repeated
coefficient requests run Newton and the sweep once, and a request for a
target whose weighted node values are held sums no row.  The sums are
held by `_compensated.held_row_sums`, the routine that also holds the
Hahn projections.  `gauss_legendre_rule` itself is not cached: each call
builds a fresh rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._compensated import held_row_sums
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


def gauss_legendre_rule(q: int) -> QuadratureRule:
    """q-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_q from the Chebyshev-like initial guesses
    cos(pi (4i - 1) / (4q + 2)), all unconverged nodes in one
    `_legendre_sweep` per step, with P_q'(t) = q (t P_q - P_{q-1}) / (t^2 - 1);
    weights are 2 / ((1 - t^2) P_q'(t)^2).  The sweep is elementwise, so
    each node gets the bits of a Newton loop of its own.  The rule
    integrates polynomials through degree 2q - 1 exactly.
    """
    if not 1 <= q <= _MAX_DEGREE:
        raise DomainError(f"point count {q} outside 1..{_MAX_DEGREE}")

    def newton_terms(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (P_q(t), P_q'(t)) for t strictly inside (-1, 1)
        sweep = _legendre_sweep(q, t)
        return sweep[q], q * (t * sweep[q] - sweep[q - 1]) / (t * t - 1.0)

    # math.cos, not np.cos, whose rounding may differ in the last bit
    nodes = np.array([math.cos(math.pi * (4 * i - 1) / (4 * q + 2)) for i in range(1, q + 1)])
    active = np.arange(q)
    for _ in range(_NEWTON_MAX_ITER):
        t = nodes[active]
        p, dp = newton_terms(t)
        step = p / dp
        t -= step
        nodes[active] = t
        active = active[~(np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(t)))]
        if not active.size:
            break
    else:
        raise ConvergenceFailureError(f"Newton stalled at node {active[0] + 1} of {q}")
    _, dp = newton_terms(nodes)
    weights = 2.0 / ((1.0 - nodes * nodes) * dp * dp)
    order = np.argsort(nodes)
    return QuadratureRule(nodes[order], weights[order])


@lru_cache(maxsize=16)
def _cached_rule(q: int) -> tuple[QuadratureRule, np.ndarray, dict]:
    """The q-point rule and what legendre_coeffs reads with it: the table
    of P_0 .. P_m at the nodes, m = q - 20 (`_legendre_sweep`), and the
    store of its held row sums (`held_row_sums`), which lives and dies
    with the table.  Every array is read-only, since every
    legendre_coeffs call with this q shares it."""
    rule = gauss_legendre_rule(q)
    table = _legendre_sweep(q - 20, rule.nodes)
    for a in (rule.nodes, rule.weights, table):
        a.setflags(write=False)
    return rule, table, {}


def legendre_coeffs(f: Callable[[float], float], m: int) -> np.ndarray:
    """Classical Legendre coefficients a_n = (2n+1)/2 * integral of f P_n
    over [-1, 1], degrees 0..m, via an (m+20)-point Gauss rule, built once
    per point count and cached with its table of P_0 .. P_m at the nodes.

    The extra points put the quadrature error well below the coefficient
    sizes for the smooth integrands used here.  f is called on Python
    floats, so a value past the double range is inf without a warning;
    each coefficient is an exact sum rounded once (`exact_row_sums`, one
    call for all degrees, with the bits of `exact_sum`), so such a value
    makes it inf or nan.  The sums are held with the rule
    (`_compensated.held_row_sums`): f called again on the same degree, or
    any f with the same values at the nodes, sums no row.
    """
    if not 0 <= m <= _MAX_DEGREE - 20:
        raise DomainError(f"m must be in 0..{_MAX_DEGREE - 20}, got {m}")
    rule, table, held = _cached_rule(m + 20)
    wf = rule.weights * np.array([f(t) for t in rule.nodes.tolist()])
    # (2n + 1) / 2 is exact, so each product has the bits of a scalar one
    return np.arange(1, 2 * m + 2, 2) / 2.0 * held_row_sums(held, table, wf)

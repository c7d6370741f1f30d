"""Invariant suite: every structural identity the basis is supposed to
satisfy, each packaged as a named check with a measured value and a
tolerance.  The CLI `verify` command runs these; tests reuse them.

The seed and the degree cap are fixed: randomized checks read the first
draws of a fresh stdlib `random.Random(DEFAULT_SEED)`, whose `random()`
sequence Python guarantees, so repeated runs produce identical numbers,
and degree-limited checks stop at min(DEGREE_CAP, N).

The independent reference is exact: `float-vs-exact` and
`three-term-recurrence` read integer-ratio columns of every degree at the
grid points 0, 1, N//2, N-1 and N from the oracle's integer route,
`oracle_ratios`, computed once per family.  The first check to run
imports that module alone, not the Fraction API of `oracle_exact`.  Grid
values are a minimal solution of the recurrence, so a second float route
is no reference: at N = 60 the dd series and the dd recurrence disagreed
by 4e3 while the grid matrix was right.
`three-term-recurrence` rounds its constants from the family's integer
rows, `basis(params).steps`, which every float constant of the library
is read from, and holds them against the oracle's own recurrence.

The operator checks read the grid rows the library projects with, and no
check runs a forward sweep.  `eigen-difference-equation` pads rows
0..min(DEGREE_CAP, N) with 0 at x = -1 and x = N + 1, points that never
count, since B(N) = 0 and D(0) = 0.  The decay rows are one
`decay_report` call per order, and every other projection here is a
`project` call, with its refusals.  `parseval`
and `interpolation` read one full-degree projection: at degree N the
exact expansion equals the samples, so `interpolation` holds the node
values of `eval_expansion`, which `project --pointwise` prints, to 1e-10
max|u|; on (0, 50) at N = 200 they miss by 5.4e8 max|u|.

A check's value, but for `summation-by-parts` and the decay rows, is one
rule, `_defect`: the worst |lhs - rhs| / scale, inf or nan if a term is.
The scale is 1 for the orthonormality rows and `float-vs-exact`; the sum
of the terms' magnitudes for `three-term-recurrence`, with |lam_n Q~_n|
for `eigen-difference-equation`; max|lam_n Q~_n| of the degree for
`self-adjoint-form`; each floored at 1, so on a row whose terms are below
1 the defect is absolute.  It is max(1, |a|, |b|) for `operator-symmetry`,
|lam_n u_n| floored at 1e-6 of its largest for `spectral-multiplier`,
||u||_w^2 for `parseval` and max|u| for `interpolation`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._compensated import _quotient, exact_sum
from .discrete_calculus import GridFunction, _l_rows, l_disk_apply, sbp_residual
from .expansion import (BOUND_SLACK, IntervalMap, decay_report, eval_expansion, inner_product,
                        project)
# hahn_eval_all is unused here; the bench tracer's rebind test names it
from .hahn import HahnParams, basis, hahn_eval_all, normalized_grid_matrix  # noqa: F401

DEFAULT_SEED = 20240901
DEGREE_CAP = 20


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol


def check_orthonormality(params: HahnParams) -> list[CheckResult]:
    """Gram matrix of the full orthonormal family against the identity."""
    grid = normalized_grid_matrix(params.N, params)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (grid * basis(params).weights) @ grid.T
    diag = np.diag(gram)
    return [CheckResult("orthonormality-offdiag", _defect(gram, np.diag(diag), 1.0), 1e-7),
            CheckResult("orthonormality-diag", _defect(diag, 1.0, 1.0), 1e-9)]


def _worst(err: np.ndarray) -> float:
    # largest entry, 0.0 for none; a nan entry makes it nan, which fails
    return float(np.max(err, initial=0.0))


def _defect(lhs, rhs, scale) -> float:
    # with no numpy warning; a nan or inf term fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        return _worst(np.abs(np.subtract(lhs, rhs)) / scale)


@lru_cache(maxsize=4)
def _exact_columns(params: HahnParams) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Exact Q_n(x) and U[n, x] = Q~_n(x) sqrt(w(x)) at the sampled points x,
    every degree n = 0..N, each rounded once to a double; row n, column j
    is point xs[j].  Computed once per family for both checks that read it;
    the arrays are read-only."""
    # imported here, not at module level, so that starting the CLI does not
    # pay for the oracle when no check runs; only the integer route loads,
    # not the Fraction API of `oracle_exact` with `fractions` and `decimal`
    from .oracle_ratios import _exact_ratios

    N = params.N
    xs = sorted({0, 1, N // 2, N - 1, N})  # both ends, their neighbours, the middle
    cols, h, ws = _exact_ratios(params.alpha, params.beta, N, xs)
    q_cols, u_cols = [], []
    for col, (wn, wd) in zip(cols, ws):
        q_cols.append([_quotient(p, r) for p, r in col])
        # |U| <= 1, so U^2 = Q^2 w / h converts to a double even where
        # Q_n(x) is huge
        u_abs = [math.sqrt(p * p * wn * hd / (r * r * wd * hn))
                 for (p, r), (hn, hd) in zip(col, h)]
        u_cols.append([-u if p < 0 else u for (p, _), u in zip(col, u_abs)])
    q, u = np.array(q_cols).T, np.array(u_cols).T
    q.setflags(write=False)
    u.setflags(write=False)
    return xs, q, u


def check_path_agreement(params: HahnParams) -> CheckResult:
    """The cached orthonormal grid matrix, in U units (Q~_n(x) sqrt(w(x)),
    an orthogonal matrix), against the exact values at the sampled points,
    over every degree.  A value that is not finite fails the check."""
    xs, _, u_exact = _exact_columns(params)
    grid = normalized_grid_matrix(params.N, params)
    with np.errstate(over="ignore", invalid="ignore"):
        u = grid[:, xs] * np.sqrt(basis(params).weights[xs])
    return CheckResult("float-vs-exact", _defect(u, u_exact, 1.0), 1e-9)


def check_recurrence_identity(params: HahnParams) -> CheckResult:
    """Defect of -x Q_n = A_n Q_{n+1} - (A_n+C_n) Q_n + C_n Q_{n-1},
    n = 1..N-1, on the exact values at the sampled points, with A_n,
    A_n + C_n and C_n each the integer quotient of the family's rows
    (`HahnBasis.steps`) rounded once.  An exact value or a constant
    past the double range makes the defect inf or nan, which fails the
    check."""
    xs, q, _ = _exact_columns(params)
    qm, q0, qp = q[:-2], q[1:-1], q[2:]
    A, C, _ = basis(params).steps
    rows = np.array([(_quotient(an, ad), _quotient(an * cd + cn * ad, ad * cd), _quotient(cn, cd))
                     for (an, ad), (cn, cd) in zip(A[1:-1], C[1:-1])]).reshape(-1, 3)
    A, AC, C = rows[:, 0:1], rows[:, 1:2], rows[:, 2:3]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = -np.array(xs, dtype=float) * q0
        rhs = A * qp - AC * q0 + C * qm
        scale = np.fmax(1.0, np.abs(A * qp) + np.abs(AC * q0) + np.abs(C * qm))
    return CheckResult("three-term-recurrence", _defect(lhs, rhs, scale), 1e-8)


def check_eigen_equation(params: HahnParams) -> CheckResult:
    """Pointwise defect of B(x) Q~_n(x+1) - (B(x)+D(x)) Q~_n(x)
    + D(x) Q~_n(x-1) = lam_n Q~_n(x), n = 0..min(DEGREE_CAP, N), on the
    family's grid rows; a polynomial identity, checked at every node.  The
    rows are padded with 0 at x = -1 and x = N + 1, which never count:
    B(N) = 0 and D(0) = 0.  (The weighted-flux form of the same operator
    carries the opposite sign.)  A value or defect that is not finite
    fails the check."""
    top = min(DEGREE_CAP, params.N)
    hb = basis(params)
    lam, b, d = hb.lam[: top + 1, None], hb.b, hb.d
    q = np.zeros((top + 1, params.N + 3))
    q[:, 1:-1] = normalized_grid_matrix(top, params)
    qm, q0, qp = q[:, :-2], q[:, 1:-1], q[:, 2:]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = b * qp - (b + d) * q0 + d * qm
        rhs = lam * q0
        scale = np.fmax(np.fmax(1.0, np.abs(b * qp) + np.abs((b + d) * q0) + np.abs(d * qm)),
                        np.abs(rhs))
    return CheckResult("eigen-difference-equation", _defect(lhs, rhs, scale), 1e-7)


def check_self_adjoint_form(params: HahnParams) -> CheckResult:
    """L Q~_n = -lam_n Q~_n with L applied through the weighted-flux form,
    to the rows of degrees 0..top at once.  A value or defect that is not
    finite fails the check."""
    top = min(DEGREE_CAP, params.N)
    q = normalized_grid_matrix(top, params)
    lq = _l_rows(params, q)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_q = basis(params).lam[: top + 1, None] * q
        scale = np.maximum(1.0, np.max(np.abs(lam_q), axis=1, keepdims=True))
    return CheckResult("self-adjoint-form", _defect(lq, -lam_q, scale), 1e-7)


def _random_grid_functions(params: HahnParams, count: int) -> list[GridFunction]:
    """The first `count` grid functions of a fresh `random.Random(DEFAULT_SEED)`:
    function k is 2 r - 1, uniform on [-1, 1), over draws k(N+1) ..
    (k+1)(N+1) - 1 of `random()`, the one stdlib method whose sequence
    Python guarantees across versions."""
    rng = random.Random(DEFAULT_SEED)
    n = params.N + 1
    return [GridFunction(params, np.array([2.0 * rng.random() - 1.0 for _ in range(n)]))
            for _ in range(count)]


def check_operator_symmetry(params: HahnParams) -> CheckResult:
    """<L u, v>_w = <u, L v>_w on random grid functions."""
    u, v = _random_grid_functions(params, 2)
    a = inner_product(l_disk_apply(u), v)
    b = inner_product(u, l_disk_apply(v))
    return CheckResult("operator-symmetry", _defect(a, b, max(1.0, abs(a), abs(b))), 1e-9)


def check_spectral_multiplier(params: HahnParams) -> CheckResult:
    """Applying L multiplies coefficient n by -lam_n, coefficient-wise.
    u is projected first, so L u is formed only after the refusals of
    `project`."""
    (u,) = _random_grid_functions(params, 1)
    cu = project(u, params.N).coeffs
    clu = project(l_disk_apply(u), params.N).coeffs
    lc = basis(params).lam * cu
    scale = np.maximum(np.abs(lc), 1e-6 * np.max(np.abs(lc)))
    return CheckResult("spectral-multiplier",
                       _defect(clu, -lc, np.where(scale == 0.0, 1.0, scale)), 1e-7)


def check_parseval(params: HahnParams) -> list[CheckResult]:
    """From one full-degree projection c of a seeded random u: the
    coefficient energy equals the weighted norm of u (`parseval`), and the
    expansion takes u's values at every node (`interpolation`, the largest
    |eval_expansion(c, x) - u(x)| over max|u|), since at degree N the
    exact expansion equals the samples.  A value that is not finite fails
    the row."""
    (u,) = _random_grid_functions(params, 1)
    c = project(u, params.N)
    # squares of Python floats pass the double range to inf silently
    lhs = exact_sum([v * v for v in c.coeffs.tolist()])
    rhs = inner_product(u, u)
    fit = eval_expansion(c, np.arange(params.N + 1.0))
    return [CheckResult("parseval", _defect(lhs, rhs, rhs), 1e-8),
            CheckResult("interpolation", _defect(fit, u.values, np.max(np.abs(u.values))), 1e-10)]


def check_sbp(params: HahnParams) -> CheckResult:
    """Summation-by-parts identity on seeded random grid functions; the
    values one past the grid, f(N+1) and g(N+1), are 0 by convention."""
    f, g = _random_grid_functions(params, 2)
    scale = max(1.0, float(np.sum(np.abs(f.values)) * np.max(np.abs(g.values))))
    return CheckResult("summation-by-parts", sbp_residual(f, g) / scale, 1e-9)


def check_decay_bound(params: HahnParams, ks: tuple[int, ...] = (1, 2, 3)) -> list[CheckResult]:
    """Coefficient bound |u_n| <= bound * (1 + slack) and the spectral
    identity behind it, for a sine sample on [-1, 1].  The bound holds
    exactly in real arithmetic, so the measured value is the worst
    relative overshoot (clamped at zero when there is margin).  Each order
    is one `decay_report` call, in turn."""
    imap = IntervalMap(-1.0, 1.0, params.N)
    u = GridFunction.from_callable(
        lambda t: math.sin(math.pi * t), params, imap.to_interval
    )
    top = min(DEGREE_CAP, params.N)
    out = []
    for k in ks:
        rows = decay_report(u, k, range(1, top + 1))
        overshoot = max((abs(r.coeff) - r.bound) / r.bound for r in rows)
        out += [CheckResult(f"decay-bound-k{k}", max(overshoot, 0.0), BOUND_SLACK),
                CheckResult(f"decay-identity-k{k}", max(r.identity_residual for r in rows), 1e-6)]
    return out


# verify's row order; run_all looks each name up as it runs, so it calls a rebound one
_CHECKS = ("check_orthonormality", "check_path_agreement", "check_recurrence_identity",
           "check_eigen_equation", "check_self_adjoint_form", "check_operator_symmetry",
           "check_spectral_multiplier", "check_parseval", "check_sbp")


def run_all(params: HahnParams, ks: tuple[int, ...] = (1, 2, 3)) -> list[CheckResult]:
    out = []
    for name in _CHECKS:
        rows = globals()[name](params)
        out += rows if isinstance(rows, list) else [rows]
    return out + check_decay_bound(params, ks)

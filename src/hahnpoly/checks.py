"""Invariant suite: every structural identity the basis is supposed to
satisfy, each packaged as a named check with a measured value and a
tolerance.  The CLI `verify` command runs these; tests reuse them.

The seed and the degree cap are fixed: randomized checks draw from a
DEFAULT_SEED generator, so repeated runs produce identical numbers, and
degree-limited checks stop at min(DEGREE_CAP, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discrete_calculus import GridFunction, l_disk_apply, sbp_residual
from .expansion import BOUND_SLACK, IntervalMap, decay_report, inner_product, project
from .hahn import (
    HahnParams,
    basis,
    hahn_eval_all,
    hahn_eval_series,
    normalized_grid_matrix,
    recurrence_coefficients,
)

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
    b = basis(params)
    gram = (b.grid * b.weights) @ b.grid.T
    off = gram - np.diag(np.diag(gram))
    return [
        CheckResult("orthonormality-offdiag", float(np.abs(off).max()), 1e-7),
        CheckResult("orthonormality-diag", float(np.abs(np.diag(gram) - 1.0).max()), 1e-9),
    ]


def _worst(err: np.ndarray) -> float:
    # largest entry, NaN entries skipped and 0.0 when none is left: what a
    # running `worst = max(worst, err)` from 0.0 gives
    return float(np.fmax.reduce(err, axis=None, initial=0.0))


@lru_cache(maxsize=4)
def _series_table(params: HahnParams) -> np.ndarray:
    """Series-route Q_n(x), row n = 0..N, column x = 0..N, in one sweep;
    read-only and summed once per family for both checks that read it."""
    degrees = np.arange(params.N + 1)[:, None]
    out = hahn_eval_series(degrees, params.grid(), params)
    out.setflags(write=False)
    return out


def check_path_agreement(params: HahnParams) -> CheckResult:
    """Series route vs recurrence route over every degree and grid point."""
    ser = _series_table(params)
    rec = hahn_eval_all(params.N, params.grid(), params)
    err = np.abs(ser - rec) / np.fmax(1.0, np.abs(ser))
    return CheckResult("series-vs-recurrence", _worst(err), 1e-9)


def check_recurrence_identity(params: HahnParams) -> CheckResult:
    """Defect of -x Q_n = A_n Q_{n+1} - (A_n+C_n) Q_n + C_n Q_{n-1} using
    series-route values, so the identity is tested against an independent
    evaluation path."""
    q = _series_table(params)
    qm, q0, qp = q[:-2], q[1:-1], q[2:]
    steps = np.array(
        [recurrence_coefficients(n, params) for n in range(1, params.N)]
    ).reshape(-1, 2)
    A, C = steps[:, :1], steps[:, 1:]
    lhs = -params.grid() * q0
    rhs = A * qp - (A + C) * q0 + C * qm
    scale = np.fmax(1.0, np.abs(A * qp) + np.abs((A + C) * q0) + np.abs(C * qm))
    return CheckResult("three-term-recurrence", _worst(np.abs(lhs - rhs) / scale), 1e-8)


def check_eigen_equation(params: HahnParams) -> CheckResult:
    """Pointwise defect of B(x) Q_n(x+1) - (B(x)+D(x)) Q_n(x) + D(x) Q_n(x-1)
    = lam_n Q_n(x); a polynomial identity, checked on the grid.  (The
    weighted-flux form of the same operator carries the opposite sign.)"""
    top = min(DEGREE_CAP, params.N)
    # one sweep over x = -1..N+1; row n of a degree-top sweep is Q_n
    q = hahn_eval_all(top, np.arange(-1.0, params.N + 2.0), params)
    qm, q0, qp = q[:, :-2], q[:, 1:-1], q[:, 2:]
    hb = basis(params)
    lam, b, d = hb.lam[: top + 1, None], hb.b, hb.d
    lhs = b * qp - (b + d) * q0 + d * qm
    rhs = lam * q0
    scale = np.fmax(
        np.fmax(1.0, np.abs(b * qp) + np.abs((b + d) * q0) + np.abs(d * qm)), np.abs(rhs)
    )
    return CheckResult("eigen-difference-equation", _worst(np.abs(lhs - rhs) / scale), 1e-7)


def check_self_adjoint_form(params: HahnParams) -> CheckResult:
    """L Q~_n = -lam_n Q~_n with L applied through the weighted-flux form."""
    top = min(DEGREE_CAP, params.N)
    qmat = normalized_grid_matrix(top, params)
    lams = basis(params).lam.tolist()
    worst = 0.0
    for n in range(top + 1):
        q = GridFunction(params, qmat[n])
        lq = l_disk_apply(q)
        lam = lams[n]
        resid = np.abs(lq.values + lam * q.values)
        scale = max(1.0, float(np.max(np.abs(lam * q.values))))
        worst = max(worst, float(resid.max()) / scale)
    return CheckResult("self-adjoint-form", worst, 1e-7)


def _random_grid_functions(params: HahnParams, count: int) -> list[GridFunction]:
    """The first `count` grid functions of a fresh DEFAULT_SEED generator."""
    rng = np.random.default_rng(DEFAULT_SEED)
    return [GridFunction(params, rng.standard_normal(params.N + 1)) for _ in range(count)]


def check_operator_symmetry(params: HahnParams) -> CheckResult:
    """<L u, v>_w = <u, L v>_w on random grid functions."""
    u, v = _random_grid_functions(params, 2)
    a = inner_product(l_disk_apply(u), v)
    b = inner_product(u, l_disk_apply(v))
    return CheckResult("operator-symmetry", abs(a - b) / max(1.0, abs(a), abs(b)), 1e-9)


def check_spectral_multiplier(params: HahnParams) -> CheckResult:
    """Applying L multiplies coefficient n by -lam_n, coefficient-wise."""
    (u,) = _random_grid_functions(params, 1)
    cu = project(u, params.N).coeffs
    clu = project(l_disk_apply(u), params.N).coeffs
    lams = basis(params).lam
    scale = np.maximum(np.abs(lams * cu), 1e-6 * float(np.max(np.abs(lams * cu))))
    worst = float(np.max(np.abs(clu + lams * cu) / np.where(scale == 0.0, 1.0, scale)))
    return CheckResult("spectral-multiplier", worst, 1e-7)


def check_parseval(params: HahnParams) -> CheckResult:
    """Full-degree coefficient energy equals the weighted norm of u."""
    (u,) = _random_grid_functions(params, 1)
    c = project(u, params.N).coeffs
    lhs = math.fsum(c * c)
    rhs = inner_product(u, u)
    return CheckResult("parseval", abs(lhs - rhs) / rhs, 1e-8)


def check_sbp(params: HahnParams) -> CheckResult:
    """Summation-by-parts identity on random data with zero end values."""
    f, g = _random_grid_functions(params, 2)
    scale = max(1.0, float(np.sum(np.abs(f.values)) * np.max(np.abs(g.values))))
    return CheckResult("summation-by-parts", sbp_residual(f, g) / scale, 1e-9)


def check_decay_bound(params: HahnParams, ks: tuple[int, ...] = (1, 2, 3)) -> list[CheckResult]:
    """Coefficient bound |u_n| <= bound * (1 + slack) and the spectral
    identity behind it, for a sine sample on [-1, 1].  The bound holds
    exactly in real arithmetic, so the measured value is the worst
    relative overshoot (clamped at zero when there is margin)."""
    imap = IntervalMap(-1.0, 1.0, params.N)
    u = GridFunction.from_callable(
        lambda t: math.sin(math.pi * t), params, imap.to_interval
    )
    top = min(DEGREE_CAP, params.N)
    out = []
    for k in ks:
        rows = decay_report(u, k, range(1, top + 1))
        overshoot = max((abs(r.coeff) - r.bound) / r.bound for r in rows)
        out.append(CheckResult(f"decay-bound-k{k}", max(overshoot, 0.0), BOUND_SLACK))
        out.append(
            CheckResult(
                f"decay-identity-k{k}", max(r.identity_residual for r in rows), 1e-6
            )
        )
    return out


def run_all(params: HahnParams, ks: tuple[int, ...] = (1, 2, 3)) -> list[CheckResult]:
    out = []
    out += check_orthonormality(params)
    out.append(check_path_agreement(params))
    out.append(check_recurrence_identity(params))
    out.append(check_eigen_equation(params))
    out.append(check_self_adjoint_form(params))
    out.append(check_operator_symmetry(params))
    out.append(check_spectral_multiplier(params))
    out.append(check_parseval(params))
    out.append(check_sbp(params))
    out += check_decay_bound(params, ks)
    return out

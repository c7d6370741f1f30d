"""Release gate: every numbered criterion in one place, each printing a
single [PASS]/[FAIL] line (run with `pytest -s` to see them all).

Criterion 6 checks that the odd sine coefficients through degree 9
decay spectrally: they strictly decrease, the quotients |u_{n+2}/u_n|
strictly decrease (super-geometric decay), and the float ratio
|u_9|/|u_1| equals the exact rational route to 1e-10 relative.  It once
asserted |u_9|/|u_1| < 1e-6 instead.  Nothing promises that level and
the function does not reach it: the continuum orthonormal Legendre
ratio sqrt(19/3) j_9(pi) / j_1(pi) is 2.84e-4, and both the continuum
and the discrete ratios first drop below 1e-6 at degree 13.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hahnpoly.checks import (
    DEGREE_CAP,
    check_eigen_equation,
    check_self_adjoint_form,
)
from hahnpoly.discrete_calculus import GridFunction
from hahnpoly.expansion import (
    IntervalMap,
    decay_report,
    eval_expansion,
    inner_product,
    project,
)
from hahnpoly.hahn import (
    HahnParams,
    hahn_eval_all,
    hahn_eval_series,
    norm_sq_closed,
    normalized_grid_matrix,
    weight_table,
)
from hahnpoly.legendre_ref import legendre_coeffs
from hahnpoly.oracle_exact import (
    exact_hahn_eval,
    exact_inner_product,
    exact_norm_sq,
    exact_weight,
)

N = 30
PARAM_SETS = [(0.0, 0.0), (0.5, 0.5), (5.0, 0.0)]
FRACTION_SETS = [(Fraction(0), Fraction(0)),
                 (Fraction(1, 2), Fraction(1, 2)),
                 (Fraction(5), Fraction(0))]


def sine(t: float) -> float:
    return math.sin(math.pi * t)


def runge(t: float) -> float:
    return 1.0 / (1.0 + 25.0 * t * t)


def sample(fn, p: HahnParams) -> GridFunction:
    imap = IntervalMap(-1.0, 1.0, p.N)
    return GridFunction.from_callable(fn, p, imap.to_interval)


def report(num: int, desc: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    worst_off = worst_diag = 0.0
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, N)
        qmat = normalized_grid_matrix(N, p)
        w = weight_table(p)
        gram = (qmat * w) @ qmat.T
        off = gram - np.diag(np.diag(gram))
        worst_off = max(worst_off, float(np.abs(off).max()))
        worst_diag = max(worst_diag, float(np.abs(np.diag(gram) - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-7 and worst_diag <= 1e-9 and elapsed < 1.0
    report(1, "orthonormality of all three families at N=30", ok,
           f"offdiag {worst_off:.2e} <= 1e-7, diag {worst_diag:.2e} <= 1e-9, "
           f"{elapsed:.2f}s < 1s")
    assert ok


def test_criterion_02_norms_match_exact_sums():
    # rational half: the closed form and the direct sum are the same
    # exact number for every degree at every size through 12
    exact_ok = True
    for fa, fb in FRACTION_SETS:
        for size in range(1, 13):
            for n in range(size + 1):
                if exact_norm_sq(n, fa, fb, size) != exact_inner_product(
                    n, n, fa, fb, size
                ):
                    exact_ok = False
    # float half: closed form against the exact direct sum at full size
    worst = 0.0
    for (alpha, beta), (fa, fb) in zip(PARAM_SETS, FRACTION_SETS):
        p = HahnParams(alpha, beta, N)
        for n in range(N + 1):
            closed = norm_sq_closed(n, p)
            direct = float(exact_inner_product(n, n, fa, fb, N))
            worst = max(worst, abs(closed - direct) / direct)
    ok = exact_ok and worst <= 1e-10
    report(2, "closed-form norms vs direct sums, exact through size 12 "
              "and float at N=30", ok,
           f"exact equality: {exact_ok}; max rel diff {worst:.2e} <= 1e-10")
    assert ok


def test_criterion_03_difference_equation_residuals():
    worst_eq = worst_sa = 0.0
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, N)
        worst_eq = max(worst_eq, check_eigen_equation(p).value)
        worst_sa = max(worst_sa, check_self_adjoint_form(p).value)
    ok = DEGREE_CAP == 20 and worst_eq <= 1e-7 and worst_sa <= 1e-7
    report(3, "difference-equation and self-adjoint-form residuals, n<=20", ok,
           f"eq {worst_eq:.2e}, flux form {worst_sa:.2e}, both <= 1e-7")
    assert ok


def test_criterion_04_decay_bound_and_identity():
    p = HahnParams(0.0, 0.0, N)
    u = sample(sine, p)
    worst_ratio = 0.0
    worst_identity = 0.0
    for k in (1, 2, 3):
        rows = decay_report(u, k, range(1, 11))
        for r in rows:
            worst_ratio = max(worst_ratio, abs(r.coeff) / r.bound)
            worst_identity = max(worst_identity, r.identity_residual)
    ok = worst_ratio <= 1.0 + 1e-8 and worst_identity <= 1e-6
    report(4, "operator decay bound and spectral identity, k=1..3, n=1..10", ok,
           f"max |coeff|/bound {worst_ratio:.12f} <= 1 + 1e-8, "
           f"identity residual {worst_identity:.2e} <= 1e-6")
    assert ok


def test_criterion_05_parity_zero_coefficients():
    p = HahnParams(0.0, 0.0, N)
    cs = project(sample(sine, p), N).coeffs
    even = float(np.max(np.abs(cs[0::2]))) / float(np.max(np.abs(cs)))
    cr = project(sample(runge, p), N).coeffs
    odd = float(np.max(np.abs(cr[1::2]))) / float(np.max(np.abs(cr)))
    ok = even <= 1e-12 and odd <= 1e-10
    report(5, "parity nulls: even sine and odd runge coefficients at (0,0)", ok,
           f"even/max {even:.2e} <= 1e-12, odd/max {odd:.2e} <= 1e-10")
    assert ok


def test_criterion_06_sine_decay_through_degree_nine():
    p = HahnParams(0.0, 0.0, N)
    u = sample(sine, p)
    cs = project(u, 10).coeffs
    odd = np.abs(cs[1:10:2])  # degrees 1, 3, 5, 7, 9
    # (a) the odd coefficients strictly decrease
    decreasing = bool(np.all(odd[1:] < odd[:-1]))
    # (b) super-geometric: each step shrinks them by more than the one
    # before; algebraic decay would drive these quotients towards 1
    quotients = odd[1:] / odd[:-1]
    super_geometric = bool(np.all(quotients[1:] < quotients[:-1]))
    # (c) the ratio equals the same projection of the same samples in
    # exact rationals
    ratio = float(odd[-1] / odd[0])
    samples = [Fraction(float(v)) for v in u.values]
    exact_ratio = math.sqrt(_exact_coeff_sq(samples, 9) / _exact_coeff_sq(samples, 1))
    rel = abs(ratio - exact_ratio) / exact_ratio
    matches = rel <= 1e-10
    ok = decreasing and super_geometric and matches
    qs = ", ".join(f"{q:.4f}" for q in quotients)
    report(6, "sine coefficient decay through degree 9", ok,
           f"|u_9|/|u_1| = {ratio:.4e}, exact {exact_ratio:.4e}, "
           f"rel diff {rel:.1e} <= 1e-10; strict decrease: {decreasing}; "
           f"|u_n+2/u_n| for n=1,3,5,7: {qs}, strictly decreasing: "
           f"{super_geometric}")
    assert decreasing, "odd sine coefficients do not strictly decrease"
    assert super_geometric, "odd sine coefficients do not decay super-geometrically"
    assert matches, "float ratio differs from the exact rational ratio"


def _exact_coeff_sq(samples: list[Fraction], n: int) -> Fraction:
    """u_n^2 = s_n^2 / h_n at (alpha, beta) = (0, 0), in exact rationals,
    with s_n = sum_x Q_n(x) w(x) u(x) and h_n the closed-form norm."""
    fa, fb = FRACTION_SETS[0]
    s = sum(
        exact_hahn_eval(n, x, fa, fb, N) * exact_weight(x, fa, fb, N) * samples[x]
        for x in range(N + 1)
    )
    return s * s / exact_norm_sq(n, fa, fb, N)


def poly4(t: float) -> float:
    return ((t - 0.3) * t + 0.5) * t * t + 0.25 * t - 1.0


def test_criterion_07_runge_interpolation_blowup():
    # (a) the full-degree projection interpolates the samples, for every
    # test function and every parameter set
    worst_resid = 0.0
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, N)
        for fn in (sine, runge, poly4):
            u = sample(fn, p)
            c = project(u, N)
            resid = max(
                abs(eval_expansion(c, float(x)) - u.values[x]) for x in range(N + 1)
            )
            worst_resid = max(worst_resid, resid / float(np.max(np.abs(u.values))))
    # (b) between the nodes the full-degree runge projection blows up
    p = HahnParams(0.0, 0.0, N)
    imap = IntervalMap(-1.0, 1.0, N)
    c = project(sample(runge, p), N)
    ts = np.linspace(-1.0, 1.0, 801)
    errs = np.array([abs(eval_expansion(c, imap.to_grid(t)) - runge(t)) for t in ts])
    max_err = float(errs.max())
    # (c) cross-check the blowup against an exact-rational equispaced
    # interpolation, evaluated at a rational point near the boundary
    tstar = Fraction(123, 125)
    exact_val = _exact_equispaced_interp(tstar)
    ours = eval_expansion(c, imap.to_grid(float(tstar)))
    cross = abs(ours - float(exact_val)) / abs(float(exact_val))
    ok = worst_resid <= 1e-8 and max_err > 10.0 and cross <= 1e-6
    report(7, "full-degree projection interpolates every target yet blows up "
              "off-grid on runge", ok,
           f"grid residual {worst_resid:.2e} <= 1e-8 sup-norm relative, "
           f"max error {max_err:.1f} > 10, oracle mismatch {cross:.2e} <= 1e-6")
    assert ok


def _exact_equispaced_interp(tstar: Fraction) -> Fraction:
    """Newton divided differences for 1/(1+25 t^2) on the N+1 equispaced
    nodes, in exact rationals; evaluated at tstar."""
    ys = [Fraction(1) / (1 + 25 * Fraction(2 * i - N, N) ** 2) for i in range(N + 1)]
    coef = list(ys)
    for j in range(1, N + 1):
        for i in range(N, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j  # x_i - x_{i-j} = j
    xstar = Fraction(N) * (tstar + 1) / 2
    acc = coef[N]
    for i in range(N - 1, -1, -1):
        acc = acc * (xstar - i) + coef[i]
    return acc


def test_criterion_08_oracle_equivalence():
    # every floating-point value, weight, and inner product against the
    # exact rational route, at all sizes through 12
    worst_rel = 0.0   # where the exact value is nonzero
    worst_abs = 0.0   # where the exact value is zero
    for (alpha, beta), (fa, fb) in zip(PARAM_SETS, FRACTION_SETS):
        for size in range(1, 13):
            p = HahnParams(alpha, beta, size)
            w = weight_table(p)
            ew = [exact_weight(x, fa, fb, size) for x in range(size + 1)]
            eq = [[exact_hahn_eval(n, x, fa, fb, size) for x in range(size + 1)]
                  for n in range(size + 1)]
            vals = np.empty((size + 1, size + 1))
            for x in range(size + 1):
                worst_rel = max(
                    worst_rel,
                    abs(w[x] - float(ew[x])) / abs(float(ew[x])),
                )
                rec = hahn_eval_all(size, float(x), p)
                vals[:, x] = rec
                for n in range(size + 1):
                    for got in (rec[n], hahn_eval_series(n, float(x), p)):
                        if eq[n][x] == 0:
                            worst_abs = max(worst_abs, abs(got))
                        else:
                            worst_rel = max(
                                worst_rel,
                                abs(got - float(eq[n][x])) / abs(float(eq[n][x])),
                            )
            rows = [GridFunction(p, vals[n]) for n in range(size + 1)]
            for n in range(size + 1):
                for m in range(n, size + 1):
                    got = inner_product(rows[n], rows[m])
                    want = sum(eq[n][x] * eq[m][x] * ew[x] for x in range(size + 1))
                    if want == 0:
                        worst_abs = max(worst_abs, abs(got))
                    else:
                        worst_rel = max(
                            worst_rel, abs(got - float(want)) / abs(float(want))
                        )
    ok = worst_rel <= 1e-10 and worst_abs <= 1e-10
    report(8, "values, weights, and inner products vs the exact oracle, "
              "sizes 1..12", ok,
           f"max rel {worst_rel:.2e} <= 1e-10, max abs at exact zeros "
           f"{worst_abs:.2e} <= 1e-10")
    assert ok


def test_criterion_09_parseval():
    worst = 0.0
    rng = np.random.default_rng(20240901)
    for alpha, beta in PARAM_SETS:
        p = HahnParams(alpha, beta, N)
        for _ in range(100):
            u = GridFunction(p, rng.standard_normal(N + 1))
            c = project(u, N).coeffs
            lhs = math.fsum(c * c)
            rhs = inner_product(u, u)
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-8
    report(9, "full-degree coefficient energy equals the weighted norm, "
              "100 random draws per family", ok,
           f"max rel defect {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_10_legendre_comparison_soft():
    p = HahnParams(0.0, 0.0, N)
    hahn = project(sample(sine, p), 10, normalized=False).coeffs
    leg = legendre_coeffs(sine, 10)
    pairs = [(n, abs(hahn[n]), abs(leg[n])) for n in range(5, 11, 2)]
    below = all(h <= l for _, h, l in pairs)
    detail = "; ".join(f"n={n}: hahn {h:.3e} vs legendre {l:.3e}" for n, h, l in pairs)
    report(10, "discrete coefficients at or below continuum ones from n=5 "
               "(classical convention, soft check)", below, detail)
    if not below:
        import warnings

        warnings.warn(f"soft comparison violated: {detail}")
    # soft: recorded and warned about, never a hard failure
    assert True

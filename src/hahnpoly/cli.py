"""Command-line interface.

Every command writes a CSV table (stdout by default, or --out PATH) whose
leading `#` comment lines record the package version, the command, and
the parameters, so a result file is self-describing.  Numbers carry 17
significant digits; runs are deterministic.

Exit codes: 0 success; 2 for configuration problems (malformed flags or
flag values outside their documented ranges, reported with the offending
field named, before any computation starts); 3 for domain errors raised
by the library during computation; 4 when a verified invariant fails.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import click
import numpy as np

from . import __version__
from .checks import run_all
from .discrete_calculus import GridFunction
from .errors import DomainError, HahnPolyError
from .expansion import (
    BOUND_SLACK,
    CoefficientVector,
    IntervalMap,
    decay_report,
    eval_expansion,
    project,
)
from .hahn import _MAX_N, HahnParams, basis, hahn_eval_all, norm_sq_closed
from .legendre_ref import legendre_coeffs

Fn = Callable[[float], float]


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _parse_fn(text: str) -> tuple[str, Fn]:
    if text == "sin-pi":
        return "sin-pi", lambda t: math.sin(math.pi * t)
    if text == "runge":
        return "runge", lambda t: 1.0 / (1.0 + 25.0 * t * t)
    if text.startswith("poly:"):
        try:
            cs = [float(c) for c in text[len("poly:"):].split(",") if c != ""]
        except ValueError:
            raise click.UsageError(f"bad polynomial spec {text!r}")
        if not cs:
            raise click.UsageError(f"bad polynomial spec {text!r}")
        if not all(map(math.isfinite, cs)):
            raise click.UsageError(f"fn coefficients must be finite, got {text!r}")

        def poly(t: float, cs: tuple[float, ...] = tuple(cs)) -> float:
            out = 0.0
            for c in reversed(cs):
                out = out * t + c
            return out

        return text, poly
    raise click.UsageError(f"unknown function {text!r}; use sin-pi, runge, or poly:c0,c1,...")


# configuration checks: every flag value is vetted here, with the field
# named in the message, before any computation runs (exit code 2);
# domain errors the library itself raises mid-computation exit with 3


def _checked_family(alpha: float, beta: float, grid_n: int) -> HahnParams:
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise click.UsageError(f"alpha must be finite and greater than -1, got {alpha}")
    if not (math.isfinite(beta) and beta > -1.0):
        raise click.UsageError(f"beta must be finite and greater than -1, got {beta}")
    if not 1 <= grid_n <= _MAX_N:
        raise click.UsageError(f"N must be in 1..{_MAX_N}, got {grid_n}")
    return HahnParams(alpha, beta, grid_n)


def _checked_families(text: str, grid_n: int) -> list[HahnParams]:
    sets = []
    for chunk in text.split(";"):
        try:
            a, b = (float(s) for s in chunk.split(","))
        except ValueError:
            raise click.UsageError(f"bad parameter list {text!r}, expected a,b[;a,b...]")
        sets.append((a, b))
    return [_checked_family(a, b, grid_n) for a, b in sets]


def _checked_degree(m: int, grid_n: int) -> int:
    if m < 0:
        raise click.UsageError(f"m must be nonnegative, got {m}")
    if m > grid_n:
        raise click.UsageError(f"m must not exceed N = {grid_n}, got {m}")
    return m


def _checked_interval(text: str, grid_n: int) -> tuple[float, float]:
    try:
        a, b = (float(s) for s in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad interval {text!r}, expected a,b")
    if not (a < b and math.isfinite(grid_n * (b - a))):
        raise click.UsageError(f"interval must satisfy a < b with N (b - a) finite, got {a},{b}")
    return a, b


def _checked_samples(samples: int) -> int:
    if samples < 2:
        raise click.UsageError(f"samples must be at least 2, got {samples}")
    return samples


def _checked_orders(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad order list {text!r}, expected k[,k...]")
    for k in ks:
        if k < 0:
            raise click.UsageError(f"k must be nonnegative, got {k}")
    return ks


def _emit(lines: list[str], out: str) -> None:
    # everything is computed before this point, so a failing run never
    # leaves a partial output file behind
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _header(command: str, **fields: object) -> list[str]:
    lines = [f"# hahnpoly {__version__}", f"# command: {command}"]
    lines += [f"# {k}: {v}" for k, v in fields.items()]
    return lines


def _project_sets(fn: Fn, imap: IntervalMap, families: list[HahnParams],
                  top: int, normalized: bool = True) -> list[CoefficientVector]:
    grids = [GridFunction.from_callable(fn, p, imap.to_interval) for p in families]
    return [project(u, top, normalized=normalized) for u in grids]


def _pointwise(fn: Fn, imap: IntervalMap, ts: np.ndarray,
               vectors: list[CoefficientVector]) -> tuple[list[np.ndarray], list[str]]:
    """Signed errors of each family's reconstruction at the samples ts, and
    the CSV block of a t,target,approx_*,error_* row per sample."""
    target = np.array([fn(t) for t in ts])
    recons = [eval_expansion(v, imap.to_grid(ts)) for v in vectors]
    errors = [rec - target for rec in recons]
    tags = [f"{v.params.alpha}_{v.params.beta}" for v in vectors]
    lines = ["t,target," + ",".join(f"approx_{t},error_{t}" for t in tags)]
    for i, t in enumerate(ts):
        row = [_fmt(t), _fmt(target[i])]
        for rec, err in zip(recons, errors):
            row += [_fmt(rec[i]), _fmt(err[i])]
        lines.append(",".join(row))
    return errors, lines


def _guard(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HahnPolyError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapped


def _family_options(f):
    f = click.option("--alpha", type=float, default=0.0, show_default=True,
                     help="weight exponent alpha > -1")(f)
    f = click.option("--beta", type=float, default=0.0, show_default=True,
                     help="weight exponent beta > -1")(f)
    f = click.option("--N", "grid_n", type=int, default=30, show_default=True,
                     help="grid size; points are 0..N")(f)
    return f


def _out_option(f):
    return click.option("--out", type=str, default="-", show_default=True,
                        help="output path, - for stdout")(f)


@click.group()
@click.version_option(__version__, prog_name="hahnpoly")
def main() -> None:
    """Hahn discrete orthogonal polynomials: weights, evaluation,
    projection, coefficient decay, and continuum comparison."""


@main.command()
@_family_options
@_out_option
@_guard
def weights(alpha: float, beta: float, grid_n: int, out: str) -> None:
    """Tabulate the weight w(x) on the grid."""
    p = _checked_family(alpha, beta, grid_n)
    w = basis(p).weights
    lines = _header("weights", alpha=alpha, beta=beta, N=grid_n,
                    total=_fmt(math.fsum(w)))
    lines.append("x,weight")
    lines += [f"{x},{_fmt(w[x])}" for x in range(p.N + 1)]
    _emit(lines, out)


@main.command("eval")
@_family_options
@click.option("--n", "degree", type=int, required=True, help="polynomial degree")
@click.option("--points", type=str, default=None,
              help="comma-separated evaluation points; default is the grid 0..N")
@click.option("--normalized", type=bool, default=True, show_default=True,
              help="divide by the weighted norm")
@_out_option
@_guard
def eval_cmd(alpha: float, beta: float, grid_n: int, degree: int,
             points: str | None, normalized: bool, out: str) -> None:
    """Evaluate one polynomial at chosen points."""
    p = _checked_family(alpha, beta, grid_n)
    if points is None:
        xs = [float(i) for i in range(p.N + 1)]
    else:
        try:
            xs = [float(s) for s in points.split(",")]
        except ValueError:
            raise click.UsageError(f"bad point list {points!r}")
        if not all(map(math.isfinite, xs)):
            raise click.UsageError(f"points must be finite, got {points!r}")
    scale = math.sqrt(norm_sq_closed(degree, p)) if normalized else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        vals = hahn_eval_all(degree, np.array(xs), p)[degree] / scale
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise DomainError(f"Q_{degree}({xs[bad[0]]!r}) is not finite in double precision")
    lines = _header("eval", alpha=alpha, beta=beta, N=grid_n, n=degree,
                    normalized=normalized)
    lines.append("x,value")
    lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vals)]
    _emit(lines, out)


@main.command("project")
@_family_options
@click.option("--m", "top", type=int, default=10, show_default=True,
              help="highest projection degree")
@click.option("--fn", "fn_spec", type=str, default="sin-pi", show_default=True,
              help="target: sin-pi, runge, or poly:c0,c1,...")
@click.option("--interval", type=str, default="-1,1", show_default=True,
              help="interval the grid is mapped onto")
@click.option("--params", "param_sets", type=str, default=None,
              help="extra parameter sets a,b[;a,b...]; overrides --alpha/--beta")
@click.option("--normalized", type=bool, default=True, show_default=True,
              help="orthonormal-basis coefficients (false: classical)")
@click.option("--pointwise", is_flag=True, default=False,
              help="append sampled reconstruction rows (t, target, approx, error)")
@click.option("--samples", type=int, default=201, show_default=True,
              help="equispaced sample count for --pointwise")
@_out_option
@_guard
def project_cmd(alpha: float, beta: float, grid_n: int, top: int, fn_spec: str,
                interval: str, param_sets: str | None, normalized: bool,
                pointwise: bool, samples: int, out: str) -> None:
    """Projection coefficients of a sampled function."""
    label, fn = _parse_fn(fn_spec)
    a, b = _checked_interval(interval, grid_n)
    if param_sets:
        families = _checked_families(param_sets, grid_n)
    else:
        families = [_checked_family(alpha, beta, grid_n)]
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    imap = IntervalMap(a, b, grid_n)
    vectors = _project_sets(fn, imap, families, top, normalized)
    lines = _header("project", N=grid_n, m=top, fn=label, interval=f"{a},{b}",
                    params=";".join(f"{p.alpha},{p.beta}" for p in families),
                    normalized=normalized)
    lines.append("n," + ",".join(f"coeff_{p.alpha}_{p.beta},abs_{p.alpha}_{p.beta}"
                                 for p in families))
    for n in range(top + 1):
        row = [str(n)]
        for v in vectors:
            row += [_fmt(v.coeffs[n]), _fmt(abs(v.coeffs[n]))]
        lines.append(",".join(row))
    if pointwise:
        lines.append("# pointwise reconstruction")
        lines += _pointwise(fn, imap, np.linspace(a, b, samples), vectors)[1]
    _emit(lines, out)


@main.command("decay")
@_family_options
@click.option("--m", "top", type=int, default=20, show_default=True,
              help="highest degree in the report")
@click.option("--k", "orders", type=str, default="1,2,3", show_default=True,
              help="operator powers, comma separated")
@click.option("--fn", "fn_spec", type=str, default="sin-pi", show_default=True)
@click.option("--interval", type=str, default="-1,1", show_default=True)
@_out_option
@_guard
def decay_cmd(alpha: float, beta: float, grid_n: int, top: int, orders: str,
              fn_spec: str, interval: str, out: str) -> None:
    """Coefficient decay report: |u_n| against its operator bounds.

    The operator bound is a mathematical guarantee; the command verifies
    it on every reported row and exits with code 4 if any row violates
    it beyond rounding slack (the full table is still written first).
    """
    label, fn = _parse_fn(fn_spec)
    a, b = _checked_interval(interval, grid_n)
    ks = _checked_orders(orders)
    p = _checked_family(alpha, beta, grid_n)
    if top < 1:
        raise click.UsageError(f"m must be at least 1, got {top}")
    _checked_degree(top, grid_n)
    imap = IntervalMap(a, b, grid_n)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    lines = _header("decay", alpha=alpha, beta=beta, N=grid_n, m=top, k=orders,
                    fn=label, interval=f"{a},{b}")
    lines.append("k,n,abs_coeff,bound,bound_degree_only,identity_residual")
    rows = []
    for k in ks:
        rows += decay_report(u, k, range(1, top + 1))
    for r in rows:
        lines.append(
            f"{r.k},{r.n},{_fmt(abs(r.coeff))},{_fmt(r.bound)},"
            f"{_fmt(r.bound_degree_only)},{_fmt(r.identity_residual)}"
        )
    _emit(lines, out)
    bad = [r for r in rows if abs(r.coeff) > r.bound * (1.0 + BOUND_SLACK)]
    if bad:
        worst = max(bad, key=lambda r: abs(r.coeff) - r.bound)
        click.echo(
            f"bound violated at k={worst.k}, n={worst.n}: "
            f"|coeff| {_fmt(abs(worst.coeff))} > bound {_fmt(worst.bound)}",
            err=True,
        )
        sys.exit(4)


@main.command("runge")
@click.option("--N", "grid_n", type=int, default=30, show_default=True)
@click.option("--m", "top", type=int, default=10, show_default=True,
              help="projection degree")
@click.option("--samples", type=int, default=201, show_default=True,
              help="equispaced evaluation points across the interval")
@click.option("--interval", type=str, default="-1,1", show_default=True)
@click.option("--params", "param_sets", type=str, default="0,0;0.5,0.5;5,0",
              show_default=True, help="parameter sets a,b[;a,b...]")
@_out_option
@_guard
def runge_cmd(grid_n: int, top: int, samples: int, interval: str,
              param_sets: str, out: str) -> None:
    """Pointwise error of projections of 1/(1+25 t^2)."""
    a, b = _checked_interval(interval, grid_n)
    families = _checked_families(param_sets, grid_n)
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    _, fn = _parse_fn("runge")
    imap = IntervalMap(a, b, grid_n)
    ts = np.linspace(a, b, samples)
    errors, table = _pointwise(fn, imap, ts, _project_sets(fn, imap, families, top))
    lines = _header("runge", N=grid_n, m=top, samples=samples,
                    interval=f"{a},{b}",
                    params=";".join(f"{p.alpha},{p.beta}" for p in families))
    for p, err in zip(families, errors):
        i = int(np.argmax(np.abs(err)))
        lines.append(f"# max_error_{p.alpha}_{p.beta}: {_fmt(abs(err[i]))} "
                     f"at t = {_fmt(ts[i])}")
    _emit(lines + table, out)


@main.command("compare-legendre")
@click.option("--N", "grid_n", type=int, default=30, show_default=True)
@click.option("--m", "top", type=int, default=10, show_default=True)
@click.option("--fn", "fn_spec", type=str, default="sin-pi", show_default=True)
@click.option("--interval", type=str, default="-1,1", show_default=True)
@_out_option
@_guard
def compare_legendre_cmd(grid_n: int, top: int, fn_spec: str, interval: str,
                         out: str) -> None:
    """Hahn (0,0) coefficients next to continuum Legendre coefficients.

    The comparison column uses the classical convention both families
    share (basis value 1 at the reference endpoint); the orthonormal
    Hahn coefficients are included alongside.
    """
    label, fn = _parse_fn(fn_spec)
    a, b = _checked_interval(interval, grid_n)
    p = _checked_family(0.0, 0.0, grid_n)
    _checked_degree(top, grid_n)
    imap = IntervalMap(a, b, grid_n)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    classical = project(u, top, normalized=False).coeffs
    normalized = project(u, top, normalized=True).coeffs
    leg = legendre_coeffs(fn, top)
    lines = _header("compare-legendre", N=grid_n, m=top, fn=label,
                    interval=f"{a},{b}")
    lines.append("n,hahn_classical,hahn_normalized,legendre_classical")
    for n in range(top + 1):
        lines.append(
            f"{n},{_fmt(classical[n])},{_fmt(normalized[n])},{_fmt(leg[n])}"
        )
    soft = [n for n in range(5, top + 1, 2) if abs(classical[n]) > abs(leg[n])]
    if soft:
        click.echo(
            f"warning: Hahn coefficient above Legendre at odd degrees {soft}",
            err=True,
        )
    _emit(lines, out)


@main.command("verify")
@_family_options
@click.option("--k", "orders", type=str, default="1,2,3", show_default=True,
              help="operator powers for the decay checks")
@_out_option
@_guard
def verify_cmd(alpha: float, beta: float, grid_n: int, orders: str, out: str) -> None:
    """Run the full invariant suite; nonzero exit if anything fails."""
    ks = _checked_orders(orders)
    p = _checked_family(alpha, beta, grid_n)
    results = run_all(p, ks)
    lines = _header("verify", alpha=alpha, beta=beta, N=grid_n, k=orders)
    lines.append("check,value,tol,status")
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name},{_fmt(r.value)},{_fmt(r.tol)},{status}")
    _emit(lines, out)
    bad = [r for r in results if not r.passed]
    if bad:
        click.echo(f"{len(bad)} check(s) failed", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()

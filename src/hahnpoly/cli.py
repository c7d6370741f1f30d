"""Command-line interface.

Every command writes a CSV table (stdout by default, or --out PATH) whose
leading `#` comment lines record the package version, the command, and
the parameters, so a result file is self-describing.  Numbers carry 17
significant digits; runs are deterministic.

Exit codes: 0 success; 2 for configuration problems (malformed flags or
flag values outside their documented ranges, reported with the offending
field named, before any computation starts; an --out path that cannot be
written is found only after computing, and is reported in one line with
the OS reason); 3 for domain errors raised by the library during
computation; 4 when a verified invariant fails.

Every command is registered through one contract (`_contract`): its body
returns the table, and the contract owns --out and exit codes 3 and 4.
A table that would exit 0 with an inf or nan cell exits 3 instead, with
one line naming the cell's column and row, and nothing is written.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable

import click
import numpy as np

from . import __version__
from ._compensated import exact_sum
from .checks import run_all
from .discrete_calculus import GridFunction
from .errors import DomainError, HahnPolyError
from .expansion import (
    BOUND_SLACK,
    CoefficientVector,
    IntervalMap,
    decay_report,
    eval_expansion,
    inner_product,
    project,
)
from .hahn import HahnParams, _check_degree, basis, hahn_eval_all, norm_sq_closed
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
        # empty entries are skipped; none left is a bad spec
        cs = _listed(",".join(c for c in text[len("poly:"):].split(",") if c), float,
                     f"bad polynomial spec {text!r}")
        if not all(map(math.isfinite, cs)):
            raise click.UsageError(f"fn coefficients must be finite, got {text!r}")

        def poly(t: float, cs: tuple[float, ...] = tuple(cs)) -> float:
            out = 0.0
            for c in reversed(cs):
                out = out * t + c
            return out

        return text, poly
    raise click.UsageError(f"unknown function {text!r}; use sin-pi, runge, or poly:c0,c1,...")


# configuration checks: every flag value is vetted before any computation
# runs, here or by the library type it builds, with the field named in the
# message (exit code 2); domain errors the library raises mid-computation
# exit with 3


def _listed(text: str, kind: type, error: str, count: int | None = None) -> list:
    """The comma-separated values of one flag, each read by `kind`; a value
    it cannot read, or a count other than `count`, is the flag's `error`."""
    try:
        values = [kind(s) for s in text.split(",")]
    except ValueError:
        raise click.UsageError(error)
    if count not in (None, len(values)):
        raise click.UsageError(error)
    return values


def _vetted(make: Callable, *args: object):
    """make(*args); a DomainError it raises is a flag value out of range,
    so a configuration error."""
    try:
        return make(*args)
    except DomainError as exc:
        raise click.UsageError(str(exc))


def _checked_families(text: str, grid_n: int) -> list[HahnParams]:
    families = []
    for chunk in text.split(";"):
        a, b = _listed(chunk, float, f"bad parameter list {text!r}, expected a,b[;a,b...]", 2)
        families.append(_vetted(HahnParams, a, b, grid_n))
    return families


def _checked_degree(m: int, grid_n: int) -> None:
    if m < 0:
        raise click.UsageError(f"m must be nonnegative, got {m}")
    if m > grid_n:
        raise click.UsageError(f"m must not exceed N = {grid_n}, got {m}")


def _checked_interval(text: str, grid_n: int) -> IntervalMap:
    a, b = _listed(text, float, f"bad interval {text!r}, expected a,b", 2)
    return _vetted(IntervalMap, a, b, grid_n)


def _checked_samples(samples: int) -> None:
    if samples < 2:
        raise click.UsageError(f"samples must be at least 2, got {samples}")


def _checked_orders(text: str) -> tuple[int, ...]:
    ks = tuple(_listed(text, int, f"bad order list {text!r}, expected k[,k...]"))
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
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # a configuration error, though only found once the table is ready
        click.echo(f"error: --out {out}: {exc.strerror}", err=True)
        sys.exit(2)


def _header(command: str, **fields: object) -> list[str]:
    lines = [f"# hahnpoly {__version__}", f"# command: {command}"]
    lines += [f"# {k}: {v}" for k, v in fields.items()]
    return lines


def _project_sets(fn: Fn, imap: IntervalMap, families: list[HahnParams],
                  top: int, normalized: bool = True) -> list[CoefficientVector]:
    grids = [GridFunction.from_callable(fn, p, imap.to_interval) for p in families]
    return [project(u, top, normalized=normalized) for u in grids]


def _pointwise(fn: Fn, imap: IntervalMap, samples: int, vectors: list[CoefficientVector]
               ) -> tuple[np.ndarray, list[np.ndarray], list[str]]:
    """The equispaced samples t, the signed errors of each family's
    reconstruction there, and the CSV block of a
    t,target,approx_*,error_* row per sample.  Sample k is made at the grid
    coordinate x_k = k N / (samples - 1), so a sample on a node is an exact
    integer, and t_k = imap.to_interval(x_k)."""
    xs = np.arange(samples) * imap.N / (samples - 1)
    ts = imap.to_interval(xs)
    # Python floats, not numpy scalars: the same rounding, but an overflow
    # gives inf quietly instead of a RuntimeWarning
    target = np.array([fn(t) for t in ts.tolist()])
    recons = [eval_expansion(v, xs) for v in vectors]
    errors = [rec - target for rec in recons]
    tags = [f"{v.params.alpha}_{v.params.beta}" for v in vectors]
    lines = ["t,target," + ",".join(f"approx_{t},error_{t}" for t in tags)]
    # one column of Python floats per field, not numpy cells one by one
    columns = [ts.tolist(), target.tolist()]
    for rec, err in zip(recons, errors):
        columns += [rec.tolist(), err.tolist()]
    lines += [",".join(map(_fmt, row)) for row in zip(*columns)]
    return ts, errors, lines


# each option that several commands take is declared once, here
_grid_option = click.option("--N", "grid_n", type=int, default=30, show_default=True,
                            help="grid size; points are 0..N")
_fn_option = click.option("--fn", "fn_spec", type=str, default="sin-pi", show_default=True,
                          help="target: sin-pi, runge, or poly:c0,c1,...")
_interval_option = click.option("--interval", type=str, default="-1,1", show_default=True,
                                help="interval the grid is mapped onto")
_samples_option = click.option("--samples", type=int, default=201, show_default=True,
                               help="equispaced sample count across the interval")
_orders_option = click.option("--k", "orders", type=str, default="1,2,3", show_default=True,
                              help="operator powers, comma separated")
_out_option = click.option("--out", type=str, default="-", show_default=True,
                           help="output path, - for stdout")


def _top_option(default: int):
    return click.option("--m", "top", type=int, default=default, show_default=True,
                        help="highest projection degree")


def _family_options(f):
    f = click.option("--alpha", type=float, default=0.0, show_default=True,
                     help="weight exponent alpha > -1")(f)
    f = click.option("--beta", type=float, default=0.0, show_default=True,
                     help="weight exponent beta > -1")(f)
    return _grid_option(f)


def _require_finite(lines: list[str]) -> None:
    """Refuse a table cell that reads inf or nan, naming its column and its
    row's first cell; a column line follows each run of comment lines."""
    names = None
    for line in lines:
        if line.startswith("#"):
            names = None
        elif names is None:
            names = line.split(",")
        elif "inf" in line or "nan" in line:
            cells = line.split(",")
            for name, cell in zip(names, cells):
                if cell in ("inf", "-inf", "nan"):
                    raise DomainError(f"{name} at {names[0]}={cells[0]} is not finite: {cell}")


def _contract(body):
    """Add --out to a command whose body returns its table lines, or
    (lines, failure line) where it verifies an invariant; exit 3 on a
    HahnPolyError or a non-finite cell, and 4 after the table on a failure."""

    @functools.wraps(body)
    def command(*args, out: str, **kwargs) -> None:
        try:
            result = body(*args, **kwargs)
            lines, failure = result if isinstance(result, tuple) else (result, None)
            if failure is None:
                _require_finite(lines)
        except HahnPolyError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        _emit(lines, out)
        if failure is not None:
            click.echo(failure, err=True)
            sys.exit(4)

    return _out_option(command)


@click.group()
@click.version_option(__version__, prog_name="hahnpoly")
def main() -> None:
    """Hahn discrete orthogonal polynomials: weights, evaluation,
    projection, coefficient decay, and continuum comparison."""


@main.command()
@_family_options
@_contract
def weights(alpha: float, beta: float, grid_n: int) -> list[str]:
    """Tabulate the weight w(x) on the grid."""
    p = _vetted(HahnParams, alpha, beta, grid_n)
    w = basis(p).weights
    total = exact_sum(w.tolist())
    if not math.isfinite(total):
        raise DomainError("weight total is not finite in double precision")
    lines = _header("weights", alpha=alpha, beta=beta, N=grid_n, total=_fmt(total))
    lines.append("x,weight")
    lines += [f"{x},{_fmt(w[x])}" for x in range(p.N + 1)]
    return lines


def _finite_values(degree: int, xs: list[float], vals: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise DomainError(f"Q_{degree}({xs[bad[0]]!r}) is not finite in double precision")
    return vals


@main.command("eval")
@_family_options
@click.option("--n", "degree", type=int, required=True, help="polynomial degree")
@click.option("--points", type=str, default=None,
              help="comma-separated evaluation points; default is the grid 0..N")
@click.option("--normalized", type=bool, default=True, show_default=True,
              help="divide by the weighted norm")
@_contract
def eval_cmd(alpha: float, beta: float, grid_n: int, degree: int,
             points: str | None, normalized: bool) -> list[str]:
    """Evaluate one polynomial at chosen points.  Normalized, a grid node
    reads the family's grid matrix, as `eval_expansion` does; every other
    value comes from the dd sweep."""
    p = _vetted(HahnParams, alpha, beta, grid_n)
    if points is None:
        xs = [float(i) for i in range(p.N + 1)]
    else:
        xs = _listed(points, float, f"bad point list {points!r}")
        if not all(map(math.isfinite, xs)):
            raise click.UsageError(f"points must be finite, got {points!r}")
    _check_degree(degree, p)
    on_grid = [normalized and x.is_integer() and 0.0 <= x <= p.N for x in xs]
    off = [x for x, node in zip(xs, on_grid) if not node]
    vals = np.array(off)
    if off:
        vals = _finite_values(degree, off, hahn_eval_all(degree, vals, p)[degree])
    if normalized:
        # the norm's exact products only for a Q_n that is finite
        norm = math.sqrt(norm_sq_closed(degree, p))
        if norm == math.inf:
            raise DomainError(f"norm of Q_{degree} is not finite in double precision")
        # Python floats: a quotient past the double range is inf, silently
        vals = iter(_finite_values(degree, off, np.array([v / norm for v in vals.tolist()])))
        row = basis(p).grid[degree].tolist() if any(on_grid) else []
        vals = [row[int(x)] if node else next(vals) for x, node in zip(xs, on_grid)]
    lines = _header("eval", alpha=alpha, beta=beta, N=grid_n, n=degree,
                    normalized=normalized)
    lines.append("x,value")
    lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vals)]
    return lines


@main.command("project")
@_family_options
@_top_option(10)
@_fn_option
@_interval_option
@click.option("--params", "param_sets", type=str, default=None,
              help="extra parameter sets a,b[;a,b...]; overrides --alpha/--beta")
@click.option("--normalized", type=bool, default=True, show_default=True,
              help="orthonormal-basis coefficients (false: classical)")
@click.option("--pointwise", is_flag=True, default=False,
              help="append sampled reconstruction rows (t, target, approx, error)")
@_samples_option
@_contract
def project_cmd(alpha: float, beta: float, grid_n: int, top: int, fn_spec: str,
                interval: str, param_sets: str | None, normalized: bool,
                pointwise: bool, samples: int) -> list[str]:
    """Projection coefficients of a sampled function."""
    label, fn = _parse_fn(fn_spec)
    if param_sets:
        families = _checked_families(param_sets, grid_n)
    else:
        families = [_vetted(HahnParams, alpha, beta, grid_n)]
    imap = _checked_interval(interval, grid_n)
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    vectors = _project_sets(fn, imap, families, top, normalized)
    lines = _header("project", N=grid_n, m=top, fn=label, interval=f"{imap.a},{imap.b}",
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
        lines += _pointwise(fn, imap, samples, vectors)[2]
    return lines


@main.command("decay")
@_family_options
@_top_option(20)
@_orders_option
@_fn_option
@_interval_option
@_contract
def decay_cmd(alpha: float, beta: float, grid_n: int, top: int, orders: str,
              fn_spec: str, interval: str) -> tuple[list[str], str | None]:
    """Coefficient decay report: |u_n| against its operator bounds.

    The operator bound is a mathematical guarantee; the command verifies
    it on every reported row and exits with code 4 if any row violates
    it beyond rounding slack (the full table is still written first).
    """
    label, fn = _parse_fn(fn_spec)
    p = _vetted(HahnParams, alpha, beta, grid_n)
    imap = _checked_interval(interval, grid_n)
    ks = _checked_orders(orders)
    if top < 1:
        raise click.UsageError(f"m must be at least 1, got {top}")
    _checked_degree(top, grid_n)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    lines = _header("decay", alpha=alpha, beta=beta, N=grid_n, m=top, k=orders,
                    fn=label, interval=f"{imap.a},{imap.b}")
    lines.append("k,n,abs_coeff,bound,bound_degree_only,identity_residual")
    rows = [r for k in ks for r in decay_report(u, k, range(1, top + 1))]
    lines += [f"{r.k},{r.n},{_fmt(abs(r.coeff))},{_fmt(r.bound)},"
              f"{_fmt(r.bound_degree_only)},{_fmt(r.identity_residual)}" for r in rows]
    # the absolute allowance covers a bound of 0 (L^k u = 0 exactly) against
    # coefficients that carry the projection's rounding
    norm_sq = inner_product(u, u)
    if not math.isfinite(norm_sq):
        raise DomainError("||u||_w^2 is not finite in double precision")
    floor = (p.N + 1) * sys.float_info.epsilon * math.sqrt(norm_sq)
    bad = [r for r in rows if abs(r.coeff) > r.bound * (1.0 + BOUND_SLACK) + floor]
    if not bad:
        return lines, None
    worst = max(bad, key=lambda r: abs(r.coeff) - r.bound)
    return lines, (f"bound violated at k={worst.k}, n={worst.n}: "
                   f"|coeff| {_fmt(abs(worst.coeff))} > bound {_fmt(worst.bound)}")


@main.command("runge")
@_grid_option
@_top_option(10)
@_samples_option
@_interval_option
@click.option("--params", "param_sets", type=str, default="0,0;0.5,0.5;5,0",
              show_default=True, help="parameter sets a,b[;a,b...]")
@_contract
def runge_cmd(grid_n: int, top: int, samples: int, interval: str,
              param_sets: str) -> list[str]:
    """Pointwise error of projections of 1/(1+25 t^2)."""
    families = _checked_families(param_sets, grid_n)
    imap = _checked_interval(interval, grid_n)
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    _, fn = _parse_fn("runge")
    ts, errors, table = _pointwise(fn, imap, samples, _project_sets(fn, imap, families, top))
    lines = _header("runge", N=grid_n, m=top, samples=samples,
                    interval=f"{imap.a},{imap.b}",
                    params=";".join(f"{p.alpha},{p.beta}" for p in families))
    for p, err in zip(families, errors):
        i = int(np.argmax(np.abs(err)))
        lines.append(f"# max_error_{p.alpha}_{p.beta}: {_fmt(abs(err[i]))} "
                     f"at t = {_fmt(ts[i])}")
    return lines + table


@main.command("compare-legendre")
@_grid_option
@_top_option(10)
@_fn_option
@_interval_option
@_contract
def compare_legendre_cmd(grid_n: int, top: int, fn_spec: str, interval: str) -> list[str]:
    """Hahn (0,0) coefficients next to continuum Legendre coefficients.

    The comparison column uses the classical convention both families
    share (basis value 1 at the reference endpoint); the orthonormal
    Hahn coefficients are included alongside.
    """
    label, fn = _parse_fn(fn_spec)
    p = _vetted(HahnParams, 0.0, 0.0, grid_n)
    imap = _checked_interval(interval, grid_n)
    _checked_degree(top, grid_n)
    # its degree cap is a flag rule too, so it runs before any basis is built
    leg = _vetted(legendre_coeffs, fn, top)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    normalized = project(u, top).coeffs
    # the division project(normalized=False) makes, on the one projection
    classical = normalized / basis(p).sqrt_norms[: top + 1]
    lines = _header("compare-legendre", N=grid_n, m=top, fn=label,
                    interval=f"{imap.a},{imap.b}")
    lines.append("n,hahn_classical,hahn_normalized,legendre_classical")
    lines += [f"{n},{_fmt(classical[n])},{_fmt(normalized[n])},{_fmt(leg[n])}"
              for n in range(top + 1)]
    soft = [n for n in range(5, top + 1, 2) if abs(classical[n]) > abs(leg[n])]
    if soft:
        click.echo(
            f"warning: Hahn coefficient above Legendre at odd degrees {soft}",
            err=True,
        )
    return lines


@main.command("verify")
@_family_options
@_orders_option
@_contract
def verify_cmd(alpha: float, beta: float, grid_n: int,
               orders: str) -> tuple[list[str], str | None]:
    """Run the full invariant suite; nonzero exit if anything fails."""
    ks = _checked_orders(orders)
    p = _vetted(HahnParams, alpha, beta, grid_n)
    results = run_all(p, ks)
    lines = _header("verify", alpha=alpha, beta=beta, N=grid_n, k=orders)
    lines.append("check,value,tol,status")
    lines += [f"{r.name},{_fmt(r.value)},{_fmt(r.tol)},{'pass' if r.passed else 'FAIL'}"
              for r in results]
    bad = [r for r in results if not r.passed]
    return lines, f"{len(bad)} check(s) failed" if bad else None


if __name__ == "__main__":
    main()

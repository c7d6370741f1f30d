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
computation; 4 when a verified invariant fails.  Of several bad flags,
the first one vetted is named: the four commands that sample a target
(`project`, `runge`, `decay`, `compare-legendre`) vet --fn, then the
families, then --interval, in one helper (`_checked_target`), and their
own flags after that.

Every command is registered through one contract (`_contract`): its body
returns the table, and the contract owns --out and exit codes 3 and 4.
Every numeric table is written by one helper (`_rows`), which refuses an
inf or nan cell: the command exits 3 with one line naming the cell's
column and row, and nothing is written.  `verify` writes its own rows; a
failing check may read nan there, and exits 4.

Every value of a polynomial or an expansion that a command prints comes
from `expansion.eval_expansion`: `eval` is the expansion of one unit
coefficient vector, on the route of `project --pointwise` and `runge`,
and the coefficient vector refuses a norm past the double range.
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
    _decay_pass,
    eval_expansion,
    inner_product,
    project,
)
from .hahn import HahnParams, _check_degree, basis
from .legendre_ref import legendre_coeffs

Fn = Callable[[float], float]


def _rows(names: str, *columns) -> list[str]:
    """The column line `names` and the CSV lines of a numeric table given
    by its columns, one %-format per line: "%.17g", the format of every
    number the CLI prints, gives each cell a float's 17 significant digits
    and `str`'s bytes for an int.  Columns of Python floats format faster
    than numpy scalars.  The first cell, in row order, that reads inf or
    nan is refused (DomainError), naming its column and its row's first
    cell, so no table prints a number that is not finite."""
    row_fmt = ",".join(["%.17g"] * len(columns))
    lines = [row_fmt % row for row in zip(*columns)]
    # of the "%.17g" bytes of a number, only inf and nan spell an n
    bad = next((line.split(",") for line in lines if "n" in line), None)
    if bad:
        header = names.split(",")
        name, cell = next((name, cell) for name, cell in zip(header, bad) if "n" in cell)
        raise DomainError(f"{name} at {header[0]}={bad[0]} is not finite: {cell}")
    return [names, *lines]


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


def _checked_target(fn_spec: str, param_sets: str | None, interval: str, grid_n: int,
                    family: tuple[float, float] | None = None
                    ) -> tuple[str, Fn, list[HahnParams], IntervalMap]:
    """The label, function, families and interval map of a sampled target,
    vetted in this order: --fn, the families, --interval.  The families are
    --params a,b[;a,b...] when it is given and non-empty, else the one
    `family`; with no `family`, --params is always read, so an empty list
    is refused.  Each family is vetted before the next chunk is read."""
    label, fn = _parse_fn(fn_spec)
    error = f"bad parameter list {param_sets!r}, expected a,b[;a,b...]"
    pairs = ((_listed(chunk, float, error, 2) for chunk in param_sets.split(";"))
             if param_sets or family is None else [family])
    families = [_vetted(HahnParams, a, b, grid_n) for a, b in pairs]
    a, b = _listed(interval, float, f"bad interval {interval!r}, expected a,b", 2)
    return label, fn, families, _vetted(IntervalMap, a, b, grid_n)


def _checked_degree(m: int, grid_n: int) -> None:
    if m < 0:
        raise click.UsageError(f"m must be nonnegative, got {m}")
    if m > grid_n:
        raise click.UsageError(f"m must not exceed N = {grid_n}, got {m}")


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
                  top: int) -> list[CoefficientVector]:
    grids = [GridFunction.from_callable(fn, p, imap.to_interval) for p in families]
    return [project(u, top) for u in grids]


def _classical(v: CoefficientVector) -> np.ndarray:
    # the classical coefficients u_n / ||Q_n|| of an orthonormal vector: the
    # division project(normalized=False) makes
    return v.coeffs / basis(v.params).sqrt_norms[: v.degree + 1]


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
    columns = [ts.tolist(), target.tolist()]
    for rec, err in zip(recons, errors):
        columns += [rec.tolist(), err.tolist()]
    names = "t,target," + ",".join(f"approx_{t},error_{t}" for t in tags)
    return ts, errors, _rows(names, *columns)


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


def _contract(body):
    """Add --out to a command whose body returns its table lines, or
    (lines, failure line) where it verifies an invariant; exit 3 on a
    HahnPolyError, which `_rows` raises for a non-finite cell, and 4 after
    the table on a failure."""

    @functools.wraps(body)
    def command(*args, out: str, **kwargs) -> None:
        try:
            result = body(*args, **kwargs)
            lines, failure = result if isinstance(result, tuple) else (result, None)
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
    lines = _header("weights", alpha=alpha, beta=beta, N=grid_n, total="%.17g" % total)
    return lines + _rows("x,weight", range(p.N + 1), w.tolist())


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
    """Evaluate one polynomial at chosen points: `eval_expansion` of the
    unit vector e_n, so a node reads the family's grid column (times
    ||Q_n|| with --normalized false) and every other point the Clenshaw
    sweep, as `project --pointwise` does.  The coefficient vector refuses
    the first k <= n whose norm is past the double range, in either
    convention, and `_rows` a value that is not finite."""
    p = _vetted(HahnParams, alpha, beta, grid_n)
    if points is None:
        xs = [float(i) for i in range(p.N + 1)]
    else:
        xs = _listed(points, float, f"bad point list {points!r}")
        if not all(map(math.isfinite, xs)):
            raise click.UsageError(f"points must be finite, got {points!r}")
    _check_degree(degree, p)
    unit = np.zeros(degree + 1)
    unit[degree] = 1.0
    vals = eval_expansion(CoefficientVector(p, unit, normalized), np.array(xs))
    lines = _header("eval", alpha=alpha, beta=beta, N=grid_n, n=degree,
                    normalized=normalized)
    return lines + _rows("x,value", xs, vals.tolist())


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
    """Projection coefficients of a sampled function.  The projection is
    orthonormal, and --pointwise evaluates it; --normalized false prints
    its coefficients divided by ||Q_n||."""
    label, fn, families, imap = _checked_target(fn_spec, param_sets, interval, grid_n,
                                                (alpha, beta))
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    vectors = _project_sets(fn, imap, families, top)
    lines = _header("project", N=grid_n, m=top, fn=label, interval=f"{imap.a},{imap.b}",
                    params=";".join(f"{p.alpha},{p.beta}" for p in families),
                    normalized=normalized)
    columns = [range(top + 1)]
    for v in vectors:
        coeffs = v.coeffs if normalized else _classical(v)
        columns += [coeffs.tolist(), np.abs(coeffs).tolist()]
    names = "n," + ",".join(f"coeff_{p.alpha}_{p.beta},abs_{p.alpha}_{p.beta}" for p in families)
    lines += _rows(names, *columns)
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
    label, fn, (p,), imap = _checked_target(fn_spec, None, interval, grid_n, (alpha, beta))
    ks = _checked_orders(orders)
    if top < 1:
        raise click.UsageError(f"m must be at least 1, got {top}")
    _checked_degree(top, grid_n)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    lines = _header("decay", alpha=alpha, beta=beta, N=grid_n, m=top, k=orders,
                    fn=label, interval=f"{imap.a},{imap.b}")
    rows = [r for report in _decay_pass(u, ks, range(1, top + 1)) for r in report]
    # the absolute allowance covers a bound of 0 (L^k u = 0 exactly) against
    # coefficients that carry the projection's rounding
    norm_sq = inner_product(u, u)
    if not math.isfinite(norm_sq):
        raise DomainError("||u||_w^2 is not finite in double precision")
    floor = (p.N + 1) * sys.float_info.epsilon * math.sqrt(norm_sq)
    n, k, coeff, bound, degree_only, residual = zip(*rows)
    lines += _rows("k,n,abs_coeff,bound,bound_degree_only,identity_residual",
                   k, n, map(abs, coeff), bound, degree_only, residual)
    bad = [r for r in rows if abs(r.coeff) > r.bound * (1.0 + BOUND_SLACK) + floor]
    if not bad:
        return lines, None
    worst = max(bad, key=lambda r: abs(r.coeff) - r.bound)
    return lines, ("bound violated at k=%s, n=%s: |coeff| %.17g > bound %.17g"
                   % (worst.k, worst.n, abs(worst.coeff), worst.bound))


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
    _, fn, families, imap = _checked_target("runge", param_sets, interval, grid_n)
    _checked_degree(top, grid_n)
    _checked_samples(samples)
    ts, errors, table = _pointwise(fn, imap, samples, _project_sets(fn, imap, families, top))
    lines = _header("runge", N=grid_n, m=top, samples=samples,
                    interval=f"{imap.a},{imap.b}",
                    params=";".join(f"{p.alpha},{p.beta}" for p in families))
    for p, err in zip(families, errors):
        i = int(np.argmax(np.abs(err)))
        lines.append("# max_error_%s_%s: %.17g at t = %.17g"
                     % (p.alpha, p.beta, abs(err[i]), ts[i]))
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
    label, fn, (p,), imap = _checked_target(fn_spec, None, interval, grid_n, (0.0, 0.0))
    _checked_degree(top, grid_n)
    # its degree cap is a flag rule too, so it runs before any basis is built
    leg = _vetted(legendre_coeffs, fn, top)
    u = GridFunction.from_callable(fn, p, imap.to_interval)
    v = project(u, top)
    normalized, classical = v.coeffs, _classical(v)
    lines = _header("compare-legendre", N=grid_n, m=top, fn=label,
                    interval=f"{imap.a},{imap.b}")
    soft = [n for n in range(5, top + 1, 2) if abs(classical[n]) > abs(leg[n])]
    if soft:
        click.echo(
            f"warning: Hahn coefficient above Legendre at odd degrees {soft}",
            err=True,
        )
    return lines + _rows("n,hahn_classical,hahn_normalized,legendre_classical",
                         range(top + 1), classical.tolist(), normalized.tolist(), leg.tolist())


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
    lines += ["%s,%.17g,%.17g,%s" % (r.name, r.value, r.tol, "pass" if r.passed else "FAIL")
              for r in results]
    bad = [r for r in results if not r.passed]
    return lines, f"{len(bad)} check(s) failed" if bad else None


if __name__ == "__main__":
    main()

"""Print one digest line per command of a fixed list of CLI commands, so
two source trees can be compared command by command.

    python tools/cli_digests.py [src-dir]

imports `hahnpoly` from `src-dir` (by default the `src` beside this
script), runs every command of `COMMANDS` through `hahnpoly.cli.main` in
this one process and prints `<sha256 of exit code, stdout and stderr>
<command>` for each, in list order.  To compare two trees, run it on each
(`git archive` one of them into a directory of its own) and `diff` the
outputs.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LATTICE = ("-0.999", "-0.5", "0", "3", "50", "1e3", "1e6")
# the golden stdout pins of tests/test_cli.py
GOLDEN = (
    "project --N 30 --m 10 --fn runge --pointwise --samples 201",
    "runge --N 30 --m 10 --samples 201",
    "eval --n 5 --N 30 --points 0,7.5,30 --normalized false",
    "weights --alpha 0.5 --beta 0.5 --N 30",
    "project --N 30 --m 10 --fn sin-pi --params 0,0;0.5,0.5;5,0",
    "decay --N 30 --m 20 --k 1,2,3 --fn sin-pi",
    "compare-legendre --N 30 --m 10",
    "verify --alpha 0.5 --beta 0.5 --N 30",
    "verify --alpha -0.5 --beta 3 --N 60",
)
# the per-point grid at N <= 12, the CLI's one route into the forward sweep
GRID_SWEEP = ("project --N 6 --m 6 --fn runge", "project --N 12 --m 12 --fn runge",
              "eval --N 12 --n 12")
# the benchmark's families, each projected again on the same samples in
# this one process: the later commands of a group reuse the rows the
# family's basis holds
REPEATS = ("project --m {q} --fn runge", "project --m {N} --fn runge",
           "decay --m {N} --k 1,2,3 --fn runge", "project --m 20 --fn runge --normalized false")
# one call of each exact_row_sums caller above its cut: 49 of the 101
# projection rows of (0, 1e3) take exact_sum, then Legendre coefficients
# and 201 node values
ABOVE_CUT = ("project --alpha 0 --beta 1e3 --N 100 --m 100 --fn runge",
             "compare-legendre --N 200 --m 100", "runge --N 200 --m 200 --samples 201 --params 0,0")
# Legendre coefficients, each asked for twice in this one process (the
# second time with its flags in another order): the later command is
# served from the sums held with the rule, and the coefficients do not
# depend on N, so the N = 200 command is too
LEGENDRE_REPEATS = tuple(
    command.format(N=N, m=m, fn=fn)
    for command in ("compare-legendre --N {N} --m {m} --fn {fn}",
                    "compare-legendre --fn {fn} --m {m} --N {N}")
    for N in (30, 200) for m in (10, 20) for fn in ("runge", "sin-pi"))
# the flag vetting paths: one bad flag per command (the keys of
# tests/test_cli.py CONFIG_ERRORS), then two bad flags per command, of
# which the first one vetted is named, an empty --params, and a sample
# count past the bound
VETTING = (
    "project --N 0", "project --alpha -1", "project --beta nan", "project --params 0,0;-2,0",
    "project --interval 1,1", "project --interval=-1e308,1e308 --N 200", "project --m -1",
    "decay --m 0", "runge --N 0", "runge --interval 2,1", "compare-legendre --N 0",
    "compare-legendre --interval 3,3", "weights --N 0", "verify --alpha -1.5",
    "eval --n 3 --points 1,x", "project --params 0,0;1", "runge --params 0,a",
    "project --interval nope", "runge --interval 1,2,3", "decay --k one", "decay --k 1,-1",
    "project --fn poly:", "project --fn poly:a", "runge --samples 1",
    "project --fn poly:a --params 0,0;1", "project --fn poly:a --alpha -1",
    "project --params 0,0;-2,0 --interval 1,1", "project --alpha -1 --interval 1,1",
    "project --interval 1,1 --m -1", "project --m 31 --samples 1",
    "runge --params 0,a --interval 2,1", "runge --interval 2,1 --m -1",
    "runge --m -1 --samples 1", "runge --params=",
    "decay --fn poly: --beta nan", "decay --beta nan --interval 1,1",
    "decay --interval 1,1 --k one", "decay --k one --m 0", "decay --k 1,-1 --m 31",
    "compare-legendre --fn poly:a --interval 3,3", "compare-legendre --N 0 --fn poly:a",
    "compare-legendre --interval 3,3 --m -1", "compare-legendre --N 200 --m 181 --interval 3,3",
    "project --params= --N 6 --m 2", "runge --samples 100002",
)
# the refusal precedence of decay: the norms before any order, an order's
# overflow before its underflow, the first refused order of a list, an
# order whose lam_n^k overflows before L^k u is formed, and an order
# whose lam_n^k stay finite (lam_1 = 1) while L^j u leaves the double
# range from j = 111
DECAY_REFUSALS = (
    "decay --alpha 0 --beta 1e3 --N 200 --m 100 --k 60",
    "decay --alpha 0 --beta 1e3 --N 200 --m 90 --k 1,60",
    "decay --alpha -0.999 --beta -0.999 --N 30 --m 1 --k 200",
    "decay --N 30 --m 3 --k 1,2,58",
    "decay --N 30 --m 5 --k 200000",
    "decay --alpha -0.5 --beta -0.5 --N 30 --m 1 --k 200000",
)
COMMANDS = tuple(f"verify --alpha {a} --beta {b} --N {N}"
                 for N in (1, 6, 12, 30) for a in LATTICE for b in LATTICE) + GOLDEN + tuple(
    f"{command} --alpha {a} --beta {b}" for command in GRID_SWEEP
    for a in LATTICE for b in LATTICE) + tuple(
    f"{command.format(q=N // 4, N=N)} --N {N} --alpha {a} --beta {b}"
    for a, b in (("0", "0"), ("0.5", "0.5"), ("-0.5", "3"), ("5", "0")) for N in (30, 100, 200)
    for command in REPEATS) + ABOVE_CUT + VETTING + DECAY_REFUSALS + LEGENDRE_REPEATS


def digest_line(command: str) -> str:
    """`<sha256>  <command>` for one run of `command`; an exception that
    escapes the CLI adds its last traceback line to stderr, as the
    interpreter would print it."""
    from click.testing import CliRunner

    from hahnpoly.cli import main

    # a fresh warnings registry, so each command shows its own warnings
    with warnings.catch_warnings():
        res = CliRunner().invoke(main, command.split())
    err = res.stderr
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        err += "".join(traceback.format_exception_only(res.exception))
    blob = "\0".join((str(res.exit_code), res.stdout, err))
    return f"{hashlib.sha256(blob.encode()).hexdigest()}  {command}"


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]).resolve() if argv else SRC))
    for command in COMMANDS:
        print(digest_line(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

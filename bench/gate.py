"""Correctness gate: judges each request's output against references the
library does not compute itself.

Reference norms use exact rational weights (`oracle_exact.exact_weight`
within its N <= 40 cap, the same finite product in `Fraction` beyond it);
at N = 30 coefficients are compared with the projection built from the
exact oracle.  Tolerances are the levels the library states
for the same invariants and are never loosened.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import numpy as np
from hahnpoly import oracle_exact

from workloads import SAMPLES, TARGETS

PARSEVAL_TOL = 1e-8    # checks.check_parseval
GRID_TOL = 1e-8        # acceptance criterion 7: grid reproduction, sup-norm relative
ORACLE_TOL = 1e-10     # acceptance criterion 8: float route against the exact route
BOUND_SLACK = 1e-8     # expansion.BOUND_SLACK, the decay-bound rounding allowance
IDENTITY_TOL = 1e-6    # checks.check_decay_bound spectral-identity residual
ORACLE_N = 30          # size at which coefficients are compared with the oracle
ORACLE_MAX_N = 40      # oracle_exact's size cap

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


class Failed(Exception):
    """A request's output breaks the gate."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Failed(reason)


def product_weights(alpha: float, beta: float, n: int) -> list[Fraction]:
    """w(x) = C(alpha+x, x) C(beta+N-x, N-x) with each binomial the finite
    product prod_{i=1..k} (a+i)/i, in exact rationals."""
    def binomials(a: Fraction) -> list[Fraction]:
        out = [Fraction(1)]
        for i in range(1, n + 1):
            out.append(out[-1] * (a + i) / i)
        return out
    left, right = binomials(Fraction(alpha)), binomials(Fraction(beta))
    return [left[x] * right[n - x] for x in range(n + 1)]


@functools.lru_cache(maxsize=None)
def _exact_weights(alpha: float, beta: float, n: int) -> list[Fraction]:
    if n <= ORACLE_MAX_N:
        return [oracle_exact.exact_weight(x, Fraction(alpha), Fraction(beta), n)
                for x in range(n + 1)]
    return product_weights(alpha, beta, n)


def exact_norm_sq(k: int, alpha: float, beta: float, n: int) -> Fraction:
    """||Q_k||_w^2 from the closed form oracle_exact.exact_norm_sq states,
    without its N <= 40 cap."""
    a, b = Fraction(alpha), Fraction(beta)
    poch = oracle_exact.exact_pochhammer
    num = (-1) ** k * poch(k + a + b + 1, n + 1) * poch(b + 1, k) * poch(1, k)
    den = (2 * k + a + b + 1) * poch(a + 1, k) * poch(-n, k) * poch(1, n)
    return num / den


@functools.lru_cache(maxsize=None)
def _family(alpha: float, beta: float, n: int, target: str) -> dict:
    """Exact grid values of the target, the exact weighted norm, and the
    sup norm; grid point x maps onto [-1, 1] as in `IntervalMap`."""
    fn = TARGETS[target]
    u = [fn(-1.0 * (1.0 - x / n) + 1.0 * (x / n)) for x in range(n + 1)]
    uf = [Fraction(v) for v in u]
    w = _exact_weights(alpha, beta, n)
    return {"uf": uf, "norm_sq": float(sum(wi * ui * ui for wi, ui in zip(w, uf))),
            "sup": max(abs(v) for v in u)}


@functools.lru_cache(maxsize=None)
def _oracle_basis(alpha: float, beta: float, n: int) -> list[list[Fraction]]:
    """Exact w(x) Q_k(x), rows k = 0..N."""
    a, b = Fraction(alpha), Fraction(beta)
    w = _exact_weights(alpha, beta, n)
    return [[oracle_exact.exact_hahn_eval(k, x, a, b, n) * w[x] for x in range(n + 1)]
            for k in range(n + 1)]


@functools.lru_cache(maxsize=None)
def _oracle_projection(alpha: float, beta: float, n: int, target: str) -> np.ndarray:
    """Orthonormal coefficients of degrees 0..N from exact rationals."""
    uf = _family(alpha, beta, n, target)["uf"]
    a, b = Fraction(alpha), Fraction(beta)
    return np.array([
        float(sum(q * u for q, u in zip(row, uf)))
        / math.sqrt(oracle_exact.exact_norm_sq(k, a, b, n))
        for k, row in enumerate(_oracle_basis(alpha, beta, n))
    ])


def _check_bessel(coeffs: np.ndarray, full: bool, fam: dict) -> None:
    """Bessel's inequality, and Parseval for a full-degree vector."""
    energy = math.fsum(c * c for c in coeffs)
    excess = (energy - fam["norm_sq"]) / fam["norm_sq"]
    if full:
        _require(abs(excess) <= PARSEVAL_TOL, f"Parseval defect {excess:.3g}")
    else:
        _require(excess <= PARSEVAL_TOL, f"Bessel excess {excess:.3g}")


def _check_oracle(coeffs: np.ndarray, first: int, req: dict, fam: dict) -> None:
    if req["N"] != ORACLE_N:
        return
    exact = _oracle_projection(req["alpha"], req["beta"], req["N"], req["target"])
    err = float(np.max(np.abs(coeffs - exact[first:first + len(coeffs)])))
    _require(err <= ORACLE_TOL * math.sqrt(fam["norm_sq"]),
             f"coefficients differ from the exact oracle by {err:.3g}")


def _csv_rows(text: str, header: str) -> list[list[str]]:
    """Data rows of the CSV block whose column line starts with `header`."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header)) + 1
    rows = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        rows.append(line.split(","))
    return rows


def _check_grid_reproduction(rows: list[list[str]], req: dict, fam: dict) -> None:
    """At full degree, samples landing on grid nodes reproduce the target."""
    if req["m"] != req["N"]:
        return
    fn = TARGETS[req["target"]]
    intervals = len(rows) - 1
    worst = max(abs(float(row[2]) - fn(float(row[0])))
                for k, row in enumerate(rows) if k * req["N"] % intervals == 0)
    _require(worst <= GRID_TOL * fam["sup"], f"grid reproduction error {worst:.3g}")


def _judge_cli(req: dict, reply: dict) -> None:
    text = reply["stdout"]
    if req["command"] == "verify":
        bad = [row[0] for row in _csv_rows(text, "check,") if row[3] != "pass"]
        _require(not bad, "verify rows FAIL: " + " ".join(bad))
        return
    fam = _family(req["alpha"], req["beta"], req["N"], req["target"])
    if req["command"] == "project":
        coeffs = np.array([float(row[1]) for row in _csv_rows(text, "n,")])
        _require(len(coeffs) == req["m"] + 1, f"{len(coeffs)} coefficient rows")
        _check_bessel(coeffs, req["m"] == req["N"], fam)
    rows = _csv_rows(text, "t,target,")
    _require(len(rows) == SAMPLES, f"{len(rows)} sample rows")
    _check_grid_reproduction(rows, req, fam)


def _judge_lib(req: dict, arrays: dict[str, np.ndarray]) -> None:
    for key, values in arrays.items():
        _require(bool(np.all(np.isfinite(values))), f"non-finite {key}")
    fam = _family(req["alpha"], req["beta"], req["N"], req["target"])
    m = req["m"]
    if req["op"] == "project":
        _check_bessel(arrays["coeffs"], m == req["N"], fam)
        _check_oracle(arrays["coeffs"], 0, req, fam)
    elif req["op"] == "decay":
        coeff, bound = np.abs(arrays["coeff"]), arrays["bound"]
        _require(bool(np.all(coeff <= bound * (1.0 + BOUND_SLACK))), "decay bound violated")
        worst = float(np.max(arrays["identity_residual"]))
        _require(worst <= IDENTITY_TOL, f"spectral identity residual {worst:.3g}")
        _check_bessel(arrays["coeff"], False, fam)
        _check_oracle(arrays["coeff"], 1, req, fam)
    else:
        norms = np.array([math.sqrt(exact_norm_sq(k, req["alpha"], req["beta"], req["N"]))
                          for k in range(m + 1)])
        normalized = arrays["classical"] * norms
        _check_bessel(normalized, m == req["N"], fam)
        _check_oracle(normalized, 0, req, fam)


def judge(req: dict, reply: dict) -> str | None:
    """None when the request's output passes the gate, else the reason."""
    try:
        _require(reply["exit"] == 0, f"exit code {reply['exit']}: "
                 + (reply["stderr"].strip().splitlines() or [""])[-1])
        _require(_NON_FINITE.search(reply["stdout"]) is None, "non-finite number printed")
        if req["kind"] == "cli":
            _judge_cli(req, reply)
        else:
            _judge_lib(req, {k: np.array(v, dtype=float) for k, v in reply["arrays"].items()})
    except Failed as exc:
        return str(exc)
    except (ValueError, IndexError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"
    return None

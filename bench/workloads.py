"""Seeded request lists for the three benchmark workloads.

Each list is a pure function of the workload name and the seed.  The seed
picks families, targets, degrees and order; the amount of work in a pass
is held nearly constant across seeds (fixed multisets of sizes and degree
bands), so that runs with different seeds are comparable.
"""

from __future__ import annotations

import math
import random

# targets share their definitions with the CLI's `--fn sin-pi` / `runge`
TARGETS = {
    "sin-pi": lambda t: math.sin(math.pi * t),
    "runge": lambda t: 1.0 / (1.0 + 25.0 * t * t),
}

INTEGER_FAMILIES = [(0.0, 0.0), (5.0, 0.0)]
FRACTIONAL_FAMILIES = [(0.5, 0.5), (-0.5, 3.0)]
FAMILIES = INTEGER_FAMILIES + FRACTIONAL_FAMILIES

SAMPLES = 1001

# spectra_session popularity, most popular first: (N, integer family,
# fractional family, requests per pass for each of the two).  Every family
# appears once, pairs share a count so exactly half the draws are
# fractional, and the 12 families exceed the 8-entry basis cache, so
# rarely drawn families are rebuilt after eviction.
SPECTRA_POPULARITY = [
    (30, (0.0, 0.0), (0.5, 0.5), 22),
    (100, (0.0, 0.0), (0.5, 0.5), 16),
    (200, (0.0, 0.0), (0.5, 0.5), 12),
    (100, (5.0, 0.0), (-0.5, 3.0), 8),
    (30, (5.0, 0.0), (-0.5, 3.0), 5),
    (200, (5.0, 0.0), (-0.5, 3.0), 3),
]
# legendre_coeffs costs O(m^2) Legendre evaluations; one fixed degree keeps
# those requests the same size for every seed
LEGENDRE_M = 20
SPECTRA_OPS = ["project", "decay", "legendre"]


def _family_args(alpha: float, beta: float) -> list[str]:
    return ["--alpha", repr(alpha), "--beta", repr(beta)]


def _verify(family: tuple[float, float], n: int) -> dict:
    alpha, beta = family
    return {"kind": "cli", "command": "verify", "alpha": alpha, "beta": beta, "N": n,
            "argv": ["verify", *_family_args(alpha, beta), "--N", str(n)]}


def verify_cli(rng: random.Random) -> list[dict]:
    reqs = [_verify(family, n) for n in (30, 60) for family in FAMILIES]
    reqs.append(_verify(rng.choice(FAMILIES), 100))
    rng.shuffle(reqs)
    return reqs


def _reconstruct(command: str, family: tuple[float, float], n: int, m: int,
                 target: str) -> dict:
    alpha, beta = family
    common = ["--N", str(n), "--m", str(m), "--samples", str(SAMPLES)]
    if command == "runge":
        # runge always reconstructs 1/(1+25 t^2); one family per command
        target = "runge"
        argv = ["runge", *common, "--params", f"{alpha!r},{beta!r}"]
    else:
        argv = ["project", "--pointwise", *common, *_family_args(alpha, beta),
                "--fn", target]
    return {"kind": "cli", "command": command, "alpha": alpha, "beta": beta, "N": n,
            "m": m, "target": target, "argv": argv}


def reconstruct_cli(rng: random.Random) -> list[dict]:
    reqs = []
    for n in (100, 200):
        # per size: both commands at full degree, and both at a seeded degree
        # within N/40 of 5N/8 or 7N/8 (the seed deals the two points to the
        # commands).  The integer/fractional class of each cell is fixed, so
        # the work per pass, and which requests are the slow ones, do not
        # vary with the seed.
        points = [5 * n // 8, 7 * n // 8]
        rng.shuffle(points)
        cells = [("project", FRACTIONAL_FAMILIES, n), ("runge", INTEGER_FAMILIES, n),
                 ("project", INTEGER_FAMILIES, points[0] + rng.randint(-n // 40, n // 40)),
                 ("runge", FRACTIONAL_FAMILIES, points[1] + rng.randint(-n // 40, n // 40))]
        for command, families, m in cells:
            reqs.append(_reconstruct(command, rng.choice(families), n, m,
                                     rng.choice(sorted(TARGETS))))
    rng.shuffle(reqs)
    return reqs


def spectra_session(rng: random.Random) -> list[dict]:
    # A fixed interleaving (the j-th of a family's c requests sits at
    # (j + 1/2) / c), so cache evictions do not vary with the seed.  Each
    # family cycles through the operations, and the degrees of each
    # (family, operation) group are stratified draws, so the work per pass
    # and the spread of request sizes barely vary either.
    keyed = []
    for rank, (n, integer, fractional, count) in enumerate(SPECTRA_POPULARITY):
        for side, (alpha, beta) in enumerate((integer, fractional)):
            family = []
            for i, op in enumerate(SPECTRA_OPS):
                k = len(range(i, count, len(SPECTRA_OPS)))
                for j in range(k):
                    # the j-th of k degrees comes from the j-th k-quantile of [N/4, N]
                    low = n // 4 + int((n - n // 4 + 1) * (j + rng.random()) / k)
                    m = LEGENDRE_M if op == "legendre" else low
                    family.append(_spectra_request(rng, op, alpha, beta, n, m))
            rng.shuffle(family)
            keyed += [((j + 0.5) / count, rank, side, req) for j, req in enumerate(family)]
    keyed.sort(key=lambda item: item[:3])
    return [req for *_, req in keyed]


def _spectra_request(rng: random.Random, op: str, alpha: float, beta: float,
                     n: int, m: int) -> dict:
    req = {"kind": "lib", "op": op, "alpha": alpha, "beta": beta, "N": n, "m": m,
           "target": rng.choice(sorted(TARGETS))}
    if op == "decay":
        req["k"] = rng.randint(1, 3)
    return req


# measured seconds of one pass of each workload on the seed code (2 vCPU
# Intel Xeon, Python 3.11), start-up included; a run makes
# `passes(workload, seconds)` passes, so the work in a run, and with it the
# attempted and failed counts, depend only on the arguments
PASS_SECONDS = {
    "verify_cli": 35.0,
    "reconstruct_cli": 18.0,
    "spectra_session": 14.0,
}

WORKLOADS = {
    "verify_cli": verify_cli,
    "reconstruct_cli": reconstruct_cli,
    "spectra_session": spectra_session,
}


def requests(workload: str, seed: int) -> list[dict]:
    """The request list of one pass of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def passes(workload: str, seconds: float) -> int:
    """Passes in one run: as many as fit in `seconds` at the seed code's
    speed, at least one."""
    return max(1, int(seconds // PASS_SECONDS[workload]))

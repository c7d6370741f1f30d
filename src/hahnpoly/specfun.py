"""Special-function building blocks: the terminating 3F2 series at unit
argument for one set of scalar parameters (summed in double-double, plain
Python floats, no numpy) and generalized-binomial weight products (in
exact integer arithmetic, each weight rounded once).  `binomial_weight`
gives one grid point's weight; the whole row w(0) .. w(N) is
`hahn.weight_table`, which calls `_weights` for a family `HahnParams` has
already checked.
"""

from __future__ import annotations

import math

from . import _compensated as dd
from .errors import DomainError, NonTerminatingError, ZeroDenominatorError

# series longer than this are outside the intended problem sizes
_MAX_TERMS = 200


def terminating_3f2(num: tuple[float, float, float], den: tuple[float, float]) -> float:
    """Sum of the hypergeometric series 3F2(num; den; 1), which must terminate.

    The first numerator parameter num[0] has to be a nonpositive integer -n;
    the series then has exactly n + 1 terms.  Terms are generated by the
    ratio update

        t_{k+1} = t_k * (a1+k)(a2+k)(a3+k) / ((b1+k)(b2+k)(1+k))

    and accumulated in double-double arithmetic: individual terms can be
    ~1e18 while the sum is O(1), so plain doubles (even with exact
    summation of rounded terms) are not accurate enough.
    """
    a1, a2, a3 = (float(p) for p in num)
    b1, b2 = den
    if not (a1.is_integer() and a1 <= 0.0):
        raise NonTerminatingError(f"leading parameter {a1} is not a nonpositive integer")
    n = int(-a1)
    if n > _MAX_TERMS:
        raise DomainError(f"series length {n + 1} exceeds supported maximum {_MAX_TERMS + 1}")
    for k in range(n):
        if b1 + k == 0.0 or b2 + k == 0.0:
            raise ZeroDenominatorError(f"denominator parameter hits zero at term {k + 1}")

    term = dd.dd_from(1.0)
    total = dd.dd_from(1.0)
    for k in range(n):
        term = dd.dd_mul_d(term, a1 + k)
        term = dd.dd_mul_d(term, a2 + k)
        term = dd.dd_mul_d(term, a3 + k)
        term = dd.dd_div_d(term, b1 + k)
        term = dd.dd_div_d(term, b2 + k)
        term = dd.dd_div_d(term, float(k + 1))
        total = dd.dd_add(total, term)
    return float(total[0] + total[1])


def _check_weight_exponents(alpha: float, beta: float) -> None:
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > -1.0):
            raise DomainError(f"{name} must be finite and greater than -1, got {value}")


def _exact_exponents(alpha: float, beta: float) -> tuple[int, int, int]:
    """Integers a, b and the least D > 0 with alpha = a/D and beta = b/D
    exactly: the common denominator of the weights' and the norms'
    integer products."""
    (a, da), (b, db) = float(alpha).as_integer_ratio(), float(beta).as_integer_ratio()
    D = math.lcm(da, db)
    return a * (D // da), b * (D // db), D


def _weights(alpha: float, beta: float, N: int, xs: range) -> list[float]:
    # alpha = a/D and beta = b/D exactly, so w(0) = prod_{j=1..N} (b + jD)
    # / (D^N N!) and w(x) / w(x-1) = (a + xD)(N - x + 1) / (x (b + (N-x+1) D)):
    # one running integer ratio, divided only at the points of xs, so a
    # point past the double range before xs refuses nothing
    a, b, D = _exact_exponents(alpha, beta)
    num = math.prod(b + j * D for j in range(1, N + 1))
    den = D**N * math.factorial(N)
    out = []
    for x in range(xs[-1] + 1):
        if x:
            num *= (a + x * D) * (N - x + 1)
            den *= x * (b + (N - x + 1) * D)
        if x >= xs[0]:
            # int true division rounds once, correctly, and raises
            # OverflowError past the double range
            try:
                out.append(num / den)
            except OverflowError:
                raise DomainError(f"weight w({x}) is not finite in double precision") from None
    return out


def binomial_weight(x: int, alpha: float, beta: float, N: int) -> float:
    """Weight C(alpha+x, x) * C(beta+N-x, N-x) at grid point x in 0..N.

    Each generalized binomial is the finite product prod (alpha+i)/i.
    alpha and beta are binary fractions a/D and b/D, so the weight is the
    integer quotient prod (a+iD) * prod (b+iD) / (D^N x! (N-x)!), which
    is rounded once and correctly.  Orthogonality defects are proportional
    to the weight error times the largest weight, which makes the last
    digits here matter.  A weight past the double range raises DomainError
    naming x, as do non-finite exponents and exponents not above -1.
    """
    _check_weight_exponents(alpha, beta)
    if not 0 <= x <= N:
        raise DomainError(f"grid point {x} outside 0..{N}")
    return _weights(alpha, beta, N, range(x, x + 1))[0]


"""Special-function building blocks: terminating 3F2 series at unit
argument and generalized-binomial weight products.
"""

from __future__ import annotations

import math

import numpy as np

from . import _compensated as dd
from .errors import DomainError, NonTerminatingError, ZeroDenominatorError

# series longer than this are outside the intended problem sizes
_MAX_TERMS = 200


def terminating_3f2(
    num: tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray],
    den: tuple[float, float],
) -> float | np.ndarray:
    """Sum of the hypergeometric series 3F2(num; den; 1), which must terminate.

    The first numerator parameter num[0] has to be a nonpositive integer -n;
    the series then has exactly n + 1 terms.  Terms are generated by the
    ratio update

        t_{k+1} = t_k * (a1+k)(a2+k)(a3+k) / ((b1+k)(b2+k)(1+k))

    and accumulated in double-double arithmetic: individual terms can be
    ~1e18 while the sum is O(1), so plain doubles (even with exact
    summation of rounded terms) are not accurate enough.

    The numerator parameters may be arrays; they broadcast together and
    every element is summed in one sweep of max(n) terms.  Past an
    element's own n its term is exactly zero (the factor a1 + k is 0), and
    adding a zero dd to a normalised dd changes nothing, so each element
    equals a call with that element alone, bit for bit.  The denominator
    parameters are scalars.  Scalar arguments return a float.
    """
    a1, a2, a3 = (np.asarray(p, dtype=float) if np.ndim(p) else p for p in num)
    b1, b2 = den
    lead = np.asarray(a1, dtype=float)
    bad = ~np.isfinite(lead) | (lead != np.round(lead)) | (lead > 0)
    if bad.any():
        raise NonTerminatingError(
            f"leading parameter {lead[bad][0]} is not a nonpositive integer"
        )
    n = int(-lead.min()) if lead.size else 0
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
    out = total[0] + total[1]
    return float(out) if np.ndim(out) == 0 else out


def _binomial_prefix_dd(a: float, k: int) -> list[dd.DD]:
    # C(a+i, i) = prod_{j=1..i} (a+j)/j for i = 0..k, as one running
    # product: entry i has the rounding of a product built for i alone
    out = [dd.dd_from(1.0)]
    for i in range(1, k + 1):
        step = dd.dd_mul(out[-1], dd.two_sum(a, float(i)))
        out.append(dd.dd_div_d(step, float(i)))
    return out


def _check_weight_exponents(alpha: float, beta: float) -> None:
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"weight needs alpha, beta > -1, got ({alpha}, {beta})")


def _weights(alpha: float, beta: float, N: int, xs: range) -> list[float]:
    if float(alpha).is_integer() and float(beta).is_integer() and alpha >= 0 and beta >= 0:
        a = int(alpha)
        b = int(beta)
        return [float(math.comb(a + x, x) * math.comb(b + N - x, N - x)) for x in xs]
    left = _binomial_prefix_dd(alpha, xs[-1])
    right = _binomial_prefix_dd(beta, N - xs[0])
    out = []
    for x in xs:
        prod = dd.dd_mul(left[x], right[N - x])
        out.append(prod[0] + prod[1])
    return out


def binomial_weight(x: int, alpha: float, beta: float, N: int) -> float:
    """Weight C(alpha+x, x) * C(beta+N-x, N-x) at grid point x in 0..N.

    For integer alpha, beta this is an exact binomial product (computed in
    integer arithmetic and converted once); otherwise each generalized
    binomial is the finite product prod (alpha+i)/i, accumulated in
    double-double so the returned value is correctly rounded for practical
    purposes.  Orthogonality defects are proportional to the weight error
    times the largest weight, which makes the last digits here matter.
    """
    _check_weight_exponents(alpha, beta)
    if not 0 <= x <= N:
        raise DomainError(f"grid point {x} outside 0..{N}")
    return _weights(alpha, beta, N, range(x, x + 1))[0]


def binomial_weights(alpha: float, beta: float, N: int) -> list[float]:
    """Weights w(0) .. w(N), each equal to `binomial_weight` bit for bit.

    Both generalized binomials come from one running prefix product each,
    so the whole grid costs O(N) dd steps instead of O(N^2).
    """
    _check_weight_exponents(alpha, beta)
    if N < 0:
        raise DomainError(f"grid size {N} is negative")
    return _weights(alpha, beta, N, range(N + 1))

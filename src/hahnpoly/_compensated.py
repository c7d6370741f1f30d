"""Double-double ("dd") compensated arithmetic on unevaluated float pairs.

A dd number is a pair (hi, lo) with hi + lo representing the value and
|lo| <= ulp(hi)/2, giving roughly 32 significant digits.  The recurrence
and series sweeps in this package accumulate through tens of steps whose
intermediate terms can exceed 1e18 while the result stays O(1); plain
doubles lose everything there, dd keeps ~1e-15 relative accuracy.

Only the handful of operations the evaluators need are provided.  All of
them rely on round-to-nearest IEEE doubles; no fma is assumed.  Two dd
sweeps run over the classical rows (`HahnBasis.series`, a_n, r_n and g_n
in dd), without a division.  `dd_clenshaw_sweep`, Clenshaw's backward
recurrence that gives sum_n k_n Q_n(x) without forming the Q_n, is the
composition of the primitives, so every product splits through `split`,
which scales an operand above 2^996 before splitting it.  One fused
kernel is left, `dd_three_term_sweep`, the upward recurrence that gives
Q_1(x) .. Q_m(x) in `hahn.hahn_eval_all`: it makes the composition's
operations in one loop, reads the rows' split columns and splits inline,
unscaled, so its levels above about 1.3e300 are NaN.  It goes with the
per-point grid, which is left at N <= 12 only (ROADMAP item 17), and the
forward route (ROADMAP item 2).

Off the grid nodes the package sums a series through `clenshaw_sum`,
which reads orthonormal coefficients only (its caller converts a
classical vector once), runs one of two sweeps and meets one contract,
2 eps S(x) against the exact sum.  Where numpy's long double is x87 extended (a 64-bit
significand and a 15-bit exponent, as on x86-64 Linux), points at least
`NEAR_NODE` from every grid node take `ld_clenshaw_sweep`: the
orthonormal series summed in monic form over the Jacobi rows d_n, p_n
and h_0 (`HahnBasis.monic_rows`, each rounded once to long double), five
long double array operations a step against about 107 in dd, with no
norm, no series row and no split.  Every other point, and every point
elsewhere (a double long double on MSVC or macOS arm64, binary128, IBM
double-double), takes `dd_clenshaw_sweep` over the series rows and the
norms: the monic scales pass the double range (sqrt(h_0) S_N is 2.5e315
for (0, 0) at N = 200), so the monic form has no dd twin.  Within
`NEAR_NODE` of node 0 the dd sum is anchored on that node, whose
Q_n(0) = 1 are known exactly.
`EXTENDED` holds the platform's answer, found once at import by
arithmetic: 1 + 2^-63 must differ from 1 and the tie 1 + 2^-64 must
round back to 1.  Neither the platform rule nor `NEAR_NODE` is an
option of any caller.

Every exact sum in the package is `exact_sum`, the one owner of what a
sum is when it has no double value: +-inf past the double range, NaN for
-inf + inf or a NaN term, as Python float arithmetic gives them.  Its
exact rounding, `_quotient`, also rounds the exact norms and the oracle's
ratios.  `exact_row_sums` gives exact_sum's bits for every row of a
product matrix at once (projections, node values, Legendre
coefficients): it splits blocks of rows by error-free extraction, with
one sigma per block and right-hand side, and rounds each row where a
certificate proves the rounding, and hands every other row, a candidate
of 0 among them, to exact_sum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Dekker split constant for 53-bit doubles
# above this _SPLIT * a can overflow: such an operand is split scaled by
# 2^-28 and its parts scaled back (Hida, Li & Bailey, ARITH-15, 2001)
_SPLIT_MAX = 2.0**996
_SPLIT_DOWN = 2.0**-28

DD = tuple[float, float]


def _quotient(num: int, den: int) -> float:
    """num / den rounded once to a double, for den > 0.  Int true division
    rounds correctly, as float(Fraction) does; past the double range it
    raises OverflowError, and the value is read as inf with the sign of
    num: a norm is then inf, and an exact check value fails its check."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def exact_sum(terms: list[float]) -> float:
    """The exact sum of a list of floats, rounded once: +-inf past the
    double range, NaN for -inf + inf or a NaN term, whatever the order of
    the terms.  `math.fsum` (Shewchuk, 1997) gives it wherever it returns.
    It refuses -inf + inf with ValueError, and it raises OverflowError
    whenever a running partial sum leaves the double range, even where the
    total does not.  There the infinite terms decide, if there are any;
    otherwise the terms are summed as Fractions and rounded once."""
    try:
        return math.fsum(terms)
    except ValueError:
        return math.nan
    except OverflowError:
        pass
    special = [t for t in terms if not math.isfinite(t)]
    if special:
        # only +-inf and NaN: fsum cannot overflow on these
        return exact_sum(special)
    from fractions import Fraction

    total = sum(map(Fraction, terms))
    return _quotient(total.numerator, total.denominator)


# up to this many products the per-row sums cost less than the array
# passes: near 2500 both take about 140 us, at 31 x 31 the rows take
# 55-60 us against 110-125 us
_ROW_SUM_CUT = 2500
# product rows per extraction block, which share one sigma: a whole-matrix
# pass would hold two (m+1) x (N+1) temporaries at once, and a smaller
# block fits sigma closer to each row but makes more passes
_ROW_BLOCK = 64


@np.errstate(over="ignore", invalid="ignore")
def exact_row_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exact_sum of each row's products, for a of shape (r, n) and b of
    shape (n,) or (k, n): entry i, or (j, i), is exact_sum((a[i] *
    b[j]).tolist()), to the bit.

    Up to `_ROW_SUM_CUT` products that is how each row is summed.  Above
    it the products are split by error-free extraction (Rump, Ogita &
    Oishi, SIAM J. Sci. Comput. 31, 2008), a block of rows of a and one
    right-hand side b[j] at a time, so that stacked right-hand sides of
    different scales (u and L^3 u) each get their own sigma; each row's
    sum is rounded where a certificate proves the rounding: see `_extract`
    and `_certify`.  Every other row takes exact_sum; so does a row whose
    candidate is 0, and every row of a block that is not finite or lies
    near either end of the exponent range.  A product past the double
    range is inf or nan, with no warning, and so is its row's sum.
    """
    rows = b.reshape(-1, 1, b.shape[-1])
    if len(rows) * a.size <= _ROW_SUM_CUT:
        # one product array and one list pass: numpy rows one at a time
        # cost more than the sums
        sums = [exact_sum(row) for row in (a * rows).reshape(-1, a.shape[1]).tolist()]
        return np.array(sums).reshape(b.shape[:-1] + (len(a),))
    out = np.empty((len(rows), len(a)))
    parts = np.empty((5, len(rows), len(a)))
    for j, row in enumerate(rows):
        for i in range(0, len(a), _ROW_BLOCK):
            _extract(a[i: i + _ROW_BLOCK] * row, parts[:, j, i: i + _ROW_BLOCK])
    certified = _certify(parts.reshape(5, -1), a.shape[1], out.reshape(-1))
    if not certified.all():
        # a list pass, not numpy masks (see hahn._check_degree)
        for f, good in enumerate(certified.tolist()):
            if not good:
                j, i = divmod(f, len(a))
                out[j, i] = exact_sum((a[i] * rows[j, 0]).tolist())
    return out.reshape(b.shape[:-1] + (len(a),))


def _extract(p: np.ndarray, parts: np.ndarray) -> None:
    """Three extraction passes over the products p, a block of rows, which
    is overwritten: parts receives, for each row, the block's max|p|, the
    exact partial sums tau1, tau2, tau3 and fl(sum|R|), R the remainders
    left.

    With max|p| < 2^e over the block and 2^M >= n + 2, sigma = 2^(e+M) and
    q = (sigma + p) - sigma, the q are multiples of 2^-53 sigma of size at
    most 2^e, so each row's sum tau is exact in any order, and so is
    p - q; sigma then shrinks by 2^(M-53).  The lemma holds for any sigma
    of at least 2^M max|p|, so one scalar serves the whole block: a
    broadcast sigma column costs about three times a scalar pass."""
    n = p.shape[-1]
    M = (n + 1).bit_length()
    scratch = np.abs(p)
    mu = parts[0] = scratch.max()
    with np.errstate(all="ignore"):
        # a sigma out of the double range only comes with a refused block
        sigma = np.ldexp(1.0, np.frexp(mu)[1] + M)
        for tau in parts[1:4]:
            q = np.add(p, sigma, out=scratch)
            q -= sigma
            p -= q
            tau[...] = q.sum(axis=-1)
            sigma *= 2.0 ** (M - 53)
        parts[4] = np.abs(p, out=p).sum(axis=-1)


def _certify(parts: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Writes each row's candidate to out, from the parts of `_extract`,
    and returns whether it is the exact sum rounded to nearest even.

    The exact sum is tau1 + tau2 + tau3 + sum R.  Three TwoSums give
    tau1 + tau2 + tau3 = r + t + ev exactly, so the sum is r + t + D with
    |D| <= |ev| + sum|R| <= delta / 2, delta = 2 (|ev| + 2 fl(sum|R|)).
    r is the rounded sum when delta is 0, or when t +- delta stays
    strictly inside the half gaps to r's neighbours: rounding is monotone,
    so a float comparison with an exact half gap cannot pass where the
    real one fails.  Ties with delta > 0 are not certified.  A row is
    refused unless every sigma of its block and 2^-53 sigma is a normal,
    finite double: 2^(lo-1) <= max|p| < 2^hi over the block, which NaN,
    inf and 0 fail.  A candidate of 0 is refused too: the passes give a
    row of zeros +0 whatever their signs, and the sign of a zero sum is
    exact_sum's to decide."""
    mu, tau1, tau2, tau3, rsum = parts
    M = (n + 1).bit_length()
    lo, hi = 159 - 1022 - 3 * M, 1020 - M
    with np.errstate(all="ignore"):
        s12, e12 = two_sum(tau1, tau2)
        v, ev = two_sum(e12, tau3)
        r, t = two_sum(s12, v)
        delta = 2.0 * (abs(ev) + 2.0 * rsum)
        up = (np.nextafter(r, math.inf) - r) / 2.0
        down = (r - np.nextafter(r, -math.inf)) / 2.0
        out[...] = r
        return ((mu >= 2.0 ** (lo - 1)) & (mu < 2.0**hi) & (r != 0.0)
                & ((delta == 0.0) | ((t + delta < up) & (t - delta > -down))))


def two_sum(a: float, b: float) -> DD:
    # Knuth: exact error of a float addition, no magnitude ordering assumed
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float) -> DD:
    # valid only when |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a: float, b: float) -> DD:
    # Dekker: exact error of a float multiplication, from the splits of
    # both operands (`split` scales an operand above 2^996)
    p = a * b
    (ahi, alo), (bhi, blo) = split(a), split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def dd_add(x: DD, y: DD) -> DD:
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x: DD, y: DD) -> DD:
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_mul_d(x: DD, d: float) -> DD:
    p, e = two_prod(x[0], d)
    e += x[1] * d
    return quick_two_sum(p, e)


def dd_div(x: DD, y: DD) -> DD:
    # one Newton correction on the float quotient is enough for dd accuracy
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul_d(y, q1))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul_d(y, q2))
    q3 = r[0] / y[0]
    s, e = quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


def dd_div_d(x: DD, d: float) -> DD:
    return dd_div(x, (d, 0.0))


def dd_from(d: float) -> DD:
    return (d, 0.0)


def split(a):
    """Dekker's split of a into hi + lo, each with at most 26 significant
    bits, so that products of the parts are exact.  a is a float or a
    float array.  One formula serves both: with b = a s and
    hi = t - (t - b), t = _SPLIT b, the parts are hi / s and (b - hi) / s,
    where s = 2^-28 above 2^996 in magnitude, so the split does not
    overflow, and s = 1 elsewhere.  Scaling by a power of two commutes
    with rounding, so wherever the plain split is finite the scaled one
    has its bits.  An array is therefore scaled only when its plain split
    is not finite, and that trial raises no warning: the mask would map
    more numpy code into every process (see hahn._check_degree)."""
    if isinstance(a, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            t = _SPLIT * a
            hi = t - (t - a)
            if (hi - hi).sum() == 0.0:
                return hi, a - hi
        s = np.where(abs(a) > _SPLIT_MAX, _SPLIT_DOWN, 1.0)
    else:
        s = _SPLIT_DOWN if abs(a) > _SPLIT_MAX else 1.0
    b = a * s
    t = _SPLIT * b
    hi = t - (t - b)
    return hi / s, (b - hi) / s


def dd_three_term_sweep(rows, x, out) -> DD:
    """The upward recurrence y_{n+1} = (a_n - r_n x) y_n - g_n y_{n-1} from
    y_0 = 1 and y_{-1} = 0, one step per row of rows; returns the last dd
    level and writes each new level y_{i+1}, rounded to a double, to
    out[i].  rows are the first m rows of `HahnBasis.series`, as
    `dd_clenshaw_sweep` reads them, so the levels are Q_1(x) .. Q_m(x).
    x may be a float array; the rows are shared by every point.

    Each step makes the operations of
    dd_sub(dd_mul(dd_sub(a, dd_mul_d(r, x)), y_n), dd_mul(g, y_{n-1}))
    in the same order, so every level has the bits of that composition.
    There is no division: x is split once, the splits of r and g come
    with the row, and each level's high part is split once, then reused
    when it becomes the previous level.  A negation is folded only where
    the bits cannot change: b + (-c) is b - c, signed zeros included.
    """
    t = _SPLIT * x
    xhi = t - (t - x)
    xlo = x - xhi
    c0, c1, chi, clo = 1.0, 0.0, 1.0, 0.0
    p0 = p1 = phi = plo = 0.0
    for i, (a0, a1, r0, r1, rhi, rlo, g0, g1, ghi, glo) in enumerate(rows):
        # rx = r * x  (dd_mul_d)
        m0 = r0 * x
        e = ((rhi * xhi - m0) + rhi * xlo + rlo * xhi) + rlo * xlo
        e += r1 * x
        s = m0 + e
        m1 = e - (s - m0)
        # w = a - rx  (dd_sub)
        nm = -s
        s = a0 + nm
        bb = s - a0
        e = (a0 - (s - bb)) + (nm - bb)
        e += a1 - m1
        w0 = s + e
        w1 = e - (w0 - s)
        # u = w * y_n  (dd_mul)
        u0 = w0 * c0
        t = _SPLIT * w0
        hi = t - (t - w0)
        lo = w0 - hi
        e = ((hi * chi - u0) + hi * clo + lo * chi) + lo * clo
        e += w0 * c1 + w1 * c0
        s = u0 + e
        u1 = e - (s - u0)
        u0 = s
        # v = g * y_{n-1}  (dd_mul)
        v0 = g0 * p0
        e = ((ghi * phi - v0) + ghi * plo + glo * phi) + glo * plo
        e += g0 * p1 + g1 * p0
        s = v0 + e
        v1 = e - (s - v0)
        # y_{n+1} = u - v  (dd_sub)
        nv = -s
        s = u0 + nv
        bb = s - u0
        e = (u0 - (s - bb)) + (nv - bb)
        e += u1 - v1
        y0 = s + e
        y1 = e - (y0 - s)
        out[i] = y0 + y1
        p0, p1, phi, plo = c0, c1, chi, clo
        c0, c1 = y0, y1
        t = _SPLIT * c0
        chi = t - (t - c0)
        clo = c0 - chi
    return c0, c1


def dd_clenshaw_sweep(rows, ks, x, from_zero=False) -> DD:
    """Clenshaw's backward recurrence for sum_{n=0..m} k_n Q_n(x), where
    Q_0 = 1 and Q_{n+1} = (a_n - r_n x) Q_n - g_n Q_{n-1}: with
    y_{m+1} = y_{m+2} = 0,

        y_n = k_n + (a_n - r_n x) y_{n+1} - g_{n+1} y_{n+2},  n = m..0,

    and the sum is y_0, returned as a dd pair.  ks holds the dd k_0 .. k_m
    and rows the first m rows of `HahnBasis.series`, of which a step reads
    the dd a_n, r_n and g_n (row[0:2], row[2:4], row[6:8]).  x may be a
    float array; k and the rows are shared by every point.

    Each step is the composition
    dd_add(k, dd_sub(dd_mul(dd_sub(a, dd_mul_d(r, x)), y1), dd_mul(g, y2))),
    so every product splits its operands through `split`, and a level
    above 2^996 is split scaled instead of turning NaN.  g_m multiplies
    y_{m+1} = 0, and row m may not exist, so the first step's g is zero.

    At a point where from_zero (a bool, or a bool array shaped like x) is
    true, the sum is anchored on node 0 instead: it is
    sum_n k_n - x sum_{n<m} r_n y_{n+1}, exact algebra for rows with
    Q_n(0) = 1, as the Hahn rows are, since e_n = Q_n(x) - Q_n(0) obeys
    the recurrence with the source -r_n x.  Near node 0, where Q_n(x) is
    the minimal solution, y_0 is a cancelling sum of levels far above it;
    the anchored form multiplies their rounding by |x|.
    """
    anchored = bool(np.any(from_zero))
    y1, y2, g, slope = ks[-1], (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)
    for row, k in zip(reversed(rows), reversed(ks[:-1])):
        if anchored:
            slope = dd_add(slope, dd_mul(row[2:4], y1))
        w = dd_sub(row[0:2], dd_mul_d(row[2:4], x))
        y1, y2, g = dd_add(k, dd_sub(dd_mul(w, y1), dd_mul(g, y2))), y1, row[6:8]
    if not anchored:
        return y1
    at_zero = dd_sub(functools.reduce(dd_add, ks), dd_mul_d(slope, x))
    return np.where(from_zero, at_zero[0], y1[0]), np.where(from_zero, at_zero[1], y1[1])


def ld_clenshaw_sweep(rows, u, x):
    """sum_{n=0..m} u_n Q~_n(x) over the orthonormal Q~_n, in numpy's
    long double: a long double at a float x, or an array of them at a
    float array x.  rows are `HahnBasis.monic_rows`, the long double
    Jacobi rows d_n, p_n and h_0, and u holds u_0 .. u_m as long doubles.

    The monic P_n = sqrt(h_0) S_n Q~_n, with S_n = prod_(j<n) sqrt(p_j),
    obey P_(n+1) = (d_n - t) P_n - p_(n-1) P_(n-1) from P_0 = 1 (Gautschi,
    Orthogonal Polynomials: Computation and Approximation, OUP 2004,
    ch. 1).  So with k_n = u_n / (sqrt(h_0) S_n), S_n one long double
    cumulative product, y_m = k_m and y_(m+1) = 0, each step is one
    expression of five operations,

        y_n = k_n + ((d_n - t) y_(n+1) - p_n y_(n+2)),  n = m-1..0,

    and the sum is y_0: no norm, no square root and no division in the
    loop.  numpy makes it on a long double scalar as on each point of an
    array, so an array point gets the bits of a one-point call.  Meant
    for an x87 extended long double (`EXTENDED`): sqrt(h_0) S_N reaches
    2.5e315 for (0, 0) at N = 200, which its 15-bit exponent holds and a
    double does not."""
    d, p, h0 = rows
    m = len(u) - 1
    ld = np.longdouble
    k = u / np.multiply.accumulate(np.sqrt(np.concatenate(([h0], p[:m]))))
    # a point as a long double scalar: a 0-d array takes twice as long a step
    t = ld(x) if np.ndim(x) == 0 else np.asarray(x, dtype=ld)
    y1, y2 = k[m], ld(0.0)
    for d_n, p_n, k_n in zip(d[:m][::-1], p[:m][::-1], k[:m][::-1]):
        y1, y2 = k_n + ((d_n - t) * y1 - p_n * y2), y1
    return y1


def _has_extended_long_double() -> bool:
    # a 64-bit significand: 1 + 2^-63 is exact, and the tie 1 + 2^-64
    # rounds to even, back to 1.  A long double that is a double (MSVC,
    # macOS arm64) fails the first, binary128 and IBM double-double the
    # second
    one = np.longdouble(1.0)
    return bool(one + np.longdouble(2.0**-63) != one and one + np.longdouble(2.0**-64) == one)


# whether `clenshaw_sum` runs in long double; decided once, by arithmetic
EXTENDED = _has_extended_long_double()
# points nearer a grid node than this take the dd sweep on every platform:
# there the sum is as sensitive to the last bits of the rows and steps as
# 1 / distance, and a 64-bit significand misses 2 eps S(x) closer in (the
# long double sweep reads 1.5 eps S(x) at 1/64 of a node and 5.7 at 1/256
# on the README's lattice scan)
NEAR_NODE = 1.0 / 16.0


def clenshaw_sum(basis, u: np.ndarray, x, *, near_node: bool):
    """sum_{n=0..m} u_n Q~_n(x) over the orthonormal coefficients u,
    rounded once to a double, at a float x or at each point of a float
    array x, for the family of basis, its `hahn.HahnBasis`.  near_node
    says that every point of x lies within `NEAR_NODE` of a grid node.

    Where numpy's long double is x87 extended (`EXTENDED`) and x is not
    near a node, the sweep is `ld_clenshaw_sweep` over `basis.monic_rows`
    and the sum is rounded once from long double; it reads no series row
    and no norm.  Elsewhere it is `dd_clenshaw_sweep` over `basis.series`,
    with k_n = u_n / ||Q_n|| from `dd_div`, and the sum is hi + lo; near
    node 0 (near_node and x < 0.5) the dd sum is anchored on the node
    (`dd_clenshaw_sweep`'s from_zero).  The route is the platform's and
    the point's, not the caller's, and either meets the same contract:
    within 2 eps S(x) of the exact sum of k_n Q_n(x),
    S(x) = sum_n |k_n| max_(j<=n) |Q_j(x)|, for the k_n of the stored
    doubles and norms, levels past 2^996 included.  A sum that is not
    finite is NaN, with no warning on either route: an inf in a dd sweep
    meets inf - inf, and the rounded long double sum y becomes y + y * 0,
    which is NaN for +-inf and y itself, signed zero included, for every
    finite y."""
    with np.errstate(over="ignore", invalid="ignore"):
        if EXTENDED and not near_node:
            y = ld_clenshaw_sweep(basis.monic_rows, u.astype(np.longdouble), x).astype(float)
            return y + y * 0.0
        k = dd_div((u, np.zeros_like(u)), (basis.sqrt_norms[: len(u)], 0.0))
        ks = list(zip(k[0].tolist(), k[1].tolist()))
        hi, lo = dd_clenshaw_sweep(basis.series[: len(u) - 1], ks, x, near_node and np.less(x, 0.5))
        return hi + lo

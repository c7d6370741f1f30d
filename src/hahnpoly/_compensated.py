"""Double-double ("dd") compensated arithmetic on unevaluated float pairs.

A dd number is a pair (hi, lo) with hi + lo representing the value and
|lo| <= ulp(hi)/2, giving roughly 32 significant digits.  The recurrence
and series sweeps in this package accumulate through tens of steps whose
intermediate terms can exceed 1e18 while the result stays O(1); plain
doubles lose everything there, dd keeps ~1e-15 relative accuracy.

Only the handful of operations the evaluators need are provided.  All of
them rely on round-to-nearest IEEE doubles; no fma is assumed.
"""

from __future__ import annotations

_SPLIT = 134217729.0  # 2**27 + 1, Dekker split constant for 53-bit doubles

DD = tuple[float, float]


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
    # Dekker split: exact error of a float multiplication
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
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


def dd_three_term_step(A: DD, AC: DD, C: DD, x, cur: DD, prev: DD) -> DD:
    """((AC - x) cur - C prev) / A for AC = A + C: one upward step of a
    three-term recurrence.

    The operations of
    dd_div(dd_sub(dd_mul(dd_sub(AC, dd_from(x)), cur), dd_mul(C, prev)), A)
    written out in the same order with no helper calls, so the result is
    the same to the bit.  Left out are additions of -0.0 (exact no-ops)
    and the unused low part of the last residual; the split of A is made
    once for both products with it.
    x, cur and prev may be float arrays of one shape; A, AC and C are
    float pairs.
    """
    # w = AC - x  (dd_sub: two_sum, then quick_two_sum)
    a0 = AC[0]
    nx = -x
    s = a0 + nx
    bb = s - a0
    e = (a0 - (s - bb)) + (nx - bb)
    e += AC[1]
    w0 = s + e
    w1 = e - (w0 - s)
    # u = w * cur  (dd_mul)
    c0, c1 = cur
    u0 = w0 * c0
    t = _SPLIT * w0
    hi = t - (t - w0)
    lo = w0 - hi
    t = _SPLIT * c0
    bhi = t - (t - c0)
    blo = c0 - bhi
    e = ((hi * bhi - u0) + hi * blo + lo * bhi) + lo * blo
    e += w0 * c1 + w1 * c0
    s = u0 + e
    u1 = e - (s - u0)
    u0 = s
    # v = C * prev  (dd_mul)
    p0, p1 = prev
    k0 = C[0]
    v0 = k0 * p0
    t = _SPLIT * k0
    hi = t - (t - k0)
    lo = k0 - hi
    t = _SPLIT * p0
    bhi = t - (t - p0)
    blo = p0 - bhi
    e = ((hi * bhi - v0) + hi * blo + lo * bhi) + lo * blo
    e += k0 * p1 + C[1] * p0
    s = v0 + e
    v1 = e - (s - v0)
    # q = u - v  (dd_sub)
    nv = -s
    s = u0 + nv
    bb = s - u0
    e = (u0 - (s - bb)) + (nv - bb)
    e += u1 + -v1
    q0 = s + e
    q1 = e - (q0 - s)
    # q / A  (dd_div: three float quotients, two dd residuals)
    d0, d1 = A
    t = _SPLIT * d0
    dhi = t - (t - d0)
    dlo = d0 - dhi
    y1 = q0 / d0
    # r = q - A * y1  (dd_mul_d, then dd_sub)
    m0 = d0 * y1
    t = _SPLIT * y1
    bhi = t - (t - y1)
    blo = y1 - bhi
    e = ((dhi * bhi - m0) + dhi * blo + dlo * bhi) + dlo * blo
    e += d1 * y1
    s = m0 + e
    m1 = e - (s - m0)
    nm = -s
    s = q0 + nm
    bb = s - q0
    e = (q0 - (s - bb)) + (nm - bb)
    e += q1 + -m1
    q0 = s + e
    q1 = e - (q0 - s)
    y2 = q0 / d0
    # r = r - A * y2
    m0 = d0 * y2
    t = _SPLIT * y2
    bhi = t - (t - y2)
    blo = y2 - bhi
    e = ((dhi * bhi - m0) + dhi * blo + dlo * bhi) + dlo * blo
    e += d1 * y2
    s = m0 + e
    m1 = e - (s - m0)
    nm = -s
    s = q0 + nm
    bb = s - q0
    e = (q0 - (s - bb)) + (nm - bb)
    e += q1 + -m1
    q0 = s + e
    y3 = q0 / d0
    s = y1 + y2
    e = y2 - (s - y1)
    # (s, e) + (y3, 0)  (dd_add)
    s2 = s + y3
    bb = s2 - s
    e2 = (s - (s2 - bb)) + (y3 - bb)
    e2 += e + 0.0
    r0 = s2 + e2
    return r0, e2 - (r0 - s2)

"""Polynomial kernels.

Low-level polynomial primitives shared by the root machinery: Horner
evaluation, Taylor shifts and sign-variation counting, plus the
bisection/Newton refinement loops.  Coefficients are plain lists of floats in
ascending degree order.
"""

# An evaluation smaller than this multiple of its own Horner magnitude sum
# has no sure sign: at that size the true sign is unknowable in double
# precision and "x sits on a root" is the accurate reading.  An absolute
# cutoff is wrong here: subnormal-range coefficients produce honest values
# far below any fixed threshold.
EVAL_GUARD = 1e-14

_TRIM_TOL = 1e-14


def horner(c, x):
    acc = 0.0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def poly_derivative(c):
    n = len(c)
    if n <= 1:
        return [0.0]
    return [k * c[k] for k in range(1, n)]


def trim_coeffs(c):
    """Drop leading-degree coefficients below _TRIM_TOL * max|c|."""
    m = max(map(abs, c), default=0.0)
    if m == 0.0:
        return [0.0]
    cut = _TRIM_TOL * m
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= cut:
        n -= 1
    return [float(c[k]) for k in range(n)]


def shifted_coeffs(c, x0):
    """Coefficients of P(x0 + h) in h; entry k equals P^(k)(x0) / k!.

    The arithmetic is that of the entries: floats, or integers for an
    exact shift."""
    a = list(c)
    n = len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a[j] += x0 * a[j + 1]
    return a


def _dyadic(values):
    # the plain floats values as integers over one common power of two:
    # (ints, e) with values[i] == ints[i] / 2**e exactly
    ratios = [v.as_integer_ratio() for v in values]
    e = max(den.bit_length() for _, den in ratios) - 1
    return [num << (e - den.bit_length() + 1) for num, den in ratios], e


def sign_changes(vals):
    # sign changes along vals, zeros skipped; floats or integers
    prev = 0
    count = 0
    for v in vals:
        if v == 0:
            continue
        s = 1 if v > 0.0 else -1
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def bisect_refine(c, lo, hi, lo_positive, rel_width):
    """Shrink a sign-change bracket (lo, hi) by bisection until its width
    is at most rel_width of its larger end in magnitude, or its ends are
    adjacent doubles.

    The width is relative, also near zero: a root of size 1e-100 is placed
    to rel_width of itself, not to rel_width.  lo_positive gives the sign
    of P on the lo side.  Returns the final bracket; collapses to (r, r) on
    an exact hit.
    """
    while (hi - lo) > rel_width * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        v = horner(c, mid)
        if v == 0.0:
            return mid, mid
        if (v > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def newton_polish(c, dc, x0, lo, hi, max_steps):
    """Newton steps from x0 constrained to [lo, hi]; on divergence the last
    in-bracket iterate (possibly x0 itself) is returned."""
    x = x0
    for _ in range(max_steps):
        df = horner(dc, x)
        if df == 0.0:
            break
        step = horner(c, x) / df
        xn = x - step
        if xn < lo or xn > hi or xn == x:
            break
        x = xn
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x

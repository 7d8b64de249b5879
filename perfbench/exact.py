"""Exact rational algebra for the reference checks.

Everything here works on Fractions and Python integers, so the reference
answers share no floating-point code with the program: the solution line
is solved exactly from the float moments the program received, and the
restricted discriminant D(t) of that line is interpolated exactly from
integer resultants.
"""

import math
from fractions import Fraction


def _bareiss_det(m):
    """Determinant of a square integer matrix, fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(m):
    """Exact determinant of a square matrix of Fractions."""
    if not m:
        return Fraction(1)
    den = math.lcm(*(v.denominator for row in m for v in row))
    ints = [[int(v * den) for v in row] for row in m]
    return Fraction(_bareiss_det(ints), den ** len(m))


def _solve(m, rhs):
    """Exact solution of the square system m x = rhs (Gauss-Jordan)."""
    n = len(m)
    a = [list(row) + [r] for row, r in zip(m, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


def hankel(mu):
    """d x d Hankel matrix (mu_{i+j}) of mu_0..mu_{2d-2}, as Fractions."""
    m = [Fraction(float(v)) for v in mu]
    d = (len(m) + 1) // 2
    return [[m[i + j] for j in range(d)] for i in range(d)]


def line(mu):
    """Exact solution line sigma(t) = base + t * slope of the moments.

    sigma_j (j = 1..d) is the coefficient of z^(d-j) of the monic node
    polynomial.  The d moment equations are
    sum_j mu_{k+j} sigma_{d-j} = -mu_{k+d} for k < d-1, and = t for k = d-1.
    """
    m = [Fraction(float(v)) for v in mu]
    d = (len(m) + 1) // 2
    h = hankel(mu)
    rhs = [-m[k + d] for k in range(d - 1)]
    rev0 = _solve(h, rhs + [Fraction(0)])
    rev1 = _solve(h, [Fraction(0)] * (d - 1) + [Fraction(1)])
    return rev0[::-1], rev1[::-1]


def _disc_monic(coeffs):
    """Standard discriminant of the monic polynomial with ascending
    Fraction coefficients ``coeffs`` (leading entry 1)."""
    n = len(coeffs) - 1
    den = math.lcm(*(v.denominator for v in coeffs))
    p = [int(v * den) for v in coeffs]  # p = den * Q, lead(p) = den
    dp = [k * p[k] for k in range(1, n + 1)]
    size = 2 * n - 1
    syl = []
    pd, qd = p[::-1], dp[::-1]
    for i in range(n - 1):
        syl.append([0] * i + pd + [0] * (size - i - len(pd)))
    for i in range(n):
        syl.append([0] * i + qd + [0] * (size - i - len(qd)))
    res = _bareiss_det(syl)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    # Disc(p) = sign * Res(p, p') / lead(p) and Disc(p) = den^(2n-2) Disc(Q)
    return Fraction(sign * res, den ** (2 * n - 1))


def restricted_discriminant(base, slope):
    """Ascending exact coefficients of D(t) = Disc(z^d + sigma_1(t) z^(d-1)
    + ... + sigma_d(t)), a polynomial of degree at most 2d-2."""
    d = len(base)
    n = 2 * d - 1
    ts = [Fraction(k - (d - 1)) for k in range(n)]
    vals = []
    for t in ts:
        sig = [b + t * s for b, s in zip(base, slope)]
        vals.append(_disc_monic(sig[::-1] + [Fraction(1)]))
    # Newton divided differences, then expansion to the monomial basis
    coef = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (ts[i] - ts[i - j])
    poly = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # poly = poly * (t - ts[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - ts[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def evaluate(poly, t):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def _sign(v):
    return (v > 0) - (v < 0)


def _rem(num, den):
    num = list(num)
    while len(num) >= len(den) and any(num):
        f = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= f * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _primitive(poly):
    """Positive multiple of poly with coprime integer coefficients; the
    sign pattern a Sturm count reads is unchanged."""
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    return [Fraction(v // g) for v in ints]


def sturm_chain(poly):
    poly = _primitive(poly)
    chain = [poly, _primitive([k * poly[k] for k in range(1, len(poly))])]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(signs):
    s = [v for v in signs if v != 0]
    return sum(1 for a, b in zip(s, s[1:]) if a != b)


def count_real_roots(chain, a=None, b=None):
    """Distinct real roots in (a, b]; None stands for -inf / +inf."""
    def at(x, upper):
        if x is None:
            return [_sign(p[-1]) * (1 if upper or (len(p) - 1) % 2 == 0 else -1)
                    for p in chain]
        return [_sign(evaluate(p, x)) for p in chain]

    return _variations(at(a, False)) - _variations(at(b, True))


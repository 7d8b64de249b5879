"""Real-root machinery for univariate polynomials.

A polynomial is a plain sequence of its coefficients in ascending degree
order.  Budan-Fourier sign-variation bounds, root isolation and refinement.

Root isolation (:func:`real_roots`, degree n >= 3) certifies its roots from
the real eigenvalues of the companion matrix: each seed gets a bracket on
which P changes sign for sure (|P| at both ends above the kernels' rounding
guard ``_kernels.EVAL_GUARD`` of its Horner magnitude sum), never wider than
half the gap to a neighbouring seed.  n such disjoint brackets prove n
simple real roots, one each, and Newton from the seed, kept inside the
bracket, refines it.  Only when the seeds fall short does Rolle's theorem
count the roots: P is monotone between consecutive real roots of P', so
each such piece holds a root exactly when P changes sign across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K

__all__ = [
    "SignVariation",
    "sign_variation",
    "budan_fourier_bound",
    "is_hyperbolic",
    "hyperbolic_roots",
    "real_roots",
]

# A bracket that Newton does not resolve is bisected until its width is at
# most this share of its larger end in magnitude, before Newton polishing.
_BISECT_RELWIDTH = 1e-10
_NEWTON_STEPS = 5
# Seeded isolation: the first bracket around a companion eigenvalue reaches
# this relative distance from it, and each widening multiplies the distance
# by _SEED_GROWTH.
_SEED_WIDTH = 1e-10
_SEED_GROWTH = 16.0
# Double precision places a double root to about sqrt(eps).  A computed root
# therefore leaves |P| below this share of its Horner magnitude sum; more
# than that is an artefact of rounding, not a root.
_ROOT_REL = 1.5e-8
# Horner's rounding error bound: computed P(x) is within deg P * _EPS of the
# Horner magnitude sum of the exact value.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SignVariation:
    """Sign-variation count of the derivative vector (P, P', ..., P^(n)) at a
    point; the point may be +-inf."""

    point: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("variation count must be nonnegative")


def _coeffs(p) -> list[float]:
    # checked ascending coefficients, the leading ones of at most 1e-14 of
    # the largest magnitude trimmed so that the last is genuinely nonzero
    # (the zero polynomial is kept as the single coefficient 0.0)
    c = np.asarray(p, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coefficients must be a nonempty 1-d sequence")
    c = c.tolist()
    if not all(map(math.isfinite, c)):
        raise ValueError("coefficients must be finite")
    return K.trim_coeffs(c)


def _monic_coeffs(sigma) -> list[float]:
    # ascending coefficients [sd, ..., s1, 1.0] of the monic polynomial of a
    # checked sigma vector; the leading 1 stays even when the other
    # coefficients dwarf it
    s = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigma must be a nonempty 1-d sequence")
    c = s[::-1].tolist()
    if not all(map(math.isfinite, c)):
        raise ValueError("sigma must be finite")
    c.append(1.0)
    return c


def sign_variation(p, x) -> SignVariation:
    """Number of sign changes in (P(x), P'(x), ..., P^(n)(x)) for the
    ascending coefficient sequence p.

    The signs are exact for the float coefficients and x: the Taylor shift
    runs in integers, where a float shift could underflow a component to
    zero or round its sign away.  Components that are exactly zero are
    skipped (the classical convention).  At +inf every derivative carries
    the sign of the leading coefficient, so the count is 0; at -inf the
    signs alternate, so the count equals the degree.
    """
    c = _coeffs(p)
    if math.isinf(x):
        return SignVariation(x, 0 if x > 0 else len(c) - 1)
    # with c_k = C_k / 2^e and x = X / 2^e, P(x + g / 2^e) is
    # 2^(-e(n+1)) sum_k C_k 2^(e(n-k)) (X + g)^k: the coefficient of g^k of
    # that integer shift is P^(k)(x)/k! scaled by a power of two, and
    # positive scalings do not affect variation counts
    (*ints, big_x), e = K._dyadic(c + [float(x)])
    n = len(ints) - 1
    shifted = K.shifted_coeffs([v << e * (n - k) for k, v in enumerate(ints)], big_x)
    return SignVariation(float(x), K.sign_changes(shifted))


def budan_fourier_bound(p, a, b) -> int:
    """Budan-Fourier upper bound nu(a) - nu(b) on the number of roots in
    (a, b], counted with multiplicity; exceeds the true count by an even
    integer."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    return sign_variation(p, a).count - sign_variation(p, b).count


def is_hyperbolic(sigma) -> bool:
    """True iff z^d + s1*z^(d-1) + ... + sd has d real distinct roots."""
    return hyperbolic_roots(sigma) is not None


def hyperbolic_roots(sigma):
    """Sorted roots of z^d + s1*z^(d-1) + ... + sd when it has d real
    distinct roots, else None.

    The roots :func:`real_roots` finds, with the leading 1 never trimmed:
    d = 1 always has its root, and a quadratic has two only when it is
    surely negative at its vertex -s1/2 (else None, also where rounding
    leaves the vertex sign unknown).  From d = 3 on, d certified companion
    seeds prove d roots; else the Rolle pass decides, with d sign changes of
    P on the monotone pieces between the roots of P' (see
    :func:`real_roots`).
    """
    roots = _hyperbolic_many([_monic_coeffs(sigma)])[0]
    return None if roots is None else np.array(roots)


def _hyperbolic_many(cs) -> list:
    """:func:`hyperbolic_roots` of each checked monic coefficient list of cs
    (see :func:`_monic_coeffs`), all of one degree, as lists, with the
    roots from one :func:`_roots_many` call."""
    d = len(cs[0]) - 1 if cs else 0
    ok = [d != 2 or _sure_sign(c, [abs(v) for v in c], -0.5 * c[1]) < 0 for c in cs]
    found = iter(_roots_many([c for c, k in zip(cs, ok) if k]))
    return [r if len(r) == d else None for r in (next(found) if k else [] for k in ok)]


def _hyperbolic_quadratics(c0, c1):
    """:func:`_hyperbolic_many` of the monic quadratics c0 + c1 z + z^2 at
    once, over the (T,) columns c0 and c1: (hyperbolic, lo, hi), where lo
    and hi are the roots of the rows that have two, and junk elsewhere.

    Each row goes through the operations of :func:`_sure_sign` at the
    vertex and of :func:`_quadratic_roots`, elementwise, so it gets the
    bits of its own call; the leading 1 drops out of them exactly."""
    with np.errstate(all="ignore"):  # rows without two real roots
        x = -0.5 * c1
        v = K.horner([c0, c1, 1.0], x)
        sure = abs(v) > K.EVAL_GUARD * K.horner([abs(c0), abs(c1), 1.0], abs(x))
        disc = c1 * c1 - 4.0 * c0
        q = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1))
        r2 = np.where(q != 0.0, c0 / q, -c1 - q)
    hyperbolic = sure & ~(v > 0.0) & ~(disc < 0.0) & ~(disc == 0.0)
    # sorted((r1, r2)) swaps exactly when r2 < r1
    swap = r2 < q
    return hyperbolic, np.where(swap, r2, q), np.where(swap, q, r2)


def _quadratic_roots(c0, c1, c2):
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-c1 / (2.0 * c2)]
    sq = math.sqrt(disc)
    q = -0.5 * (c1 + math.copysign(sq, c1))
    # citardauq pairing avoids cancellation in the small root
    r1 = q / c2
    r2 = c0 / q if q != 0.0 else -c1 / c2 - r1
    return sorted((r1, r2))


def real_roots(p) -> np.ndarray:
    """All real roots of the ascending coefficient sequence p, sorted
    ascending.  Leading coefficients of at most 1e-14 of the largest
    magnitude are dropped first; p must be nonempty, 1-d and finite (else
    ValueError).

    Degrees 1-2 use stable closed forms.  From degree n >= 3 on, the real
    eigenvalues of the companion matrix serve as seeds.  Around each seed a
    bracket widens geometrically, never past half the gap to a neighbouring
    seed, until P has a sure sign at both ends: |P| above the kernels'
    rounding guard ``EVAL_GUARD`` of its Horner magnitude sum.  n seeds,
    each in its own bracket with a sure sign change, prove n simple real
    roots, one per bracket; Newton from the seed, kept inside the bracket,
    then places each, with bisection on the bracket when Newton does not
    land on a root.  Only when this certificate fails (fewer real seeds
    than n, as for complex roots or a cluster below eigenvalue resolution,
    or a bracket without a sure sign change) does Rolle's theorem count the
    roots: the real roots of P' (found the same way) split the axis into
    pieces on which P is monotone, and each piece holds a root exactly when
    P changes sign across it.  The seeds are tried against that count, and
    where they fail the roots come from bisection + Newton on the pieces.

    A critical point where |P| is within Horner's rounding error bound,
    deg P * eps of its magnitude sum, has no known sign there and is taken
    for a multiple root: it is reported once, and the seeds are not used
    to place the roots.  So a double root whose float coefficients leave
    only rounding noise at the critical point is neither dropped nor split
    in two, and two roots whose midpoint value is within that bound come
    back as one.  Returns an empty array for constants, including the zero
    polynomial.
    """
    return np.array(_roots(_coeffs(p)), dtype=float)


def _roots(c) -> list[float]:
    """The sorted real roots of the ascending coefficient list c, taken as
    given: its last coefficient is nonzero (see :func:`real_roots`)."""
    return _roots_many([c])[0]


def _roots_many(cs) -> list[list[float]]:
    """:func:`_roots` of each coefficient list of cs, all of one degree n.

    From n >= 3 on, the companion matrices (ones below the diagonal, the
    last column -c[:-1] / c[-1]) are stacked into one np.linalg.eigvals
    call.  It runs LAPACK's geev on each matrix with the workspace a call
    on that matrix alone gets, so each list's sorted real eigenvalues, its
    seeds, carry the bits of its own call."""
    n = len(cs[0]) - 1 if cs else 0
    if n <= 0:
        return [[] for _ in cs]
    if n == 1:
        return [[-c[0] / c[1]] for c in cs]
    if n == 2:
        return [_quadratic_roots(c[0], c[1], c[2]) for c in cs]
    below = [[float(j == i - 1) for j in range(n - 1)] for i in range(n)]
    stack = [[row + [c[i] / -c[-1]] for i, row in enumerate(below)] for c in cs]
    out = []
    for c, eig in zip(cs, np.linalg.eigvals(np.array(stack)).tolist()):
        seeds = sorted(z.real for z in eig if z.imag == 0.0)
        roots = _seeded_roots(c, seeds, n)
        out.append(_rolle_roots(c, seeds) if roots is None else roots)
    return out


def _cauchy_bound(c) -> float:
    return 1.0 + max(abs(v) for v in c[:-1]) / abs(c[-1])


def _sure_sign(c, abs_c, x) -> int:
    # sign of P(x) when |P(x)| clears the kernels' rounding guard, else 0;
    # a NaN left by an overflow clears nothing
    v = K.horner(c, x)
    if not abs(v) > K.EVAL_GUARD * K.horner(abs_c, abs(x)):
        return 0
    return 1 if v > 0.0 else -1


def _seed_bracket(c, abs_c, seed, left, right):
    # widen [seed - w, seed + w] by _SEED_GROWTH, clamped to [left, right],
    # until P has sure and opposite signs at its ends: (lo, hi, P(lo) > 0),
    # or None when even [left, right] has no such ends
    w = _SEED_WIDTH * (1.0 + abs(seed))
    while True:
        lo, hi = max(seed - w, left), min(seed + w, right)
        sign_lo = _sure_sign(c, abs_c, lo)
        if sign_lo and sign_lo == -_sure_sign(c, abs_c, hi):
            return lo, hi, sign_lo > 0
        if lo == left and hi == right:
            return None
        w *= _SEED_GROWTH


def _seeded_roots(c, seeds, n):
    """The n real roots of the squarefree P from its sorted companion
    seeds, or None when the seeds do not certify (see :func:`real_roots`)."""
    if n <= 0:
        return []
    cauchy = _cauchy_bound(c)
    if len(seeds) != n or not -cauchy < seeds[0] <= seeds[-1] < cauchy:
        return None
    abs_c, dc = [abs(v) for v in c], K.poly_derivative(c)
    bounds = [-cauchy] + [0.5 * (a + b) for a, b in zip(seeds, seeds[1:])] + [cauchy]
    roots = []
    for k, s in enumerate(seeds):
        bracket = _seed_bracket(c, abs_c, s, bounds[k], bounds[k + 1])
        if bracket is None:
            return None
        lo, hi, lo_positive = bracket
        x = K.newton_polish(c, dc, s, lo, hi, _NEWTON_STEPS)
        if not _on_root(c, abs_c, dc, x):
            x = _refine(c, dc, lo, hi, lo_positive)
        roots.append(x)
    return roots


def _refine(c, dc, lo, hi, lo_positive) -> float:
    # (lo, hi) holds exactly one root (a certified seed bracket, or a piece
    # on which P is monotone), so Newton may run to rounding anywhere in it
    l, h = K.bisect_refine(c, lo, hi, lo_positive, _BISECT_RELWIDTH)
    return K.newton_polish(c, dc, 0.5 * (l + h), lo, hi, _NEWTON_STEPS)


def _on_root(c, abs_c, dc, x) -> bool:
    v = abs(K.horner(c, x))
    if v <= _ROOT_REL * K.horner(abs_c, abs(x)):
        return True
    # near a subnormal root the share of the magnitude sum underflows to 0;
    # a Newton step within one ulp of x places the root there.  For normal
    # x that step implies the test above, so only such roots reach this.
    return v <= abs(K.horner(dc, x)) * math.ulp(x)


def _rolle_roots(c, seeds) -> list[float]:
    # real roots of P (degree >= 3) whose companion seeds did not certify
    # deg P of them: P is monotone between consecutive real roots of P'
    # (Rolle), so each such piece holds one root exactly when P changes sign
    # across it.  A critical point where |P| is within Horner's rounding
    # error bound, deg P * eps of its magnitude sum, has no known sign: it
    # is taken for a multiple root, reported once, and P counts as 0 there.
    # P(cauchy) != 0, so no root is lost at the right end
    cauchy = _cauchy_bound(c)
    abs_c, dc = [abs(v) for v in c], K.poly_derivative(c)
    ends = [-cauchy] + real_roots(dc).tolist() + [cauchy]
    vals = [K.horner(c, x) for x in ends]
    multiple = []
    for k in range(1, len(ends) - 1):
        if abs(vals[k]) <= (len(c) - 1) * _EPS * K.horner(abs_c, abs(ends[k])):
            multiple.append(ends[k])
            vals[k] = 0.0
    pieces = [k for k in range(len(ends) - 1)
              if vals[k] != 0.0 and vals[k + 1] != 0.0 and (vals[k] > 0.0) != (vals[k + 1] > 0.0)]
    if not multiple and len(pieces) < len(c) - 1:
        roots = _seeded_roots(c, seeds, len(pieces))
        if roots is not None:
            return roots
    roots = multiple + [_refine(c, dc, ends[k], ends[k + 1], vals[k] > 0.0) for k in pieces]
    return sorted(roots)

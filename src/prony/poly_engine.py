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
# Stacks of at least this many polynomials of one degree n >= 3 are
# certified on numpy columns, smaller ones polynomial by polynomial: the
# columns pay numpy's per-call cost once per stack and widening step, the
# loop Python's per-root cost.  _roots_many on real-rooted polynomials
# (timeit, best of 5; 2 shared Xeon vCPUs, CPython 3.11, numpy 2.4), loop
# against columns: n = 3, 1 row 33 vs 187 us, 8 rows 137 vs 178 us, 12
# rows 199 vs 218 us, 16 rows 263 vs 231 us, 64 rows 0.97 vs 0.37 ms;
# n = 5, 8 rows 251 vs 264 us, 16 rows 470 vs 375 us.  The family
# analyses root at most 8 polynomials at once, most often one
_COLUMN_ROWS = 16


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
    return [r if r is not None and len(r) == d else None
            for r in (next(found) if k else [] for k in ok)]


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
    ValueError).  ValueError also where the Rolle pass below needs a
    derivative of p that is past the double range.

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
    roots = _roots_many([c])[0]
    if roots is None:
        raise ValueError("a derivative of the polynomial is past the double range")
    return roots


def _roots_many(cs) -> list:
    """:func:`_roots` of each coefficient list of cs, all of one degree n:
    per list its sorted real roots, or None where a derivative of it is
    past the double range, so that the Rolle pass cannot count its roots
    (see :func:`_rolle_roots`).

    From n >= 3 on, the companion matrices (ones below the diagonal, the
    last column c[:-1] / -c[-1]) are stacked into one np.linalg.eigvals
    call.  It runs LAPACK's geev on each matrix with the workspace a call
    on that matrix alone gets, so each list's sorted real eigenvalues, its
    seeds, carry the bits of its own call.  A stack of at least
    _COLUMN_ROWS lists is certified on numpy columns
    (:func:`_seeded_columns`), a smaller one list by list; both give each
    list the bits of its own call."""
    n = len(cs[0]) - 1 if cs else 0
    if n <= 0:
        return [[] for _ in cs]
    if n == 1:
        return [[-c[0] / c[1]] for c in cs]
    if n == 2:
        return [_quadratic_roots(c[0], c[1], c[2]) for c in cs]
    c = np.array(cs)
    stack = np.zeros((len(cs), n, n))
    stack[:, :, -1] = c[:, :-1] / -c[:, -1:]
    stack.reshape(len(cs), -1)[:, n :: n + 1] = 1.0  # the ones below the diagonal
    eig = np.linalg.eigvals(stack)
    if len(cs) >= _COLUMN_ROWS:
        return _seeded_columns(cs, c, eig)
    return [_seeded_or_rolle(row, e) for row, e in zip(cs, eig.tolist())]


def _seeded_or_rolle(c, eig):
    # the roots of c from the companion eigenvalues eig, a list: certified
    # from the sorted real ones, else by the Rolle pass
    seeds = sorted(z.real for z in eig if z.imag == 0.0)
    roots = _seeded_roots(c, seeds, len(c) - 1)
    return _rolle_roots(c, seeds) if roots is None else roots


def _seeded_columns(cs, c, eig) -> list:
    """:func:`_seeded_or_rolle` of each list of cs, with c = np.array(cs)
    (R, n + 1) and eig its companion eigenvalues (R, n), the seeds
    certified on numpy columns.

    The seed brackets, their sure signs, the Newton polish and the
    :func:`_on_root` test run over all roots of all rows at once, as masked
    arrays, with the float operations of :func:`_seeded_roots` in its
    order; numpy's elementwise +, -, *, / and abs round as Python's floats
    do, so every root keeps its bits.  What keeps them besides:
    - the seeds are a stable sort of each row (sorted keeps the order of
      0.0 and -0.0);
    - math.ulp(x) is np.spacing(abs(x)), since np.spacing(x) is negative
      for x < 0;
    - Horner's first step 0.0 * x + c[n] stays, so that x = +-inf gives NaN;
    - eigvals returns a real array when every eigenvalue of the stack is
      real, whose imaginary part reads 0.
    A row the columns cannot certify (fewer than n real seeds, one not
    finite or outside the Cauchy bound, or a bracket without sure signs)
    takes :func:`_seeded_or_rolle` alone; a polished root that misses
    :func:`_on_root` is bisected in its bracket alone (:func:`_refine`)."""
    R, n = eig.shape
    with np.errstate(all="ignore"):  # NaN and overflows, read as Python reads them
        seeds = np.sort(eig.real, axis=1, kind="stable")
        cauchy = 1.0 + abs(c[:, :-1]).max(axis=1) / abs(c[:, -1])
        ok = ((eig.imag == 0.0).all(axis=1) & np.isfinite(seeds).all(axis=1)
              & (-cauchy < seeds[:, 0]) & (seeds[:, -1] < cauchy))
        mid = 0.5 * (seeds[:, :-1] + seeds[:, 1:])
        left = np.concatenate([-cauchy[:, None], mid], axis=1)
        right = np.concatenate([mid, cauchy[:, None]], axis=1)
        # one entry per root of the rows in ok, row by row
        rows = np.repeat(ok.nonzero()[0], n)
        s, left, right = seeds[ok].ravel(), left[ok].ravel(), right[ok].ravel()
        lo, hi, lo_positive = _seed_brackets(c, rows, s, left, right, ok)
        # entries of rows a bracket failed in are dropped
        keep = ok[rows]
        rows, s, lo, hi, lo_positive = rows[keep], s[keep], lo[keep], hi[keep], lo_positive[keep]
        cr = c[rows].T
        dcr = cr[1:] * np.arange(1.0, n + 1)[:, None]
        x = _newton_columns(cr, dcr, s, lo, hi)
        v = abs(K.horner(cr, x))
        on = (v <= _ROOT_REL * K.horner(abs(cr), abs(x))) | (v <= abs(K.horner(dcr, x)) * np.spacing(abs(x)))
    roots = x.tolist()
    for k in (~on).nonzero()[0].tolist():
        row = cs[rows[k]]
        roots[k] = _refine(row, K.poly_derivative(row), float(lo[k]), float(hi[k]), bool(lo_positive[k]))
    out = [None] * R
    for k, r in enumerate(ok.nonzero()[0].tolist()):
        out[r] = roots[k * n : (k + 1) * n]
    for r in (~ok).nonzero()[0].tolist():
        out[r] = _seeded_or_rolle(cs[r], eig[r].tolist())
    return out


def _seed_brackets(c, rows, s, left, right, ok):
    # _seed_bracket for each seed s (entries of the rows of c named by
    # rows) between left and right, all of them widened at once: (lo, hi,
    # lo_positive) per entry.  A row with a seed whose bracket reaches
    # [left, right] without sure signs is cleared in ok (in place), and its
    # other seeds stop
    lo, hi = s.copy(), s.copy()
    lo_positive = np.zeros(len(s), dtype=bool)
    w = _SEED_WIDTH * (1.0 + abs(s))
    live = np.arange(len(s))
    while live.size:
        sl, wl, ll, rl = s[live], w[live], left[live], right[live]
        # Python's max(a, b) is b only where b > a, and min(a, b) b only
        # where b < a
        lo_l = np.where(ll > sl - wl, ll, sl - wl)
        hi_l = np.where(rl < sl + wl, rl, sl + wl)
        cl = c[rows[live]].T
        abs_cl = abs(cl)
        sign_lo = _sure_sign_columns(cl, abs_cl, lo_l)
        done = (sign_lo != 0) & (sign_lo == -_sure_sign_columns(cl, abs_cl, hi_l))
        k = live[done]
        lo[k], hi[k], lo_positive[k] = lo_l[done], hi_l[done], sign_lo[done] > 0
        ok[rows[live[~done & (lo_l == ll) & (hi_l == rl)]]] = False
        w[live] *= _SEED_GROWTH
        live = live[~done & ok[rows[live]]]
    return lo, hi, lo_positive


def _sure_sign_columns(c, abs_c, x):
    # _sure_sign at each entry of x, with c and abs_c the coefficient
    # columns of its rows
    v = K.horner(c, x)
    sure = abs(v) > K.EVAL_GUARD * K.horner(abs_c, abs(x))
    return np.where(sure, np.where(v > 0.0, 1, -1), 0)


def _newton_columns(c, dc, x, lo, hi):
    # _kernels.newton_polish from each entry of x in [lo, hi], with c and dc
    # the coefficient columns of its polynomial and derivative
    live = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        df = K.horner(dc, x)
        step = K.horner(c, x) / df
        xn = x - step
        live &= ~((df == 0.0) | (xn < lo) | (xn > hi) | (xn == x))
        if not live.any():
            break
        x = np.where(live, xn, x)
        live &= ~(abs(step) <= 1e-15 * (1.0 + abs(x)))
    return x


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
    # P(cauchy) != 0, so no root is lost at the right end.  None where P',
    # or a derivative the count of its roots needs, is past the double
    # range: the pieces are unknown there
    cauchy = _cauchy_bound(c)
    abs_c, dc = [abs(v) for v in c], K.poly_derivative(c)
    if not all(map(math.isfinite, dc)):
        return None
    critical = _roots_many([K.trim_coeffs(dc)])[0]
    if critical is None:
        return None
    ends = [-cauchy] + critical + [cauchy]
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

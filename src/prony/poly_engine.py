"""Real-root machinery for univariate polynomials.

Sturm counting, Budan-Fourier sign-variation bounds, root isolation and
refinement, and resultant-based discriminants.  Everything here works on the
standard discriminant convention; sign adapters for the d=2/d=3 closed forms
live in :mod:`prony.closed_forms`.

Root isolation (:func:`real_roots`, degree n >= 3) certifies its roots
without a Sturm chain: the real eigenvalues of the companion matrix are the
seeds, and each gets a bracket on which P changes sign for sure (|P| at both
ends above the kernels' rounding guard ``_kernels.EVAL_GUARD`` of its Horner
magnitude sum), never wider than half the gap to a neighbouring seed.  n
such disjoint brackets prove n simple real roots, one each, and Newton from
the seed, kept inside the bracket, refines it.  Only when the seeds fall
short is a Sturm chain built: it counts the roots and isolation falls back
to Sturm bisection from the Cauchy bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _kernels as K
from .errors import DegenerateSequence

__all__ = [
    "Poly",
    "SignVariation",
    "monic_from_sigma",
    "sign_variation",
    "budan_fourier_bound",
    "sturm_count",
    "is_hyperbolic",
    "hyperbolic_roots",
    "real_roots",
    "discriminant",
]

# Accuracy targets (see module design notes): isolation brackets are bisected
# to this relative width before Newton polishing.
_BISECT_RELWIDTH = 1e-10
_NEWTON_STEPS = 5
# Seeded isolation: the first bracket around a companion eigenvalue reaches
# this relative distance from it, and each widening multiplies the distance
# by _SEED_GROWTH.
_SEED_WIDTH = 1e-10
_SEED_GROWTH = 16.0
# Double precision places a double root to about sqrt(eps).  A computed root
# therefore leaves |P| below this share of its Horner magnitude sum, and a
# true gcd(P, P') divides the unit-norm P to this remainder; more than that
# is an artefact of rounding, not a root or a gcd.
_ROOT_REL = 1.5e-8


@dataclass(frozen=True, eq=False)
class Poly:
    """Dense univariate polynomial, coefficients in ascending degree order.

    Construct through :meth:`from_coeffs`, which trims leading coefficients
    smaller than 1e-14 of the largest magnitude so the stored leading
    coefficient is genuinely nonzero (the zero polynomial is kept as the
    single coefficient 0.0), or through :func:`monic_from_sigma`, whose
    leading 1 is exact and never trimmed.
    """

    coefficients: np.ndarray

    @classmethod
    def from_coeffs(cls, coeffs) -> "Poly":
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        trimmed = np.array(K.trim_coeffs(c.tolist()), dtype=float)
        trimmed.setflags(write=False)
        return cls(trimmed)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return npoly.polyval(x, self.coefficients)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Poly(degree={self.degree}, coefficients={self.coefficients.tolist()})"


@dataclass(frozen=True)
class SignVariation:
    """Sign-variation count of the derivative vector (P, P', ..., P^(n)) at a
    point; the point may be +-inf."""

    point: float
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("variation count must be nonnegative")


def _as_poly(p) -> Poly:
    return p if isinstance(p, Poly) else Poly.from_coeffs(p)


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


def monic_from_sigma(sigma) -> Poly:
    """Monic polynomial z^d + s1*z^(d-1) + ... + sd from the coefficient
    vector (s1, ..., sd)."""
    c = np.array(_monic_coeffs(sigma))
    c.setflags(write=False)
    return Poly(c)


def sign_variation(p, x) -> SignVariation:
    """Number of sign changes in (P(x), P'(x), ..., P^(n)(x)).

    Components that evaluate to an exact floating zero are skipped (the
    classical convention).  At +inf every derivative carries the sign of the
    leading coefficient, so the count is 0; at -inf the signs alternate, so
    the count equals the degree.
    """
    p = _as_poly(p)
    n = p.degree
    if math.isinf(x):
        return SignVariation(x, 0 if x > 0 else n)
    shifted = K.shifted_coeffs(p.coefficients.tolist(), float(x))
    # entry k of the Taylor shift is P^(k)(x)/k!; positive scalings do not
    # affect variation counts
    return SignVariation(float(x), K.sign_changes(shifted, 0.0))


def budan_fourier_bound(p, a, b) -> int:
    """Budan-Fourier upper bound nu(a) - nu(b) on the number of roots in
    (a, b], counted with multiplicity; exceeds the true count by an even
    integer."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    p = _as_poly(p)
    return sign_variation(p, a).count - sign_variation(p, b).count


def _nudge_off_root(chain, coeffs, x):
    # Sturm endpoint evaluation needs P(x) != 0; step outward by a
    # machine-scale offset when we land on a root.
    for _ in range(4):
        if K.horner(coeffs, x) != 0.0:
            return x
        x = x + 1e-10 * (1.0 + abs(x))
    return x


def sturm_count(p, a, b) -> int:
    """Exact number of distinct real roots in (a, b] (endpoints may be
    +-inf).  Non-squarefree input is handled by the generalized chain, which
    terminates at the gcd and still counts distinct roots."""
    a = float(a)
    b = float(b)
    if not a < b:
        raise ValueError("need a < b")
    p = _as_poly(p)
    chain = K.sturm_chain(p.coefficients.tolist())
    if not chain:
        raise DegenerateSequence("input polynomial is numerically zero")
    if len(chain) == 1:
        return 0
    coeffs = list(chain[0])

    def variations(x, side_positive):
        if math.isinf(x):
            return K.chain_variations_inf(chain, x > 0)
        return K.chain_variations(chain, _nudge_off_root(chain, coeffs, x))

    return variations(a, False) - variations(b, True)


def _hyperbolic_chain(chain, d) -> bool:
    # d real distinct roots: the chain ends in a constant (squarefree) and
    # loses d sign variations from -inf to +inf
    if not chain:
        return False
    squarefree = len(chain[-1]) == 1
    count = K.chain_variations_inf(chain, False) - K.chain_variations_inf(chain, True)
    return squarefree and count == d


def is_hyperbolic(sigma) -> bool:
    """True iff z^d + s1*z^(d-1) + ... + sd has d real distinct roots."""
    return hyperbolic_roots(sigma) is not None


def hyperbolic_roots(sigma):
    """Sorted roots of z^d + s1*z^(d-1) + ... + sd when it has d real
    distinct roots, else None.

    The roots of :func:`real_roots` of :func:`monic_from_sigma`, certified
    first: d = 1 always has its root, a quadratic surely negative at its
    vertex -s1/2 has two, and from d = 3 on d certified companion seeds
    prove d (see :func:`real_roots`).  Only when these fall short does a
    Sturm chain decide, by its count from -inf to +inf, and isolate.
    """
    c = _monic_coeffs(sigma)
    d = len(c) - 1
    if d == 1 or (d == 2 and _sure_sign(c, [abs(v) for v in c], -0.5 * c[1]) < 0):
        return _low_degree_roots(c)
    if d == 2:
        return _low_degree_roots(c) if _hyperbolic_chain(K.sturm_chain(c), 2) else None
    seeds = _companion_seeds(c)
    roots = _seeded_roots(c, seeds, d)
    if roots is None:
        chain = K.sturm_chain(c)
        roots = _bisected_roots(c, chain) if _hyperbolic_chain(chain, d) else None
    return roots


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


def _low_degree_roots(c) -> np.ndarray:
    if len(c) == 2:
        return np.array([-c[0] / c[1]])
    return np.array(_quadratic_roots(c[0], c[1], c[2]))


def real_roots(p) -> np.ndarray:
    """All real roots, sorted ascending.

    Degrees 1-2 use stable closed forms.  From degree n >= 3 on, the real
    eigenvalues of the companion matrix serve as seeds.  Around each seed a
    bracket widens geometrically, never past half the gap to a neighbouring
    seed, until P has a sure sign at both ends: |P| above the kernels'
    rounding guard ``EVAL_GUARD`` of its Horner magnitude sum.  n seeds,
    each in its own bracket with a sure sign change, prove n simple real
    roots, one per bracket, without a Sturm chain; Newton from the seed,
    kept inside the bracket, then places each, with bisection on the
    bracket when Newton does not land on a root.  Only when this
    certificate fails (fewer real seeds than n, as for complex roots or a
    cluster below eigenvalue resolution, or a bracket without a sure sign
    change) is a Sturm chain built: the seeds are tried against its count
    of distinct real roots, then Sturm bisection from the Cauchy bound,
    followed by bisection + Newton refinement, isolates the roots.

    Repeated roots are reported once (the input is reduced by its gcd with
    its derivative first).  A chain whose last element does not divide P is
    no gcd but a stop on rounding noise; the roots then come from the sign
    changes of P between consecutive roots of P'.  Returns an empty array
    for constants, including the zero polynomial.
    """
    p = _as_poly(p)
    c = p.coefficients.tolist()
    if p.degree <= 0:
        return np.empty(0)
    if p.degree <= 2:
        return _low_degree_roots(c)
    seeds = _companion_seeds(c)
    roots = _seeded_roots(c, seeds, p.degree)
    return _chain_roots(c, K.sturm_chain(c), seeds) if roots is None else roots


def _companion_seeds(c) -> list[float]:
    # sorted real eigenvalues of the companion matrix of P (degree >= 3)
    companion = np.eye(len(c) - 1, k=-1)
    companion[:, -1] = c[:-1]
    companion[:, -1] /= -c[-1]
    eig = np.linalg.eigvals(companion)
    return np.sort(eig.real[eig.imag == 0.0]).tolist()


def _cauchy_bound(c) -> float:
    return 1.0 + max(abs(v) for v in c[:-1]) / abs(c[-1])


def _chain_roots(c, chain, seeds) -> np.ndarray:
    # real roots of P (degree >= 3) from its Sturm chain and its companion
    # seeds, which have failed to certify deg P roots
    if len(chain[-1]) > 1:
        _quo, rem = npoly.polydiv(chain[0], chain[-1])
        if float(np.max(np.abs(rem), initial=0.0)) <= _ROOT_REL:
            # repeated roots: the distinct roots are those of P / gcd(P, P')
            quo, _rem = npoly.polydiv(c, np.asarray(chain[-1]))
            return real_roots(Poly.from_coeffs(quo))
        # the chain stopped on a cancellation-noise remainder of a
        # squarefree P: its variation counts cannot be trusted
        return _rolle_roots(c)
    cauchy = _cauchy_bound(c)  # every real root lies inside the Cauchy bound
    n = K.chain_variations(chain, -cauchy) - K.chain_variations(chain, cauchy)
    roots = _seeded_roots(c, seeds, n) if n < len(c) - 1 else None
    return _bisected_roots(c, chain) if roots is None else roots


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
        return np.empty(0)
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
    return np.array(roots)


def _bisected_roots(c, chain) -> np.ndarray:
    # Sturm bisection from the Cauchy bound down to one root per bracket
    cauchy, abs_c, dc = _cauchy_bound(c), [abs(v) for v in c], K.poly_derivative(c)
    roots: list[float] = []
    stack = [(-cauchy, cauchy, K.chain_variations(chain, -cauchy),
              K.chain_variations(chain, cauchy))]
    while stack:
        lo, hi, vl, vh = stack.pop()
        n = vl - vh
        if n <= 0:
            continue
        if n == 1:
            lo_positive = K.horner(c, lo) > 0.0
            x = _refine(c, dc, lo, hi, lo_positive)
            if not _on_root(c, abs_c, dc, x):
                # lo sits on a root itself and the sign read there was
                # rounding noise: the search ran to the wrong bracket end
                other = _refine(c, dc, lo, hi, not lo_positive)
                if _on_root(c, abs_c, dc, other):
                    x = other
            roots.append(x)
            continue
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * (1.0 + abs(mid)):
            # cluster below float resolution: report one representative
            roots.append(mid)
            continue
        for _ in range(4):
            if K.horner(c, mid) != 0.0:
                break
            mid += (hi - lo) * 1e-9
        vm = K.chain_variations(chain, mid)
        stack.append((lo, mid, vl, vm))
        stack.append((mid, hi, vm, vh))
    return np.array(sorted(roots))


def _refine(c, dc, lo, hi, lo_positive) -> float:
    l, h = K.bisect_refine(c, lo, hi, lo_positive, _BISECT_RELWIDTH)
    return K.newton_polish(c, dc, 0.5 * (l + h), l, h, _NEWTON_STEPS)


def _on_root(c, abs_c, dc, x) -> bool:
    v = abs(K.horner(c, x))
    if v <= _ROOT_REL * K.horner(abs_c, abs(x)):
        return True
    # near a subnormal root the share of the magnitude sum underflows to 0;
    # a Newton step within one ulp of x places the root there.  For normal
    # x that step implies the test above, so only such roots reach this.
    return v <= abs(K.horner(dc, x)) * math.ulp(x)


def _rolle_roots(c) -> np.ndarray:
    # real roots of a squarefree P without a Sturm chain: P is monotone
    # between consecutive real roots of P' (Rolle), so each such piece
    # holds at most one root, found by its sign change
    cauchy = _cauchy_bound(c)
    dc = K.poly_derivative(c)
    ends = [-cauchy] + real_roots(Poly.from_coeffs(dc)).tolist() + [cauchy]
    roots = []
    for lo, hi in zip(ends, ends[1:]):  # P(cauchy) != 0, so no root is lost
        flo, fhi = K.horner(c, lo), K.horner(c, hi)
        if flo == 0.0:
            roots.append(lo)
        elif fhi != 0.0 and (flo > 0.0) != (fhi > 0.0):
            roots.append(_refine(c, dc, lo, hi, flo > 0.0))
    return np.array(roots)


def _sylvester(pc, qc):
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    s = np.zeros((size, size))
    pd = pc[::-1]
    qd = qc[::-1]
    for i in range(n):
        s[i, i : i + m + 1] = pd
    for i in range(m):
        s[n + i, i : i + n + 1] = qd
    return s


def _discriminant_input(p) -> list[float]:
    # ascending coefficients of a monic polynomial of degree >= 2.  A Poly
    # was checked when it was built; a plain sequence is checked here and
    # taken as given, never trimmed, so its leading 1 cannot be lost
    if isinstance(p, Poly):
        c = p.coefficients.tolist()
    else:
        c = np.asarray(p, dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficients must be a 1-d sequence")
        c = c.tolist()
        if not all(map(math.isfinite, c)):
            raise ValueError("coefficients must be finite")
    if len(c) < 3:
        raise ValueError("discriminant requires degree >= 2")
    if abs(c[-1] - 1.0) > 1e-12 * max(1.0, max(map(abs, c))):
        raise ValueError("discriminant requires a monic polynomial")
    return c


def discriminant(p) -> float:
    """Standard discriminant Disc(P) = (-1)^(d(d-1)/2) Res(P, P') of a monic
    polynomial of degree d >= 2, via the Sylvester resultant.

    p is a Poly or its ascending coefficient sequence; a sequence is used
    as given (not trimmed), so inner loops may pass plain float lists."""
    c = _discriminant_input(p)
    d = len(c) - 1
    dp = K.poly_derivative(c)
    res = float(np.linalg.det(_sylvester(c, dp)))
    return res if (d * (d - 1) // 2) % 2 == 0 else -res

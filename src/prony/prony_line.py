"""Hankel matrices and the one-missing-moment solution line in sigma-space.

With all moments mu_0..mu_{2d-1} of a d-spike train known, the coefficients
of the monic node polynomial solve a single d x d linear system whose matrix
is the Hankel matrix of (mu_0, ..., mu_{2d-2}).  Drop the top moment and the
solution set becomes a line: substituting a free parameter t for the last
right-hand side entry and applying Cramer's rule makes every coordinate
sigma_j(t) an affine function of t.  This module constructs that line,
solved exactly from the float moments and rounded once, the open parameter
set where the node polynomial keeps d real distinct roots, and the residuals
of the projected moment equations used to test membership of a candidate
node vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels as K
from . import poly_engine
from ._kernels import _dyadic
from .errors import (
    DegenerateHankel,
    NotHyperbolic,
    RepeatedNodes,
    ResidualTooLarge,
    UnresolvedDomain,
)
from .signal_model import (
    MomentVector,
    Signal,
    SymmetricCoords,
    _amplitudes,
    _check_finite,
    _real_nodes_many,
    _unwrap,
    amplitudes_from_nodes,
    compute_moments,
    elementary_symmetric,
)

__all__ = [
    "HankelMatrix",
    "PronyLine",
    "DomainEndpoint",
    "HyperbolicDomain",
    "hankel",
    "line_params",
    "hyperbolic_domain",
    "projection_residuals",
    "lift_to_solution",
]

# det M below this fraction of the largest first minor counts as degenerate
_DEGENERATE_REL = 1e-12
# two critical values closer than this share of the larger one are below
# the resolution of the domain build
_ENDPOINT_REL = 1e-8
# projected-system residuals below this (times scale) admit lifting
_LIFT_REL = 1e-8


def _frozen(rows: list) -> np.ndarray:
    m = np.array(rows)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """d x d matrix with entry (i, j) = mu_{i+j}, plus determinant and the
    full table of first minors.

    ``minors[i-1, j-1]`` is the determinant after deleting row i and column
    j (1-indexed); for d = 1 the table is [[1.0]], the empty determinant.
    """

    entries: np.ndarray
    determinant: float
    minors: np.ndarray

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def minor(self, i: int, j: int) -> float:
        """First minor M_{i,j}, rows and columns numbered from 1."""
        if not (1 <= i <= self.d and 1 <= j <= self.d):
            raise ValueError("minor indices are 1-based and at most d")
        return float(self.minors[i - 1, j - 1])


def hankel(mu) -> HankelMatrix:
    """Hankel matrix of a moment vector of odd length 2d-1, with its
    determinant and first minors: each the exact value for the float
    moments, by one fraction-free elimination, rounded once (+-inf past
    the double range).  Raises ValueError where a moment is not finite."""
    vals = np.asarray(getattr(mu, "values", mu), dtype=float)
    if vals.ndim != 1 or vals.size % 2 == 0:
        raise ValueError("need an odd number of moments mu_0..mu_{2d-2}")
    vals = vals.tolist()
    _check_finite(vals, "moments")
    ints, e = _dyadic(vals)
    d = (len(ints) + 1) // 2
    rest = [[j for j in range(d) if j != i] for i in range(d)]
    minors = [[_rounded(_bareiss([[ints[i + j] for j in cs] for i in rs], d - 1), e * (d - 1))
               for cs in rest] for rs in rest]
    det = _bareiss([ints[i : i + d] for i in range(d)], d)
    return HankelMatrix(entries=_frozen([vals[i : i + d] for i in range(d)]),
                        determinant=_rounded(det, e * d), minors=_frozen(minors))


@dataclass(frozen=True, eq=False)
class PronyLine:
    """Affine map t -> sigma(t) = slopes*t + intercepts solving the d moment
    equations with the top right-hand side entry replaced by t.

    ``slopes[j-1]`` and ``intercepts[j-1]`` belong to sigma_j.  The source
    moments (length 2d-1) and det M, the determinant of their Hankel
    matrix (correctly rounded), are kept for residual evaluation and
    downstream certificates, and line_params keeps the exact line
    privately as integers (p, b, s, e): sigma_j(t) = (b[j-1] + t*s[j-1]) / p
    and p = +-2**(e*d) det M.  The analyses of the family
    (hyperbolic_domain, sample_curve, detect_collisions, escape_analysis,
    curve_distance, classify_d2/d3, quartic_Pmu) accept the line in place
    of the moments.
    """

    d: int
    slopes: np.ndarray
    intercepts: np.ndarray
    detM: float
    mu: MomentVector
    _exact: tuple = field(default=None, repr=False)

    @cached_property
    def domain(self) -> "HyperbolicDomain":
        """The hyperbolic domain of this line, computed once."""
        return _build_domain(self)

    def sigma_at(self, t: float) -> SymmetricCoords:
        return SymmetricCoords(self._node_poly(t)[-2::-1])

    def point(self, t: float):
        """The family point (sigma, nodes, amplitudes) at t; NotHyperbolic or
        RepeatedNodes where sigma(t) has no d real distinct roots."""
        sigma, nodes, amps = _unwrap(self._points([t])[0])
        return SymmetricCoords(sigma), np.array(nodes), np.array(amps)

    @cached_property
    def _plain(self):
        # slopes, intercepts and mu_0..mu_{d-1} as plain floats
        return self.slopes.tolist(), self.intercepts.tolist(), self.mu.values[: self.d].tolist()

    def _node_poly(self, t: float) -> list:
        # ascending coefficients [sigma_d, ..., sigma_1, 1.0] of the node
        # polynomial at t on plain floats; ValueError where sigma(t) is not
        # finite
        slopes, intercepts, _ = self._plain
        t = float(t)
        sigma = [s * t + b for s, b in zip(slopes, intercepts)]
        _check_finite(sigma, "sigma")
        return sigma[::-1] + [1.0]

    def _points(self, ts) -> list:
        # point at each t of ts on plain floats, the node polynomials rooted
        # by one _real_nodes_many call: per t sigma(t), its nodes and their
        # amplitudes as lists, or the ValueError, NotHyperbolic or
        # RepeatedNodes that point raises there
        out = []
        for t in ts:
            try:
                out.append(self._node_poly(t))
            except ValueError as exc:
                out.append(exc)
        live = [k for k, c in enumerate(out) if isinstance(c, list)]
        for k, nodes in zip(live, _real_nodes_many([out[k] for k in live])):
            try:
                out[k] = (out[k][-2::-1], _unwrap(nodes), _amplitudes(self._plain[2], nodes))
            except (NotHyperbolic, RepeatedNodes) as exc:
                out[k] = exc
        return out

    def parameter_of(self, sigma) -> float:
        """The t value whose line point has these coordinates: the last
        moment equation evaluated at sigma."""
        s = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
        if len(s) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(s)}")
        row = self.mu.values[self.d - 1 : 2 * self.d - 1]
        return float(np.dot(row, s[::-1]))

    def system_residuals(self, t: float) -> np.ndarray:
        """Left-hand sides of all d moment equations at sigma(t).

        The first d-1 entries must vanish for every t; the last entry is
        (last equation) - t and must vanish as well.
        """
        rev = self.sigma_at(t).sigma[::-1]  # (sigma_d, ..., sigma_1)
        v = self.mu.values
        d = self.d
        out = np.empty(d)
        for k in range(d - 1):
            out[k] = float(np.dot(v[k : k + d], rev)) + v[k + d]
        out[d - 1] = float(np.dot(v[d - 1 : 2 * d - 1], rev)) - float(t)
        return out


def line_params(mu) -> PronyLine:
    """Build the solution line from a moment vector of length 2d-1; a
    PronyLine is returned as it is.

    det M, the slopes and the intercepts are the exact values of the
    Hankel system M (sigma_d..sigma_1)^T = rhs for the float moments, each
    correctly rounded to a double: the moments are dyadic rationals, and
    one fraction-free elimination in integers gives all three, and the
    first minors.  Raises ValueError where a moment is not finite, or det
    M or a component of the line is past the double range, and
    DegenerateHankel where det M is exactly zero or fails the det M
    policy: |det M| at most _DEGENERATE_REL of the largest first minor,
    decided exactly.

    The most recent line is remembered under the exact bytes of its
    moments, so analyses of one moment vector run back to back share one
    line and one domain build; 0.0 and -0.0 are different moments here.
    A vector that raises is not remembered and raises again on every call.
    """
    if isinstance(mu, PronyLine):
        return mu
    mu = mu if isinstance(mu, MomentVector) else MomentVector(mu)
    return _line_of(mu.values.tobytes())


def _bareiss(rows: list, n: int) -> int:
    # the determinant of the first n columns of the n integer rows, 0 where
    # they are singular.  Bareiss's fraction-free elimination with row
    # pivoting (Math. Comp. 1968) runs in place, carrying the columns past
    # n along; every division is exact.  rows ends upper triangular in its
    # first n columns, its last pivot the determinant up to the sign of the
    # row swaps
    sign, prev = 1, 1
    for k in range(n):
        swap = next((i for i in range(k, n) if rows[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        p, pivot = rows[k][k], rows[k]
        for i in range(k + 1, n):
            f, row = rows[i][k], rows[i]
            rows[i] = row[: k + 1] + [(p * x - f * y) // prev
                                      for x, y in zip(row[k + 1 :], pivot[k + 1 :])]
        prev = p
    return sign * prev


def _poly_mul(p: list, q: list) -> list:
    # product of two ascending integer coefficient lists
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _real_root_count(p: list) -> int:
    # the number of distinct real roots of the integer polynomial p
    # (ascending, leading coefficient nonzero), by Sturm's theorem.  Each
    # pseudo-remainder is scaled by |lc| of the divisor, not by lc, and made
    # primitive, so the chain is the classical Sturm sequence up to positive
    # factors; read only at -inf and +inf, where the signs are the leading
    # ones and the degrees
    if len(p) < 2:
        return 0
    chain = [p, [k * c for k, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        while len(r) >= len(b):
            c, shift = sign * r[-1], len(r) - len(b)
            r = [scale * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-x // g for x in r])
    at_neg = [q[-1] if len(q) % 2 else -q[-1] for q in chain]
    return K.sign_changes(at_neg) - K.sign_changes([q[-1] for q in chain])


def _rounded(num: int, shift: int) -> float:
    # num / 2**shift rounded once, +-inf past the double range
    try:
        return num / (1 << shift)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exact_line(vals: list):
    # (det M, slopes, intercepts, exact), the line as lists and as the
    # integers (p, b, s, e) PronyLine keeps: the exact solutions of
    # M (sigma_d..sigma_1)^T = rhs for rhs_s = (0, ..., 0, 1) and
    # rhs_b = (-mu_d, ..., -mu_{2d-2}, 0), each value rounded once, for the
    # moments vals as plain floats.  The moments are integers over one
    # power of two 2**e, so 2**e [M | rhs_b | I] is an integer matrix, and
    # after _bareiss the back substitution of each right-hand side gives
    # det times its solution, which is integral: +-2**(e*d) adj M rhs.  The
    # identity columns so give +-2**(e*d) adj M, whose entries are the first
    # minors up to sign and whose last column is the slopes.  The last
    # pivot p divides each of them to give the line
    ints, e = _dyadic(vals)
    d = (len(ints) + 1) // 2
    a = [ints[i : i + d] + [-ints[i + d] if i < d - 1 else 0]
         + [1 << e if j == i else 0 for j in range(d)] for i in range(d)]
    det = _bareiss(a, d)
    if det == 0:
        raise DegenerateHankel("det M is exactly zero: nodes collide identically "
                               "or an amplitude vanishes identically")
    # the last pivot is det up to the sign of the row swaps; the numerators
    # carry that sign, so that an exact zero rounds to +0.0
    prev = a[d - 1][d - 1]
    sign = 1 if prev > 0 else -1
    cols = []
    for c in range(d, 2 * d + 1):
        y = [0] * d
        for i in reversed(range(d)):
            acc = prev * a[i][c] - sum(a[i][j] * y[j] for j in range(i + 1, d))
            y[i] = acc // a[i][i]
        cols.append(y[::-1])
    detM = _rounded(det, e * d)
    top = max(abs(v) for y in cols[1:] for v in y)
    num, den = _DEGENERATE_REL.as_integer_ratio()
    if abs(det) * den <= num * top:
        raise DegenerateHankel(
            f"det M = {detM:.3e} is degenerate, below "
            f"{_DEGENERATE_REL} of the largest first minor {_rounded(top, e * d):.3e}: "
            "nodes collide identically or an amplitude vanishes identically")
    if not math.isfinite(detM):
        raise ValueError("moments exceed double range: det M is not finite")
    try:
        line = [[sign * v / abs(prev) for v in y] for y in (cols[-1], cols[0])]
    except OverflowError:
        raise ValueError("moments exceed double range: the line is not finite") from None
    return detM, *line, (prev, cols[0], cols[-1], e)


@lru_cache(maxsize=1)
def _line_of(raw: bytes) -> PronyLine:
    # one entry: the callers that repeat a vector (analyze, curve, the
    # analyses of one family) finish with it before they turn to the next
    mu = MomentVector(np.frombuffer(raw))
    if len(mu) % 2 == 0:
        raise ValueError("need an odd number of moments mu_0..mu_{2d-2}")
    detM, slopes, intercepts, exact = _exact_line(mu.values.tolist())
    return PronyLine(d=len(slopes), slopes=_frozen(slopes), intercepts=_frozen(intercepts),
                     detM=detM, mu=mu, _exact=exact)


@dataclass(frozen=True)
class DomainEndpoint:
    """Finite boundary point of the hyperbolic parameter set, a critical
    value t0 = phi(x0) of phi = -Q_b/S (see hyperbolic_domain).

    kind is "collision-boundary" when exactly one side is hyperbolic and
    "puncture" when both sides are (an isolated interior collision).  x0 is
    the critical point, the double root of Q_t0 where two nodes collide.
    """

    t0: float
    kind: str
    x0: float


@dataclass(frozen=True, eq=False)
class HyperbolicDomain:
    """Open set of parameters where sigma(t) has d real distinct roots:
    disjoint sorted open intervals, possibly unbounded, possibly none,
    whose finite ends are critical values of phi = -Q_b/S."""

    intervals: tuple
    endpoints: tuple

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0

    def contains(self, t: float) -> bool:
        return any(lo < t < hi for lo, hi in self.intervals)


def _leading_zero_slopes(slopes: list) -> int:
    # how many leading slopes (plain floats) are zero on the line.  A slope
    # below _DEGENERATE_REL of the largest is the rounding residue of a
    # vanishing last-row minor (the det M policy of line_params); the slopes
    # are those minors over det M, so the test does not depend on the scale
    # of the moments.  The largest slope is never zero: M is regular.
    floor = _DEGENERATE_REL * max(map(abs, slopes))
    return next(k for k, s in enumerate(slopes) if abs(s) > floor)


def hyperbolic_domain(mu) -> HyperbolicDomain:
    """Parameter set where the node polynomial of the solution line of mu
    (moments of length 2d-1, or the PronyLine itself) is real-rooted with
    distinct roots: ``line_params(mu).domain``, built once per line.

    The node polynomial on the line is Q_t = Q_b + t*S, so x is a real node
    of Q_t exactly when t = phi(x) = -Q_b(x)/S(x); the finite ends of the
    set are critical values of phi (see _build_domain).  Raises what
    line_params raises, and UnresolvedDomain when critical values closer
    than _ENDPOINT_REL of the larger leave the set undecided, or a critical
    point is also a pole.
    """
    return line_params(mu).domain


def _build_domain(line: PronyLine) -> HyperbolicDomain:
    """The hyperbolic domain of a line, built afresh.

    With t0 the least-squares centre of the line, Q_t = Q_t0 + (t - t0)*S
    (S from the slopes, leading zero slopes dropped), and x is a real node
    of Q_t exactly when t = phi(x) = t0 - Q_t0(x)/S(x).  The real roots of
    S (poles) and of W = Q_t0'*S - Q_t0*S' (critical points; a root of W
    where S is zero to rounding is a multiple pole) cut the axis into
    branches on which phi is monotone, increasing where W < 0.  Each branch
    maps onto an open interval bounded by its critical values and, at a
    pole or at infinity, by +-inf.  t is hyperbolic when d branch images
    contain it, which holds piecewise between the critical values, the
    roots of the restricted discriminant D(t).

    Critical values within _ENDPOINT_REL of the larger form one cut.  t
    crossing one gains or loses two real nodes, or none, so two such values
    between a piece in and a piece out of the domain are one boundary; any
    other cut of several may hide a window, a gap or a puncture, and the
    build abstains with UnresolvedDomain, as it does where a critical point
    and a pole are the same double.  An empty result is returned.
    """
    d = line.d
    slopes, intercepts, _ = line._plain
    norm = sum(a * a for a in slopes)  # 0.0 where the squares underflow
    t0 = -sum(a * b for a, b in zip(slopes, intercepts)) / norm if norm > 0.0 else 0.0
    q = line._node_poly(t0)
    # x in units of a power of two near the size of the roots of Q_t0, so
    # that the coefficients of W stay within the range real_roots resolves
    size = max((abs(c) ** (1.0 / (d - k)) for k, c in enumerate(q[:-1])), default=0.0)
    exponent = round(math.log2(size)) if size > 0.0 else 0
    if not -1074 <= exponent * d <= 1023:  # unit**d must be a double
        raise ValueError(f"moments exceed double range: the roots of the node "
                         f"polynomial are of size {size:.3g}, whose {d}-th power is not a double")
    unit = 2.0**exponent
    q = [c / unit ** (d - k) for k, c in enumerate(q)]
    s = [c * unit**k for k, c in enumerate(slopes[_leading_zero_slopes(slopes):][::-1])]
    w = np.convolve(K.poly_derivative(q), s)
    if len(s) > 1:  # S' = 0 on a constant S
        w = w - np.convolve(q, K.poly_derivative(s))
    w = w.tolist()

    inf = math.inf
    poles = poly_engine._roots(poly_engine._coeffs(s))
    breaks = [(x, None) for x in poles]
    for c in poly_engine._roots(poly_engine._coeffs(w)):
        if abs(K.horner(s, c)) > K.EVAL_GUARD * K.horner([abs(v) for v in s], abs(c)):
            if c in poles:
                raise UnresolvedDomain(
                    f"critical point {c * unit:.17g} of phi is also a pole: which side "
                    "of the pole it lies on is below the resolution of the build")
            breaks.append((c, t0 - unit**d * K.horner(q, c) / K.horner(s, c)))
    ends = [(-inf, None)] + sorted(breaks) + [(inf, None)]
    images = []
    for (lo, v_lo), (hi, v_hi) in zip(ends, ends[1:]):
        # past its last real root W has the sign of its leading coefficient
        w_sign = (K.horner(w, 0.5 * (lo + hi)) if math.isfinite(lo + hi)
                  else w[-1] if hi == inf or len(w) % 2 else -w[-1])
        low, high = (v_lo, v_hi) if w_sign < 0.0 else (v_hi, v_lo)
        images.append((-inf if low is None else low, inf if high is None else high))

    cuts = [[-inf]]
    for v in sorted({v for _, v in breaks if v is not None}):
        last = cuts[-1][-1]
        if last > -inf and v - last <= _ENDPOINT_REL * max(abs(v), abs(last)):
            cuts[-1].append(v)
        else:
            cuts.append([v])
    cuts.append([inf])
    pieces = [(a[-1], b[0]) for a, b in zip(cuts, cuts[1:])]
    inside = [sum(lo <= a and b <= hi for lo, hi in images) == d for a, b in pieces]
    for k, cut in enumerate(cuts[1:-1]):
        if len(cut) > 2 or (len(cut) == 2 and inside[k] == inside[k + 1]):
            raise UnresolvedDomain(
                f"critical values {cut[0]:.17g} to {cut[-1]:.17g} lie within "
                f"{_ENDPOINT_REL} of each other: whether a window, a gap or a "
                "puncture lies among them is below the resolution of the build"
            )
    kept = [piece for piece, ok in zip(pieces, inside) if ok]

    point = {v: c * unit for c, v in breaks if v is not None}
    endpoints = []
    for i, (lo, hi) in enumerate(kept):
        if math.isfinite(lo) and not (i > 0 and kept[i - 1][1] == lo):
            endpoints.append(DomainEndpoint(lo, "collision-boundary", point[lo]))
        if math.isfinite(hi):
            puncture = i + 1 < len(kept) and kept[i + 1][0] == hi
            kind = "puncture" if puncture else "collision-boundary"
            endpoints.append(DomainEndpoint(hi, kind, point[hi]))
    return HyperbolicDomain(intervals=tuple(kept), endpoints=tuple(endpoints))


def projection_residuals(mu, X, q: int) -> np.ndarray:
    """Left-hand sides of the q-d+1 projected moment equations at nodes X.

    Entry k is mu_k*sigma_d + mu_{k+1}*sigma_{d-1} + ... + mu_{k+d-1}*sigma_1
    + mu_{k+d} with the signed symmetric functions of X; all entries vanish
    exactly when X is a node vector consistent with the moments.
    """
    x = np.asarray(X, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("X must be a nonempty 1-d sequence")
    d = len(x)
    if not d <= q <= 2 * d - 1:
        raise ValueError(f"order q={q} must satisfy d <= q <= 2d-1 for d={d}")
    values = np.asarray(getattr(mu, "values", mu), dtype=float)
    if len(values) != q + 1:
        raise ValueError(f"expected {q + 1} moments for order q={q}, got {len(values)}")
    rev = elementary_symmetric(x).sigma[::-1]  # (sigma_d, ..., sigma_1)
    out = np.empty(q - d + 1)
    for k in range(q - d + 1):
        out[k] = float(np.dot(values[k : k + d], rev)) + values[k + d]
    return out


def _lift_budget(moments: list, sigma: list) -> float:
    """Largest moment defect a lifted family point may carry: _LIFT_REL
    times the scale of the moments and of the node polynomial's
    coefficients sigma, both plain floats."""
    mu_scale = max(1.0, max(map(abs, moments)))
    return _LIFT_REL * mu_scale * max(1.0, max(map(abs, sigma)))


def lift_to_solution(mu, X, q: int) -> Signal:
    """Signal on nodes X reproducing the full moment vector.

    Amplitudes come from the first d moments alone; the remaining q-d+1
    equations then hold automatically whenever the projected residuals
    vanish, and this is verified on the result rather than assumed.
    """
    mu = mu if isinstance(mu, MomentVector) else MomentVector(mu)
    x = np.asarray(X, dtype=float)
    res = projection_residuals(mu, x, q)
    budget = _lift_budget(mu.values.tolist(), elementary_symmetric(x).sigma.tolist())
    if float(np.max(np.abs(res), initial=0.0)) > budget:
        raise ResidualTooLarge(
            f"projected residual {float(np.max(np.abs(res))):.3e} exceeds "
            f"{budget:.3e}: nodes are not on the variety"
        )
    d = len(x)
    amps = amplitudes_from_nodes(mu.truncated(d - 1), x)
    signal = Signal(amplitudes=amps, nodes=x)
    back = compute_moments(signal, q).values
    if float(np.max(np.abs(back - mu.values))) > budget:
        raise ResidualTooLarge(
            "lifted signal fails to reproduce the full moment vector"
        )
    return signal

"""Hankel matrices and the one-missing-moment solution line in sigma-space.

With all moments mu_0..mu_{2d-1} of a d-spike train known, the coefficients
of the monic node polynomial solve a single d x d linear system whose matrix
is the Hankel matrix of (mu_0, ..., mu_{2d-2}).  Drop the top moment and the
solution set becomes a line: substituting a free parameter t for the last
right-hand side entry and applying Cramer's rule makes every coordinate
sigma_j(t) an affine function of t.  This module constructs that line, the
open parameter set where the node polynomial keeps d real distinct roots,
and the residuals of the projected moment equations used to test membership
of a candidate node vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import poly_engine
from .errors import (
    DegenerateHankel,
    InconsistentComputation,
    InterpolationInconsistency,
    ResidualTooLarge,
)
from .signal_model import (
    MomentVector,
    Signal,
    SymmetricCoords,
    amplitudes_from_nodes,
    compute_moments,
    elementary_symmetric,
    vieta_inverse,
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
# agreement required between the cofactor formulas and the two-point solve
_CROSS_CHECK_REL = 1e-6
# agreement required from the extra discriminant interpolation sample
_INTERP_CHECK_REL = 1e-6
# projected-system residuals below this (times scale) admit lifting
_LIFT_REL = 1e-8


def _sub_det(a: list, rows: tuple, cols: tuple, memo: dict) -> float:
    # determinant of a[rows][cols] by cofactor expansion along its first
    # row; every sub-determinant is computed once per memo, keyed by its
    # (rows, cols)
    key = (rows, cols)
    if key in memo:
        return memo[key]
    n = len(rows)
    top = a[rows[0]]
    if n == 1:
        det = top[cols[0]]
    elif n == 2:
        low = a[rows[1]]
        det = top[cols[0]] * low[cols[1]] - top[cols[1]] * low[cols[0]]
    else:
        det = 0.0
        for j in range(n):
            term = top[cols[j]] * _sub_det(a, rows[1:], cols[:j] + cols[j + 1 :], memo)
            det = det + term if j % 2 == 0 else det - term
    memo[key] = det
    return det


def _det_cofactor(a: list) -> float:
    full = tuple(range(len(a)))
    return _sub_det(a, full, full, {})


def _det(a: list, rows: tuple, cols: tuple, memo: dict) -> float:
    # determinant of a[rows][cols]: exact cofactor recursion while cheap,
    # pivoted LU beyond
    if len(rows) <= 4:
        return _sub_det(a, rows, cols, memo)
    return float(np.linalg.det(np.array([[a[r][c] for c in cols] for r in rows])))


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
    """Hankel matrix of a moment vector of odd length 2d-1."""
    values = np.asarray(getattr(mu, "values", mu), dtype=float)
    if values.ndim != 1 or values.size == 0 or values.size % 2 == 0:
        raise ValueError("need an odd number of moments mu_0..mu_{2d-2}")
    d = (len(values) + 1) // 2
    v = values.tolist()
    rows = [v[i : i + d] for i in range(d)]
    full = tuple(range(d))
    memo: dict = {}  # the minors share their sub-determinants
    if d == 1:
        minors = np.ones((1, 1))
    else:
        minors = np.array(
            [[_det(rows, full[:i] + full[i + 1 :], full[:j] + full[j + 1 :], memo)
              for j in range(d)] for i in range(d)]
        )
    det = _det(rows, full, full, memo)
    m = np.array(rows)
    m.setflags(write=False)
    minors.setflags(write=False)
    return HankelMatrix(entries=m, determinant=det, minors=minors)


@dataclass(frozen=True, eq=False)
class PronyLine:
    """Affine map t -> sigma(t) = slopes*t + intercepts solving the d moment
    equations with the top right-hand side entry replaced by t.

    ``slopes[j-1]`` and ``intercepts[j-1]`` belong to sigma_j.  The source
    moments (length 2d-1) and their Hankel matrix are kept for residual
    evaluation and downstream certificates.  The analyses of the family
    (hyperbolic_domain, sample_curve, detect_collisions, escape_analysis,
    curve_distance, classify_d2/d3, quartic_Pmu) accept the line in place
    of the moments.
    """

    d: int
    slopes: np.ndarray
    intercepts: np.ndarray
    hankel: HankelMatrix
    mu: MomentVector

    @property
    def detM(self) -> float:
        return self.hankel.determinant

    @cached_property
    def domain(self) -> "HyperbolicDomain":
        """The hyperbolic domain of this line, computed once."""
        return _build_domain(self)

    def sigma_at(self, t: float) -> SymmetricCoords:
        return SymmetricCoords(self.slopes * float(t) + self.intercepts)

    def point(self, t: float):
        """The family point (sigma, nodes, amplitudes) at t; NotHyperbolic or
        RepeatedNodes where sigma(t) has no d real distinct roots."""
        sigma = self.sigma_at(t)
        nodes = vieta_inverse(sigma)
        return sigma, nodes, amplitudes_from_nodes(self.mu, nodes)

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


def _regular_hankel(mu) -> HankelMatrix:
    """Hankel matrix of mu, refused when det M is not finite (ValueError) or
    below _DEGENERATE_REL of the largest first minor (DegenerateHankel): the
    one det M policy, shared by line_params and prony_solver.solve_complete."""
    H = hankel(mu)
    max_minor = float(np.max(np.abs(H.minors)))
    # NaN from inf - inf in the cofactors of huge moments passes every test
    if not (math.isfinite(H.determinant) and math.isfinite(max_minor)):
        raise ValueError("moments exceed double range: det M or a minor is not finite")
    if abs(H.determinant) <= _DEGENERATE_REL * max_minor:
        raise DegenerateHankel(
            f"det M = {H.determinant:.3e} is degenerate, below "
            f"{_DEGENERATE_REL} of the largest first minor {max_minor:.3e}: "
            "nodes collide identically or an amplitude vanishes identically"
        )
    return H


def line_params(mu) -> PronyLine:
    """Build the solution line from a moment vector of length 2d-1; a
    PronyLine is returned as it is.

    Slopes and intercepts come from the cofactor (Cramer) formulas
    sigma_{d-k+1} slope = (-1)^(d+k) M_{d,k} / det M; the result is then
    cross-checked against a direct linear solve of the full system at two
    parameter values.  The two routes are kept deliberately independent.

    The most recent line is remembered under the exact bytes of its
    moments, so analyses of one moment vector run back to back share one
    line and one domain build; 0.0 and -0.0 are different moments here.
    A vector that raises is not remembered and raises again on every call.
    """
    if isinstance(mu, PronyLine):
        return mu
    mu = mu if isinstance(mu, MomentVector) else MomentVector(mu)
    return _line_of(mu.values.tobytes())


@lru_cache(maxsize=1)
def _line_of(raw: bytes) -> PronyLine:
    # one entry: the callers that repeat a vector (analyze, curve, the
    # analyses of one family) finish with it before they turn to the next
    mu = MomentVector(np.frombuffer(raw))
    H = _regular_hankel(mu)
    d = H.d

    v = mu.values
    slopes = np.empty(d)
    intercepts = np.empty(d)
    for k in range(1, d + 1):
        j = d - k + 1
        slopes[j - 1] = (-1.0) ** (d + k) * H.minors[d - 1, k - 1] / H.determinant
        acc = 0.0
        for i in range(1, d):
            acc += (-1.0) ** (i + 1) * v[d + i - 1] * H.minors[i - 1, k - 1]
        intercepts[j - 1] = (-1.0) ** k * acc / H.determinant
    if not (np.all(np.isfinite(slopes)) and np.all(np.isfinite(intercepts))):
        raise ValueError("moments exceed double range: the line is not finite")

    # independent route: solve M * (sigma_d..sigma_1)^T = rhs(t) at t = 0, 1
    # and recover the affine data from the two solutions
    rhs0 = np.concatenate([-v[d : 2 * d - 1], [0.0]])
    rhs1 = np.concatenate([-v[d : 2 * d - 1], [1.0]])
    sig0 = np.linalg.solve(H.entries, rhs0)[::-1]
    sig1 = np.linalg.solve(H.entries, rhs1)[::-1]
    tol = _CROSS_CHECK_REL * max(
        1.0, float(np.max(np.abs(slopes))), float(np.max(np.abs(intercepts)))
    )
    if (
        float(np.max(np.abs(sig1 - sig0 - slopes))) > tol
        or float(np.max(np.abs(sig0 - intercepts))) > tol
    ):
        raise InconsistentComputation(
            "cofactor line formulas disagree with the direct two-point solve"
        )

    slopes.setflags(write=False)
    intercepts.setflags(write=False)
    return PronyLine(d=d, slopes=slopes, intercepts=intercepts, hankel=H, mu=mu)


@dataclass(frozen=True)
class DomainEndpoint:
    """Finite boundary point of the hyperbolic parameter set.

    kind is "collision-boundary" when exactly one side is hyperbolic and
    "puncture" when both sides are (an isolated interior collision).
    """

    t0: float
    kind: str


@dataclass(frozen=True, eq=False)
class HyperbolicDomain:
    """Open set of parameters where sigma(t) has d real distinct roots:
    disjoint sorted open intervals, possibly unbounded, possibly none."""

    intervals: tuple
    endpoints: tuple
    disc_poly: poly_engine.Poly

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0

    def contains(self, t: float) -> bool:
        return any(lo < t < hi for lo, hi in self.intervals)


def _line_evaluators(line: PronyLine):
    """sigma(t) and the exact restricted discriminant D(t) on plain floats.

    Domain construction evaluates these tens of thousands of times, so no
    SymmetricCoords or Poly is built per call: the line was checked once
    when it was made.  D(t) still goes through poly_engine.discriminant.
    """
    slopes = line.slopes.tolist()
    intercepts = line.intercepts.tolist()

    def sigma_at(t):
        return [s * t + b for s, b in zip(slopes, intercepts)]

    def disc_at(t):
        c = sigma_at(t)
        c.reverse()
        c.append(1.0)
        return poly_engine.discriminant(c)

    return sigma_at, disc_at


def _interp_disc_poly(disc_at, d: int, R: float) -> poly_engine.Poly:
    # Disc(Q_sigma(t)) restricted to the line is a polynomial in t of degree
    # at most 2d-2; recover it from 2d-1 samples at Chebyshev points, in the
    # scaled variable u = t/R for conditioning, and verify on a fresh sample.
    n = 2 * d - 1
    us = [math.cos((2 * i + 1) * math.pi / (2 * n)) for i in range(n)]
    vals = np.array([disc_at(R * u) for u in us])
    cu = np.linalg.solve(np.vander(us, increasing=True), vals)
    ct = np.array([cu[k] / R**k for k in range(n)])

    u_check = math.cos(1.0)  # never a Chebyshev node
    exact = disc_at(R * u_check)
    approx = float(np.polynomial.polynomial.polyval(u_check, cu))
    denom = max(float(np.max(np.abs(vals))), abs(exact))
    if denom > 0.0 and abs(approx - exact) > _INTERP_CHECK_REL * denom:
        raise InterpolationInconsistency(
            f"discriminant interpolant off by {abs(approx - exact):.3e} "
            f"(budget {_INTERP_CHECK_REL * denom:.3e}) at the check sample"
        )
    return poly_engine.Poly.from_coeffs(ct)


def _vanishing_slopes(line: PronyLine) -> list[bool]:
    # which slopes are zero on the line.  A slope below _DEGENERATE_REL of
    # the largest is the rounding residue of a vanishing last-row minor (the
    # det M policy of line_params); the slopes are those minors over det M,
    # so the test does not depend on the scale of the moments.
    floor = _DEGENERATE_REL * float(np.max(np.abs(line.slopes)))
    return [abs(s) <= floor for s in line.slopes.tolist()]


def _turning_points(line: PronyLine) -> list[float]:
    # where an individual sigma coordinate crosses zero; these set the
    # natural parameter scales of the line.  A coordinate with a vanishing
    # slope is constant on the line, and its far "turning point" would only
    # blow up the sampling radius.
    return [
        -b / s
        for s, b, zero in zip(line.slopes.tolist(), line.intercepts.tolist(),
                              _vanishing_slopes(line))
        if not zero
    ]


def _brent_disc(disc_at, a, b, fallback):
    """Zero of the exact restricted discriminant inside [a, b] by Brent's
    method (Brent 1973, ch. 4: bisection safeguarding secant and inverse
    quadratic steps), run to float resolution; returns ``fallback`` when the
    ends do not bracket a sign change (tangential contact)."""
    fa, fb = disc_at(a), disc_at(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        return fallback
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):  # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        if fb == 0.0:
            return b
        if math.nextafter(b, c) == c:  # float resolution reached
            return 0.5 * (b + c)
        tol = math.ulp(b)
        m = 0.5 * (c - b)
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b = b + d if abs(d) > tol else math.nextafter(b, c)
        fb = disc_at(b)


def _boundary_between(inside, t_in, t_out):
    # boolean bisection: inside(t_in) holds, inside(t_out) does not
    a, b = t_in, t_out
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:  # float resolution reached
            break
        if inside(m):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _expand_window(hyperbolic_at, p):
    """Maximal interval around p on which the exact root count gives the
    answer it gives at p: a hyperbolic window around a hyperbolic p, a gap
    around a non-hyperbolic one.  Found by outward geometric expansion and
    boolean bisection; sides with no exit within ~20 orders of magnitude
    are taken as unbounded."""
    at_p = hyperbolic_at(p)

    def inside(t):
        return hyperbolic_at(t) == at_p

    def edge(direction):
        step = 1e-3 * (1.0 + abs(p))
        t_in = p
        for _ in range(80):
            t_out = t_in + direction * step
            if not inside(t_out):
                return _boundary_between(inside, t_in, t_out)
            t_in = t_out
            step *= 2.0
        return direction * float("inf")

    return (edge(-1.0), edge(1.0))


def hyperbolic_domain(mu) -> HyperbolicDomain:
    """Parameter set where the node polynomial of the solution line of mu
    (moments of length 2d-1, or the PronyLine itself) is real-rooted with
    distinct roots: ``line_params(mu).domain``, built once per line.

    Raises what line_params raises, and InterpolationInconsistency when
    domain construction (_build_domain) flags a conditioning failure.
    """
    return line_params(mu).domain


def _build_domain(line: PronyLine) -> HyperbolicDomain:
    """The hyperbolic domain of a line, built afresh.

    Candidate endpoints are the real roots of the restricted discriminant;
    each candidate subinterval is accepted or rejected by a root-count probe
    at its midpoint (or at +-(|r_max|+1) for unbounded pieces, with a
    further probe one decade out demanding the same answer).  An empty
    result is returned as such, not raised; consumers that need a nonempty
    domain raise on it.
    """
    inf = float("inf")
    if line.d == 1:
        # a monic linear polynomial always has its one real root
        one = poly_engine.Poly.from_coeffs([1.0])
        return HyperbolicDomain(intervals=((-inf, inf),), endpoints=(), disc_poly=one)

    sigma_at, disc_at = _line_evaluators(line)
    turning = _turning_points(line)

    # widen the sampling radius until every discriminant root sits well
    # inside it; roots near or past the radius are poorly determined by the
    # far tail of the interpolant
    R = max([1.0] + [1.0 + abs(t) for t in turning])
    for _ in range(6):
        D = _interp_disc_poly(disc_at, line.d, R)
        roots = [float(r) for r in poly_engine.real_roots(D)]
        r_far = max((abs(r) for r in roots), default=0.0)
        if r_far <= 0.7 * R:
            break
        R = 2.0 * max(r_far, R)
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) <= 1e-10 * (1.0 + abs(r)):
            continue
        merged.append(r)

    bounds = [-inf] + merged + [inf]
    candidates = list(zip(bounds[:-1], bounds[1:]))
    r_max = max((abs(r) for r in merged), default=0.0)

    def hyperbolic_at(t):
        return poly_engine.is_hyperbolic(sigma_at(t))

    accepted = []
    probes = []
    for lo, hi in candidates:
        if math.isinf(lo) and math.isinf(hi):
            probe, fars = 0.0, (-10.0, 10.0)
        elif math.isinf(lo):
            probe = -(r_max + 1.0)
            fars = (10.0 * probe,)
        elif math.isinf(hi):
            probe = r_max + 1.0
            fars = (10.0 * probe,)
        else:
            probe, fars = 0.5 * (lo + hi), ()
        ok = hyperbolic_at(probe)
        if any(hyperbolic_at(far) != ok for far in fars):
            raise InterpolationInconsistency(
                "root count changes past the last discriminant root: far "
                "structure missed by the interpolant"
            )
        accepted.append(ok)
        probes.append(probe)

    # pin each kept endpoint down on the exact discriminant: interpolant
    # roots can drift when the sampled values span many orders of magnitude
    refined = []
    for idx, r in enumerate(merged):
        if accepted[idx] or accepted[idx + 1]:
            refined.append(_brent_disc(disc_at, probes[idx], probes[idx + 1], r))
        else:
            refined.append(r)

    bounds = [-inf] + refined + [inf]
    kept = [c for c, ok in zip(zip(bounds[:-1], bounds[1:]), accepted) if ok]

    # structural probes: the coordinate turning scales are where the
    # interpolant is most likely to have lost structure to rounding.  A
    # hyperbolic probe outside every kept interval pins the lost window by
    # direct expansion; a non-hyperbolic probe inside a kept interval carves
    # the lost gap out of it.
    for p in [0.0] + turning:
        if any(abs(p - r) <= 1e-9 * (1.0 + abs(p)) for r in refined):
            continue
        cover = next((i for i, (lo, hi) in enumerate(kept) if lo < p < hi), None)
        if hyperbolic_at(p):
            if cover is None:
                kept.append(_expand_window(hyperbolic_at, p))
        elif cover is not None:
            lo, hi = kept.pop(cover)
            a, b = _expand_window(hyperbolic_at, p)
            a, b = max(a, lo), min(b, hi)
            if a <= lo and b >= hi:
                raise InterpolationInconsistency(
                    f"non-hyperbolic probe at t={p:.6g} contradicts the whole "
                    "accepted interval around it"
                )
            if a > lo:
                kept.append((lo, a))
            if b < hi:
                kept.append((b, hi))

    kept.sort()
    swept: list = []
    for lo, hi in kept:
        if swept and lo < swept[-1][1]:
            swept[-1] = (swept[-1][0], max(swept[-1][1], hi))
        else:
            swept.append((lo, hi))

    endpoints = []
    for i, (lo, hi) in enumerate(swept):
        if math.isfinite(lo) and not (i > 0 and swept[i - 1][1] == lo):
            endpoints.append(DomainEndpoint(lo, "collision-boundary"))
        if math.isfinite(hi):
            if i + 1 < len(swept) and swept[i + 1][0] == hi:
                endpoints.append(DomainEndpoint(hi, "puncture"))
            else:
                endpoints.append(DomainEndpoint(hi, "collision-boundary"))
    return HyperbolicDomain(
        intervals=tuple(swept), endpoints=tuple(endpoints), disc_poly=D
    )


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


def _lift_budget(moments, sigma) -> float:
    """Largest moment defect a lifted family point may carry: _LIFT_REL
    times the scale of the moments and of the node polynomial's
    coefficients sigma."""
    mu_scale = max(1.0, float(np.max(np.abs(moments))))
    return _LIFT_REL * mu_scale * max(1.0, float(np.max(np.abs(sigma))))


def lift_to_solution(mu, X, q: int) -> Signal:
    """Signal on nodes X reproducing the full moment vector.

    Amplitudes come from the first d moments alone; the remaining q-d+1
    equations then hold automatically whenever the projected residuals
    vanish, and this is verified on the result rather than assumed.
    """
    mu = mu if isinstance(mu, MomentVector) else MomentVector(mu)
    x = np.asarray(X, dtype=float)
    res = projection_residuals(mu, x, q)
    budget = _lift_budget(mu.values, elementary_symmetric(x).sigma)
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

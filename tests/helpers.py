"""Shared test utilities: tolerances, random-instance builders, strategies."""

import math
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import strategies as st

from prony import prony_line
from prony.errors import (
    NotHyperbolic,
    NoRealSolution,
    RepeatedNodes,
    ResidualTooLarge,
)
from prony.prony_solver import _RESIDUAL_RTOL, _degenerate_inverse
from prony.signal_model import (
    Signal,
    _amplitudes,
    _check_finite,
    _check_signal,
    _moments,
    _real_nodes_many,
    _unwrap,
)


# d = 4 moments mu_0..mu_7 of a signal with a close pair, whose Hankel
# matrix is singular to LU: np.linalg.solve raises LinAlgError on it,
# stacked or alone.  Its exact |det M| is 1.8e-15 of the largest first
# minor, so the det M policy refuses it, on the first seven alone too; a
# float cofactor table once let it pass, with det M = 7.48e-11 against the
# exact -6.48e-14
SINGULAR_LU_MU = [-108.45808513305067, 75.77757654947045, -60.293245125276364,
                  52.07683329618369, -47.00701295444623, 43.35910892198191,
                  -40.403751790627624, 0.5]


def relerr(a, b):
    """Relative difference scaled against max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def exact_line(mu):
    """(base, slope) of sigma(t) in exact rationals, from the float moments."""
    d = (len(mu) + 1) // 2
    m = [sympy.Rational(v) for v in mu]
    M = sympy.Matrix(d, d, lambda i, j: m[i + j])
    rhs = sympy.Matrix([-m[d + k] for k in range(d - 1)] + [0])
    base = M.LUsolve(rhs)
    slope = M.LUsolve(sympy.Matrix([0] * (d - 1) + [1]))
    return list(base)[::-1], list(slope)[::-1]


def exact_det(rows):
    """Determinant of a square matrix of floats or Fractions, exact, by
    Gaussian elimination in Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def exact_hankel(mu):
    """(det M, first minors) of the Hankel matrix of the float moments
    mu_0..mu_{2d-2}, exact Fractions; minors[i][j] deletes row i and
    column j, and the one minor of d = 1 is 1."""
    d = (len(mu) + 1) // 2
    rows = [[Fraction(mu[i + j]) for j in range(d)] for i in range(d)]
    minors = [[exact_det([r[:j] + r[j + 1 :] for r in rows[:i] + rows[i + 1 :]])
               for j in range(d)] for i in range(d)]
    return exact_det(rows), minors


def exact_policy_ratio(mu):
    """|det M| over the largest first minor of the Hankel matrix of the
    float moments mu_0..mu_{2d-2}, exact: the det M policy refuses M where
    this is at most 1e-12 (the double), and 0 where M is singular."""
    det, minors = exact_hankel(mu)
    return abs(det) / max(abs(m) for row in minors for m in row) if det else Fraction(0)


def exact_d3_verdicts(mu):
    """(collision, bounded) of the d = 3 closed form, decided exactly from
    the float moments mu_0..mu_4: collision iff the paper's cubic
    discriminant along the exact line has a real root, by sympy's Sturm
    count ("indeterminate" where it vanishes identically), bounded iff
    mu0^4 K < 0, in Fractions, where
    K = discriminant_cubic_paper(3 mu1/mu0, 3 mu2/mu0, mu3/mu0)
    ("indeterminate" where mu0, mu0 mu2 - mu1^2 or K is zero)."""
    t = sympy.Symbol("t")
    s1, s2, s3 = (b + s * t for b, s in zip(*exact_line(mu)))
    disc = sympy.Poly(27 * s3 ** 2 + 4 * s2 ** 3 - s1 ** 2 * s2 ** 2
                      + 4 * s1 ** 3 * s3 - 18 * s1 * s2 * s3, t)
    collision = ("indeterminate" if disc.is_zero
                 else "yes" if disc.count_roots() > 0 else "no")

    m0, m1, m2, m3 = map(Fraction, mu[:4])
    if m0 == 0 or m0 * m2 == m1 * m1:
        return collision, "indeterminate"
    r1, r2, r3 = 3 * m1 / m0, 3 * m2 / m0, m3 / m0
    k4 = m0 ** 4 * (27 * r3 * r3 + 4 * r2 ** 3 - r1 * r1 * r2 * r2
                    + 4 * r1 ** 3 * r3 - 18 * r1 * r2 * r3)
    return collision, "indeterminate" if k4 == 0 else "yes" if k4 < 0 else "no"


def exact_discriminant(sigma):
    """Standard discriminant of z^d + s1*z^(d-1) + ... + sd, exact from the
    rational values of the float sigma (a vector or SymmetricCoords)."""
    s = [sympy.Rational(float(v)) for v in np.asarray(getattr(sigma, "sigma", sigma), dtype=float)]
    return float(sympy.discriminant(sympy.Poly([1] + s, sympy.Symbol("z"))))


def random_signal(rng, d, min_gap=0.1, max_gap=2.0, amp_lo=0.1, amp_hi=10.0):
    x0 = rng.uniform(-3.0, 3.0)
    gaps = rng.uniform(min_gap, max_gap, size=d - 1) if d > 1 else np.empty(0)
    nodes = np.concatenate([[x0], x0 + np.cumsum(gaps)]) if d > 1 else np.array([x0])
    amps = rng.uniform(amp_lo, amp_hi, size=d) * rng.choice([-1.0, 1.0], size=d)
    return Signal(amplitudes=amps, nodes=nodes)


@st.composite
def signal_strategy(draw, min_d=1, max_d=5, min_gap=0.1):
    d = draw(st.integers(min_d, max_d))
    x0 = draw(st.floats(-3.0, 3.0, allow_nan=False))
    gaps = draw(
        st.lists(st.floats(min_gap, 2.0, allow_nan=False), min_size=d - 1, max_size=d - 1)
    )
    nodes = np.concatenate([[x0], x0 + np.cumsum(gaps)]) if d > 1 else np.array([x0])
    mags = draw(st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    return Signal(amplitudes=np.array(mags) * np.array(signs), nodes=nodes)


def list_solve_many(vs):
    """The reference for prony_solver._solve_many: solve_complete on each
    list of plain floats mu_0..mu_{2d-1} in vs, all of one length, list by
    list on plain floats, without building a Signal.  Per list its
    (amplitudes, nodes) as lists, or the exception solve_complete raises
    there.  Each Hankel matrix is inverted alone for the det M policy, the
    Hankel systems go to one stacked np.linalg.solve, and the node
    polynomials to one signal_model._real_nodes_many call."""
    d = len(vs[0]) // 2 if vs else 0
    out = []
    for v in vs:
        try:
            _check_finite(v, "moments")
        except ValueError as exc:
            out.append(exc)
            continue
        rows = [v[i : i + d] for i in range(d)]
        try:
            top = float(np.max(np.abs(np.linalg.inv([rows])[0])))
        except np.linalg.LinAlgError:  # singular to LU
            top = np.inf
        # NaN from inf - inf in the inverse fails the policy too
        out.append(rows if top < 1.0 / prony_line._DEGENERATE_REL else _degenerate_inverse(top))

    # M (sigma_d, ..., sigma_1)^T = -(mu_d, ..., mu_{2d-1})^T
    live = [k for k, rows in enumerate(out) if isinstance(rows, list)]
    if live:
        solved = np.linalg.solve([out[k] for k in live], [[[-m] for m in vs[k][d:]] for k in live])
        for k, c in zip(live, solved[..., 0].tolist()):  # c = [sigma_d, ..., sigma_1]
            try:
                _check_finite(c, "sigma")
                out[k] = c + [1.0]
            except ValueError as exc:
                out[k] = exc

    live = [k for k, c in enumerate(out) if isinstance(c, list)]
    for k, nodes in zip(live, _real_nodes_many([out[k] for k in live])):
        try:
            out[k] = _signal_of(vs[k], nodes)
        except (ValueError, NoRealSolution, ResidualTooLarge) as exc:
            out[k] = exc
    return out


def list_distances(line, targets, ts):
    """The reference for prony_solver._distances: per t of ts, the Euclidean
    distance from the (amplitudes + nodes) sequence beside it in targets to
    the family point at t, point by point on plain floats
    (PronyLine._points of one t): inf outside the hyperbolic set or where
    sigma(t) has no d distinct real roots, the ValueError where sigma(t) is
    not finite.  Each sum of squares is one np.dot."""
    out = []
    for target, t in zip(targets, ts):
        point = line._points([t])[0] if line.domain.contains(t) else None
        if point is None or isinstance(point, (NotHyperbolic, RepeatedNodes)):
            out.append(math.inf)
        elif isinstance(point, ValueError):
            out.append(point)
        else:
            _, nodes, amps = point
            with np.errstate(all="ignore"):  # sums past the double range
                diff = np.subtract(amps + nodes, target)
                out.append(math.sqrt(np.dot(diff, diff)))
    return out


def _signal_of(v, nodes):
    # the last stage of solve_complete on the moments v, given the roots
    # of its node polynomial (or the NotHyperbolic raised there): the
    # amplitudes, the signal checks and the residual
    d = len(v) // 2
    try:
        nodes = _unwrap(nodes)
    except NotHyperbolic as exc:
        raise NoRealSolution(
            "no real node configuration matches these moments") from exc
    try:
        amps = _amplitudes(v[:d], nodes)
        _check_signal(amps, nodes)
    except (RepeatedNodes, ValueError) as exc:
        raise NoRealSolution(
            "recovered nodes or amplitudes are degenerate") from exc

    back = _moments(amps, nodes, 2 * d - 1)
    _check_finite(back, "moments")
    defect = max(abs(b - a) for b, a in zip(back, v))
    scale = max(1.0, max(map(abs, v)))
    if defect > _RESIDUAL_RTOL * scale:
        raise ResidualTooLarge(
            f"reconstruction misses the moments by {defect:.3e} "
            f"(allowed {_RESIDUAL_RTOL * scale:.3e})")
    return amps, nodes

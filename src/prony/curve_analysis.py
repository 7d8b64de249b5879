"""Walking the one-missing-moment solution family and certifying its limits.

Moment data mu_0..mu_{2d-2} pins the signal down to a one-parameter family:
a line t -> sigma(t) in coefficient space whose hyperbolic part carries
actual signals (A(t), X(t)).  This module samples that family in full
amplitude/node coordinates and produces numerical certificates for the two
limit behaviors: amplitude blow-up where two nodes collide at a finite
boundary parameter, and single-node escape along unbounded components.

The analyses run on plain-float lists, with the same float operations as
the array code they replace: PronyLine._node_poly gives the node
polynomial at t, poly_engine._roots its roots, signal_model._amplitudes
and _moments the amplitudes and moments, and _deflate2 divides Q_t0 by
(z - x0)^2 as npoly.polydiv does.  numpy stays where it sets output bits:
the companion eigenvalues (np.linalg.eigvals), and the limit polynomial of
a collision (np.convolve in _from_roots) with its dot product against the
moments, both rounded by BLAS.  The line and det M are exact values,
rounded once (prony_line.line_params).  The public results keep their
array fields.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from . import poly_engine, prony_line
from .errors import (
    InconsistentComputation,
    InterpolationInconsistency,
    NotHyperbolic,
    NoUnboundedComponent,
    RepeatedNodes,
)
from .signal_model import (
    SymmetricCoords,
    _amplitudes,
    _check_finite,
    _check_signal,
    _moments,
    _real_nodes,
    _unwrap,
)

logger = logging.getLogger(__name__)

# a collision probe whose product invariant misses by more than this is
# unresolved, and the next rung out is tried
_PROBE_QUALITY = 1e-7


@dataclass(frozen=True, eq=False)
class CurveSample:
    """One family point in full (A, X) coordinates.

    residual is the largest absolute defect over the 2d-1 defining moment
    equations; product_residual is the relative defect of the invariant
    |prod a_i| * det(V(X))^2 = |det M| that forces amplitude blow-up when
    nodes merge.
    """

    t: float
    sigma: SymmetricCoords
    nodes: np.ndarray
    amplitudes: np.ndarray
    residual: float
    product_residual: float

    def __post_init__(self):
        if len(self.nodes) != len(self.amplitudes):
            raise ValueError("one amplitude per node")
        x = np.asarray(self.nodes, dtype=float).tolist()
        if not all(b > a for a, b in zip(x, x[1:])):  # False on NaN
            raise ValueError("nodes must be strictly increasing")


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Blow-up certificate for one finite boundary point of the family.

    pair_index is the 0-based position i of the colliding pair (nodes i and
    i+1) in the sorted node vector.  numerator is collision_numerator of
    the limit configuration at t0, NaN when that configuration has no d-1
    distinct real nodes; numerator_bound is its rounding allowance (NaN
    likewise).  blowup_confirmed holds exactly when |numerator| exceeds
    numerator_bound: False means "not certified", never "no blow-up".

    The rest is evidence, never part of the verdict (see
    detect_collisions).  probes holds at most one row (t, gap, |a_i|,
    |a_{i+1}|, product mismatch), the resolved family point nearest t0.
    beta is the limit of |a_i| * gap; predicted_gap is the gap the limit
    predicts at the probe's t; blowup_bound and gap_bound are the stated
    relative bounds on | |a| * gap / |beta| - 1 | and |gap / predicted_gap
    - 1|.  Each is NaN where it does not apply.
    """

    t0: float
    pair_index: int
    probes: tuple
    numerator: float
    numerator_bound: float
    blowup_confirmed: bool
    beta: float = math.nan
    predicted_gap: float = math.nan
    blowup_bound: float = math.nan
    gap_bound: float = math.nan

    def __post_init__(self):
        gaps = [row[1] for row in self.probes]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("probe gaps must strictly decrease toward t0")
        if self.blowup_confirmed != (abs(self.numerator) > self.numerator_bound):
            raise ValueError("the verdict must be |numerator| > numerator_bound")


@dataclass(frozen=True, eq=False)
class EscapeReport:
    """Limit classification of the node vector along an unbounded component.

    Indices refer to positions in the sorted node vector.  bounded_limits
    holds the limit of each bounded index, in order: the real roots of the
    slope polynomial S.  hypothesis_met records whether the leading slope
    s_1 (the top-left (d-1) minor of the moment matrix over det M) is
    nonzero; only then does a single node escape.  ambiguous_indices is
    always empty.

    The rest is evidence (see escape_analysis).  probes holds one row (t,
    nodes-as-tuple), the first probe outward that shows the order the
    expansion predicts; predicted is the expansion's node vector at that t,
    and escape_bound the stated relative bound on |x / predicted - 1| for
    the escaping nodes (the bounded ones have the order check instead).
    """

    direction: float
    escaping_indices: tuple
    bounded_indices: tuple
    bounded_limits: np.ndarray
    ambiguous_indices: tuple
    hypothesis_met: bool
    probes: tuple
    predicted: tuple = ()
    escape_bound: float = math.nan

    def __post_init__(self):
        if len(self.bounded_limits) != len(self.bounded_indices):
            raise ValueError("one limit per bounded node")


def _probe_point(line, t):
    """Family point plus product mismatch, without the conservative gate.

    Collision probes sit close to a double root, where vieta_inverse
    refuses to classify; the root finder of real_roots, on the monic
    polynomial with its leading 1 never trimmed, still resolves the pair
    there.  None marks the resolution wall: fewer than d real roots, or
    repeated nodes.  Nodes and amplitudes are lists.
    """
    roots = poly_engine._roots(line._node_poly(t))
    if len(roots) != line.d:
        return None
    try:
        amps = _amplitudes(line._plain[2], roots)
    except RepeatedNodes:
        return None
    return roots, amps, _product_mismatch(amps, roots, line.detM)


def _vandermonde_det(nodes):
    det = 1.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            det *= nodes[j] - nodes[i]
    return det


def _product_mismatch(amps: list, nodes: list, detM):
    # plain floats: a product past the double range is inf, without a
    # RuntimeWarning, and the mismatch NaN (** raises OverflowError there)
    vdet = _vandermonde_det(nodes)
    lhs = abs(math.prod(amps)) * (vdet**2 if abs(vdet) < 1e154 else math.inf)
    rhs = abs(detM)
    return abs(lhs - rhs) / max(lhs, rhs, 1e-300)


def sample_curve(mu, grid) -> list:
    """Evaluate the family at every grid parameter inside the hyperbolic set.

    Out-of-domain grid points are logged and skipped, never errors: the
    grid is a request, the domain decides.  So are points whose signal
    misses mu_0..mu_{2d-2} by more than lift_to_solution allows, or has an
    amplitude rounded to zero (a far node whose amplitude only rounding
    sets).  Each returned sample carries its own residual diagnostics, see
    CurveSample.  The node polynomials of the in-domain grid points are
    rooted in one batch (PronyLine._points); the log records, and an error
    at a point, still come in grid order.
    """
    line = prony_line.line_params(mu)
    values = line.mu.values.tolist()
    ts = [float(t) for t in np.asarray(grid, dtype=float)]
    inside = [line.domain.contains(t) for t in ts]
    points = iter(line._points([t for t, ok in zip(ts, inside) if ok]))
    out = []
    for t, ok in zip(ts, inside):
        if not ok:
            logger.info("grid point t=%.17g outside the hyperbolic set; skipped", t)
            continue
        point = next(points)
        if isinstance(point, (NotHyperbolic, RepeatedNodes)):
            # containment comes from the critical values of the build; very
            # close to a boundary the direct check can still refuse the point
            logger.warning("grid point t=%.17g rejected on direct evaluation: %s", t, point)
            continue
        sigma, nodes, amps = _unwrap(point)
        if 0.0 in amps:  # det M != 0: a zero is rounding, not the family
            logger.warning("grid point t=%.17g skipped: an amplitude rounds to zero", t)
            continue
        _check_signal(amps, nodes)
        defect = _moments(amps, nodes, 2 * line.d - 2)
        _check_finite(defect, "moments")
        residual = max(abs(a - b) for a, b in zip(defect, values))
        budget = prony_line._lift_budget(values, sigma)
        if residual > budget:
            logger.warning(
                "grid point t=%.17g skipped: its signal misses the moments by "
                "%.3e (allowed %.3e)", t, residual, budget)
            continue
        out.append(
            CurveSample(
                t=t,
                sigma=SymmetricCoords(sigma),
                nodes=np.array(nodes),
                amplitudes=np.array(amps),
                residual=residual,
                product_residual=_product_mismatch(amps, nodes, line.detM),
            )
        )
    return out


def collision_numerator(mu, Xstar) -> float:
    """Amplitude numerator mu_0*r_{d-1} + mu_1*r_{d-2} + ... + mu_{d-1}.

    r_k are the signed symmetric functions of the d-1 limit nodes, i.e.
    the ascending coefficients of prod (z - x_i).  When det M != 0 this
    value is nonzero at every collision limit configuration, which is what
    drives the colliding amplitudes to infinity; detect_collisions certifies
    the blow-up from it.
    """
    values = np.asarray(getattr(mu, "values", mu), dtype=float)
    if values.ndim != 1 or values.size == 0 or values.size % 2 == 0:
        raise ValueError("need an odd number of moments mu_0..mu_{2d-2}")
    d = (len(values) + 1) // 2
    x = np.asarray(Xstar, dtype=float)
    if x.ndim != 1 or len(x) != d - 1:
        raise ValueError(f"need {d - 1} limit nodes, got {len(x)}")
    coeffs = _from_roots(x)  # coeffs[k] = r_{d-1-k}, coeffs[d-1] = 1
    return float(np.dot(values[:d], coeffs))


def _from_roots(roots) -> np.ndarray:
    # npoly.polyfromroots without its input conversions: the same product
    # tree of the linear factors of the sorted roots, by np.convolve, whose
    # dot products (BLAS) set the bits
    factors = [np.array([-x, 1.0]) for x in sorted(roots)] or [np.ones(1)]
    while len(factors) > 1:
        m, odd = divmod(len(factors), 2)
        tree = [np.convolve(factors[i], factors[i + m]) for i in range(m)]
        if odd:
            tree[0] = np.convolve(tree[0], factors[-1])
        factors = tree
    return factors[0]


def _deflate2(c: list, x0: float) -> list:
    # the quotient of the ascending coefficients c (monic, degree >= 2) by
    # (z - x0)^2, step for step as npoly.polydiv computes it
    c = list(c)
    a, b = x0 * x0, -2.0 * x0
    for j in range(len(c) - 1, 1, -1):
        c[j - 2] -= a * c[j]
        c[j - 1] -= b * c[j]
    return c[2:]


def _taylor3(c, x):
    # the Taylor coefficients of orders 0, 1, 2 at x of the polynomial with
    # ascending coefficients c, zero past its degree
    return (K.shifted_coeffs(c, x) + [0.0, 0.0])[:3]


def _collision_probe(line, t0, side, lo, hi):
    # the rung t0 + side * 1e-8 * max(1, |t0|) nearest t0, stepped out by a
    # factor 10 (up to 1e-2) only while the family point is unresolved:
    # (t, nodes, amplitudes, mismatch), or None
    for k in range(8, 1, -1):
        t = t0 + side * max(1.0, abs(t0)) * 10.0 ** (-k)
        if lo < t < hi:
            point = _probe_point(line, t)
            if point is not None and point[2] <= _PROBE_QUALITY:
                return (t,) + point
    return None


def detect_collisions(mu) -> list:
    """One blow-up certificate per finite boundary point of the family.

    At an endpoint t0 = phi(x0) (see prony_line.DomainEndpoint) two nodes
    collide at the double root x0 of Q_t0; the other d-2 limit nodes are
    the real roots of R = Q_t0 / (z - x0)^2.  By the blow-up theorem the
    colliding amplitudes grow like 1/gap when the numerator of this limit
    configuration (collision_numerator) is nonzero, which det M != 0
    guarantees in exact arithmetic.  The report certifies the blow-up when
    |numerator| exceeds _ENDPOINT_REL * sum_k |mu_k| |c_k|, with c_k the
    coefficients of the limit polynomial p = prod (z - x_i); it abstains
    (numerator NaN) when R has no d-2 distinct real roots.

    Evidence, from the confluent limit: the limit measure at t0 is
    sum c_j delta_{x_j} + a delta_{x0} + beta delta'_{x0}, so the numerator
    sum mu_k p_k is beta p'(x0) and |a_i| * gap -> |beta|.  Near t0 the
    pair sits at x0 +- g/2 with g = 2 sqrt(|t - t0| |S(x0)| / |R(x0)|)
    (R(x0) = Q_t0''(x0)/2 = p'(x0)), and its amplitudes are
    (a -+ beta * 2/g) / 2 + O(|t - t0|).  So | |a_i| * gap / |beta| - 1 |
    is |a / beta| g/2 + O(|t - t0|), and gap / g - 1 is -K g^2/8 +
    O(|t - t0|^2), K from the Taylor coefficients of R and S at x0.  Each
    bound is twice that next term, plus the rounding of the probe
    (2d eps times Horner's magnitude of Q_t at x0 over |Q_t(x0)|) and,
    for the blow-up, the numerator's own allowance.  (t - t0) S(x0) is
    evaluated as Q_t(x0), equal in exact arithmetic and free of the
    rounding of t0.  The probe is the point nearest t0 that resolves (see
    _collision_probe); one warning is logged when it falls outside a bound.
    Returns an empty list when the parameter set has no finite boundary
    points.
    """
    line = prony_line.line_params(mu)
    domain = line.domain
    d = line.d
    slopes, _, values = line._plain
    head = line.mu.values[:d]
    reports = []
    for ep in domain.endpoints:
        t0, x0 = ep.t0, ep.x0
        rest = _deflate2(line._node_poly(t0), x0)
        others = poly_engine._roots(poly_engine._coeffs(rest))
        pair = sum(1 for x in others if x < x0)
        r0, r1, r2 = _taylor3(rest, x0)
        numerator = bound = beta = weight = math.nan
        if len(others) == d - 2:
            # collision_numerator, and its bound from the same coefficients
            coeffs = _from_roots(others[:pair] + [x0] + others[pair:])
            numerator = float(np.dot(head, coeffs))
            bound = prony_line._ENDPOINT_REL * float(np.dot(np.abs(head), np.abs(coeffs)))
            if r0 != 0.0:
                # p = (z - x0) R: p'(x0) = R(x0), and a = (L(R) - beta R'(x0)) / R(x0)
                beta = numerator / r0
                moment_of_rest = sum(m * c for m, c in zip(values, rest))
                weight = (moment_of_rest - beta * r1) / r0
        else:
            logger.warning("no real limit configuration at endpoint t0=%.17g", t0)

        adjacent = [iv for iv in domain.intervals if iv[1] == t0]
        if adjacent:
            side = -1.0  # approach from the left component (puncture tie-break)
        else:
            adjacent = [iv for iv in domain.intervals if iv[0] == t0]
            side = 1.0
        probe = _collision_probe(line, t0, side, *adjacent[0])
        rows = ()
        gap_pred = blowup_bound = gap_bound = math.nan
        drive = 0.0
        if probe is not None:
            t, nodes, amps, mismatch = probe
            gap = nodes[pair + 1] - nodes[pair]
            rows = ((t, gap, abs(amps[pair]), abs(amps[pair + 1]), mismatch),)
            qt = line._node_poly(t)
            drive = K.horner(qt, x0)  # (t - t0) S(x0)
        half = math.sqrt(abs(drive / r0)) if r0 != 0.0 else 0.0
        s0, s1, s2 = _taylor3(slopes[::-1], x0)
        if 0.0 < half < math.inf and s0 != 0.0:
            gap_pred = 2.0 * half
            magnitude = K.horner([abs(c) for c in qt], abs(x0))
            rounding = 2 * d * poly_engine._EPS * magnitude / abs(drive)
            shift = 0.5 * (s1 / s0 - r1 / r0)
            curvature = shift * shift + (3.0 * r1 / r0 - s1 / s0) * shift + r2 / r0 - s2 / s0
            gap_bound = abs(curvature) * half * half + rounding
            outside = abs(gap / gap_pred - 1.0) > gap_bound
            if math.isfinite(beta) and beta != 0.0:
                blowup_bound = (2.0 * abs(weight / beta) * half + rounding
                                + bound / abs(numerator))
                outside = outside or max(abs(row * gap / abs(beta) - 1.0)
                                 for row in rows[0][2:4]) > blowup_bound
            if outside:
                logger.warning(
                    "the probe at t=%.17g departs from the closed-form limit at "
                    "t0=%.17g beyond its bound", t, t0)
        reports.append(
            CollisionReport(
                t0=t0,
                pair_index=pair,
                probes=rows,
                numerator=numerator,
                numerator_bound=bound,
                blowup_confirmed=abs(numerator) > bound,
                beta=beta,
                predicted_gap=gap_pred,
                blowup_bound=blowup_bound,
                gap_bound=gap_bound,
            )
        )
    return reports


def _escape_prediction(line, m, t, escaping, bounded, limits):
    # the node vector of the expansion at infinity at t, and the relative
    # bound of the escaping nodes: twice the next two terms h v1 + h^2 v2 of
    # x = lead (1 + h v1 + h^2 v2 + ...), h = 1/|lead|, plus rounding
    d = line.d
    s = line._plain[0] + [0.0, 0.0]
    b = line._plain[1] + [0.0, 0.0]
    predicted = [0.0] * d
    if m == 1:
        # x / T = v solves v - 1 + h (b_1 - (s_2/s_1)/v) + h^2 (b_2/v - (s_3/s_1)/v^2) + ...
        lead = -s[0] * t
        predicted[escaping[0]] = lead
        v1 = s[1] / s[0] - b[0]
        v2 = -s[1] / s[0] * v1 - b[1] + s[2] / s[0]
    else:
        # x / R = v solves v^2 - 1 + h (B v - (s_3/s_2)/v) + h^2 (b_2 - (s_4/s_2)/v^2) + ...
        lead = math.sqrt(-s[1] * t)
        predicted[escaping[0]], predicted[escaping[1]] = -lead, lead
        big_b, ratio = b[0] + s[0] * t, s[2] / s[1]
        v1 = 0.5 * (ratio - big_b)
        v2 = 0.5 * (v1 * v1 + (big_b + ratio) * v1 + b[1] - s[3] / s[1])
    qb, ds = b[d - 1::-1] + [1.0], K.poly_derivative(s[d - 1::-1])
    for i, r in zip(bounded, limits):
        den = t * K.horner(ds, r)
        predicted[i] = r - K.horner(qb, r) / den if den != 0.0 else r
    if lead == 0.0:  # the leading term underflows: nothing to compare
        return tuple(predicted), math.inf
    h = 1.0 / abs(lead)
    return tuple(predicted), 2.0 * (abs(v1) * h + abs(v2) * h * h) + 2 * d * poly_engine._EPS


def escape_analysis(mu, direction) -> EscapeReport:
    """Which nodes escape toward +-inf, and the limits of the others.

    The node polynomial on the line is Q_b(z) + t*S(z), with the slopes
    s_1..s_d as the coefficients of S.  With m - 1 leading slopes zero
    (below _DEGENERATE_REL of the largest slope, a scale-free test), m
    nodes escape like the m-th roots of -s_m*t and the rest tend to the
    roots of S.  m = 1 (hypothesis_met): the last node escapes when
    -s_1*direction > 0, else the first.  m = 2: the first and the last
    escape, which needs -s_2*direction > 0.  Any other case, or S without
    d-m distinct real roots, contradicts the unbounded component and raises
    InterpolationInconsistency.

    Evidence: probes at |t| = base * 10^k, k = 1, 2, ..., 8 (base clears
    the component's finite end), stopping at the first whose nodes show
    the order the expansion predicts: each bounded node nearer to its own
    limit than to any other, and each escaping node beyond every limit on
    its side.  A first probe that rounding makes non-hyperbolic raises
    InterpolationInconsistency; when no probe shows the order before one
    is non-hyperbolic or the rungs run out, InconsistentComputation is
    raised.  On the evidence probe the expansion predicts -s_1 t (m = 1)
    or -+sqrt(-s_2 t) (m = 2) for the escaping nodes, and r_j - Q_b(r_j) /
    (t S'(r_j)) for the bounded node tending to the root r_j of S.  The
    escaping nodes' bound is twice the next two terms of their expansion
    plus rounding (see _escape_prediction); one warning is logged when an
    escaping node falls outside it.
    """
    direction = float(direction)
    if not math.isinf(direction):
        raise ValueError("direction must be +inf or -inf")
    line = prony_line.line_params(mu)
    domain = line.domain
    if direction > 0:
        pick = [iv for iv in domain.intervals if iv[1] == math.inf]
        finite_end = pick[0][0] if pick else math.nan
    else:
        pick = [iv for iv in domain.intervals if iv[0] == -math.inf]
        finite_end = pick[0][1] if pick else math.nan
    if not pick:
        raise NoUnboundedComponent(f"no unbounded component toward {direction:+g}")
    base = max(1.0, abs(finite_end)) if math.isfinite(finite_end) else 1.0
    sign = 1.0 if direction > 0 else -1.0

    d = line.d
    slopes = line._plain[0]
    m = prony_line._leading_zero_slopes(slopes) + 1
    lead = slopes[m - 1]
    if m == 1:
        escaping = (d - 1,) if -lead * sign > 0.0 else (0,)
    elif m == 2 and -lead * sign > 0.0:
        escaping = (0, d - 1)
    else:
        raise InterpolationInconsistency(
            f"unbounded component claim contradicted toward {direction:+g}: "
            f"{m} nodes would escape, not all along real branches"
        )
    limits = (np.empty(0) if m == d
              else poly_engine.hyperbolic_roots([c / lead for c in slopes[m:]]))
    if limits is None:
        raise InterpolationInconsistency(
            f"unbounded component claim contradicted toward {direction:+g}: "
            f"S has no {d - m} distinct real roots for the bounded nodes to tend to"
        )
    bounded = tuple(i for i in range(d) if i not in escaping)

    lim = limits.tolist()
    probe = None
    shown = False
    for k in range(1, 9):
        t = sign * base * 10.0 ** k
        try:
            x = tuple(_real_nodes(line._node_poly(t)))
        except NotHyperbolic as exc:
            if probe is not None:
                break  # past what double precision resolves; S decides
            raise InterpolationInconsistency(
                f"unbounded component claim contradicted at t={t:.17g}"
            ) from exc
        probe = (t, x)
        # evidence, free of tolerances: the probe shows the order the
        # expansion predicts
        nearest_own = all(abs(x[i] - lim[j]) < abs(x[i] - other)
                          for j, i in enumerate(bounded)
                          for other in lim[:j] + lim[j + 1:])
        beyond = all(x[i] > max(lim, default=-math.inf) if i == d - 1
                     else x[i] < min(lim, default=math.inf) for i in escaping)
        if nearest_own and beyond:
            shown = True
            break
    if not shown:
        raise InconsistentComputation(
            f"the probe at t={probe[0]:.17g} does not show nodes {escaping} escaping "
            f"toward {direction:+g} and the rest nearing the roots of S"
        )

    t, x = probe
    predicted, escape_bound = _escape_prediction(line, m, t, escaping, bounded, lim)
    if escape_bound < math.inf and any(abs(x[i] / predicted[i] - 1.0) > escape_bound
                                       for i in escaping):
        logger.warning("the probe at t=%.17g departs from the expansion at infinity "
                       "beyond its bound", t)
    return EscapeReport(
        direction=direction,
        escaping_indices=escaping,
        bounded_indices=bounded,
        bounded_limits=limits,
        ambiguous_indices=(),
        hypothesis_met=m == 1,
        probes=(probe,),
        predicted=predicted,
        escape_bound=escape_bound,
    )

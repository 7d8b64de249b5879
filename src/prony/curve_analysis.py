"""Walking the one-missing-moment solution family and certifying its limits.

Moment data mu_0..mu_{2d-2} pins the signal down to a one-parameter family:
a line t -> sigma(t) in coefficient space whose hyperbolic part carries
actual signals (A(t), X(t)).  This module samples that family in full
amplitude/node coordinates and produces numerical certificates for the two
limit behaviors: amplitude blow-up where two nodes collide at a finite
boundary parameter, and single-node escape along unbounded components.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import poly_engine, prony_line
from .errors import (
    InconsistentComputation,
    InterpolationInconsistency,
    NotHyperbolic,
    NoUnboundedComponent,
    RepeatedNodes,
)
from .signal_model import (
    Signal,
    SymmetricCoords,
    amplitudes_from_nodes,
    compute_moments,
    vieta_inverse,
)

logger = logging.getLogger(__name__)

_PROBE_KMIN = 2
_PROBE_KMAX = 8
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
        if len(self.nodes) > 1 and not np.all(np.diff(self.nodes) > 0.0):
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
    probes rows are (t, gap, |a_i|, |a_{i+1}|, product mismatch) ordered
    toward t0, evidence of the 1/gap law that may be empty.
    """

    t0: float
    pair_index: int
    probes: tuple
    numerator: float
    numerator_bound: float
    blowup_confirmed: bool

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
    slope polynomial S.  probes rows are (t, nodes-as-tuple) with |t|
    growing geometrically, kept as evidence.  hypothesis_met records
    whether the leading slope s_1 (the top-left (d-1) minor of the moment
    matrix over det M) is nonzero; only then does a single node escape.
    ambiguous_indices is always empty.
    """

    direction: float
    escaping_indices: tuple
    bounded_indices: tuple
    bounded_limits: np.ndarray
    ambiguous_indices: tuple
    hypothesis_met: bool
    probes: tuple

    def __post_init__(self):
        if len(self.bounded_limits) != len(self.bounded_indices):
            raise ValueError("one limit per bounded node")

    @property
    def escaping_index(self):
        """The unique escaping position, or None when there is not exactly one."""
        if len(self.escaping_indices) == 1:
            return self.escaping_indices[0]
        return None


def _probe_point(line, t):
    """Family point plus product mismatch, without the conservative gate.

    Collision probes sit close to a double root, where vieta_inverse
    refuses to classify; real_roots still resolves the pair there.  None
    marks the resolution wall: fewer than d real roots, or repeated nodes.
    """
    roots = poly_engine.real_roots(poly_engine.monic_from_sigma(line.sigma_at(t)))
    if len(roots) != line.d:
        return None
    try:
        amps = amplitudes_from_nodes(line.mu, roots)
    except RepeatedNodes:
        return None
    return roots, amps, _product_mismatch(amps, roots, line.detM)


def _vandermonde_det(nodes):
    det = 1.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            det *= nodes[j] - nodes[i]
    return det


def _product_mismatch(amps, nodes, detM):
    lhs = abs(float(np.prod(amps))) * _vandermonde_det(nodes) ** 2
    rhs = abs(detM)
    return abs(lhs - rhs) / max(lhs, rhs, 1e-300)


def sample_curve(mu, grid) -> list:
    """Evaluate the family at every grid parameter inside the hyperbolic set.

    Out-of-domain grid points are logged and skipped, never errors: the
    grid is a request, the domain decides.  So are points whose signal
    misses mu_0..mu_{2d-2} by more than lift_to_solution allows, or has an
    amplitude rounded to zero (a far node whose amplitude only rounding
    sets).  Each returned sample carries its own residual diagnostics, see
    CurveSample.
    """
    line = prony_line.line_params(mu)
    out = []
    for t_raw in np.asarray(grid, dtype=float):
        t = float(t_raw)
        if not line.domain.contains(t):
            logger.info("grid point t=%.17g outside the hyperbolic set; skipped", t)
            continue
        try:
            sigma, nodes, amps = line.point(t)
        except (NotHyperbolic, RepeatedNodes) as exc:
            # containment comes from the critical values of the build; very
            # close to a boundary the direct check can still refuse the point
            logger.warning("grid point t=%.17g rejected on direct evaluation: %s", t, exc)
            continue
        if not np.all(amps):  # det M != 0: a zero is rounding, not the family
            logger.warning("grid point t=%.17g skipped: an amplitude rounds to zero", t)
            continue
        defect = compute_moments(Signal(amplitudes=amps, nodes=nodes), 2 * line.d - 2)
        residual = float(np.max(np.abs(defect.values - line.mu.values)))
        budget = prony_line._lift_budget(line.mu.values, sigma.sigma)
        if residual > budget:
            logger.warning(
                "grid point t=%.17g skipped: its signal misses the moments by "
                "%.3e (allowed %.3e)", t, residual, budget)
            continue
        out.append(
            CurveSample(
                t=t,
                sigma=sigma,
                nodes=nodes,
                amplitudes=amps,
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
    coeffs = npoly.polyfromroots(x)  # coeffs[k] = r_{d-1-k}, coeffs[d-1] = 1
    return float(np.dot(values[:d], coeffs))


def _probe_table(raw, pair):
    rows = []
    for t, nodes, amps, mismatch in raw:
        rows.append(
            (
                t,
                float(nodes[pair + 1] - nodes[pair]),
                abs(float(amps[pair])),
                abs(float(amps[pair + 1])),
                mismatch,
            )
        )
    # keep the longest tail on which the gap strictly decreases; far probes
    # may predate the asymptotic regime
    cut = 0
    for i in range(len(rows) - 1, 0, -1):
        if rows[i - 1][1] <= rows[i][1]:
            cut = i
            break
    return tuple(rows[cut:])


def detect_collisions(mu) -> list:
    """One blow-up certificate per finite boundary point of the family.

    At an endpoint t0 = phi(x0) (see prony_line.DomainEndpoint) two nodes
    collide at the double root x0 of Q_t0; the other d-2 limit nodes are
    the real roots of Q_t0 / (z - x0)^2.  By the blow-up theorem the
    colliding amplitudes grow like 1/gap when the numerator of this limit
    configuration (collision_numerator) is nonzero, which det M != 0
    guarantees in exact arithmetic.  The report certifies the blow-up when
    |numerator| exceeds _ENDPOINT_REL * sum_k |mu_k| |c_k|, with c_k the
    coefficients of the limit polynomial prod (z - x_i); it abstains
    (numerator NaN) when the quotient has no d-2 distinct real roots.

    Probes at t0 -+ 10^-k * max(1, |t0|), k = 2..8, from inside the
    adjacent component are evidence only; an unresolvable rung is skipped,
    and the table may be empty.  Returns an empty list when the
    parameter set has no finite boundary points.
    """
    line = prony_line.line_params(mu)
    domain = line.domain
    d = line.d
    reports = []
    for ep in domain.endpoints:
        t0, x0 = ep.t0, ep.x0
        q = poly_engine.monic_from_sigma(line.sigma_at(t0)).coefficients
        others = poly_engine.real_roots(npoly.polydiv(q, [x0 * x0, -2.0 * x0, 1.0])[0])
        pair = int(np.sum(others < x0))
        numerator = bound = math.nan
        if len(others) == d - 2:
            limit = np.insert(others, pair, x0)
            numerator = collision_numerator(line.mu, limit)
            bound = prony_line._ENDPOINT_REL * float(
                np.dot(np.abs(line.mu.values[:d]), np.abs(npoly.polyfromroots(limit))))
        else:
            logger.warning("no real limit configuration at endpoint t0=%.17g", t0)

        adjacent = [iv for iv in domain.intervals if iv[1] == t0]
        if adjacent:
            side = -1.0  # approach from the left component (puncture tie-break)
        else:
            adjacent = [iv for iv in domain.intervals if iv[0] == t0]
            side = 1.0
        lo, hi = adjacent[0]
        raw = []
        for k in range(_PROBE_KMIN, _PROBE_KMAX + 1):
            t = t0 + side * max(1.0, abs(t0)) * 10.0 ** (-k)
            if not lo < t < hi:
                continue
            point = _probe_point(line, t)
            if point is None or point[2] > _PROBE_QUALITY:
                continue  # unresolvable rung; a closer one may still resolve
            raw.append((t,) + point)
        rows = _probe_table(raw, pair)
        verdict = abs(numerator) > bound
        band = [row[1] * row[2] for row in rows[-4:]]
        if verdict and band and max(band) > 10.0 * min(band):
            # soft check: expected ~1/gap rate, worth flagging but not an error
            logger.warning(
                "blow-up rate drifts from the ~1/gap band at t0=%.17g (spread %.3g)",
                t0,
                max(band) / min(band),
            )
        reports.append(
            CollisionReport(
                t0=t0,
                pair_index=pair,
                probes=rows,
                numerator=numerator,
                numerator_bound=bound,
                blowup_confirmed=verdict,
            )
        )
    return reports


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
    InterpolationInconsistency.  The probes at |t| = base * 10^k, k = 1..8
    (base clears the component's finite end) are evidence: the ladder stops
    at the first probe that rounding makes non-hyperbolic, and raises
    InterpolationInconsistency when that is the first.  On the last probe
    each bounded node must lie nearer to its own limit than to any other,
    and each escaping node beyond every limit on its side, else
    InconsistentComputation is raised.
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
    m = prony_line._leading_zero_slopes(line) + 1
    lead = float(line.slopes[m - 1])
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
              else poly_engine.hyperbolic_roots(line.slopes[m:] / lead))
    if limits is None:
        raise InterpolationInconsistency(
            f"unbounded component claim contradicted toward {direction:+g}: "
            f"S has no {d - m} distinct real roots for the bounded nodes to tend to"
        )
    bounded = tuple(i for i in range(d) if i not in escaping)

    probes = []
    for k in range(1, 9):
        t = sign * base * 10.0 ** k
        try:
            nodes = vieta_inverse(line.sigma_at(t))
        except NotHyperbolic as exc:
            if probes:
                break  # past what double precision resolves; S decides
            raise InterpolationInconsistency(
                f"unbounded component claim contradicted at t={t:.17g}"
            ) from exc
        probes.append((t, tuple(float(x) for x in nodes)))

    # evidence, free of tolerances: the last resolved probe already shows
    # the order the expansion predicts
    t, x = probes[-1]
    lim = limits.tolist()
    nearest_own = all(abs(x[i] - lim[j]) < abs(x[i] - other)
                      for j, i in enumerate(bounded)
                      for other in lim[:j] + lim[j + 1:])
    beyond = all(x[i] > max(lim, default=-math.inf) if i == d - 1
                 else x[i] < min(lim, default=math.inf) for i in escaping)
    if not (nearest_own and beyond):
        raise InconsistentComputation(
            f"the probe at t={t:.17g} does not show nodes {escaping} escaping "
            f"toward {direction:+g} and the rest nearing the roots of S"
        )

    return EscapeReport(
        direction=direction,
        escaping_indices=escaping,
        bounded_indices=bounded,
        bounded_limits=limits,
        ambiguous_indices=(),
        hypothesis_met=m == 1,
        probes=tuple(probes),
    )

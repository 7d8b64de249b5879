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
    Signal,
    SymmetricCoords,
    amplitudes_from_nodes,
    compute_moments,
    vieta_inverse,
)

logger = logging.getLogger(__name__)

_PROBE_KMIN = 2
_PROBE_KMAX = 8
_PROBE_KDEEP = 16
_PROBE_QUALITY = 1e-7
_BLOWUP_THRESHOLD = 1e6


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

    probes rows are (t, gap, |a_i|, |a_{i+1}|, product mismatch) ordered
    toward t0; pair_index is the 0-based position i of the colliding pair
    (nodes i and i+1) in the sorted node vector.  numerator is the limit
    value that must stay away from zero for the blow-up mechanism to
    operate (NaN when the limit configuration could not be resolved).
    """

    t0: float
    pair_index: int
    probes: tuple
    numerator: float
    threshold: float
    blowup_confirmed: bool

    def __post_init__(self):
        gaps = [row[1] for row in self.probes]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("probe gaps must strictly decrease toward t0")
        if self.blowup_confirmed and not _blowup_certified(self.probes, self.threshold):
            raise ValueError("confirmed verdict is not supported by the probe table")


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


def _split_merged_pair(coeffs, roots):
    """Resolve one nearly-double root into its two members, or None.

    Near a collision the certified root finder reports the pair as a
    single merged root m.  The quadratic Taylor factor at m still
    separates the members down to a gap of order sqrt(eps); two Newton
    steps against the full polynomial then sharpen each member.
    """
    c = list(coeffs)
    dc = K.poly_derivative(c)
    ddc = K.poly_derivative(dc)
    j = int(np.argmin([abs(K.horner(dc, r)) for r in roots]))
    m = roots[j]
    q0 = K.horner(c, m)
    q1 = K.horner(dc, m)
    q2 = 0.5 * K.horner(ddc, m)
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc <= 0.0 or q2 == 0.0:
        return None
    sq = math.sqrt(disc)
    u1 = (-q1 - sq) / (2.0 * q2)
    u2 = (-q1 + sq) / (2.0 * q2)
    pair = []
    for u in (u1, u2):
        x = m + u
        for _ in range(2):
            fp = K.horner(dc, x)
            if fp == 0.0:
                break
            x -= K.horner(c, x) / fp
        pair.append(x)
    full = np.sort(np.concatenate((np.delete(roots, j), pair)))
    if len(full) != len(roots) + 1 or np.any(np.diff(full) <= 0.0):
        return None
    return full


def _probe_point(line, t):
    """Family point plus product mismatch, without the conservative gate.

    Collision probes sit deliberately close to a double root, where
    vieta_inverse refuses to classify; the root finder still resolves the
    pair directly (d = 2 closed form) or via the merged-pair split until
    roughly the sqrt(eps) wall.  None marks that resolution wall.
    """
    q = poly_engine.monic_from_sigma(line.sigma_at(t))
    roots = poly_engine.real_roots(q)
    if len(roots) == line.d - 1 and line.d >= 3:
        roots = _split_merged_pair(q.coefficients.tolist(), roots)
        if roots is None:
            return None
    elif len(roots) != line.d:
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
            # containment came from interpolated boundary data; very close
            # to a boundary the direct check can still refuse the point
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
    drives the colliding amplitudes to infinity; it is exposed here as a
    certificate diagnostic.
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


def _blowup_certified(rows, threshold):
    # both colliding amplitudes strictly increasing over the last 4 probes
    # and past the threshold at the closest one
    if len(rows) < 4:
        return False
    for col in (2, 3):
        vals = [row[col] for row in rows[-4:]]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            return False
        if vals[-1] < threshold:
            return False
    return True


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


def _limit_nodes(raw_last, pair):
    # limit configuration: the colliding pair merged at its midpoint,
    # taken from the closest resolvable probe
    nodes = raw_last[1]
    merged = np.delete(nodes, pair + 1)
    merged[pair] = 0.5 * (nodes[pair] + nodes[pair + 1])
    return merged


def detect_collisions(mu, blowup_threshold: float = _BLOWUP_THRESHOLD) -> list:
    """One blow-up certificate per finite boundary point of the family.

    Probes approach each endpoint from inside the adjacent component at
    t0 -+ 10^-k * max(1, |t0|), k = 2..8, deepened to k <= 14 while the
    probed amplitudes keep growing but have not cleared the threshold.
    The colliding pair is the adjacent pair with the smallest gap at the
    closest probe, ties broken toward the smaller index.  Returns an empty
    list when the parameter set has no finite boundary points.
    """
    line = prony_line.line_params(mu)
    domain = line.domain
    reports = []
    for ep in domain.endpoints:
        t0 = ep.t0
        adjacent = [iv for iv in domain.intervals if iv[1] == t0]
        if adjacent:
            side = -1.0  # approach from the left component (puncture tie-break)
        else:
            adjacent = [iv for iv in domain.intervals if iv[0] == t0]
            side = 1.0
        lo, hi = adjacent[0]
        scale = max(1.0, abs(t0))
        raw = []
        k = _PROBE_KMIN
        while k <= _PROBE_KDEEP:
            if k > _PROBE_KMAX and raw:
                pair = int(np.argmin(np.diff(raw[-1][1])))
                if _blowup_certified(_probe_table(raw, pair), blowup_threshold):
                    break
            t = t0 + side * scale * 10.0 ** (-k)
            k += 1
            if t == t0:
                break  # below float spacing at t0; deeper probes collapse
            if not lo < t < hi:
                continue
            point = _probe_point(line, t)
            if point is None or point[2] > _PROBE_QUALITY:
                break  # past the numerically resolvable part of the approach
            raw.append((t,) + point)
        if not raw:
            logger.warning("no resolvable probes at endpoint t0=%.17g; skipped", t0)
            continue
        pair = int(np.argmin(np.diff(raw[-1][1])))
        rows = _probe_table(raw, pair)
        verdict = _blowup_certified(rows, blowup_threshold)
        if verdict:
            band = [row[1] * row[2] for row in rows[-4:]]
            if max(band) > 10.0 * min(band):
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
                numerator=collision_numerator(line.mu, _limit_nodes(raw[-1], pair)),
                threshold=float(blowup_threshold),
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
    InterpolationInconsistency, as does a non-hyperbolic probe at
    |t| = base * 10^k, k = 1..8 (base clears the component's finite end).
    The last probe is evidence: each bounded node must lie nearer to its
    own limit than to any other, and each escaping node beyond every limit
    on its side, else InconsistentComputation is raised.
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
            raise InterpolationInconsistency(
                f"unbounded component claim contradicted at t={t:.17g}"
            ) from exc
        probes.append((t, tuple(float(x) for x in nodes)))

    # evidence, free of tolerances: the last probe already shows the order
    # the expansion predicts
    x = probes[-1][1]
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

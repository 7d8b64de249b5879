"""Complete-system solving and the noise-amplification experiment.

The complete system (even-length moment vector, q = 2d-1) determines the
signal outright: a d x d Hankel solve gives the symmetric coordinates, root
finding gives the nodes, the explicit Vandermonde formula gives the
amplitudes.  The experiment half perturbs the moments of a size-h node
cluster, solves each perturbed system, and records per h the worst distance
of the reconstructions from the true signal and from the point of the
one-missing-moment solution family at the reconstruction's own parameter,
with log-log slopes fitted to both.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import poly_engine, prony_line
from .errors import (
    DegenerateHankel,
    EmptyDomain,
    NoRealSolution,
    NotHyperbolic,
    RepeatedNodes,
    ResidualTooLarge,
    TooFewValidTrials,
)
from .signal_model import (
    _NOT_HYPERBOLIC,
    Signal,
    _amplitudes,
    _check_signal,
    _monic_product,
    _real_nodes_many,
    _unwrap,
    compute_moments,
)

__all__ = [
    "NoiseConfig",
    "AmplificationResult",
    "solve_complete",
    "make_cluster_signal",
    "curve_distance",
    "amplification_experiment",
]

logger = logging.getLogger(__name__)

# A reconstructed signal must reproduce its defining moments to this
# precision relative to the moment scale, or the solve is reported failed.
_RESIDUAL_RTOL = 1e-8

# golden-section ratio and relative stopping width, as scipy.optimize.golden
# uses them
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1.4901161193847656e-08  # sqrt of the double epsilon

# log-spaced parameter offsets per side of t* in the grid on which the
# experiment seeks the nearest family point when t-hat leaves the domain
_T_RESOLUTION = 21

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR 128/64)
# constants, under numpy's names; _uniform_streams draws with them
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class NoiseConfig:
    """Experiment layout, the whole of a run's settings: the cluster's node
    count d, the noise level epsilon, the trials per cluster size, the
    master seed of the noise streams, and the strictly decreasing cluster
    sizes h_grid (at least two, for the slopes).  from_mapping refuses
    any other key.
    """

    d: int
    epsilon: float
    trials: int
    seed: int
    h_grid: tuple

    def __post_init__(self):
        # JSON's true, false, null and strings are no numbers here, though
        # Python takes a bool for an int and float() reads a numeric string
        grid = [self.h_grid] if isinstance(self.h_grid, str) else list(self.h_grid)
        for name, values in (("d", [self.d]), ("epsilon", [self.epsilon]),
                             ("trials", [self.trials]), ("seed", [self.seed]),
                             ("h_grid", grid)):
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
                raise ValueError(f"{name} must be numeric, not {getattr(self, name)!r}")
        if int(self.d) != self.d or self.d < 2:
            raise ValueError("d must be an integer >= 2")
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be positive and finite")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        grid = tuple(float(h) for h in grid)
        if len(grid) < 2:
            raise ValueError("h_grid needs at least two values to fit slopes")
        if not all(0.0 < h < math.inf for h in grid):
            raise ValueError("h_grid values must be positive and finite")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValueError("h_grid must be strictly decreasing")
        object.__setattr__(self, "h_grid", grid)
        # an integral float such as 3.0, which passed the checks, is stored
        # as the integer it equals
        for name in ("d", "trials", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))

    @classmethod
    def from_mapping(cls, data) -> "NoiseConfig":
        keys = [f.name for f in fields(cls)]
        extra = set(data) - set(keys)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        for field in keys:
            if field not in data:
                raise ValueError(f"config is missing {field!r}")
        try:
            return cls(**data)
        except TypeError as exc:  # a field of the wrong JSON type
            raise ValueError(f"malformed config: {exc}") from exc


@dataclass(frozen=True, eq=False)
class AmplificationResult:
    """Per-h worst-case errors and the fitted log-log slopes.

    rows holds (h, max point error, max curve distance, failed trials) in
    h_grid order; slopes and R^2 come from ordinary least squares on
    log(error) vs log(h).  The point error is a max norm over amplitudes
    and nodes.  The curve distance is Euclidean, to the family point at
    the reconstruction's own parameter t-hat, not to the nearest family
    point, so it may exceed the point error.
    """

    rows: tuple
    point_slope: float
    point_intercept: float
    point_r2: float
    curve_slope: float
    curve_intercept: float
    curve_r2: float

    def __post_init__(self):
        if len(self.rows) < 2:
            raise ValueError("need at least two h rows")
        for row in self.rows:
            if len(row) != 4:
                raise ValueError("rows must be (h, point, curve, failed)")


def solve_complete(mu) -> Signal:
    """Signal whose first 2d moments equal the given even-length vector.

    The Hankel system determines the symmetric coordinates, whose monic
    polynomial must have d distinct real roots; NoRealSolution otherwise
    (under noise this is the honest, frequent failure mode).  The returned
    signal is verified to reproduce the input moments to relative 1e-8
    (ResidualTooLarge on violation).  DegenerateHankel where the Hankel
    matrix fails the det M policy of line_params, read as an entry of
    M^-1 = adj M / det M not below 1/_DEGENERATE_REL, or is singular to LU.
    """
    values = np.asarray(getattr(mu, "values", mu), dtype=float)
    if values.ndim != 1 or values.size < 2 or values.size % 2 != 0:
        raise ValueError("need an even number of moments mu_0..mu_{2d-1}")
    return Signal(*_unwrap(_solve_many([values.tolist()])[0]))


def _solve_many(vs) -> list:
    """solve_complete on each row mu_0..mu_{2d-1} of vs, a (T, 2d) array or
    T lists of plain floats of one length, without building a Signal: per
    row its (amplitudes, nodes) as lists, or the exception solve_complete
    raises there.

    Every row gets each check solve_complete makes, in its order: finite
    moments, the det M policy, a finite solution of its Hankel system, d
    certified distinct real roots, nonzero amplitudes on strictly
    increasing nodes, and the residual.  Each stage is one pass over all
    rows, on (T,) numpy columns; a row that fails a stage keeps the
    exception it fails with and is masked out of the stages after it.  The
    columns repeat the arithmetic of one row on plain floats, operation for
    operation, so each row gets the bits of solve_complete on it alone:
    numpy's elementwise +, -, *, /, abs and sqrt round as Python's floats
    do, the Hankel matrices are inverted in one stacked np.linalg.inv (the
    det M policy reads M^-1) and solved in one stacked np.linalg.solve,
    and the powers of the residual come from Python's float power (see
    _moment_columns).  Quadratic node polynomials are rooted on the columns
    (poly_engine._hyperbolic_quadratics), the others in one
    signal_model._real_nodes_many call.
    """
    if len(vs) == 0:
        return []
    mu = np.array(vs, dtype=float)
    T, d = mu.shape[0], mu.shape[1] // 2
    out = [None] * T
    live = np.ones(T, dtype=bool)

    # masked rows run on whatever their columns hold: overflows, zero
    # divisors, NaN
    with np.errstate(all="ignore"):
        for k in _leave(live, ~np.isfinite(mu).all(axis=1)):
            out[k] = ValueError("moments must be finite")
        v = list(mu.T)
        # the det M policy, |det M| <= _DEGENERATE_REL * the largest first
        # minor, read on M^-1 = adj M / det M, whose entries are the first
        # minors over det M up to sign
        ks = live.nonzero()[0]
        i = np.arange(d)
        hankels = mu[ks][:, i[:, None] + i]
        top = np.full(T, np.nan)
        top[ks] = abs(_stacked_inverse(hankels)).max(axis=(1, 2))
        for k in _leave(live, ~(top < 1.0 / prony_line._DEGENERATE_REL)):
            out[k] = _degenerate_inverse(float(top[k]))

        # M (sigma_d, ..., sigma_1)^T = -(mu_d, ..., mu_{2d-1})^T, the
        # right-hand sides shaped (T, d, 1), stacked columns to numpy 1.x and
        # 2.x alike; no M left is singular to LU, which the inverses share
        # with the solves
        y = np.full((T, d), np.nan)
        y[live] = np.linalg.solve(hankels[live[ks]], -mu[live, d:, None])[..., 0]
        for k in _leave(live, ~np.isfinite(y).all(axis=1)):
            out[k] = ValueError("sigma must be finite")

        hyperbolic, x, amps = _nodes_and_amplitudes(y, v[:d], live)
        for k in _leave(live, ~hyperbolic):
            out[k] = _caused(NoRealSolution("no real node configuration matches these moments"),
                             NotHyperbolic(_NOT_HYPERBOLIC))

        # a vanishing Lagrange denominator (RepeatedNodes in the scalar
        # code) leaves the row's amplitudes not finite
        degenerate = (~np.isfinite(amps).all(axis=1) | ~np.isfinite(x).all(axis=1)
                      | (amps == 0.0).any(axis=1) | ~(x[:, 1:] > x[:, :-1]).all(axis=1))
        for k in _leave(live, degenerate):
            out[k] = _caused(NoRealSolution("recovered nodes or amplitudes are degenerate"),
                             _signal_fault(mu[k, :d].tolist(), x[k].tolist()))

        ks = live.nonzero()[0]
        back = np.full((T, 2 * d), np.nan)
        back[ks] = _moment_columns(amps[ks], x[ks], 2 * d - 1)
        for k in _leave(live, ~np.isfinite(back).all(axis=1)):
            out[k] = ValueError("moments must be finite")
        defect = abs(back - mu).max(axis=1)
        allowed = _RESIDUAL_RTOL * np.maximum(1.0, abs(mu).max(axis=1))
        for k in _leave(live, defect > allowed):
            out[k] = ResidualTooLarge(
                f"reconstruction misses the moments by {float(defect[k]):.3e} "
                f"(allowed {float(allowed[k]):.3e})")

    ks = live.nonzero()[0]
    for k, a, nodes in zip(ks.tolist(), amps[ks].tolist(), x[ks].tolist()):
        out[k] = (a, nodes)
    return out


def _leave(live: np.ndarray, mask: np.ndarray) -> list:
    # the indices of the rows both live and in mask, in order; they leave
    # live, which is updated in place
    mask = mask & live
    if not mask.any():
        return []
    live &= ~mask
    return mask.nonzero()[0].tolist()


def _caused(exc: Exception, cause: Exception) -> Exception:
    # exc as `raise exc from cause` leaves it
    exc.__cause__ = cause
    return exc


def _signal_fault(head: list, nodes: list):
    # the RepeatedNodes or ValueError that the amplitudes of the plain
    # floats head = mu_0..mu_{d-1} at nodes, or the signal checks, raise
    try:
        _check_signal(_amplitudes(head, nodes), nodes)
    except (RepeatedNodes, ValueError) as exc:
        return exc


def _stacked_inverse(a: np.ndarray) -> np.ndarray:
    # the inverses of the matrices a (T, d, d) from one np.linalg.inv call,
    # which runs LAPACK on each matrix as a call on it alone does.  Where
    # the stacked call raises, each matrix is inverted alone, and one
    # singular to LU gets an inverse of inf
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full(a.shape, np.inf)
        for k in range(len(a)):
            try:
                out[k] = np.linalg.inv(a[k : k + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return out


def _degenerate_inverse(top: float) -> DegenerateHankel:
    return DegenerateHankel(
        f"M^-1 has an entry of {top:.3e}, not below 1/{prony_line._DEGENERATE_REL}: "
        f"det M is degenerate, at most {prony_line._DEGENERATE_REL} of the largest "
        "first minor: nodes collide identically or an amplitude vanishes identically")


def _nodes_and_amplitudes(y: np.ndarray, head: list, rows: np.ndarray):
    # the roots of the monic node polynomials with the coefficients y (T, d)
    # = (sigma_d, ..., sigma_1), and their amplitudes from head =
    # mu_0..mu_{d-1}, (T,) columns or plain floats: (hyperbolic, x, amps),
    # where hyperbolic marks the rows among rows (a (T,) mask) whose
    # polynomial has d certified distinct real roots, and x and amps are
    # (T, d) arrays, junk on the other rows.  Quadratics are rooted on the
    # columns (poly_engine._hyperbolic_quadratics), the others in one
    # _real_nodes_many call, certified on columns too where the rows are
    # at least poly_engine._COLUMN_ROWS; each row gets the bits of its own
    # call
    T, d = y.shape
    if d == 2:
        hyperbolic, lo, hi = poly_engine._hyperbolic_quadratics(y[:, 0], y[:, 1])
        hyperbolic &= rows
        x = np.stack([lo, hi], axis=1)
    else:
        ks = rows.nonzero()[0]
        hyperbolic = np.zeros(T, dtype=bool)
        x = np.full((T, d), np.nan)
        for k, nodes in zip(ks.tolist(), _real_nodes_many([c + [1.0] for c in y[ks].tolist()])):
            if isinstance(nodes, list):
                hyperbolic[k] = True
                x[k] = nodes
    return hyperbolic, x, _amplitude_columns(head, list(x.T))


def _amplitude_columns(head: list, x: list) -> np.ndarray:
    # signal_model._amplitudes over the (T,) columns head = mu_0..mu_{d-1}
    # and x = the d nodes, elementwise, as a (T, d) array
    d = len(x)
    amps = []
    for k in range(d):
        lagrange = 1.0
        for i in range(d):
            if i != k:
                lagrange = lagrange * (x[k] - x[i])
        # rest[j] = r_{d-1-j}(X \ x_k), with rest[d-1] = r_0 = 1
        rest = _monic_product(x[:k] + x[k + 1 :])
        acc = 0.0
        for j in range(d):
            acc = acc + rest[j] * head[j]
        amps.append(acc / lagrange)
    return np.stack(amps, axis=1)


def _moment_columns(amps: np.ndarray, nodes: np.ndarray, q: int) -> np.ndarray:
    # signal_model._moments of each row of the (T, d) arrays amps and nodes,
    # as a (T, q+1) array with the same bits.  x**0 is 1.0 and x**1 is x;
    # the powers past them come from Python's float power, libm's pow,
    # entry by entry, since numpy's power differs from it in the last bit
    # on some doubles.  A power past the double range is inf here, where
    # _moments raises: either way the row's moments are not finite
    flat = nodes.ravel().tolist()
    out = np.empty((len(nodes), q + 1))
    for k in range(q + 1):
        if k == 0:
            powers = np.ones_like(nodes)
        elif k == 1:
            powers = nodes
        else:
            powers = np.array(_powers(flat, k)).reshape(nodes.shape)
        acc = 0.0
        for i in range(nodes.shape[1]):
            acc = acc + amps[:, i] * powers[:, i]
        out[:, k] = acc
    return out


def _powers(xs: list, k: int) -> list:
    # x**k of each plain float of xs, inf where that raises OverflowError
    out = []
    for x in xs:
        try:
            out.append(x**k)
        except OverflowError:
            out.append(math.inf)
    return out


def make_cluster_signal(d: int, h: float) -> Signal:
    """d nodes equispaced across [0, h] with alternating +-1 amplitudes."""
    if int(d) != d or d < 2:
        raise ValueError("cluster needs an integer d >= 2")
    if not (h > 0.0):
        raise ValueError("cluster size h must be positive")
    nodes = np.linspace(0.0, float(h), int(d))
    amps = np.array([(-1.0) ** i for i in range(int(d))])
    return Signal(amps, nodes)


def _family_columns(jobs) -> list:
    # the family points at the parameters ts of each (line, ts) of jobs, on
    # (R,) columns over the R parameters of all jobs: sigma(t) = slopes * t
    # + intercepts, then the node and amplitude stage of _solve_many, whose
    # node polynomials are rooted in one batch.  Per job (inside, plain,
    # hyperbolic, x, amps) over its ts: inside marks the t inside its
    # line's domain, which is built where ts is not empty, plain those of
    # them whose sigma(t) is finite, and the rest are as
    # _nodes_and_amplitudes gives them.  Each row has the bits of
    # PronyLine._points at its t
    sizes = [len(ts) for _, ts in jobs]
    live = [(line, np.asarray(ts, dtype=float)) for line, ts in jobs if len(ts)]
    if not live:
        return [None] * len(jobs)
    ts = np.concatenate([t for _, t in live])
    inside = np.zeros(len(ts), dtype=bool)
    at = 0
    for line, t in live:
        part = inside[at : at + len(t)]
        for lo, hi in line.domain.intervals:
            part |= (lo < t) & (t < hi)
        at += len(t)
    # each row's slopes, intercepts and mu_0..mu_{d-1}; rows outside the
    # domain run on whatever their columns hold.  y holds (sigma_d, ...,
    # sigma_1) at each t
    counts = [len(t) for _, t in live]
    slopes, intercepts, head = (np.repeat(m, counts, axis=0)
                                for m in map(np.array, zip(*(line._plain for line, _ in live))))
    with np.errstate(all="ignore"):
        y = (slopes * ts[:, None] + intercepts)[:, ::-1]
        plain = inside & np.isfinite(y).all(axis=1)
        hyperbolic, x, amps = _nodes_and_amplitudes(y, list(head.T), plain)
    out, at = [], 0
    for size in sizes:
        part = slice(at, at + size)
        out.append((inside[part], plain[part], hyperbolic[part], x[part], amps[part]) if size else None)
        at += size
    return out


def _distances(line, targets, ts, columns=None) -> list:
    # _point_distance at each (amplitudes + nodes) row of targets, an
    # array-like (T, 2d), and the t beside it in ts, from the family points
    # at ts that _family_columns builds (columns, its entry for (line, ts),
    # or built here).  A row whose sigma(t) or amplitudes are not finite (a
    # vanishing or overflowing Lagrange product) takes the scalar route,
    # which keeps its ValueError or inf.  The sums of squares come from one
    # stacked np.matmul (_row_dots)
    if len(ts) == 0:  # the domain is built only where a t asks for it
        return []
    inside, plain, hyperbolic, x, amps = columns or _family_columns([(line, ts)])[0]
    with np.errstate(all="ignore"):
        odd = (inside & ~plain) | (hyperbolic & ~np.isfinite(amps).all(axis=1))
        found = (hyperbolic & ~odd).nonzero()[0]
        diff = np.concatenate([amps[found], x[found]], axis=1) - np.asarray(targets, dtype=float)[found]
        out = [np.inf] * len(ts)
        for k, sq in zip(found.tolist(), np.sqrt(_row_dots(diff, diff)).tolist()):
            out[k] = sq
    for k in odd.nonzero()[0].tolist():
        out[k] = _point_distance(line, targets[k], float(ts[k]))
    return out


def _point_distance(line, target, t: float):
    # Euclidean distance from the (amplitudes + nodes) sequence target to
    # the family point at t, on plain floats (PronyLine._points): inf
    # outside the hyperbolic set or where sigma(t) has no d distinct real
    # roots, the ValueError where sigma(t) is not finite.  The sum of
    # squares goes to _row_dots as a row of one
    if not line.domain.contains(t):
        return np.inf
    point = line._points([t])[0]
    if isinstance(point, (NotHyperbolic, RepeatedNodes)):
        return np.inf
    if isinstance(point, ValueError):
        return point
    _, nodes, amps = point
    diff = np.subtract([amps + nodes], [target])
    return math.sqrt(_row_dots(diff, diff)[0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> list:
    # np.dot(a[k], b[k]) for each row k of the (T, n) arrays a and b, from one
    # stacked np.matmul of (T, 1, n) by (T, n, 1): it hands each row pair to
    # BLAS's ddot as np.dot does, where np.einsum and a (T, n) @ (n,) product
    # round differently.  An overflow is not reported
    with np.errstate(all="ignore"):
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tolist()


def _golden(f, a, b, c):
    """Minimizer of f by golden-section search in the bracket a < b < c,
    step for step as scipy.optimize.golden(f, brack=(a, b, c)); None when
    the bracket is not one (f(b) not strictly below f(a) and f(c))."""
    fb = f(b)
    if not (a < b < c and fb < f(a) and fb < f(c)):
        return None
    x0, x3 = a, c
    if abs(c - b) > abs(b - a):
        x1, x2 = b, b + _GOLDEN_C * (c - b)
        f1, f2 = fb, f(x2)
    else:
        x1, x2 = b - _GOLDEN_C * (b - a), b
        f1, f2 = f(x1), fb
    for _ in range(5000):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = f(x1)
    return x1 if f1 < f2 else x2


def _min_distance(line, target, t_grid):
    grid = np.unique(np.asarray(t_grid, dtype=float))
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    values = np.array([_unwrap(v) for v in _distances(line, [target] * grid.size, grid)])
    best = int(np.argmin(values))
    if not np.isfinite(values[best]):
        raise EmptyDomain(
            "no grid parameter lies inside the hyperbolic set")

    # local golden-section refinement around the grid minimizer; neighbors
    # outside the domain are fine (inf just steers the section inward)
    step = np.diff(grid).min() if grid.size > 1 else max(1.0, abs(grid[best]))
    lo = grid[best - 1] if best > 0 else grid[best] - step
    hi = grid[best + 1] if best + 1 < grid.size else grid[best] + step
    def distance(t):
        return _unwrap(_point_distance(line, target, t))

    t_ref = _golden(distance, lo, grid[best], hi)
    # no bracket: the grid minimum is already as good as it gets
    refined = np.inf if t_ref is None else distance(float(t_ref))
    return float(min(values[best], refined))


def curve_distance(signal: Signal, mu, t_grid) -> float:
    """Closest Euclidean distance in (amplitudes, nodes) space from a signal
    to the one-missing-moment solution family of mu, over the sampled
    parameters (golden-section refined around the best grid point).

    Raises EmptyDomain when no sampled parameter is hyperbolic.
    """
    line = prony_line.line_params(mu)
    if signal.d != line.d:
        raise ValueError(
            f"signal has {signal.d} nodes but the family has {line.d}")
    if line.domain.empty:
        raise EmptyDomain("the hyperbolic parameter set is empty")
    target = signal.amplitudes.tolist() + signal.nodes.tolist()
    return _min_distance(line, target, t_grid)


def _experiment_grid(t_star: float) -> np.ndarray:
    scale = max(1e-12, abs(t_star))
    offsets = 10.0 ** np.linspace(-8.0, 1.0, _T_RESOLUTION) * scale
    return np.sort(np.concatenate(
        [[t_star], t_star + offsets, t_star - offsets]))


def _fit_loglog(h_grid, maxima):
    x = np.log(np.asarray(h_grid))
    y = np.log(np.asarray(maxima))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def _uniform_streams(seed: int, n_h: int, trials, epsilon: float, size: int):
    """Per h index below n_h, the noise of the trial indices in trials: for
    each, np.random.default_rng([seed, h, trial]).uniform(-epsilon,
    epsilon, size).tolist(), bit for bit, without building a generator.

    The SeedSequence hash runs once, at the first h, for every (h, trial)
    stream at once, in uint32 arrays whose products and differences wrap
    as numpy's C code does.  Its state seeds PCG64 (XSL-RR 128/64), which
    runs per h in Python integers.  The seed and trial indices below 2**64
    are split into uint32 words as numpy splits them; h takes one word.
    """
    low = -float(epsilon)
    span = float(epsilon) - low
    trial = np.tile(np.array(trials, dtype=np.uint64), n_h)
    words = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    # row i holds entropy word i of every stream: the seed's words, h, then
    # the trial's low and high word.  A high word of 0 inside the pool
    # hashes as an absent word does; past the pool, lengths masks it out
    entropy = np.empty((len(words) + 3, trial.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words)[:, None]
    entropy[-3] = np.repeat(np.arange(n_h), len(trials))
    entropy[-2] = trial & _MASK32
    entropy[-1] = trial >> 32
    lengths = len(words) + 2 + (trial >> 32 > 0)
    width = len(entropy)

    def consts(c, mult, n):
        out = [c]
        for _ in range(n):
            out.append(out[-1] * mult & _MASK32)
        return np.array(out, dtype=np.uint32)[:, None]

    # hashmix k xors the hash constant c_k and multiplies by c_{k+1}: 4
    # pool words, 12 cross mixes, then 4 per entropy word past the pool
    a = consts(_INIT_A, _MULT_A, 4 * width)

    def hashmix(v, k, m):
        v = (v ^ a[k : k + m]) * a[k + 1 : k + m + 1]
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * _MIX_MULT_L - y * _MIX_MULT_R
        return r ^ (r >> 16)

    pool = hashmix(entropy[:4], 0, 4)
    for src in range(4):
        dst = [j for j in range(4) if j != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for src in range(4, width):
        pool = np.where(src < lengths, mix(pool, hashmix(entropy[src], 4 * src, 4)), pool)
    # generate_state(4, np.uint64): 8 words from the pool, joined in
    # little-endian pairs
    b = consts(_INIT_B, _MULT_B, 8)
    state = (np.tile(pool, (2, 1)) ^ b[:8]) * b[1:]
    state = (state ^ (state >> 16)).astype(np.uint64)
    state = (state[0::2] | state[1::2] << 32).T

    for h in range(n_h):
        noise = []
        for w0, w1, w2, w3 in state[h * len(trials) : (h + 1) * len(trials)].tolist():
            # pcg64_set_seed: state 0, step, add the seed, step
            inc = (((w2 << 64) | w3) << 1 | 1) & _MASK128
            s = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
            draws = []
            for _ in range(size):
                s = (s * _PCG_MULT + inc) & _MASK128
                x = (s >> 64) ^ (s & _MASK64)
                r = s >> 122
                x = ((x >> r) | (x << (64 - r))) & _MASK64
                draws.append(low + span * ((x >> 11) * 2.0**-53))
            noise.append(draws)
        yield noise


def _turn(cfg: NoiseConfig, h: float, cluster, solved: list):
    # the part of the turn of h in amplification_experiment that comes
    # before its trials are walked, from its cluster (the true signal and
    # moments, or their ValueError) and its trial outcomes solved: the
    # checks of h, and (line, t_hats, t_star, points, point_errs) for the
    # reconstructions among them: their parameters t-hat, their
    # (amplitudes + nodes) rows and their max-norm errors
    true, mu_true = _unwrap(cluster)
    true_point = true.amplitudes.tolist() + true.nodes.tolist()
    scale = float(np.max(np.abs(mu_true.values)))
    if cfg.epsilon > 0.1 * scale:
        raise ValueError(
            f"epsilon {cfg.epsilon} is not small against the moment "
            f"scale {scale} at h={h}")
    q = 2 * cfg.d - 1
    line = prony_line.line_params(mu_true.values[:q])
    # the family parameter of the true signal: the last complete-system
    # equation reads dot(mu[d-1:2d-1], reversed(sigma)) = -mu_{2d-1}
    t_star = -float(mu_true.values[q])
    # the family point at each reconstruction's own parameter, not the
    # nearest family point; sigma of the nodes is finite, since their
    # moments passed the residual.  t-hat is line.parameter_of at the
    # coefficients (sigma_d, ..., sigma_1) of the node polynomial
    guesses = [amps + x for amps, x in (s for s in solved if isinstance(s, tuple))]
    points = np.array(guesses).reshape(len(guesses), 2 * cfg.d)
    sigma = np.stack(_monic_product(list(points[:, cfg.d :].T))[: cfg.d], axis=1)
    row = np.broadcast_to(mu_true.values[cfg.d - 1 : q], sigma.shape)
    t_hats = _row_dots(row, sigma)
    if t_hats:
        line.domain  # built, or refused, at this turn
    return line, t_hats, t_star, points, abs(points - true_point).max(axis=1).tolist()


def amplification_experiment(cfg: NoiseConfig) -> AmplificationResult:
    """Worst-case reconstruction errors of a noisy size-h cluster, per h.

    For each h and trial, every moment of the true cluster signal receives
    an independent uniform perturbation in [-epsilon, epsilon]; the
    perturbed complete system is solved and two errors are recorded: the
    distance to the true signal (max norm over amplitudes and nodes), and
    the Euclidean distance to the point of the true one-missing-moment
    family at the parameter the reconstruction itself determines (the last
    moment equation at its nodes).  That point is not the nearest family
    point; only when the parameter leaves the hyperbolic set does the
    nearest sampled family point stand in.  Trials whose perturbed system
    has no d-spike solution are counted and skipped; TooFewValidTrials if
    they exceed half at any h.

    Each (h, trial) has its own noise stream,
    np.random.default_rng([seed, h index, trial]).uniform(-epsilon,
    epsilon, 2d), so results are reproducible regardless of evaluation
    order.  _uniform_streams draws these streams bit for bit without
    building a generator: the seed hash of every stream in one batch, the
    draws per h.  The streams stay, one per trial: the benchmark's amplify
    check recomputes the rows from them, and any other stream moves every
    row, which belongs in a change that moves the rows anyway.

    The trials of every h run in stages, each one pass over all of them:
    - the noise of every (h, trial) is drawn and added to that h's true
      moments;
    - each of the len(h_grid) * trials systems runs the checks of
      solve_complete without building a Signal, in one _solve_many call,
      on numpy columns: finite moments, the det M policy on the Hankel
      inverses of one stacked np.linalg.inv, the Hankel systems in one
      stacked np.linalg.solve, the node polynomials (for d = 2 on the
      columns, by the vertex test and the closed form; for d >= 3 in one
      batch of certified roots, on numpy columns from 16 rows on), nonzero
      amplitudes on strictly increasing nodes, and the residual within
      1e-8 of the moment scale.
    Then each h's checks, line and parameters t-hat of the reconstructions
    (one stacked np.matmul per h) are made in order, up to the first h
    that raises; the family points at the t-hats of every h are built in
    one pass on (H T,) columns with the node and amplitude stage of
    _solve_many, their node polynomials rooted in one batch
    (_family_columns).  The h values are then walked in order, each with
    its rows, warnings and exceptions as if it ran alone; under the square
    root of each distance, the sum of squares to the family point at t-hat
    comes from one stacked np.matmul per h (_distances).
    The columns keep the bits of running the trials one at a time on plain
    floats: numpy's elementwise +, -, *, / and sqrt round as Python's
    floats do; np.matmul of (T, 1, n) by (T, n, 1) hands each row to BLAS's
    ddot, as np.dot and np.linalg.norm do (np.einsum and a (T, n) @ (n,)
    product round differently, OpenBLAS's ddot fusing multiply-adds); the
    residual's powers come from libm's pow through Python's float power,
    since numpy's power differs from it in the last bit on some doubles.
    That matmul reaches ddot is verified on numpy 2.4; numpy 1.x (the
    floor, 1.24) is unverified.  Stacked LAPACK calls set the bits of one
    call per matrix (see poly_engine._roots_many), and a trial's exception
    waits for its turn: the rows, the order of the fallback warnings and
    any exception that propagates are those of running the trials one
    after the other.
    """
    if not isinstance(cfg, NoiseConfig):
        cfg = NoiseConfig.from_mapping(cfg)
    q = 2 * cfg.d - 1
    T = cfg.trials
    noise = np.array(list(_uniform_streams(cfg.seed, len(cfg.h_grid), range(T), cfg.epsilon, 2 * cfg.d)))
    # each h's true signal and moments, or the ValueError their build
    # raises, at that h's turn below
    clusters = []
    for h in cfg.h_grid:
        try:
            true = make_cluster_signal(cfg.d, h)
            clusters.append((true, compute_moments(true, q)))
        except ValueError as exc:
            clusters.append(exc)
    # every (h, trial) system in one _solve_many call, T rows per h; an h
    # without moments has rows of NaN, never read
    mu = np.full(noise.shape, np.nan)
    for i, cluster in enumerate(clusters):
        if isinstance(cluster, tuple):
            mu[i] = cluster[1].values + noise[i]
    solved_all = _solve_many(mu.reshape(-1, 2 * cfg.d))
    # each h's checks, line and t-hats, in order up to the first h that
    # raises, whose exception waits for its turn below; then the family
    # points at the t-hats of every h in one _family_columns call
    turns = []
    for i, (h, cluster) in enumerate(zip(cfg.h_grid, clusters)):
        try:
            turns.append(_turn(cfg, h, cluster, solved_all[i * T : (i + 1) * T]))
        except Exception as exc:
            turns.append(exc)
            break
    columns = iter(_family_columns([turn[:2] for turn in turns if isinstance(turn, tuple)]))
    rows = []
    for i, (h, turn) in enumerate(zip(cfg.h_grid, turns)):
        line, t_hats, t_star, points, point_errs = _unwrap(turn)
        found = zip(points.tolist(), point_errs, t_hats, _distances(line, points, t_hats, next(columns)))

        worst_point = 0.0
        worst_curve = 0.0
        failed = 0
        for trial, outcome in enumerate(solved_all[i * T : (i + 1) * T]):
            if isinstance(outcome, (NoRealSolution, ResidualTooLarge, DegenerateHankel)):
                failed += 1
                continue
            _unwrap(outcome)  # any other exception propagates at its turn
            guess, point_err, t_hat, curve_dist = next(found)
            curve_dist = _unwrap(curve_dist)
            if not math.isfinite(curve_dist):
                logger.warning(
                    "h=%g trial %d: parameter %.6g left the hyperbolic "
                    "set, falling back to the nearest family point",
                    h, trial, t_hat)
                curve_dist = _min_distance(line, guess, _experiment_grid(t_star))
            worst_point = max(worst_point, point_err)
            worst_curve = max(worst_curve, curve_dist)
        if failed > cfg.trials // 2:
            raise TooFewValidTrials(
                f"{failed}/{cfg.trials} perturbed systems had no real "
                f"solution at h={h}")
        logger.info("h=%g: max point error %.3e, max curve distance %.3e, "
                    "%d failed trials", h, worst_point, worst_curve, failed)
        rows.append((float(h), worst_point, worst_curve, failed))

    point_fit = _fit_loglog(cfg.h_grid, [r[1] for r in rows])
    curve_fit = _fit_loglog(cfg.h_grid, [r[2] for r in rows])
    return AmplificationResult(
        rows=tuple(rows),
        point_slope=point_fit[0], point_intercept=point_fit[1],
        point_r2=point_fit[2],
        curve_slope=curve_fit[0], curve_intercept=curve_fit[1],
        curve_r2=curve_fit[2])

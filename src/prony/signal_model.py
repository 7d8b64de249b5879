"""Signals, moments, symmetric coordinates, and amplitude recovery.

A signal is a finite spike train: amplitudes a_1..a_d attached to strictly
increasing nodes x_1..x_d.  Its order-q moment vector is mu_k = sum_i a_i *
x_i^k for k = 0..q.  Symmetric coordinates are the signed elementary
symmetric functions s_k = (-1)^k e_k(X), i.e. the coefficients of the monic
node polynomial Q(z) = prod (z - x_i) = z^d + s1 z^(d-1) + ... + sd.  That
sign convention is fixed here and consumed by every other module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import poly_engine
from .errors import NotHyperbolic, RepeatedNodes

__all__ = [
    "Signal",
    "MomentVector",
    "SymmetricCoords",
    "compute_moments",
    "elementary_symmetric",
    "vieta_inverse",
    "amplitudes_from_nodes",
    "ROUND_TRIP_RTOL",
]

# Default relative tolerance for the round-trip identities of this module.
ROUND_TRIP_RTOL = 1e-9

_NOT_HYPERBOLIC = "polynomial does not have d real distinct roots"


def _float_vector(values, name):
    # a read-only nonempty 1-d float copy of values
    try:
        v = np.array(values, dtype=float)
    except TypeError as exc:  # an object where numbers belong
        raise ValueError(f"{name} must be numbers: {exc}") from exc
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d sequence")
    v.setflags(write=False)
    return v


def _check_finite(values: list, name):
    # checked on plain floats: numpy's reductions cost more than the loop
    # on vectors of a few entries
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")


def _as_float_vector(values, name):
    # a read-only float copy of values, checked finite
    v = _float_vector(values, name)
    _check_finite(v.tolist(), name)
    return v


def _check_signal(amps: list, nodes: list) -> None:
    # the invariants of Signal on plain floats, ValueError on the first
    # that fails
    _check_finite(amps, "amplitudes")
    _check_finite(nodes, "nodes")
    if len(amps) != len(nodes):
        raise ValueError("amplitudes and nodes must have equal length")
    if 0.0 in amps:  # -0.0 == 0.0
        raise ValueError("amplitudes must be nonzero")
    if any(hi <= lo for lo, hi in zip(nodes, nodes[1:])):
        raise ValueError("nodes must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Signal:
    """Spike train with strictly increasing nodes and nonzero amplitudes."""

    amplitudes: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        a = _float_vector(self.amplitudes, "amplitudes")
        x = _float_vector(self.nodes, "nodes")
        _check_signal(a.tolist(), x.tolist())
        object.__setattr__(self, "amplitudes", a)
        object.__setattr__(self, "nodes", x)

    @property
    def d(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Moment sequence (mu_0, ..., mu_q) of order q."""

    values: np.ndarray
    q: int = -1

    def __post_init__(self):
        v = _as_float_vector(self.values, "moments")
        q = self.q if self.q >= 0 else len(v) - 1
        if len(v) != q + 1:
            raise ValueError(f"expected {q + 1} moments, got {len(v)}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "q", q)

    def truncated(self, q: int) -> "MomentVector":
        if not 0 <= q <= self.q:
            raise ValueError("truncation order out of range")
        return MomentVector(self.values[: q + 1])

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class SymmetricCoords:
    """Coefficient vector (s1, ..., sd) of a monic degree-d polynomial."""

    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma", _as_float_vector(self.sigma, "sigma"))

    @property
    def d(self) -> int:
        return len(self.sigma)

    @cached_property
    def hyperbolic(self) -> bool:
        """True iff the polynomial has d real distinct roots (see
        :func:`poly_engine.hyperbolic_roots`)."""
        return poly_engine.is_hyperbolic(self.sigma)


def compute_moments(signal: Signal, q: int) -> MomentVector:
    """Moments mu_k = sum_i a_i x_i^k, k = 0..q.

    Summation is plain left-to-right in node order, so results are
    reproducible to the bit across runs and platforms.  Moments beyond the
    double range raise ValueError, as any non-finite moment vector does.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    return MomentVector(_moments(signal.amplitudes.tolist(), signal.nodes.tolist(), q))


def _moments(amps: list, nodes: list, q: int) -> list:
    # compute_moments on plain floats, unchecked: a power past the double
    # range raises ValueError, a product past it comes out inf
    terms = list(zip(amps, nodes))
    out = []
    try:
        for k in range(q + 1):
            acc = 0.0
            for a, x in terms:
                acc += a * x**k
            out.append(acc)
    except OverflowError:  # a float power past the double range raises
        raise ValueError("moments must be finite") from None
    return out


def _monic_product(x) -> list:
    # ascending coefficients of prod (z - x_i) over the plain floats x,
    # built one factor at a time; the leading 1 is exact
    c = [1.0]
    for xi in x:
        nxt = [0.0] * (len(c) + 1)
        for k in range(len(c)):
            nxt[k + 1] += c[k]
            nxt[k] -= xi * c[k]
        c = nxt
    return c


def elementary_symmetric(nodes) -> SymmetricCoords:
    """Signed symmetric functions s_k = (-1)^k e_k of the node vector, i.e.
    the coefficients of prod (z - x_i) below the leading 1."""
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    c = _monic_product(x.tolist())
    d = len(x)
    sigma = np.array([c[d - k] for k in range(1, d + 1)])
    return SymmetricCoords(sigma)


def vieta_inverse(sigma) -> np.ndarray:
    """Sorted real roots of z^d + s1 z^(d-1) + ... + sd.

    Raises NotHyperbolic unless the polynomial has d real distinct roots.
    """
    return np.array(_real_nodes(poly_engine._monic_coeffs(sigma)))


def _real_nodes(c: list) -> list:
    # vieta_inverse of the checked monic coefficient list c = [sd, ..., s1, 1.0]
    return _unwrap(_real_nodes_many([c])[0])


def _real_nodes_many(cs: list) -> list:
    # _real_nodes of each list of cs, all of one degree, rooted by one
    # poly_engine._hyperbolic_many call: per list its nodes, or the
    # NotHyperbolic that _real_nodes raises there
    return [NotHyperbolic(_NOT_HYPERBOLIC) if roots is None else roots
            for roots in poly_engine._hyperbolic_many(cs)]


def _unwrap(outcome):
    # an entry of a batch's results: the value, or the exception that its
    # item raised, raised now
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def amplitudes_from_nodes(mu, nodes) -> np.ndarray:
    """Amplitudes recovered from the first d moments at known nodes.

    Implements the explicit Vandermonde-inverse formula
    a_k = [sum_j r_{d-1-j}(X \\ x_k) * mu_j] / L_k(X), where r_i are the
    signed symmetric functions of the remaining nodes (r_0 = 1) and
    L_k = prod_{i != k} (x_k - x_i).  A generic linear solve is kept out of
    the library on purpose; it serves as a test oracle only.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    d = len(x)
    values = np.asarray(getattr(mu, "values", mu), dtype=float)
    if len(values) < d:
        raise ValueError(f"need at least {d} moments, got {len(values)}")

    return np.array(_amplitudes(values[:d].tolist(), x.tolist()))


def _amplitudes(head: list, xs: list) -> list:
    # amplitudes_from_nodes on plain floats: mu_0..mu_{d-1} and the d nodes
    d = len(xs)
    out = []
    for k in range(d):
        lagrange = 1.0
        for i in range(d):
            if i != k:
                lagrange *= xs[k] - xs[i]
        if lagrange == 0.0:
            raise RepeatedNodes(f"node {xs[k]} repeats; Lagrange denominator vanishes")
        # rest[j] = r_{d-1-j}(X \ x_k), with rest[d-1] = r_0 = 1
        rest = _monic_product(xs[:k] + xs[k + 1 :])
        acc = 0.0
        for j in range(d):
            acc += rest[j] * head[j]
        out.append(acc / lagrange)
    return out

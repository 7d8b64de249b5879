"""The family analyses reproduce their recorded outputs bit for bit.

tests/fixtures/family_outputs.json holds, as hex floats, the domain, every
CollisionReport field, both EscapeReports and the sample_curve samples of a
small vector set: three vectors per d = 2..5 from the stream fixed below,
the worked vectors (0, 1, 0) and (3, 3, 5, 9, 17), and four vectors of
extreme scale.  It was written before the analyses ran on plain-float
lists; the companion seeds (np.linalg.eigvals) and the products of linear
factors (npoly.polyfromroots) fix the bits, and the rest repeats their
arithmetic.  The line and det M are exact values rounded once; the
product mismatches of the samples and the collision probes, which
compare prod a_i * Vandermonde^2 with |det M|, were rewritten when det M
became exact.  A mismatch on one platform only points at its numpy
build (the BLAS and LAPACK that CI prints before the tests).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from prony import curve_analysis as ca
from prony import prony_line as pl
from prony.errors import (
    DegenerateHankel,
    InconsistentComputation,
    NoUnboundedComponent,
    UnresolvedDomain,
)

FIXTURES = Path(__file__).parent / "fixtures"

# the stream of the random vectors: for order d, default_rng([STREAM, d])
STREAM = 19_2026
ORDERS = (2, 3, 4, 5)
PER_ORDER = 3
WORKED = ([0.0, 1.0, 0.0], [3.0, 3.0, 5.0, 9.0, 17.0])
# extreme scales: a node pair near 1e-100, moments from 1e-300 to 1, and
# subnormal moments next to ones of order 1 or 1e121
EXTREME = (
    [1e200, 1.0, 1e-200, 2.0, 3.0],
    [1.0, 1e-100, 1e-100, 1.0, 1e-300],
    [-1.6759389836926841, -6.2689e-319, -1.62896911756737e-09, 1.1858992373014234,
     1.1498982565887519],
    [1.9121477073656492, -1.4331878408173588e-54, 1.6354552028014493,
     1.339716047716865e-309, -5.680482489088748e+121],
)
# grid points tried on every vector; most fall outside its domain and are
# skipped, the rest come from the domain's intervals (see _grid)
FIXED_GRID = (-100.0, -1.0, 0.0, 1.0, 100.0)


def _moments(amps, nodes, count):
    return [sum(a * x**k for a, x in zip(amps, nodes)) for k in range(count)]


def family_vectors():
    """Per order d: two signal vectors (d nodes in (-1.5, 1.5), amplitudes
    of magnitude 0.5..1.5 with random signs) and one vector of standard
    normal moments; then the worked and the extreme vectors."""
    out = []
    for d in ORDERS:
        rng = np.random.default_rng([STREAM, d])
        for k in range(PER_ORDER):
            if k < PER_ORDER - 1:
                nodes = np.sort(rng.uniform(-1.5, 1.5, d)).tolist()
                amps = (rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)).tolist()
                out.append(_moments(amps, nodes, 2 * d - 1))
            else:
                out.append(rng.standard_normal(2 * d - 1).tolist())
    return out + [list(v) for v in WORKED + EXTREME]


def _plain(value):
    # a JSON form that tells every bit and every array apart
    if isinstance(value, np.ndarray):
        return {"ndarray": [_plain(v) for v in value.tolist()]}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    return value


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _grid(intervals):
    out = list(FIXED_GRID)
    for lo, hi in intervals:
        if math.isinf(lo) and math.isinf(hi):
            out += [-3.0, 0.5, 3.0]
        elif math.isinf(lo):
            out += [hi - f * max(1.0, abs(hi)) for f in (0.5, 4.0)]
        elif math.isinf(hi):
            out += [lo + f * max(1.0, abs(lo)) for f in (0.5, 4.0)]
        else:
            out += [lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)]
    return out


def family_record(mu):
    """Every output of the family analyses of mu, or the error each raised."""
    rec = {"mu": _plain(mu)}
    intervals = []
    try:
        domain = pl.hyperbolic_domain(mu)
        intervals = list(domain.intervals)
        rec["domain"] = {
            "intervals": _plain(domain.intervals),
            "endpoints": [[_plain(e.t0), e.kind, _plain(e.x0)] for e in domain.endpoints],
        }
    except Exception as exc:
        rec["domain"] = _error(exc)
    try:
        rec["collisions"] = [
            {key: _plain(getattr(r, key)) for key in (
                "t0", "pair_index", "probes", "numerator", "numerator_bound",
                "blowup_confirmed", "beta", "predicted_gap", "blowup_bound",
                "gap_bound")}
            for r in ca.detect_collisions(mu)]
    except Exception as exc:
        rec["collisions"] = _error(exc)
    for key, direction in (("+inf", math.inf), ("-inf", -math.inf)):
        try:
            r = ca.escape_analysis(mu, direction)
            rec["escape " + key] = {name: _plain(getattr(r, name)) for name in (
                "direction", "escaping_indices", "bounded_indices", "bounded_limits",
                "ambiguous_indices", "hypothesis_met", "probes", "predicted",
                "escape_bound")}
        except Exception as exc:
            rec["escape " + key] = _error(exc)
    grid = _grid(intervals)
    rec["grid"] = _plain(grid)
    try:
        rec["samples"] = [
            [_plain(s.t), _plain(s.sigma.sigma), _plain(s.nodes), _plain(s.amplitudes),
             _plain(s.residual), _plain(s.product_residual)]
            for s in ca.sample_curve(mu, grid)]
    except Exception as exc:
        rec["samples"] = _error(exc)
    return rec


def test_family_outputs_reproduce_the_recorded_bits():
    data = json.loads((FIXTURES / "family_outputs.json").read_text())
    vectors = family_vectors()
    assert [_plain(mu) for mu in vectors] == [rec["mu"] for rec in data["records"]]
    for mu, rec in zip(vectors, data["records"]):
        pl._line_of.cache_clear()
        assert family_record(mu) == rec


# (moments, call, error), each recorded before the analyses ran on lists,
# but for the last
_POLE_AT_CRITICAL_POINT = [-1.830210993303282, -1.355682011867008e+90, 1.9443637797854613e-54,
                           -5.482937750392935e-274, 1.5321874468354042]
_GRID = (-1e200, -1e150, -1.0, 0.0, 1.0, 1e150, 1e200)
_FAILURES = [
    ([1.0, 1.0, 1.0], "sample_curve", DegenerateHankel,
     "det M is exactly zero: nodes collide identically or an amplitude vanishes "
     "identically"),
    # subnormal moments: the exact det M, -3 * 2**-2148, rounds to -0.0
    ([5e-324, 1e-323, 5e-324], "detect_collisions", DegenerateHankel,
     "det M = -0.000e+00 is degenerate, below 1e-12 of the largest first minor "
     "9.881e-324: nodes collide identically or an amplitude vanishes identically"),
    # a finite line whose node polynomial's roots are of size 1e-217
    ([1.817577904359152, -1.8944829793962815e+153, 1.8390666379559986e-64],
     "detect_collisions", ValueError,
     "moments exceed double range: the roots of the node polynomial are of size "
     "9.71e-218, whose 2-th power is not a double"),
    ([1.817577904359152, -1.8944829793962815e+153, 1.8390666379559986e-64],
     "escape_analysis", ValueError,
     "moments exceed double range: the roots of the node polynomial are of size "
     "9.71e-218, whose 2-th power is not a double"),
    # a grid point far out, whose signal's moments overflow
    ([-1.8895119370341642, 1.4361077284453483e-135, -1.446297743005257e-278,
      1.919039822406846, -6.662432512344886e-136],
     "sample_curve", ValueError, "moments must be finite"),
    # a grid point whose amplitudes overflow
    ([-9.063575618630815e+160, -1.499759867415281e-194, 1.032163276006738],
     "sample_curve", ValueError, "amplitudes must be finite"),
    ([0.0, 1.0, 0.0], "escape_analysis", NoUnboundedComponent,
     "no unbounded component toward +inf"),
    ([1e200, 1.0, 1e-200, 2.0, 3.0], "escape_analysis", NoUnboundedComponent,
     "no unbounded component toward +inf"),
    # subnormal and huge moments together: no probe shows the order (an
    # internal inconsistency today, where an abstention belongs)
    ([1.9121477073656492, -1.4331878408173588e-54, 1.6354552028014493,
      1.339716047716865e-309, -5.680482489088748e+121],
     "escape_analysis", InconsistentComputation,
     "the probe at t=6.6955846848595326e+190 does not show nodes (2,) escaping "
     "toward +inf and the rest nearing the roots of S"),
    # a critical point of phi that is also a pole, as doubles: once a
    # TypeError from sorting the domain's breaks
    (_POLE_AT_CRITICAL_POINT, "detect_collisions", UnresolvedDomain,
     "critical point -7.1711646343515956e-145 of phi is also a pole: which side "
     "of the pole it lies on is below the resolution of the build"),
]


@pytest.mark.parametrize("mu, call, error, message", _FAILURES)
def test_family_calls_keep_their_errors(mu, call, error, message):
    args = {"sample_curve": (mu, _GRID), "detect_collisions": (mu,),
            "escape_analysis": (mu, math.inf)}[call]
    with pytest.raises(error) as info:
        getattr(ca, call)(*args)
    assert type(info.value) is error and str(info.value) == message

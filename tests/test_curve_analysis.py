"""Family sampling and limit certificates.

Worked values for the mu=(0,1,0) family come from the closed form
sigma(t) = (0, t): nodes +-sqrt(-t) and amplitudes -+1/(2 sqrt(-t)), so
t=-1 gives X=(-1,1), A=(-1/2,1/2) and t=-4 gives X=(-2,2), A=(-1/4,1/4).
The mu=(1,0,1) family is sigma(t) = (t, -1), hyperbolic for every t, with
one root near -t and one near 1/t for large |t|.
"""

import logging
import math

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from helpers import exact_line, relerr, signal_strategy
from prony import curve_analysis as ca
from prony import poly_engine as pe
from prony import prony_line as pl
from prony.errors import (
    DegenerateHankel,
    InconsistentComputation,
    InterpolationInconsistency,
    NoUnboundedComponent,
    UnresolvedDomain,
)
from prony.signal_model import Signal, compute_moments, elementary_symmetric

INF = float("inf")
NAN = float("nan")

# frozen by seeded search (rng 424242) and confirmed empty by a 6000-point
# hyperbolicity scan; same anchor as the domain tests
EMPTY_DOMAIN_MU = [
    0.46100799675962856,
    -0.6221668335296449,
    -1.7908441342474357,
    -1.0204928283189925,
    0.6872546689423418,
]


# d = 5 family vector whose generating signal (t* = 15233.46...) is
# recovered at t*, while at t = -1, 0, 1 one node sits near 1.7e4 with an
# amplitude only rounding sets (-1.8e-29): those points miss mu_8 by 96%
FAR_NODE_MU = [
    -0.176838174077238,
    -1.8716516153454856,
    -8.060310826388655,
    -24.57209313620831,
    -71.10743629849424,
    -204.7867432644228,
    -593.9670158449924,
    -1738.3798148119618,
    -5129.234572740597,
]
FAR_NODE_T_STAR = 15233.462642638357
FAR_NODE_SIGNAL = Signal(
    amplitudes=[-0.7342943024729319, 1.1926702757253218, 0.7640584673120563,
                -0.7150546226106631, -0.6842179920310211],
    nodes=[-0.1092320237470874, 0.6471739127846023, 1.1600099569510474,
           2.153824373814556, 3.0252617384064444],
)


# family vectors with the colliding pair at each of their endpoints.  On
# the d = 3 and d = 4 vectors probes toward t0 meet the resolution wall
# near the last bits of t0; on the d = 5 vector (endpoints 19156.9 and
# 19161.8, a narrow gap far out on the line) probes at 1e-2 and 1e-3 of
# |t0| miss the moments and the closer ones resolve
CERTIFIED_ENDPOINTS = [
    ([-0.41140088574752975, 0.009112922001232416, -0.7960052699174545,
      -1.1680416040183426, -1.635346932117728], [1, 1, 0, 0]),
    ([-2.775562225469871, -2.617514715344051, -3.7996644626266316,
      -4.897638490954011, -6.606985551721292, -9.075938645511718,
      -12.69760956224126], [2, 1, 0, 0]),
    ([-3.0911090248675173, -3.726529518785383, -2.6727932455649137,
      -5.624178139527285, -5.682023514447089, -10.24571048528914,
      -12.674071319871603], [0, 0]),
    ([0.47084728904027473, -2.897714657069175, -5.546818044795769,
      -10.97880610120717, -21.825626135350394, -44.24585078801553,
      -91.14215940199719], [2, 1]),
    ([-3.559494971653416, -6.4323986950341405, -17.171349340174885,
      -43.50873415451965, -114.5329227658238, -309.67243716334195,
      -854.2014053320287, -2388.8241004583033, -6743.744045416453], [1, 1]),
]


def _tame_instance(rng, d):
    x0 = rng.uniform(-2.0, 0.0)
    nodes = np.concatenate([[x0], x0 + np.cumsum(rng.uniform(0.3, 1.0, size=d - 1))])
    amps = rng.uniform(0.5, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
    s = Signal(amplitudes=amps, nodes=nodes)
    mu = compute_moments(s, 2 * d - 2)
    H = pl.hankel(mu)
    if abs(H.determinant) <= 1e-2 * float(np.max(np.abs(H.minors))):
        return None
    return s, mu


# ---------------------------------------------------------------- sampling


def test_sample_curve_worked_family():
    samples = ca.sample_curve([0.0, 1.0, 0.0], [-1.0, -4.0])
    assert len(samples) == 2
    s1, s4 = samples
    assert np.allclose(s1.nodes, [-1.0, 1.0], rtol=0, atol=1e-12)
    assert np.allclose(s1.amplitudes, [-0.5, 0.5], rtol=0, atol=1e-12)
    assert np.allclose(s4.nodes, [-2.0, 2.0], rtol=0, atol=1e-12)
    assert np.allclose(s4.amplitudes, [-0.25, 0.25], rtol=0, atol=1e-12)
    for s in samples:
        assert s.residual <= 1e-12
        assert s.product_residual <= 1e-12
        assert np.allclose(s.sigma.sigma, [0.0, s.t], atol=1e-15)


def test_sample_curve_skips_out_of_domain_points(caplog):
    with caplog.at_level(logging.INFO, logger="prony.curve_analysis"):
        samples = ca.sample_curve([0.0, 1.0, 0.0], [-1.0, 0.5, 2.0])
    assert [s.t for s in samples] == [-1.0]
    skipped = [r for r in caplog.records if "outside the hyperbolic set" in r.message]
    assert len(skipped) == 2


def test_sample_curve_skips_points_that_miss_the_moments(caplog):
    with caplog.at_level(logging.WARNING, logger="prony.curve_analysis"):
        samples = ca.sample_curve(FAR_NODE_MU, [FAR_NODE_T_STAR, -1.0, 0.0, 1.0])
    assert [s.t for s in samples] == [FAR_NODE_T_STAR]
    # the far node's amplitude only rounding sets: it misses the moments,
    # or rounds to zero outright
    skipped = [r for r in caplog.records
               if "misses the moments" in r.getMessage() or "rounds to zero" in r.getMessage()]
    assert len(skipped) == 3
    (at_star,) = samples
    assert relerr(at_star.nodes, FAR_NODE_SIGNAL.nodes) < 1e-6
    assert relerr(at_star.amplitudes, FAR_NODE_SIGNAL.amplitudes) < 1e-6
    assert at_star.residual <= pl._lift_budget(np.array(FAR_NODE_MU), at_star.sigma.sigma)


def test_sample_curve_source_point_recovery():
    rng = np.random.default_rng(301)
    done = 0
    while done < 25:
        d = int(rng.integers(2, 4))
        inst = _tame_instance(rng, d)
        if inst is None:
            continue
        s, mu = inst
        line = pl.line_params(mu)
        t_star = line.parameter_of(elementary_symmetric(s.nodes))
        samples = ca.sample_curve(mu, [t_star])
        if not samples:
            continue  # narrow-window miss, covered by the domain tests
        assert relerr(samples[0].nodes, s.nodes) < 1e-8
        assert relerr(samples[0].amplitudes, s.amplitudes) < 1e-7
        done += 1


def test_sample_curve_residual_invariants_random():
    rng = np.random.default_rng(302)
    checked = 0
    while checked < 30:
        d = int(rng.integers(2, 4))
        inst = _tame_instance(rng, d)
        if inst is None:
            continue
        s, mu = inst
        line = pl.line_params(mu)
        t_star = line.parameter_of(elementary_symmetric(s.nodes))
        offs = t_star + np.linspace(-0.3, 0.3, 7) * max(1.0, abs(t_star)) * 1e-3
        scale = max(1.0, float(np.max(np.abs(mu.values))))
        for sample in ca.sample_curve(mu, offs):
            assert sample.residual <= 1e-8 * scale
            assert sample.product_residual <= 1e-6
            assert np.all(np.diff(sample.nodes) > 0)
            checked += 1


def test_curve_sample_validation():
    with pytest.raises(ValueError):
        ca.CurveSample(
            t=0.0,
            sigma=elementary_symmetric([0.0, 1.0]),
            nodes=np.array([1.0, 0.0]),
            amplitudes=np.array([1.0, 1.0]),
            residual=0.0,
            product_residual=0.0,
        )
    with pytest.raises(ValueError):
        ca.CurveSample(
            t=0.0,
            sigma=elementary_symmetric([0.0, 1.0]),
            nodes=np.array([0.0, 1.0]),
            amplitudes=np.array([1.0]),
            residual=0.0,
            product_residual=0.0,
        )


# ------------------------------------------------------------- numerator


def test_collision_numerator_worked_values():
    assert ca.collision_numerator([0.0, 1.0, 0.0], [0.0]) == 1.0
    for c in (0.7, -1.3, 0.0):
        assert ca.collision_numerator([1.0, 0.0, 1.0], [c]) == pytest.approx(-c, abs=1e-15)


def test_collision_numerator_matches_hand_expansion_d3():
    # mu0*x1*x2 - mu1*(x1+x2) + mu2, written out by hand
    rng = np.random.default_rng(303)
    for _ in range(200):
        mu = rng.uniform(-2.0, 2.0, size=5)
        x1, x2 = sorted(rng.uniform(-3.0, 3.0, size=2))
        want = mu[0] * x1 * x2 - mu[1] * (x1 + x2) + mu[2]
        assert relerr(ca.collision_numerator(mu, [x1, x2]), want) < 1e-12


def test_collision_numerator_validation():
    with pytest.raises(ValueError):
        ca.collision_numerator([1.0, 2.0], [0.0])  # even moment count
    with pytest.raises(ValueError):
        ca.collision_numerator([0.0, 1.0, 0.0], [0.0, 1.0])  # wrong X* length


# ------------------------------------------------------------- collisions


def _within_bounds(r):
    # the probe row of a collision report against its closed-form limit
    (t, gap, a_i, a_j, mismatch), = r.probes
    blowup = max(abs(a * gap / abs(r.beta) - 1.0) for a in (a_i, a_j))
    return (mismatch <= ca._PROBE_QUALITY and blowup <= r.blowup_bound
            and abs(gap / r.predicted_gap - 1.0) <= r.gap_bound)


def test_detect_collisions_worked_family():
    # nodes +-sqrt(-t), amplitudes -+1/(2 sqrt(-t)): |a_i| * gap = 1 at every
    # t, the limit node 0 gives the numerator mu_1 = 1 and p'(0) = 1, so
    # beta = 1; the gap is 2 sqrt(-t) exactly.  The closest rung resolves
    reports = ca.detect_collisions([0.0, 1.0, 0.0])
    assert len(reports) == 1
    r = reports[0]
    assert r.t0 == 0.0
    assert r.pair_index == 0
    assert r.blowup_confirmed
    assert abs(r.numerator - 1.0) <= 1e-12
    assert abs(r.beta - 1.0) <= 1e-12
    assert len(r.probes) == 1
    t, gap, a_i, a_j, mismatch = r.probes[0]
    assert t == -1e-8
    assert mismatch <= 1e-6
    assert abs(gap * a_i - 1.0) <= 1e-9
    assert abs(gap * a_j - 1.0) <= 1e-9
    assert abs(r.predicted_gap / (2.0 * np.sqrt(-t)) - 1.0) <= 1e-9
    assert _within_bounds(r)


def test_detect_collisions_empty_cases():
    assert ca.detect_collisions([1.0, 0.0, 1.0]) == []
    assert ca.detect_collisions([2.0]) == []


def test_detect_collisions_positive_det_d2_empty():
    # at d=2 a positive Hankel determinant leaves the whole line hyperbolic
    rng = np.random.default_rng(304)
    n = 0
    while n < 100:
        mu = rng.uniform(-2.0, 2.0, size=3)
        if pl.hankel(mu).determinant <= 1e-3:
            continue
        n += 1
        assert ca.detect_collisions(mu) == []


def test_detect_collisions_certificates_random():
    rng = np.random.default_rng(305)
    seen = 0
    while seen < 40:
        d = int(rng.integers(2, 4))
        inst = _tame_instance(rng, d)
        if inst is None:
            continue
        _, mu = inst
        scale = max(1.0, float(np.max(np.abs(mu.values))))
        for r in ca.detect_collisions(mu):
            seen += 1
            # one resolved probe, on the closed-form limit within its bounds
            assert len(r.probes) == 1
            assert r.probes[0][4] <= 1e-6
            assert _within_bounds(r)
            assert abs(r.numerator) >= 1e-8 * scale


def _exact_numerators(mu):
    """(t0, numerator, beta) of the exact limit configuration at every
    critical point x0 of phi = -Q_b/S, on the exact rational line of the
    float moments: Q_t0 = Q_b + t0*S has the double root x0, the limit
    polynomial p is Q_t0/(z - x0), and beta = numerator / p'(x0).  x0 is
    taken to 40 digits."""
    base, slope = exact_line(mu)
    z = sympy.Symbol("z")
    qb = sympy.Poly([1] + base, z)
    s = sympy.Poly(slope, z)
    out = []
    for root in (qb.diff(z) * s - qb * s.diff(z)).real_roots():
        x0 = root.evalf(40)
        if s.eval(x0) == 0:
            continue
        t0 = -qb.eval(x0) / s.eval(x0)
        quotient = [sympy.Integer(1)]  # descending, by synthetic division
        for b, sl in zip(base[:-1], slope[:-1]):
            quotient.append(b + t0 * sl + x0 * quotient[-1])
        numerator = sum(sympy.Rational(m) * c for m, c in zip(mu, quotient[::-1]))
        out.append((t0, numerator, numerator / sympy.Poly(quotient, z).diff(z).eval(x0)))
    return out


def test_detect_collisions_numerator_matches_exact_limit():
    # unscreened moments: the float numerator lies within its bound of the
    # numerator of the exact limit configuration at the exact root of D
    rng = np.random.default_rng(307)
    checked = 0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        mu = rng.uniform(-2.0, 2.0, size=2 * d - 1)
        try:
            reports = ca.detect_collisions(mu)
        except (DegenerateHankel, UnresolvedDomain):
            continue
        exact = _exact_numerators(mu) if reports else []
        for r in reports:
            t0, numerator, _ = min(exact, key=lambda e: abs(e[0] - r.t0))
            assert abs(float(t0) - r.t0) <= 1e-8 * abs(r.t0)
            assert abs(r.numerator - float(numerator)) <= r.numerator_bound, (list(mu), r.t0)
            checked += 1
    assert checked >= 100


def test_detect_collisions_blowup_constant_matches_exact_limit():
    # unscreened moments: beta = numerator / p'(x0) lies within the
    # numerator's allowance carried through the division, doubled for the
    # rounding of p'(x0), of the beta of the exact limit configuration; the
    # probe lies within the bounds from the next Puiseux terms
    rng = np.random.default_rng(307)
    checked = 0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        mu = rng.uniform(-2.0, 2.0, size=2 * d - 1)
        try:
            reports = ca.detect_collisions(mu)
        except (DegenerateHankel, UnresolvedDomain):
            continue
        exact = _exact_numerators(mu) if reports else []
        for r in reports:
            _, _, beta = min(exact, key=lambda e: abs(e[0] - r.t0))
            allowance = 2.0 * r.numerator_bound * abs(r.beta / r.numerator)
            assert abs(r.beta - float(beta)) <= allowance, (list(mu), r.t0)
            assert _within_bounds(r), (list(mu), r.t0)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("mu, pairs", CERTIFIED_ENDPOINTS)
def test_detect_collisions_certifies_every_endpoint(mu, pairs):
    reports = ca.detect_collisions(mu)
    assert [r.t0 for r in reports] == [e.t0 for e in pl.hyperbolic_domain(mu).endpoints]
    assert [r.pair_index for r in reports] == pairs
    assert all(r.blowup_confirmed for r in reports)


def test_detect_collisions_skips_an_unresolvable_probe(monkeypatch):
    # on the d = 5 vector the rungs t0 -+ 1e-2*|t0| and 1e-3*|t0| miss the
    # product invariant; the closest rung resolves, and lies on the
    # closed-form limit within its bounds
    mu = CERTIFIED_ENDPOINTS[-1][0]
    reports = ca.detect_collisions(mu)
    assert len(reports) == 2
    for r in reports:
        (t, *_), = r.probes
        assert abs(t - r.t0) == pytest.approx(1e-8 * abs(r.t0), rel=1e-6)
        assert _within_bounds(r)
    # with the rungs nearer than 1e-6*|t0| unresolved the probe steps out to
    # 1e-6*|t0|, the first that resolves, and is still within its bounds
    real = ca._probe_point
    monkeypatch.setattr(ca, "_probe_point", lambda line, t: real(line, t) if min(
        abs(t - r.t0) for r in reports) > 5e-7 * abs(t) else None)
    for r in ca.detect_collisions(mu):
        (t, *_), = r.probes
        assert abs(t - r.t0) == pytest.approx(1e-6 * abs(r.t0), rel=1e-6)
        assert _within_bounds(r)


def test_probe_point_keeps_the_monic_leading_one():
    # sigma(t) = (t, -1) at t = 1e15: a trim of the leading 1, below 1e-14 of
    # the largest coefficient, would leave the line 1e15 z - 1 and one node
    line = pl.line_params([1.0, 0.0, 1.0])
    nodes, amps, _ = ca._probe_point(line, 1e15)
    assert list(nodes) == pytest.approx([-1e15, 1e-15], rel=1e-12)
    assert list(amps) == pytest.approx([1e-30, 1.0], rel=1e-12)


def test_collision_report_validation():
    rows = (
        (-1e-2, 1e-2, 10.0, 10.0, 0.0),
        (-1e-3, 1e-1, 100.0, 100.0, 0.0),  # gap grows: invalid
    )
    with pytest.raises(ValueError):
        ca.CollisionReport(
            t0=0.0, pair_index=0, probes=rows, numerator=1.0,
            numerator_bound=1e-8, blowup_confirmed=True,
        )
    rows = (
        (-1e-2, 1e-2, 10.0, 10.0, 0.0),
        (-1e-3, 1e-3, 100.0, 100.0, 0.0),
    )
    for numerator in (1e-9, -1e-8, NAN):
        with pytest.raises(ValueError):
            # verdict claims blow-up but |numerator| does not clear its bound
            ca.CollisionReport(
                t0=0.0, pair_index=0, probes=rows, numerator=numerator,
                numerator_bound=1e-8, blowup_confirmed=True,
            )
    with pytest.raises(ValueError):
        ca.CollisionReport(
            t0=0.0, pair_index=0, probes=rows, numerator=1.0,
            numerator_bound=1e-8, blowup_confirmed=False,
        )
    r = ca.CollisionReport(
        t0=0.0, pair_index=0, probes=(), numerator=-1.0,
        numerator_bound=1e-8, blowup_confirmed=True,
    )
    assert r.blowup_confirmed
    r = ca.CollisionReport(
        t0=0.0, pair_index=0, probes=rows, numerator=NAN,
        numerator_bound=NAN, blowup_confirmed=False,
    )
    assert not r.blowup_confirmed


# ---------------------------------------------------------------- escapes


def test_escape_worked_double_escape():
    r = ca.escape_analysis([0.0, 1.0, 0.0], -INF)
    assert r.escaping_indices == (0, 1)
    assert not r.hypothesis_met
    assert r.bounded_indices == ()
    assert len(r.bounded_limits) == 0
    # both nodes are +-sqrt(-t)
    t, nodes = r.probes[-1]
    assert nodes[0] == pytest.approx(-np.sqrt(-t), rel=1e-9)
    assert nodes[1] == pytest.approx(np.sqrt(-t), rel=1e-9)


def test_escape_worked_single_escape_both_directions():
    r = ca.escape_analysis([1.0, 0.0, 1.0], INF)
    assert r.hypothesis_met
    assert r.escaping_indices == (0,)
    assert r.bounded_indices == (1,)
    assert abs(r.bounded_limits[0]) < 1e-6
    # sigma(t) = (t, -1): s_1 = 1, so the expansion puts node 0 at -t and
    # the bounded node at 0 + 1/t; the probe's roots are -t/2 -+
    # sqrt(t^2/4 + 1), within 2/t^2 (relative) of -t
    (t, nodes), = r.probes
    assert t > 0.0
    assert r.predicted == (-t, 1.0 / t)
    assert nodes[0] < -t
    assert abs(nodes[0] / -t - 1.0) <= r.escape_bound
    assert r.escape_bound <= 3.0 / t**2

    r = ca.escape_analysis([1.0, 0.0, 1.0], -INF)
    assert r.escaping_indices == (1,)
    (t, nodes), = r.probes
    assert t < 0.0
    assert r.predicted == (1.0 / t, -t)
    assert nodes[1] > -t
    assert abs(nodes[1] / -t - 1.0) <= r.escape_bound


def test_escape_d1_single_node():
    r = ca.escape_analysis([2.0], INF)
    assert r.escaping_indices == (0,)
    assert r.hypothesis_met


def test_escape_validation_and_missing_component():
    with pytest.raises(ValueError):
        ca.escape_analysis([1.0, 0.0, 1.0], 3.0)
    with pytest.raises(NoUnboundedComponent):
        ca.escape_analysis(EMPTY_DOMAIN_MU, INF)
    # mu=(0,1,0): hyperbolic only for t < 0
    with pytest.raises(NoUnboundedComponent):
        ca.escape_analysis([0.0, 1.0, 0.0], INF)


def test_escape_report_validation():
    with pytest.raises(ValueError):
        ca.EscapeReport(
            direction=INF,
            escaping_indices=(0,),
            bounded_indices=(1,),
            bounded_limits=np.empty(0),
            ambiguous_indices=(),
            hypothesis_met=True,
            probes=((10.0, (1.0, 2.0)),),
        )


def _exact_slope_roots(mu):
    """Real roots of the slope polynomial S from the exact rational Hankel
    solve of the float moments, to 30 digits."""
    d = (len(mu) + 1) // 2
    M = sympy.Matrix(d, d, lambda i, j: sympy.Rational(float(mu[i + j])))
    # the slopes solve M (s_d, ..., s_1)^T = e_d
    s = M.LUsolve(sympy.Matrix([0] * (d - 1) + [1]))[::-1]
    z = sympy.Symbol("z")
    S = sympy.Poly(sum(c * z ** (d - 1 - j) for j, c in enumerate(s)), z)
    return [float(r.evalf(30)) for r in S.real_roots()]


def test_escape_exactly_one_random():
    rng = np.random.default_rng(306)
    checked = dict.fromkeys(range(2, 6), 0)
    while min(checked.values()) < 12:
        d = int(rng.integers(2, 6))
        mu = rng.uniform(-2.0, 2.0, size=2 * d - 1)
        if checked[d] >= 12:
            continue
        H = pl.hankel(mu)
        scale = max(1.0, float(np.max(np.abs(H.minors))))
        if abs(H.determinant) <= 1e-6 * scale or abs(H.minor(d, d)) <= 1e-6 * scale:
            continue
        for direction in (INF, -INF):
            try:
                r = ca.escape_analysis(mu, direction)
            except (NoUnboundedComponent, UnresolvedDomain, InterpolationInconsistency):
                continue
            assert len(r.escaping_indices) == 1
            assert not r.ambiguous_indices
            exact = _exact_slope_roots(mu)
            assert len(exact) == d - 1
            assert np.all(np.abs(r.bounded_limits - exact) <= 1e-10 * np.abs(exact))
            checked[d] += 1


def test_escape_limits_are_the_roots_of_s_where_deepening_raised():
    # d = 3, toward -inf: the old probe ladder deepened to t = -1.45e15,
    # where rounding makes the point non-hyperbolic, and raised
    mu = [-0.361967878832556, -0.07030681535543604, -0.011110615093620435,
          1.702295712202743, -1.3313294636454165]
    r = ca.escape_analysis(mu, -INF)
    assert r.escaping_indices == (0,)
    assert r.bounded_indices == (1, 2)
    assert r.hypothesis_met
    assert np.allclose(r.bounded_limits, [0.1942454649, 669.42006], rtol=1e-8)
    assert np.allclose(r.bounded_limits, _exact_slope_roots(mu), rtol=1e-10, atol=0.0)


def test_escape_limits_are_the_roots_of_s_past_the_resolved_probes():
    # d = 3, toward -inf: the component's finite end is near -9.3e6, so the
    # evidence probe sits at t = -9.3e7.  Its nodes are the roots of the
    # float polynomial, and the escaping node is within its bound of -s_1 t
    mu = [1.6055852294440953, 1.1315172262118032, 0.7975666470651088,
          0.19886020736845778, 1.2589838994774105]
    r = ca.escape_analysis(mu, -INF)
    assert r.escaping_indices == (0,)
    assert r.bounded_indices == (1, 2)
    assert np.allclose(r.bounded_limits, [-2536.298416, 0.7047382237], rtol=1e-9)
    assert np.allclose(r.bounded_limits, _exact_slope_roots(mu), rtol=1e-10, atol=0.0)
    line = pl.line_params(mu)
    (t, nodes), = r.probes
    assert t == pytest.approx(-9.3276654e7, rel=1e-8)
    z = sympy.Symbol("z")
    sigma = [sympy.Rational(v) for v in line.sigma_at(t).sigma.tolist()]
    q = sympy.Poly([1] + sigma, z)
    exact = [float(x.evalf(30)) for x in q.real_roots()]
    assert len(exact) == 3
    assert np.allclose(nodes, exact, rtol=1e-14, atol=0.0)
    assert r.predicted[0] == -float(line.slopes[0]) * t
    assert abs(nodes[0] / r.predicted[0] - 1.0) <= r.escape_bound < 0.1


def test_escape_pair_d3():
    # mu = (1, 1, 1, 0, 3): M_33 = 0, so s_1 = 0 and S = s_2 (z - 1); the
    # first and last nodes escape like -+sqrt(-s_2 t), the middle one tends to 1
    r = ca.escape_analysis([1.0, 1.0, 1.0, 0.0, 3.0], INF)
    assert r.escaping_indices == (0, 2)
    assert r.bounded_indices == (1,)
    assert r.bounded_limits.tolist() == pytest.approx([1.0], rel=1e-12)
    assert not r.hypothesis_met
    (t, nodes), = r.probes
    assert nodes[0] < 1.0 < nodes[2]
    root = np.sqrt(-pl.line_params([1.0, 1.0, 1.0, 0.0, 3.0]).slopes[1] * t)
    assert r.predicted[0] == -root and r.predicted[2] == root
    for i in (0, 2):
        assert abs(nodes[i] / r.predicted[i] - 1.0) <= r.escape_bound < 1.0


def test_escape_abstains_when_s_has_a_double_root():
    # the domain claims an unbounded component toward -inf, but S has a
    # double root: no d - 1 distinct limits exist
    with pytest.raises(InterpolationInconsistency):
        ca.escape_analysis([3.0, -4.0, 5.0, -6.0, 0.0], -INF)


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-6, 1e-9, 1e-11])
def test_escape_verdict_does_not_depend_on_amplitude_scale(c):
    # nodes (-100, 0, 100), all amplitudes c: scaling the moments only
    # reparametrises the line, so S = 1.5 z^2 - 1e4 up to a factor for every
    # c, with limits +-100 sqrt(2/3).  At c = 1e-9 every last-row minor is
    # below 1e-12 in absolute terms; an absolute floor called the leading
    # slope zero and claimed three escaping nodes.  At c = 1e-11 rounding
    # makes the far probes non-hyperbolic; the first already shows the order
    mu = [c * sum(x**k for x in (-100.0, 0.0, 100.0)) for k in range(5)]
    limits = 100.0 * np.sqrt(2.0 / 3.0) * np.array([-1.0, 1.0])
    for direction, escaping in ((INF, (0,)), (-INF, (2,))):
        r = ca.escape_analysis(mu, direction)
        assert r.escaping_indices == escaping
        assert r.hypothesis_met
        assert np.allclose(r.bounded_limits, limits, rtol=1e-12, atol=0.0)


def test_escape_probes_are_checked_against_the_expansion(monkeypatch):
    # mu = (1, 0, 1) toward +inf: node 0 escapes to -inf.  A limit of S
    # put at -1e9 lies beyond the escaping node of every probe (down to
    # -1e8); the probes themselves (sigma of length 2) keep their true roots
    real = ca.poly_engine.hyperbolic_roots
    monkeypatch.setattr(ca.poly_engine, "hyperbolic_roots",
                        lambda s: real(s) if len(s) == 2 else np.array([-1e9]))
    with pytest.raises(InconsistentComputation, match="does not show nodes"):
        ca.escape_analysis([1.0, 0.0, 1.0], INF)


def _drawn_family(signal):
    # the line of a drawn signal and its domain; draws whose line or domain
    # abstains are discarded
    try:
        line = pl.line_params(compute_moments(signal, 2 * signal.d - 2))
        line.domain
    except (DegenerateHankel, UnresolvedDomain):
        assume(False)
    return line


def _grid_in(intervals, fractions):
    # one parameter per interval and fraction f in (0, 1)
    out = []
    for lo, hi in intervals:
        for f in fractions:
            if math.isinf(lo) and math.isinf(hi):
                out.append(20.0 * (f - 0.5))
            elif math.isinf(lo):
                out.append(hi - f / (1.0 - f) * max(1.0, abs(hi)))
            elif math.isinf(hi):
                out.append(lo + f / (1.0 - f) * max(1.0, abs(lo)))
            else:
                out.append(lo + f * (hi - lo))
    return out


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(signal_strategy(min_d=2, max_d=5),
       st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))
def test_samples_are_family_points_within_budget(signal, fractions):
    line = _drawn_family(signal)
    t_star = line.parameter_of(elementary_symmetric(signal.nodes))
    values = line.mu.values.tolist()
    for s in ca.sample_curve(line, [t_star] + _grid_in(line.domain.intervals, fractions)):
        assert s.residual <= pl._lift_budget(values, s.sigma.sigma.tolist())
        assert 0.0 not in s.amplitudes.tolist()
        assert all(b > a for a, b in zip(s.nodes.tolist(), s.nodes.tolist()[1:]))
        sigma, nodes, amps = line.point(s.t)
        assert s.sigma.sigma.tobytes() == sigma.sigma.tobytes()
        assert s.nodes.tobytes() == nodes.tobytes()
        assert s.amplitudes.tobytes() == amps.tobytes()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(signal_strategy(min_d=2, max_d=5))
def test_collision_numerator_is_that_of_the_limit_configuration(signal):
    # the limit configuration rebuilt on arrays, as npoly.polydiv,
    # real_roots and np.insert give it; detect_collisions reads numerator
    # and bound from one polynomial of it, and must agree bit for bit
    line = _drawn_family(signal)
    d = line.d
    reports = ca.detect_collisions(line)
    assert [r.t0 for r in reports] == [ep.t0 for ep in line.domain.endpoints]
    for r, ep in zip(reports, line.domain.endpoints):
        q = np.append(line.sigma_at(ep.t0).sigma[::-1], 1.0)
        rest = npoly.polydiv(q, [ep.x0 * ep.x0, -2.0 * ep.x0, 1.0])[0]
        others = pe.real_roots(rest)
        assert r.pair_index == int(np.sum(others < ep.x0))
        if len(others) != d - 2:
            assert math.isnan(r.numerator) and math.isnan(r.numerator_bound)
            continue
        limit = np.insert(others, r.pair_index, ep.x0)
        assert r.numerator.hex() == ca.collision_numerator(line.mu, limit).hex()
        bound = pl._ENDPOINT_REL * float(
            np.dot(np.abs(line.mu.values[:d]), np.abs(npoly.polyfromroots(limit))))
        assert r.numerator_bound.hex() == bound.hex()

"""Closed-form d=2/d=3 classification tests.

Worked values used below:
  * sigma=(0,-1,0) is z^3 - z with roots -1,0,1: three distinct real roots,
    so the sign-flipped discriminant must be negative; plugging into the
    formula gives 4*(-1)^3 = -4.  sigma=(0,1,0) is z^3 + z (one real root),
    value +4.
  * mu=(1,0,1,0,1): the three 2x2 Hankel determinants are 1, -1, 0, so
    P8 = 4*1^3*(-1) - 1^2*0^2 = -4 exactly.
  * mu=(3,3,5,9,17) are the moments of amplitudes (1,1,1) at nodes (0,1,2)
    up to order 4.  The determinants are d1=6, d2=2, d3=12, so
    P8 = 4*216*2 - 36*144 = -3456, and the ratio vector (3mu1/mu0, 3mu2/mu0,
    mu3/mu0) = (3,5,3) gives K = 243 + 500 - 225 + 324 - 810 = 32, all exact
    in floating point.
  * mu=(3,-4,5,-6,0): the ratios (-4,5,-2) are the coefficients of
    (z-1)^2 (z-2), a cubic with a double root, so K = 0 exactly and with it
    P8 = -(mu0^4/27) d1^2 K = 0: the bounded verdict must abstain.
"""

import json
import pathlib
import warnings
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_d3_verdicts, exact_discriminant, exact_hankel, exact_line
from prony import closed_forms as cf
from prony import curve_analysis as ca
from prony import poly_engine as pe
from prony import prony_line as pl
from prony.errors import DegenerateHankel
from prony.signal_model import Signal, compute_moments, elementary_symmetric

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# d = 3 vectors whose quartic has real roots only just apart: a quartic
# sampled at five points and interpolated counted none of them and called
# collision "no"; the exact restricted discriminant has two and four
CLOSE_ROOT_COLLISIONS = [
    [-0.11014021843811117, -1.091213032733728, 0.8721106421400395,
     -0.6768492551348763, 0.5246931414231624],
    [1.9375836810453528, 0.5678182030100614, 0.40911645337263,
     0.15621496378680497, 0.09181905109505233],
]


def _exact_restricted_discriminant(mu):
    # the discriminant of the node cubic along the exact line of the float
    # moments, a polynomial in t
    base, slope = exact_line(mu)
    z, t = sympy.symbols("z t")
    cubic = sympy.Poly([1] + [b + t * s for b, s in zip(base, slope)], z)
    return sympy.Poly(sympy.discriminant(cubic), t)


def _domain_summary(mu):
    dom = pl.hyperbolic_domain(pl.line_params(mu))
    ends = sorted(ep.t0 for ep in dom.endpoints)
    all_bounded = all(np.isfinite(lo) and np.isfinite(hi)
                      for lo, hi in dom.intervals)
    return dom, ends, all_bounded


# ---------------------------------------------------------------------------
# discriminant_cubic_paper


def test_discriminant_worked_values():
    assert cf.discriminant_cubic_paper((0.0, -1.0, 0.0)) == -4.0
    assert cf.discriminant_cubic_paper((0.0, 0.0, 0.0)) == 0.0
    assert cf.discriminant_cubic_paper((0.0, 1.0, 0.0)) == 4.0


def test_discriminant_is_negative_standard():
    rng = np.random.default_rng(11)
    for _ in range(200):
        sigma = rng.uniform(-3, 3, 3)
        a = cf.discriminant_cubic_paper(sigma)
        b = exact_discriminant(sigma)
        assert abs(a + b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_discriminant_sign_detects_distinct_real_roots():
    rng = np.random.default_rng(12)
    for _ in range(100):
        roots = np.sort(rng.uniform(-2, 2, 3))
        if np.min(np.diff(roots)) < 1e-2:
            continue
        sigma = elementary_symmetric(roots).sigma
        assert cf.discriminant_cubic_paper(sigma) < 0.0


def test_discriminant_validation():
    with pytest.raises(ValueError):
        cf.discriminant_cubic_paper((1.0, 2.0))
    with pytest.raises(ValueError):
        cf.discriminant_cubic_paper((np.nan, 0.0, 0.0))


def test_cubes_past_the_double_range_are_refused():
    # 3 mu1 / mu0 = 3e135, whose cube Python's float power raises
    # OverflowError on: the functions that reach it refuse the input
    mu = [9.410610622527965e-136, 0.9269749573460788, 0.447240161215134,
          1.3261816923284035, 1.575189086247684]
    for call in (lambda: cf.discriminant_cubic_paper((1.0, 1e103, 0.0)),
                 lambda: cf.K_value(mu), lambda: cf.P8_second_form(mu)):
        with pytest.raises(ValueError, match="^moments exceed double range"):
            call()
    # classify_d3 decides both verdicts exactly, the bounded one from the
    # sign of P8, with K null as evidence
    c = cf.classify_d3(mu)
    assert c.evidence["K"] is None
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu) == ("yes", "no")


def test_k_past_the_double_range_keeps_the_collision_verdict():
    # K_value overflows (3 mu1 / mu0 = 2.3e87 cubed); the exact quartic has
    # real roots, as the exact restricted discriminant of the line has it
    # (tools/d3_census.py's truth), and P8 > 0 gives K < 0: bounded
    mu = [-3.2682254325574194e-88, 0.7529654638716203, -0.3164047227263107,
          3.1587356023181123e-52, 1.563936994570299]
    with pytest.raises(ValueError, match="^moments exceed double range"):
        cf.K_value(mu)
    c = cf.classify_d3(mu)
    assert (c.collision, c.bounded, c.evidence["K"]) == ("yes", "yes", None)
    assert exact_d3_verdicts(mu) == ("yes", "yes")


def test_products_past_the_double_range_are_refused():
    # finite powers whose products overflow gave NaN (inf - inf) or inf
    for call in (lambda: cf.discriminant_cubic_paper((1e100, 1e100, -1e120)),
                 lambda: cf.discriminant_cubic_paper((0.0, 0.0, 1e200)),
                 lambda: cf.K_value([1e-100, 1e-100, 1e-100, 1e55])):
        with pytest.raises(ValueError, match="^moments exceed double range"):
            call()


# ---------------------------------------------------------------------------
# P8 and K


def test_p8_hand_anchor():
    assert cf.P8_closed_form((1.0, 0.0, 1.0, 0.0, 1.0)) == -4.0


def test_p8_two_forms_agree():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 1000:
        mu = rng.uniform(-2, 2, 5)
        if abs(mu[0]) < 1e-3:
            continue
        checked += 1
        a = cf.P8_closed_form(mu)
        b = cf.P8_second_form(mu)
        assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)


def test_p8_past_the_double_range_without_a_warning():
    # 4 d1^3 d2 with d1 near 1e114 is past the double range: numpy's
    # float64 products once overflowed there with a RuntimeWarning; the
    # exact value rounds to -inf, and classify_d3 decides both verdicts
    mu = [4.8860275630043606e+114, 0.5037999444635619, -1.4960028921619317,
          1.2004323745542655, -0.7913962778522756]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cf.P8_closed_form(mu) == -np.inf
        c = cf.classify_d3(mu)
    assert c.evidence["P8"] == -np.inf and c.evidence["p8_ok"]
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu) == ("yes", "no")


def test_p8_homogeneity_degree_8():
    rng = np.random.default_rng(14)
    for _ in range(50):
        mu = rng.uniform(-2, 2, 5)
        a = cf.P8_closed_form(2.0 * mu)
        b = 2.0 ** 8 * cf.P8_closed_form(mu)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1e-300)


def test_p8_and_k_validation():
    with pytest.raises(ValueError):
        cf.P8_closed_form((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        cf.P8_second_form((0.0, 1.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        cf.K_value((0.0, 1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        cf.K_value((1.0, 2.0))


def test_k_value_worked():
    assert cf.K_value((3.0, 3.0, 5.0, 9.0)) == 32.0
    assert cf.K_value((3.0, -4.0, 5.0, -6.0)) == 0.0


# ---------------------------------------------------------------------------
# quartic_Pmu


def test_quartic_leading_coefficient_is_p8():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 100:
        mu = rng.uniform(-2, 2, 5)
        try:
            q = cf.quartic_Pmu(mu)
        except DegenerateHankel:
            continue
        checked += 1
        # both are the one exact value, rounded once
        assert len(q) == 5
        assert q[-1] == cf.P8_closed_form(mu)


def test_quartic_homogeneity_sweep():
    # coefficient of t^k is homogeneous of degree 12-k in mu, and the whole
    # polynomial satisfies q_{2mu}(2t) = 2^12 q_mu(t)
    rng = np.random.default_rng(16)
    for _ in range(25):
        mu = rng.uniform(-2, 2, 5)
        try:
            q1 = cf.quartic_Pmu(mu)
            q2 = cf.quartic_Pmu(2.0 * mu)
        except DegenerateHankel:
            continue
        c1 = np.zeros(5)
        c2 = np.zeros(5)
        c1[: len(q1)] = q1
        c2[: len(q2)] = q2
        for k in range(5):
            want = 2.0 ** (12 - k) * c1[k]
            assert abs(c2[k] - want) <= 1e-9 * max(abs(want), np.max(np.abs(c2)))
        for t in (-1.3, 0.4, 2.1):
            a = npoly.polyval(2.0 * t, q2)
            b = 2.0 ** 12 * npoly.polyval(t, q1)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)


def test_quartic_roots_are_domain_endpoints():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        mu = rng.uniform(-2, 2, 5)
        try:
            line = pl.line_params(mu)
        except DegenerateHankel:
            continue
        if abs(line.detM) < 1e-2:
            continue
        checked += 1
        q = cf.quartic_Pmu(mu)
        roots = pe.real_roots(q)
        _, ends, _ = _domain_summary(mu)
        for t in ends:
            assert len(roots)
            assert min(abs(t - r) for r in roots) <= 1e-8 * max(1.0, abs(t))
        for r in roots:
            assert ends
            assert min(abs(t - r) for t in ends) <= 1e-8 * max(1.0, abs(r))


def _rounded(value):
    # a rational rounded once to a double, +-inf past the range
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


def test_quartic_is_the_expansion_along_the_float_line():
    # each coefficient is det(M)^4 disc(sigma(t)) expanded exactly along the
    # line of the float moments and rounded once, however widely the
    # coefficients spread; only leading coefficients that are exactly zero
    # are dropped
    rng = np.random.default_rng(19)
    t = sympy.Symbol("t")
    vectors = [rng.uniform(-2, 2, 5) for _ in range(30)]
    vectors += [rng.uniform(-2, 2, 5) * 10.0 ** rng.uniform(-30, 30, 5) for _ in range(30)]
    checked = 0
    for mu in vectors + CLOSE_ROOT_COLLISIONS:
        try:
            q = cf.quartic_Pmu(mu)
        except (DegenerateHankel, ValueError):
            continue
        checked += 1
        base, slope = exact_line(mu)
        det = exact_hankel(mu)[0]
        s1, s2, s3 = (b + s * t for b, s in zip(base, slope))
        disc = (27 * s3 ** 2 + 4 * s2 ** 3 - s1 ** 2 * s2 ** 2
                + 4 * s1 ** 3 * s3 - 18 * s1 * s2 * s3)
        coeffs = sympy.Poly(sympy.Rational(det.numerator, det.denominator) ** 4 * disc,
                            t).all_coeffs()[::-1]
        exact = [Fraction(int(c.p), int(c.q)) for c in coeffs]
        while exact and exact[-1] == 0:
            exact.pop()
        assert q == ([_rounded(c) for c in exact] or [0.0]), mu
    assert checked >= 50


def test_quartic_validation():
    with pytest.raises(ValueError):
        cf.quartic_Pmu((1.0, 0.0, 1.0))
    with pytest.raises(DegenerateHankel):
        cf.quartic_Pmu((1.0, 1.0, 1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# classify_d2


def test_classify_d2_worked_examples():
    c = cf.classify_d2((0.0, 1.0, 0.0))
    assert (c.d, c.collision, c.bounded) == (2, "yes", "no")
    assert c.evidence["detM"] == -1.0
    c = cf.classify_d2((1.0, 0.0, 1.0))
    assert (c.collision, c.bounded) == ("no", "no")
    c = cf.classify_d2((2.0, 0.0, 2.0))
    assert c.collision == "no"
    assert c.evidence["detM"] == 4.0


def test_classify_d2_indeterminate_zone():
    # det M = 5e-7, once inside the 1e-6 * (|mu0 mu2| + mu1^2) = 2e-6 band
    # that abstained: det M is correctly rounded, so its sign is exact, and
    # the det M policy refuses what lies closer to zero
    c = cf.classify_d2((1.0, 1.0, 1.0 + 5e-7))
    assert c.evidence["detM"] == float(Fraction(1.0 + 5e-7) - 1)
    assert c.collision == "no"
    assert c.bounded == "no"
    assert cf.classify_d2((1.0, 1.0, 1.0 - 5e-7)).collision == "yes"
    with pytest.raises(DegenerateHankel):
        cf.classify_d2((1.0, 1.0, 1.0 + 2**-52))


def test_classify_d2_degenerate():
    with pytest.raises(DegenerateHankel):
        cf.classify_d2((0.0, 0.0, 0.0))
    with pytest.raises(DegenerateHankel):
        cf.classify_d2((1.0, 1.0, 1.0))


def test_classify_d2_against_numeric_oracle():
    rng = np.random.default_rng(18)
    checked = 0
    while checked < 200:
        mu = rng.uniform(-2, 2, 3)
        if abs(pl.hankel(mu).determinant) <= 1e-3:
            continue
        checked += 1
        c = cf.classify_d2(mu)
        assert c.collision in ("yes", "no")
        reports = ca.detect_collisions(mu)
        assert (c.collision == "yes") == (len(reports) > 0)
        _, _, all_bounded = _domain_summary(mu)
        assert not all_bounded  # bounded="no" must be backed by the domain


# ---------------------------------------------------------------------------
# classify_d3


def test_classify_d3_moment_anchor():
    mu = compute_moments(Signal(np.array([1.0, 1.0, 1.0]),
                                np.array([0.0, 1.0, 2.0])), 4)
    assert np.array_equal(mu.values, [3.0, 3.0, 5.0, 9.0, 17.0])
    c = cf.classify_d3(mu)
    assert c.evidence["P8"] == -3456.0
    assert c.evidence["K"] == 32.0
    # the curve through this signal never leaves the hyperbolic set: the
    # quartic has no real roots and the domain is a single unbounded interval
    q = cf.quartic_Pmu(mu)
    roots = pe.real_roots(q)
    _, ends, all_bounded = _domain_summary(mu)
    assert len(roots) == 0 and len(ends) == 0
    assert c.collision == "no"
    assert c.bounded == "no" and not all_bounded


def test_classify_d3_abstains_on_vanishing_p8():
    # P8 = 0 exactly: the bounded verdict abstains, while the quartic, of
    # degree 3 here, still has its real root counted exactly
    mu = (3.0, -4.0, 5.0, -6.0, 0.0)
    c = cf.classify_d3(mu)
    assert c.bounded == "indeterminate"
    assert c.evidence["P8"] == 0.0
    assert not c.evidence["p8_ok"]
    assert len(cf.quartic_Pmu(mu)) == 4
    assert c.collision == "yes"
    assert c.evidence["real_root_count"] == _exact_restricted_discriminant(mu).count_roots() == 1
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu)
    assert c.evidence["domain_intervals"] is not None


def test_classify_d3_keeps_the_p8_a_float_trim_dropped():
    # the cleared quartic's coefficients span 300 orders here, and a trim
    # of those below 1e-14 of the largest once dropped its t^4 term and
    # abstained: the exact quartic keeps P8, and its count finds the exact
    # restricted discriminant's roots far out on the line
    mu = [-1.7577390749778945, 0.9309519252183325, -6.449894114541485e-118,
          4.494699568639492e+24, -1.991478508431113]
    c = cf.classify_d3(mu)
    q = cf.quartic_Pmu(mu)
    assert c.evidence["p8_ok"]
    assert len(q) == 5 and q[-1] == c.evidence["P8"] == cf.P8_closed_form(mu)
    assert abs(q[-1]) < 1e-14 * max(map(abs, q))
    assert c.evidence["real_root_count"] == _exact_restricted_discriminant(mu).count_roots() == 2
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu) == ("yes", "no")


def test_classify_d3_abstains_on_zero_leading_moment():
    c = cf.classify_d3((0.0, 1.0, 2.0, 5.0, 4.0))
    assert c.bounded == "indeterminate"
    assert not c.evidence["mu0_ok"]
    assert c.evidence["K"] is None
    assert c.collision in ("yes", "no")  # P8 = -8 still decides collision


def test_classify_d3_decides_where_the_domain_abstains():
    # critical values 0.3228735890 and 0.3228735913, within _ENDPOINT_REL of
    # each other: the domain build abstains, and a float quartic, near a
    # double root there, once counted no real root and called collision
    # "no".  The exact count finds the two roots of the exact restricted
    # discriminant of the float moments; the domain's abstention is evidence
    mu = [-0.4461703704981166, -0.7115262368540809, 0.2162391280819644,
          -0.3978698551150798, 0.3035255520760064]
    c = cf.classify_d3(mu)
    assert "domain_error" in c.evidence
    assert c.evidence["real_root_count"] == _exact_restricted_discriminant(mu).count_roots() == 2
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu) == ("yes", "no")


@pytest.mark.parametrize("mu", CLOSE_ROOT_COLLISIONS, ids=["two-roots", "four-roots"])
def test_classify_d3_sees_a_collision_between_close_roots(mu):
    assert _exact_restricted_discriminant(mu).count_roots() > 0
    c = cf.classify_d3(mu)
    assert c.collision == "yes"
    assert c.evidence["real_root_count"] >= 1


def test_classify_d3_fixture_instances():
    data = json.loads((FIXTURES / "d3_classify.json").read_text())
    for group, expect_bounded in (("bounded", "yes"), ("unbounded", "no")):
        for rec in data[group]:
            mu = np.array(rec["mu"])
            c = cf.classify_d3(mu)
            assert c.bounded == expect_bounded
            assert c.collision == rec["collision"]
            assert abs(c.evidence["K"] - rec["K"]) <= 1e-12 * abs(rec["K"])
            assert abs(c.evidence["P8"] - rec["P8"]) <= 1e-12 * abs(rec["P8"])
            assert abs(c.evidence["detM"] - rec["detM"]) <= 1e-12 * abs(rec["detM"])
            _, ends, all_bounded = _domain_summary(mu)
            assert all_bounded == (expect_bounded == "yes")
            assert len(ends) == rec["n_endpoints"]


def test_classify_d3_evidence_shape():
    mu = (3.0, 3.0, 5.0, 9.0, 17.0)
    c = cf.classify_d3(mu)
    assert set(c.evidence) == {"detM", "quartic_coefficients", "P8", "K", "real_root_count",
                               "mu0_ok", "d1_ok", "p8_ok", "domain_intervals",
                               "domain_all_bounded"}
    # descending order: the first entry is the t^4 coefficient, P8 itself
    assert c.evidence["quartic_coefficients"] == tuple(cf.quartic_Pmu(mu)[::-1])
    assert c.evidence["quartic_coefficients"][0] == c.evidence["P8"] == -3456.0
    assert c.evidence["real_root_count"] == 0
    assert c.evidence["mu0_ok"] is c.evidence["d1_ok"] is c.evidence["p8_ok"] is True


# moments (q**(4-k) p**k (c0 + c1 k + c2 k^2))_k, which the triple node p/q
# satisfies: the line passes through (z - p/q)^3, where D(t) has a double
# root at a t that is not a double, and D has no other real root
TRIPLE_NODE_LINES = [[2401.0, 1029.0, 343.0, 91.0, 21.0],  # node 1/7, t = -31/7
                     [2401.0, 5145.0, 8575.0, 11375.0, 13125.0]]  # node 5/7, t = -96875/7


@pytest.mark.parametrize("mu", TRIPLE_NODE_LINES, ids=["node-one-seventh", "node-five-sevenths"])
def test_classify_d3_counts_an_inexact_double_root_once(mu):
    # the float quartic of these lines once counted the double root and
    # the domain, which has no finite endpoint, disagreed: "indeterminate".
    # The exact count neither hides the collision nor counts the root twice
    D = _exact_restricted_discriminant(mu)
    assert [k for _, k in sympy.sqf_list(D)[1]] == [1, 2] and D.count_roots() == 1
    c = cf.classify_d3(mu)
    assert c.evidence["real_root_count"] == 1
    assert pl.hyperbolic_domain(mu).endpoints == ()
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu) == ("yes", "yes")


@st.composite
def _d3_moments(draw):
    # a d = 3 moment vector as the two streams of tools/d3_census.py draw
    # them: a third separated signals, a third signals with one close pair,
    # whose moments are summed exactly and rounded once, and a third uniform
    # moments with some entries scaled by 10^U(-150, 150)
    kind = draw(st.sampled_from(["separated", "close", "extreme"]))
    if kind == "extreme":
        mu = draw(st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
        powers = draw(st.lists(st.one_of(st.none(), st.none(), st.floats(-150.0, 150.0)),
                               min_size=5, max_size=5))
        return [m if p is None else m * 10.0 ** p for m, p in zip(mu, powers)]
    x = sorted(draw(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3)))
    if kind == "close":
        k = draw(st.integers(0, 1))
        x[k + 1] = x[k] + 10.0 ** draw(st.floats(-8.0, -3.0))
    a = [draw(st.floats(0.5, 1.5)) * draw(st.sampled_from([-1, 1])) for _ in x]
    return [float(sum(Fraction(ai) * Fraction(xi) ** k for ai, xi in zip(a, x)))
            for k in range(5)]


@settings(max_examples=150, deadline=None)
@given(_d3_moments())
def test_classify_d3_matches_an_exact_fraction_decision(mu):
    try:
        c = cf.classify_d3(mu)
    except (DegenerateHankel, ValueError):
        # only the line refuses: the det M policy, or the double range
        with pytest.raises((DegenerateHankel, ValueError)):
            pl.line_params(mu)
        return
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu)


def test_classify_d3_builds_one_line_and_one_domain(monkeypatch):
    built = []
    real = pl._build_domain
    monkeypatch.setattr(pl, "_build_domain",
                        lambda line: built.append(line) or real(line))
    cf.classify_d3((3.0, 3.0, 5.0, 9.0, 17.0))
    assert pl._line_of.cache_info().misses == 1  # line builds
    assert len(built) == 1


def test_classify_d3_degenerate():
    with pytest.raises(DegenerateHankel):
        cf.classify_d3((1.0, 1.0, 1.0, 1.0, 1.0))


def test_classification_validation():
    with pytest.raises(ValueError):
        cf.Classification(d=4, collision="yes", bounded="no", evidence={})
    with pytest.raises(ValueError):
        cf.Classification(d=2, collision="maybe", bounded="no", evidence={})
    with pytest.raises(ValueError):
        cf.Classification(d=2, collision="yes", bounded="sometimes",
                          evidence={})

"""Hankel machinery, the sigma-space solution line, and its hyperbolic domain."""

import dataclasses
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    SINGULAR_LU_MU,
    exact_d3_verdicts,
    exact_det,
    exact_discriminant,
    exact_hankel,
    exact_line,
    exact_policy_ratio,
    random_signal,
    relerr,
    signal_strategy,
)
from prony import closed_forms as cf
from prony import curve_analysis as ca
from prony import poly_engine as pe
from prony import prony_line as pl
from prony.errors import (
    DegenerateHankel,
    NoRealSolution,
    UnresolvedDomain,
    ResidualTooLarge,
)
from prony.prony_solver import curve_distance, make_cluster_signal, solve_complete
from prony.signal_model import (
    MomentVector,
    Signal,
    compute_moments,
    elementary_symmetric,
)

INF = float("inf")

# mu drawn in [-2,2]^5 whose whole solution line misses the hyperbolic set;
# confirmed by a 6000-point direct root-count probe grid, no interpolation
EMPTY_DOMAIN_MU = [
    0.46100799675962856,
    -0.6221668335296449,
    -1.7908441342474357,
    -1.0204928283189925,
    0.6872546689423418,
]


def _random_line(rng, d, det_floor=1e-3):
    while True:
        mu = rng.uniform(-2.0, 2.0, size=2 * d - 1)
        H = pl.hankel(mu)
        if abs(H.determinant) > det_floor * float(np.max(np.abs(H.minors))):
            return pl.line_params(mu)


# ---------------------------------------------------------------------------
# hankel


def test_hankel_examples():
    H = pl.hankel([0.0, 1.0, 0.0])
    assert np.array_equal(H.entries, [[0.0, 1.0], [1.0, 0.0]])
    assert H.determinant == -1.0
    H = pl.hankel([1.0, 0.0, 1.0])
    assert np.array_equal(H.entries, np.eye(2))
    assert H.determinant == 1.0
    H = pl.hankel([1.0, 1.0, 1.0, 1.0, 1.0])
    assert H.d == 3
    assert H.determinant == 0.0


def test_hankel_is_exact_rounded_once():
    # _bareiss on integer matrices, row swaps included, and hankel()'s
    # determinant and first minors, against exact Fraction values rounded
    # once, on the draws of the float cofactor table this replaced
    rng = np.random.default_rng(1011)
    for n in range(1, 5):
        for _ in range(50):
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-4, 5)
            ints = [[int(v * 2.0**80) for v in row] for row in a.tolist()]
            ints[0][0] = 0  # a zero pivot to swap
            assert pl._bareiss([row[:] for row in ints], n) == exact_det(ints)
    for d in range(1, 6):
        for _ in range(40):
            values = rng.uniform(-3.0, 3.0, 2 * d - 1) * 10.0 ** rng.integers(-3, 4)
            H = pl.hankel(values)
            det, minors = exact_hankel(values.tolist())
            assert H.determinant == float(det)
            assert H.minors.tolist() == [[float(m) for m in row] for row in minors]
    # past the double range: +-inf, and the minors of order 1 stay doubles
    H = pl.hankel([1e200, 0.0, -1e200])
    assert H.determinant == -math.inf
    assert H.minors.tolist() == [[-1e200, 0.0], [0.0, 1e200]]
    assert pl.hankel([1e200, 0.0, 1e200]).determinant == math.inf
    with pytest.raises(ValueError, match="finite"):
        pl.hankel([1.0, math.inf, 1.0])


def test_hankel_validation():
    with pytest.raises(ValueError):
        pl.hankel([1.0, 2.0])  # even length
    with pytest.raises(ValueError):
        pl.hankel(np.empty(0))


def test_hankel_minor_indexing():
    H = pl.hankel([0.0, 1.0, 0.0])
    # deleting row 1 and column 1 leaves the scalar mu_2 = 0
    assert H.minor(1, 1) == 0.0
    assert H.minor(1, 2) == 1.0
    assert H.minor(2, 2) == 0.0
    with pytest.raises(ValueError):
        H.minor(0, 1)
    assert pl.hankel([2.0]).minor(1, 1) == 1.0  # empty determinant


def test_hankel_structure_invariants():
    rng = np.random.default_rng(1001)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        mu = rng.uniform(-3.0, 3.0, size=2 * d - 1)
        H = pl.hankel(mu)
        assert np.array_equal(H.entries, H.entries.T)
        for i in range(d):
            for j in range(d):
                assert H.entries[i, j] == mu[i + j]
        # cofactor expansion along every row reproduces the determinant
        # (for d = 1 the minor table is [[1.0]], so this degrades correctly)
        for i in range(d):
            acc = 0.0
            for j in range(d):
                acc += (-1.0) ** (i + j) * H.entries[i, j] * H.minors[i, j]
            assert relerr(acc, H.determinant) < 1e-10


# ---------------------------------------------------------------------------
# line_params


def test_line_params_examples():
    line = pl.line_params([0.0, 1.0, 0.0])
    assert np.array_equal(line.slopes, [0.0, 1.0])
    assert np.array_equal(line.intercepts, [0.0, 0.0])
    line = pl.line_params([1.0, 0.0, 1.0])
    assert np.array_equal(line.slopes, [1.0, 0.0])
    assert np.array_equal(line.intercepts, [0.0, -1.0])
    with pytest.raises(DegenerateHankel):
        pl.line_params([1.0, 1.0, 1.0, 1.0, 1.0])
    # the exact solve finds no pivot on a singular M of its own
    with pytest.raises(DegenerateHankel, match="exactly zero"):
        pl._exact_line([1.0, 1.0, 1.0])


def test_line_params_d1():
    line = pl.line_params([2.0])
    assert np.array_equal(line.slopes, [0.5])
    assert np.array_equal(line.intercepts, [0.0])
    assert line.sigma_at(4.0).sigma[0] == 2.0
    with pytest.raises(DegenerateHankel):
        pl.line_params([0.0])


def test_line_params_refuses_moments_past_double_range():
    # det M = 1e400 is past the double range; the exact det M of
    # (1e308, 1e308, 1e308), which once gave inf - inf = NaN and collision
    # "no", is zero, so the det M policy refuses it
    for mu, error in (([1e200, 0.0, 1e200], ValueError), ([1e308, 1e308, 1e308], DegenerateHankel)):
        with pytest.raises(error):
            pl.line_params(mu)
        # and without an overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                pl.line_params(mu)
    with pytest.raises(ValueError, match="exceed double range: det M"):
        pl.line_params([1e200, 0.0, 1e200])
    with pytest.raises(DegenerateHankel):
        cf.classify_d2([1e308, 1e308, 1e308])
    # the complete system reads the policy on M^-1 in floats, where LU's
    # rounding leaves this M regular; the recovered signal is refused
    with pytest.raises(NoRealSolution):
        solve_complete([1e308, 1e308, 1e308, 1e308])
    # det M = 1e200 and the exact line (1e-200, 0) are doubles; a line
    # with a component past the double range, here -1e311, is refused
    assert pl.line_params([1.0, 0.0, 1e200]).slopes.tolist() == [1e-200, 0.0]
    with pytest.raises(ValueError, match="exceed double range"):
        pl.line_params([1e-11, 0.0, 1e300])


def test_line_params_returns_a_line_unchanged():
    line = pl.line_params([0.0, 1.0, 0.0])
    assert pl.line_params(line) is line
    assert line.detM == pl.hankel([0.0, 1.0, 0.0]).determinant == -1.0


def test_equal_bits_share_one_line():
    mu = [2.5, 1.65, 4.874999999999999, 4.474499999999999, 8.679149999999998]
    line = pl.line_params(list(mu))
    for same in (tuple(mu), np.array(mu), MomentVector(mu)):
        assert pl.line_params(same) is line
    assert pl._line_of.cache_info().misses == 1


def test_signed_zeros_are_different_moments():
    plus = pl.line_params([0.0, 1.0, 0.0])
    minus = pl.line_params([-0.0, 1.0, 0.0])
    assert plus is not minus
    assert math.copysign(1.0, minus.mu.values[0]) == -1.0
    assert pl.line_params([0.0, 1.0, 0.0]) is not plus  # one entry only


@pytest.mark.parametrize("mu, error", [
    ([1.0, 1.0, 1.0], DegenerateHankel),
    ([1e200, 0.0, 1e200], ValueError),
    ([1.0, math.inf, 1.0], ValueError),
    ([1.0, math.nan, 1.0], ValueError),
    ([1e308, 1e308, 1e308], DegenerateHankel),
])
def test_refused_moments_raise_on_every_call(mu, error):
    for _ in range(3):
        with pytest.raises(error):
            pl.line_params(mu)
        with pytest.raises(error):
            pl.hyperbolic_domain(mu)
    assert pl._line_of.cache_info().currsize == 0


def test_remembered_line_is_read_only():
    # every caller of line_params on these moments gets these objects
    line = pl.line_params([2.0, 1.0, 3.0])
    for array in (line.slopes, line.intercepts, line.mu.values):
        assert not array.flags.writeable
    assert isinstance(line.domain.intervals, tuple)
    for obj, field in ((line, "d"), (line.domain, "intervals")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)


def test_hyperbolic_domain_takes_moments_or_a_line():
    dom = pl.hyperbolic_domain([1.0, 0.0, 1.0])
    assert dom.intervals == ((-INF, INF),)
    line = pl.line_params([1.0, 0.0, 1.0])
    assert pl.hyperbolic_domain(line) is dom is line.domain


def test_analyses_of_raw_moments_build_one_domain(monkeypatch):
    built = []
    real = pl._build_domain
    monkeypatch.setattr(pl, "_build_domain",
                        lambda line: built.append(line) or real(line))
    # moments of A = (1, -0.5, 2), X = (-1, 0.3, 1.4): two collisions and an
    # escape in each direction
    mu = [2.5, 1.65, 4.874999999999999, 4.474499999999999, 8.679149999999998]
    line = pl.line_params(mu)
    dom = pl.hyperbolic_domain(mu)
    assert ca.detect_collisions(mu)
    for direction in (INF, -INF):
        ca.escape_analysis(mu, direction)
    assert ca.sample_curve(mu, [0.5 * (lo + hi) for lo, hi in dom.intervals
                                if math.isfinite(lo + hi)])
    cf.classify_d3(mu)
    assert built == [line]
    assert pl._line_of.cache_info().misses == 1


def test_line_point_is_the_family_point():
    # mu = (0, 1, 0): sigma(t) = (0, t), nodes -+sqrt(-t), amplitudes
    # -+1/(2 sqrt(-t))
    sigma, nodes, amps = pl.line_params([0.0, 1.0, 0.0]).point(-4.0)
    assert np.array_equal(sigma.sigma, [0.0, -4.0])
    assert np.array_equal(nodes, [-2.0, 2.0])
    assert np.array_equal(amps, [-0.25, 0.25])


def _bits(obj):
    """obj with every float as its IEEE bytes, through dataclasses,
    containers and arrays, so that == compares bit for bit."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                [_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)])
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    return obj


def _outcome(analysis, arg):
    try:
        return _bits(analysis(arg))
    except Exception as exc:  # the same refusal must come from both inputs
        return type(exc).__name__, str(exc)


# generating signals of families with collisions, punctures and escapes in
# one or both directions; the first is the mu = (0, 1, 0) family
FAMILY_SIGNALS = [
    Signal([-0.5, 0.5], [-1.0, 1.0]),
    Signal([1.25, -0.75], [-0.5, 1.5]),
    Signal([1.0, -0.5, 2.0], [-1.0, 0.3, 1.4]),
    Signal([-0.6, 1.3, 0.9], [-0.8, 0.1, 1.2]),
    Signal([0.8, -1.2, 1.0, 0.6], [-1.1, -0.2, 0.7, 1.5]),
]


@pytest.mark.parametrize("signal", FAMILY_SIGNALS, ids=lambda s: f"d{s.d}")
def test_analyses_give_the_same_bits_for_moments_and_line(signal):
    d = signal.d
    mu = compute_moments(signal, 2 * d - 2).values
    line = pl.line_params(mu)
    t_star = line.parameter_of(elementary_symmetric(signal.nodes))
    grid = t_star + np.linspace(-3.0, 3.0, 13)
    near = Signal(signal.amplitudes, signal.nodes + 1e-3)
    analyses = [
        lambda m: ca.sample_curve(m, grid),
        ca.detect_collisions,
        lambda m: ca.escape_analysis(m, INF),
        lambda m: ca.escape_analysis(m, -INF),
        lambda m: curve_distance(near, m, grid),
    ]
    if d == 2:
        analyses.append(cf.classify_d2)
    if d == 3:
        analyses += [cf.quartic_Pmu, cf.classify_d3]
    for analysis in analyses:
        assert _outcome(analysis, line) == _outcome(analysis, mu)


def test_line_slopes_match_minor_formula_exactly():
    # the minor formula evaluated in exact rationals on the float moments;
    # the refined line rounds it to within one ulp
    rng = np.random.default_rng(1002)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        line = _random_line(rng, d)
        M = sympy.Matrix(d, d, lambda i, j: sympy.Rational(line.mu.values[i + j]))
        det = M.det()
        for k in range(1, d + 1):
            j = d - k + 1
            minor = M.minor_submatrix(d - 1, k - 1).det()
            want = float((-1) ** (d + k) * minor / det)
            assert abs(line.slopes[j - 1] - want) <= math.ulp(want)


@st.composite
def _moment_case(draw):
    # moments in (-2, 2), each scaled by 10^k, |k| <= 300, in half the cases
    d = draw(st.integers(1, 5))
    mu = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * d - 1, max_size=2 * d - 1))
    if draw(st.booleans()):
        powers = draw(st.lists(st.integers(-300, 300), min_size=2 * d - 1, max_size=2 * d - 1))
        mu = [m * 10.0**k for m, k in zip(mu, powers)]
    return mu


def _assert_exact_line_rounded_once(mu):
    # det M and every component of the line are their exact rational values
    # on the float moments (sympy and Fractions, apart from the package),
    # correctly rounded; the det M policy refuses exactly where the exact
    # ratio of det M to the largest first minor is at most 1e-12
    if exact_policy_ratio(mu) <= Fraction(1e-12):
        with pytest.raises(DegenerateHankel):
            pl.line_params(mu)
        return
    line = pl.line_params(mu)
    base, slope = exact_line(mu)
    for got, want in ((line.slopes, slope), (line.intercepts, base)):
        want = np.array([float(Fraction(int(v.p), int(v.q))) for v in want])
        assert got.tobytes() == want.tobytes(), (mu, got.tolist(), want.tolist())
    det, _ = exact_hankel(mu)
    assert line.detM.hex() == float(det).hex()


@settings(max_examples=200, deadline=None)
@given(_moment_case())
def test_line_is_the_exact_line_rounded_once(mu):
    try:
        pl.line_params(mu)
    except ValueError:
        return  # det M or the line past the double range
    except DegenerateHankel:
        pass  # checked against the exact policy below
    _assert_exact_line_rounded_once(mu)


# nodes 1.1656062, 1.1655938 and 0.2774: kappa_inf(M) is 6.2e11
_KAPPA_6E11 = [0.9303531462841692, -0.6754644035109824, -1.2754877121027866,
               -1.6221178328224701, -1.9282997715611514]
# a node pair closer than 1e-3
_CLOSE_PAIR = [-1.4783005357980006, -1.4061762844163121, -1.356409961002595,
               -1.291829172167612, -1.2447049601853784]
# nodes -0.2415151, -0.2415109 and 0.726, kappa_inf(M) 1.2e11: the exact
# restricted discriminant has real roots
_WRONG_VERDICT = [-0.8928712294278014, -0.9673372767939867, -0.6251876246952384,
                  -0.47248870543019805, -0.3385201997811968]
_ILL_CONDITIONED = [_KAPPA_6E11, _CLOSE_PAIR, _WRONG_VERDICT]
# d = 5 with kappa_inf(M) = 4.3e29
_D5_KAPPA_4E29 = [-0.3986880547338352, 914.589988457949, 38331.94063084363, 46741631.99959682,
                  2134044026.1658845, 2382630245995.531, 118859383713094.38,
                  1.2171876684797714e+17, 6.622809419216595e+18]


@pytest.mark.parametrize("mu", _ILL_CONDITIONED + [
    _D5_KAPPA_4E29,
    SINGULAR_LU_MU[:7],
    [1.0, 0.0, 1e200],
    # three components lie 1 ulp from where an iterative refinement
    # settles, e.g. the slope 4.467188779002189e-18, not 4.46718877900219e-18
    [7.633620863112979e-276, 1.046022444184819, 1.1315022959033496,
     -3.0200095615221267e-131, -2.4214757862218112e+17],
], ids=["kappa-6e11", "close-pair", "wrong-verdict", "d5-kappa-4e29", "singular-to-lu",
        "det-1e200", "one-ulp"])
def test_ill_conditioned_line_is_the_exact_line_rounded_once(mu):
    _assert_exact_line_rounded_once(mu)


@pytest.mark.parametrize("mu", _ILL_CONDITIONED, ids=["two-steps", "more-steps", "wrong-verdict"])
def test_ill_conditioned_line_abstains(mu):
    # the exact line builds, but the critical values of its domain are
    # closer than the build resolves, and the domain abstains.  classify_d3
    # reads the exact quartic of the line instead, and decides as the exact
    # Fraction decision does; the abstention stays as its evidence
    with pytest.raises(UnresolvedDomain, match="critical values"):
        pl.hyperbolic_domain(mu)
    c = cf.classify_d3(mu)
    assert "domain_error" in c.evidence
    assert (c.collision, c.bounded) == exact_d3_verdicts(mu)


def test_line_abstains_where_refinement_does_not_settle():
    # d = 5 with kappa_inf(M) = 4.3e29: the line builds, and its domain,
    # whose critical values are closer than the build resolves, abstains
    with pytest.raises(UnresolvedDomain, match="critical values"):
        pl.hyperbolic_domain(_D5_KAPPA_4E29)


def test_line_abstains_where_lu_finds_m_singular():
    # LAPACK's LU finds M singular, and its exact det M is 1.8e-15 of the
    # largest first minor: the line and the complete system both refuse it
    # by the det M policy (exit 3), never with numpy's LinAlgError, a
    # ValueError that reads as malformed input
    assert exact_policy_ratio(SINGULAR_LU_MU[:7]) < Fraction(2e-15)
    with pytest.raises(DegenerateHankel, match="is degenerate"):
        pl.hyperbolic_domain(SINGULAR_LU_MU[:7])
    with pytest.raises(DegenerateHankel, match="is degenerate"):
        solve_complete(SINGULAR_LU_MU)


def test_line_membership_residuals():
    # every sigma(t) on the line satisfies all d moment equations
    rng = np.random.default_rng(1003)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        line = _random_line(rng, d)
        scale = max(1.0, float(np.max(np.abs(line.mu.values))))
        ts = list(rng.uniform(-5.0, 5.0, size=10))
        try:
            dom = pl.hyperbolic_domain(line)
        except UnresolvedDomain:
            dom = None  # flagged conditioning case; the line itself is fine
        for lo, hi in dom.intervals[:2] if dom is not None else ():
            a = lo if np.isfinite(lo) else min(hi - 1.0, -8.0) if np.isfinite(hi) else -8.0
            b = hi if np.isfinite(hi) else max(lo + 1.0, 8.0) if np.isfinite(lo) else 8.0
            ts.extend(rng.uniform(a, b, size=5))
        for t in ts:
            sig_scale = max(1.0, float(np.max(np.abs(line.sigma_at(t).sigma))))
            res = line.system_residuals(t)
            assert float(np.max(np.abs(res))) < 1e-9 * scale * sig_scale


def test_line_affinity_second_differences():
    rng = np.random.default_rng(1004)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        line = _random_line(rng, d)
        ts = np.linspace(-7.0, 7.0, 31)
        sig = np.array([line.sigma_at(t).sigma for t in ts])
        second = sig[2:] - 2.0 * sig[1:-1] + sig[:-2]
        scale = max(1.0, float(np.max(np.abs(sig))))
        assert float(np.max(np.abs(second))) < 1e-10 * scale


def test_parameter_of_inverts_sigma_at():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        line = _random_line(rng, d)
        t = float(rng.uniform(-10.0, 10.0))
        back = line.parameter_of(line.sigma_at(t))
        assert relerr(back, t) < 1e-9


def test_real_root_count_is_the_number_of_distinct_real_roots():
    # integer polynomials of degree 0 to 6, either sign of the leading
    # coefficient, with repeated integer roots times a random factor, and
    # x^4 + 4x + b, whose first remainder skips a degree and leads with a
    # negative coefficient (three pseudo-division steps: the scale must be
    # |lc|, or the chain's last sign flips); sympy's count is the reference
    rng = np.random.default_rng(1006)
    x = sympy.Symbol("x")
    polys = [sympy.Poly(sign * (x ** 4 + 4 * x + b), x) for b in (-1, 3, 5) for sign in (1, -1)]
    for _ in range(300):
        roots = rng.integers(-3, 4, int(rng.integers(0, 4))).tolist()
        factor = rng.integers(-9, 10, int(rng.integers(1, 4))).tolist()
        if any(factor):
            polys.append(sympy.Poly(sympy.prod([x - r for r in roots])
                                    * sum(int(c) * x ** k for k, c in enumerate(factor)), x))
    for poly in polys:
        p = [int(c) for c in poly.all_coeffs()[::-1]]
        assert pl._real_root_count(p) == poly.count_roots(), p


# ---------------------------------------------------------------------------
# hyperbolic_domain


def test_domain_examples():
    dom = pl.hyperbolic_domain(pl.line_params([0.0, 1.0, 0.0]))
    assert len(dom.intervals) == 1
    lo, hi = dom.intervals[0]
    assert lo == -INF and abs(hi) < 1e-12
    assert [e.kind for e in dom.endpoints] == ["collision-boundary"]

    dom = pl.hyperbolic_domain(pl.line_params([1.0, 0.0, 1.0]))
    assert dom.intervals == ((-INF, INF),)
    assert dom.endpoints == ()

    # two-sided case: sigma(t) = (-t, 1), discriminant t^2 - 4
    dom = pl.hyperbolic_domain(pl.line_params([1.0, 0.0, -1.0]))
    assert len(dom.intervals) == 2
    (a1, b1), (a2, b2) = dom.intervals
    assert a1 == -INF and b2 == INF
    assert relerr([b1, a2], [-2.0, 2.0]) < 1e-9


def test_domain_contains_source_point():
    s = Signal(amplitudes=[1.0, 1.0, 1.0], nodes=[0.0, 1.0, 2.0])
    line = pl.line_params(compute_moments(s, 4))
    t_star = line.parameter_of(elementary_symmetric(s.nodes))
    assert t_star == pytest.approx(-33.0, rel=1e-12)
    assert pl.hyperbolic_domain(line).contains(t_star)
    assert relerr(line.sigma_at(t_star).sigma, [-3.0, 2.0, 0.0]) < 1e-12


def test_domain_source_point_recovery_random():
    # moderate node spread and a conditioning floor keep the stated 1e-8
    # recovery tolerance meaningful; wilder instances are exercised by
    # test_domain_contains_the_generating_parameter
    rng = np.random.default_rng(1006)
    recovered = 0
    for _ in range(60):
        d = int(rng.integers(2, 5))
        x0 = rng.uniform(-2.0, 0.0)
        nodes = np.concatenate([[x0], x0 + np.cumsum(rng.uniform(0.25, 1.0, size=d - 1))])
        amps = rng.uniform(0.5, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        s = Signal(amplitudes=amps, nodes=nodes)
        mu = compute_moments(s, 2 * d - 2)
        H = pl.hankel(mu)
        if abs(H.determinant) <= 1e-2 * float(np.max(np.abs(H.minors))):
            continue
        line = pl.line_params(mu)
        sigma_src = elementary_symmetric(s.nodes)
        t_star = line.parameter_of(sigma_src)
        assert pl.hyperbolic_domain(line).contains(t_star)
        assert relerr(line.sigma_at(t_star).sigma, sigma_src.sigma) < 1e-8
        recovered += 1
    assert recovered >= 40


def _drawn_line(signal):
    try:
        return pl.line_params(compute_moments(signal, 2 * signal.d - 2))
    except DegenerateHankel:
        assume(False)


def test_domain_ignores_rounding_level_slope():
    # mu_0 = 0 makes the last-row minor behind sigma_1's slope vanish;
    # rounding leaves a slope of -7.45e-13, whose turning point near -2e12
    # once set the sampling radius and drove sigma(t) to ~1e14
    s = make_cluster_signal(4, 0.8)
    line = pl.line_params(compute_moments(s, 6))
    assert abs(line.slopes[0]) < 1e-12 * float(np.max(np.abs(line.slopes)))
    dom = pl.hyperbolic_domain(line)
    assert dom.contains(line.parameter_of(elementary_symmetric(s.nodes)))


def test_domain_empty_is_returned_not_raised():
    dom = pl.hyperbolic_domain(pl.line_params(EMPTY_DOMAIN_MU))
    assert dom.empty
    assert dom.intervals == ()
    assert dom.endpoints == ()


def test_domain_d1_whole_line():
    dom = pl.hyperbolic_domain(pl.line_params([2.0]))
    assert dom.intervals == ((-INF, INF),)


def test_domain_endpoint_correctness_random():
    rng = np.random.default_rng(1007)
    checked = 0
    for _ in range(120):
        d = int(rng.integers(2, 4))
        line = _random_line(rng, d)
        try:
            dom = pl.hyperbolic_domain(line)
        except UnresolvedDomain:
            continue  # flagged conditioning case
        for ep in dom.endpoints:
            t0 = ep.t0
            # the reported endpoint zeroes the restricted discriminant,
            # measured against its magnitude just off the endpoint
            off = 1e-2 * (1.0 + abs(t0))
            at = exact_discriminant(line.sigma_at(t0))
            near = max(
                abs(exact_discriminant(line.sigma_at(t0 + off))),
                abs(exact_discriminant(line.sigma_at(t0 - off))),
            )
            assert abs(at) < 1e-8 * max(1.0, near)
            # hyperbolicity holds inside and fails just outside
            off = 1e-6 * (1.0 + abs(t0))
            inside = [lo < t0 - off < hi or lo < t0 + off < hi for lo, hi in dom.intervals]
            assert any(inside)
            if ep.kind == "collision-boundary":
                outward = t0 + off if not dom.contains(t0 + off) else t0 - off
                assert not pe.is_hyperbolic(line.sigma_at(outward))
            checked += 1
    assert checked >= 40  # endpoints must actually occur in the sample


def test_domain_interval_midpoints_hyperbolic():
    rng = np.random.default_rng(1008)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        line = _random_line(rng, d)
        dom = pl.hyperbolic_domain(line)
        ivs = list(dom.intervals)
        assert ivs == sorted(ivs)
        for (lo, hi), (lo2, _) in zip(ivs, ivs[1:]):
            assert hi <= lo2  # pairwise disjoint
        for lo, hi in ivs:
            if np.isfinite(lo) and np.isfinite(hi):
                t = 0.5 * (lo + hi)
            elif np.isfinite(lo):
                t = lo + 1.0
            elif np.isfinite(hi):
                t = hi - 1.0
            else:
                t = 0.0
            assert pe.is_hyperbolic(line.sigma_at(t))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(signal_strategy(min_d=2, max_d=5))
def test_domain_contains_the_generating_parameter(signal):
    # unscreened: the parameter of the generating signal is hyperbolic, so
    # the build places it inside the domain or abstains.  Of 7,525 lines
    # this strategy drew, 366 builds (4.9%) abstained and none missed t*
    line = _drawn_line(signal)
    t_star = line.parameter_of(elementary_symmetric(signal.nodes))
    try:
        dom = pl._build_domain(line)
    except UnresolvedDomain:
        return
    assert dom.contains(t_star)


def test_domain_keeps_the_narrow_window_far_out():
    # t* = -4020.48 lies in a window 0.46 wide, 4e3 from the origin; the
    # interpolated discriminant lost it and returned two endpoints
    s = Signal([1.0, -1.0, 1.0, 1.0], [1.0, 1.6, 2.5, 3.2])
    line = pl.line_params(compute_moments(s, 6))
    t_star = line.parameter_of(elementary_symmetric(s.nodes))
    assert t_star == pytest.approx(-4020.4818537, rel=1e-10)
    dom = pl.hyperbolic_domain(line)
    assert dom.contains(t_star)
    ends = [e.t0 for e in dom.endpoints]
    assert ends == pytest.approx([-4030.414, -4020.754, -4020.295, -3922.188], abs=1e-3)
    assert {e.kind for e in dom.endpoints} == {"collision-boundary"}


@pytest.mark.parametrize("h", [0.4, 0.2, 0.1, 0.05])
def test_domain_of_small_scale_cluster_lines(h):
    # the d = 3 amplify clusters: t* is below 1e-2 and shrinks like h^5, and
    # sits in the middle of three intervals
    s = make_cluster_signal(3, h)
    line = pl.line_params(compute_moments(s, 4))
    t_star = line.parameter_of(elementary_symmetric(s.nodes))
    dom = pl.hyperbolic_domain(line)
    assert len(dom.intervals) == 3
    lo, hi = dom.intervals[1]
    assert lo < t_star < hi


def test_domain_abstains_below_resolution():
    # the exact discriminant has two simple roots 5.6e-14 apart at
    # -57.448214640163: no float build can tell the gap from a window
    mu = [-3.1856427840103416, 0.6970891764584644, 0.04757607412482234,
          1.945144214409267, 3.0698829825254927, 6.343083338634432,
          11.102756020083142, 19.673917022068302, 33.74250941625727]
    with pytest.raises(UnresolvedDomain, match="critical values"):
        pl.hyperbolic_domain(mu)


def test_domain_of_a_node_pair_near_zero():
    # the node polynomial at t = -4.5 has a double root near 1.15e-100.
    # Bisected to an absolute width, the root layer placed it at
    # 1.5625e-12 and the build abstained; at a relative width the puncture
    # is placed and the domain matches the exact root counts on either side
    # of it and far out
    mu = [1e200, 1.0, 1e-200, 2.0, 3.0]
    dom = pl.hyperbolic_domain(mu)
    assert dom.intervals == ((-INF, -4.5), (-4.5, -3.375))
    assert [e.kind for e in dom.endpoints] == ["puncture", "collision-boundary"]
    base, slope = exact_line(mu)
    for t in (-1e10, -4.6, -4.4):
        assert dom.contains(t) and _exactly_hyperbolic(base, slope, t)
    for t in (-3.0, 0.0, 10.0):
        assert not dom.contains(t) and not _exactly_hyperbolic(base, slope, t)


def _exactly_hyperbolic(base, slope, t):
    z = sympy.Symbol("z")
    t = sympy.Rational(t)
    q = sympy.Poly([1] + [b + t * s for b, s in zip(base, slope)], z, domain="QQ")
    sqf = q.sqf_part()
    return sqf.degree() == q.degree() and sqf.count_roots() == q.degree()


def _oracle_vectors(rng):
    # unscreened: uniform moments, then signals whose nodes have scales
    # from 1e-3 to 1e2
    for d in (2, 3, 4, 5):
        for _ in range(13):
            yield rng.uniform(-2.0, 2.0, size=2 * d - 1)
        for _ in range(12):
            scale = 10.0 ** rng.uniform(-3.0, 2.0)
            s = random_signal(rng, d)
            s = Signal(amplitudes=s.amplitudes, nodes=scale * s.nodes)
            yield compute_moments(s, 2 * d - 2).values


def test_domain_matches_exact_root_counts():
    # every piece between consecutive endpoints is in the domain exactly
    # when the exact node polynomial at its midpoint has d distinct real
    # roots, on the exact rational line of the float moments
    rng = np.random.default_rng(1011)
    checked = abstained = 0
    for mu in _oracle_vectors(rng):
        try:
            dom = pl.hyperbolic_domain(mu)
        except DegenerateHankel:
            continue
        except UnresolvedDomain:
            abstained += 1
            continue
        base, slope = exact_line(mu)
        ends = [e.t0 for e in dom.endpoints]
        cuts = [-INF] + ends + [INF]
        for lo, hi in zip(cuts, cuts[1:]):
            if math.isinf(lo) and math.isinf(hi):
                t = 0.0
            elif math.isinf(lo):
                t = hi - (1.0 + abs(hi))
            elif math.isinf(hi):
                t = lo + (1.0 + abs(lo))
            else:
                t = 0.5 * (lo + hi)
            assert dom.contains(t) == _exactly_hyperbolic(base, slope, t), (list(mu), t)
            checked += 1
    assert abstained <= 2
    assert checked >= 200


# ---------------------------------------------------------------------------
# projection_residuals


def test_projection_residuals_examples():
    res = pl.projection_residuals([0.0, 1.0, 0.0], [-1.0, 1.0], 2)
    assert np.array_equal(res, [0.0])
    res = pl.projection_residuals([0.0, 1.0, 0.0], [0.0, 1.0], 2)
    assert np.array_equal(res, [-1.0])
    rng = np.random.default_rng(1009)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        s = random_signal(rng, d)
        mu = compute_moments(s, 2 * d - 1)
        res = pl.projection_residuals(mu, s.nodes, 2 * d - 1)
        assert len(res) == d
        scale = max(1.0, float(np.max(np.abs(mu.values))))
        sig_scale = max(1.0, float(np.max(np.abs(elementary_symmetric(s.nodes).sigma))))
        assert float(np.max(np.abs(res))) < 1e-10 * scale * sig_scale


def test_projection_residuals_validation():
    with pytest.raises(ValueError):
        pl.projection_residuals([0.0, 1.0, 0.0], [-1.0, 1.0], 1)  # q < d
    with pytest.raises(ValueError):
        pl.projection_residuals([0.0, 1.0, 0.0], [-1.0, 1.0], 4)  # q > 2d-1
    with pytest.raises(ValueError):
        pl.projection_residuals([0.0, 1.0], [-1.0, 1.0], 2)  # wrong length


# ---------------------------------------------------------------------------
# lift_to_solution


def test_lift_examples():
    s = pl.lift_to_solution([0.0, 1.0, 0.0], [-1.0, 1.0], 2)
    assert relerr(s.amplitudes, [-0.5, 0.5]) < 1e-12
    s = pl.lift_to_solution([0.0, 1.0, 0.0], [-2.0, 2.0], 2)
    assert relerr(s.amplitudes, [-0.25, 0.25]) < 1e-12
    assert float(np.dot(s.amplitudes, s.nodes**2)) == pytest.approx(0.0, abs=1e-12)


def test_lift_round_trip():
    rng = np.random.default_rng(1010)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        s = random_signal(rng, d, min_gap=0.2)
        q = int(rng.integers(d, 2 * d))
        mu = compute_moments(s, q)
        back = pl.lift_to_solution(mu, s.nodes, q)
        assert relerr(back.amplitudes, s.amplitudes) < 1e-8
        assert np.array_equal(back.nodes, s.nodes)


def test_lift_rejects_off_variety_nodes():
    with pytest.raises(ResidualTooLarge):
        pl.lift_to_solution([0.0, 1.0, 0.0], [0.0, 1.0], 2)


def test_lift_full_system_verified():
    # lifted signal must reproduce every moment, not only the first d
    s = pl.lift_to_solution([0.0, 1.0, 0.0], [-3.0, 3.0], 2)
    mu = compute_moments(s, 2).values
    assert relerr(mu, [0.0, 1.0, 0.0]) < 1e-12

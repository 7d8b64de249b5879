"""Complete-system solver and noise-amplification tests.

Worked values used below:
  * mu=(2,0,2,0): the linear step solves [[2,0],[0,2]](s2,s1) = -(2,0),
    so sigma=(0,-1) and Q=z^2-1 with roots (-1,1); amplitudes solve
    a1+a2=2, -a1+a2=0, giving A=(1,1).
  * mu=(0,1,0,1): [[0,1],[1,0]](s2,s1) = -(0,1) gives sigma_1=0, sigma_2=-1,
    so X=(-1,1) again and A=(-1/2,1/2) from a1+a2=0, -a1+a2=1.
  * mu=(2,0,-2,0): [[2,0],[0,-2]](s2,s1) = (2,0) gives sigma=(0,1), and
    z^2+1 has no real roots: no two-spike signal matches these moments.
  * mu=(1,0,-1,-2): the same step gives sigma=(-2,1), and z^2-2z+1 is
    (z-1)^2: a repeated root is not a valid node pair either.
  * The d=2 size-h cluster has A=(1,-1), X=(0,h), so its moments are
    mu_k = -h^k for k>=1 and mu_0 = 0; its family parameter is
    t = -mu_3 = h^3 (the last moment equation carries a sign flip).
  * mu=(1.1290059010262046, 0.6859468387960028, -1.0504763861156126,
    -1.2821546935359023, -0.6135053375267643), the first uniform[-2,2]^5
    draw of default_rng(4242), has K<0 with a rootless boundary quartic:
    no parameter is hyperbolic at all, so the d=3 family is empty.
"""

import dataclasses
import json
import logging
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    SINGULAR_LU_MU,
    exact_policy_ratio,
    list_distances,
    list_solve_many,
    signal_strategy,
)
from prony import prony_line as pl
from prony import prony_solver as ps
from prony.errors import (
    DegenerateHankel,
    EmptyDomain,
    InconsistentComputation,
    InterpolationInconsistency,
    MathDegeneracy,
    NoRealSolution,
    ResidualTooLarge,
    TooFewValidTrials,
)
from prony.signal_model import (
    MomentVector,
    Signal,
    _moments,
    compute_moments,
    elementary_symmetric,
)

FIXTURES = Path(__file__).parent / "fixtures"

EMPTY_DOMAIN_MU = (1.1290059010262046, 0.6859468387960028,
                   -1.0504763861156126, -1.2821546935359023,
                   -0.6135053375267643)

# d = 4 moments whose Hankel solve gives (z - 1)^2 (z + 1) (z - 2) exactly:
# mu_{k+4} = 2 mu_k - 3 mu_{k+1} - mu_{k+2} + 3 mu_{k+3}, a repeated node
REPEATED_NODE_D4_MU = [4.0, 3.0, 5.0, 2.0, 0.0, -11.0, -29.0, -72.0]
# d = 4: the recovered signal misses the moments by 1.8e-5
RESIDUAL_MISS_D4_MU = [-2.1504493286670225, 1.6062909004815775, -0.06272692164880188,
                       0.33562153149262397, 0.014517004835593247, 0.08699414621141842,
                       0.007772055378703171, 0.023591387133174584]
# d = 4: an amplitude of the recovered signal comes out exactly 0.0
ZERO_AMPLITUDE_D4_MU = [-1.0939177090438694, -1.9499768314938015, -3.0220216768702928,
                        -4.383597148201458, -6.130876018938802, -8.389868535687734,
                        -11.3259078346468, -15.156133375470073]


def _random_signal(rng, d):
    # well separated nodes, amplitudes bounded away from zero
    gaps = rng.uniform(0.2, 1.5, d)
    nodes = rng.uniform(-3.0, 0.0) + np.cumsum(gaps)
    amps = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
    return Signal(amps, nodes)


def _grid_through(t_star, half_width=1.0, n=80):
    # generic probe grid that contains t_star exactly
    return np.concatenate(
        [[t_star], np.linspace(t_star - half_width, t_star + half_width, n)])


# ---------------------------------------------------------------------------
# solve_complete


def test_solve_symmetric_pair():
    s = ps.solve_complete((2.0, 0.0, 2.0, 0.0))
    assert np.allclose(s.nodes, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(s.amplitudes, [1.0, 1.0], atol=1e-12)


def test_solve_antisymmetric_pair():
    s = ps.solve_complete((0.0, 1.0, 0.0, 1.0))
    assert np.allclose(s.nodes, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(s.amplitudes, [-0.5, 0.5], atol=1e-12)


def test_solve_round_trip():
    rng = np.random.default_rng(31415)
    for i in range(500):
        d = 2 + i % 3
        true = _random_signal(rng, d)
        mu = compute_moments(true, 2 * d - 1)
        rec = ps.solve_complete(mu)
        assert np.max(np.abs(rec.nodes - true.nodes)) <= 1e-8
        assert np.max(np.abs(rec.amplitudes - true.amplitudes)) <= 1e-7
        back = compute_moments(rec, 2 * d - 1)
        scale = max(1.0, float(np.max(np.abs(mu.values))))
        assert np.max(np.abs(back.values - mu.values)) <= 1e-8 * scale


def test_solve_no_real_solution():
    with pytest.raises(NoRealSolution):
        ps.solve_complete((2.0, 0.0, -2.0, 0.0))


def test_solve_repeated_root_rejected():
    with pytest.raises(NoRealSolution):
        ps.solve_complete((1.0, 0.0, -1.0, -2.0))


def test_solve_degenerate_hankel():
    with pytest.raises(pl.DegenerateHankel):
        ps.solve_complete((1.0, 1.0, 1.0, 1.0))


def _policy_systems(count):
    # complete systems of d = 2..5 spikes, nodes in (-1.5, 1.5) and
    # amplitudes 0.5..1.5 with random signs, moments summed exactly and
    # rounded once: a third with one pair 1e-9 to 1e-2 apart, a fifth with
    # the amplitudes times 10^U(-14, 0), half with +-1e-12 noise
    rng = np.random.default_rng([20261020, 77])
    for _ in range(count):
        d = int(rng.integers(2, 6))
        x = np.sort(rng.uniform(-1.5, 1.5, d))
        if rng.random() < 1 / 3:
            k = int(rng.integers(0, d - 1))
            x[k + 1] = x[k] + 10 ** rng.uniform(-9, -2)
        a = rng.uniform(0.5, 1.5, d) * rng.choice([-1.0, 1.0], d)
        if rng.random() < 1 / 5:
            a = a * 10 ** rng.uniform(-14, 0)
        xs, amps = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in a.tolist()]
        mu = [float(sum(c * v**k for c, v in zip(amps, xs))) for k in range(2 * d)]
        if rng.random() < 1 / 2:
            mu = [m + n for m, n in zip(mu, rng.uniform(-1e-12, 1e-12, 2 * d).tolist())]
        yield mu


def test_solver_policy_is_the_exact_det_m_policy():
    # solve_complete reads the det M policy on M^-1 in floats; it refuses
    # with DegenerateHankel exactly where the exact ratio of |det M| to the
    # largest first minor is at most 1e-12, but within a relative 1e-6 of
    # that threshold, where rounding may decide
    bound = Fraction(1e-12)
    refused = decided = 0
    for mu in _policy_systems(1200):
        ratio = exact_policy_ratio(mu[:-1])
        if abs(ratio - bound) <= Fraction(1e-6) * bound:
            continue
        decided += 1
        try:
            ps.solve_complete(mu)
            degenerate = False
        except DegenerateHankel:
            degenerate = True
        except MathDegeneracy:
            degenerate = False
        assert degenerate == (ratio <= bound), (mu, float(ratio))
        refused += degenerate
    assert decided >= 1000 and refused >= 50


def test_solver_refuses_what_the_float_cofactors_let_through():
    # the exact |det M| is 8.1e-18 of the largest first minor; the float
    # cofactor table once passed it, and solve_complete returned a signal
    mu = [1.3984206490677926, -0.7509563905674917, 0.40114384659482905, -0.21292272116524186,
          0.11214267516204647, -0.058498002934274984, 0.03014640091376976,
          -0.015293476262087883]
    assert exact_policy_ratio(mu[:-1]) < Fraction(1e-17)
    with pytest.raises(DegenerateHankel):
        ps.solve_complete(mu)
    with pytest.raises(DegenerateHankel):
        pl.line_params(mu[:-1])


def test_solve_validation():
    with pytest.raises(ValueError):
        ps.solve_complete((1.0, 2.0, 3.0))  # odd length
    with pytest.raises(ValueError):
        ps.solve_complete((1.0,))
    with pytest.raises(ValueError):
        ps.solve_complete((1.0, np.nan, 0.0, 0.0))


@pytest.mark.parametrize("mu, error", [
    ((1.0, 1.0, 1.0, 1.0), pl.DegenerateHankel),
    ((2.0, 0.0, -2.0, 0.0), NoRealSolution),  # z^2 + 1: a complex pair
    ((1.0, 0.0, -1.0, -2.0), NoRealSolution),  # (z - 1)^2: a repeated node
    # d = 4: the recovered signal misses the moments by 1.8e-5
    (RESIDUAL_MISS_D4_MU, ResidualTooLarge),
    ((1.0, np.nan, 0.0, 0.0), ValueError),
    # nodes 0 and 1e150: the cube of 1e150 overflows when the moments are
    # recomputed
    ((1.0, 1e-50, 1e100, 1e250), ValueError),
], ids=["degenerate", "complex-pair", "repeated-node", "residual", "non-finite",
        "overflow"])
def test_solve_abstains_with_its_class(mu, error):
    with pytest.raises(error):
        ps.solve_complete(mu)


def test_solve_accepts_moment_vector():
    mu = MomentVector((2.0, 0.0, 2.0, 0.0), 3)
    s = ps.solve_complete(mu)
    assert np.allclose(s.nodes, [-1.0, 1.0])


REGULAR_D4_MU = [sum(x**k for x in (-1.0, 0.0, 1.0, 2.0)) for k in range(8)]


@st.composite
def _moment_batches(draw):
    # one to forty vectors mu_0..mu_{2d-1} of one d = 2..5: noisy moments of
    # a signal (most solve, some miss the residual or leave the real
    # regime) or uniform moments (most have no real solution)
    d = draw(st.integers(2, 5))
    batch = []
    for _ in range(draw(st.integers(1, 40))):
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d))
        if draw(st.booleans()):
            nodes = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d, unique=True))
            amps = draw(st.lists(st.floats(0.2, 2.0), min_size=d, max_size=d))
            eps = draw(st.sampled_from([0.0, 1e-10, 1e-6, 1e-2]))
            batch.append([sum(a * x**k for a, x in zip(amps, nodes)) + eps * e
                          for k, e in enumerate(noise)])
        else:
            batch.append([3.0 * e for e in noise])
    return batch


@settings(max_examples=80, deadline=None)
@given(_moment_batches())
@example([[1.0, 1.0, 1.0, 1.0], [2.0, 0.0, -2.0, 0.0], [1.0, 0.0, -1.0, -2.0],
          [1.0, np.nan, 0.0, 0.0], [1.0, 1e-50, 1e100, 1e250], [2.0, 0.0, 2.0, 0.0]])
@example([REGULAR_D4_MU, SINGULAR_LU_MU, REGULAR_D4_MU])
@example([REGULAR_D4_MU, [1.0, 2.0, np.inf] + REGULAR_D4_MU[3:], [1.0] * 8,
          REPEATED_NODE_D4_MU, RESIDUAL_MISS_D4_MU, ZERO_AMPLITUDE_D4_MU,
          REGULAR_D4_MU[:7] + [1e308], REGULAR_D4_MU])  # the last but one: sigma overflows
def test_solve_many_entries_equal_solve_complete(batch):
    # the trial core solves a batch stage by stage on numpy columns; each
    # entry is that of the list-by-list reference and solve_complete on
    # its own vector: the same bits, or the same exception class and
    # message (and cause, against the reference)
    got = ps._solve_many(batch)
    assert len(got) == len(batch)
    for mu, entry, ref in zip(batch, got, list_solve_many(batch)):
        try:
            want = ps.solve_complete(mu)
        except Exception as exc:  # every class solve_complete raises
            for other in (exc, ref):
                assert type(entry) is type(other) and str(entry) == str(other)
            cause = entry.__cause__
            assert type(cause) is type(ref.__cause__) and str(cause) == str(ref.__cause__)
        else:
            amps, nodes = entry
            assert [x.hex() for x in amps + nodes] == [
                x.hex() for x in want.amplitudes.tolist() + want.nodes.tolist()] == [
                x.hex() for x in ref[0] + ref[1]]


# np.power(x, 3.0), and x ** 3 on an array, differ from Python's x ** 3
# (libm's pow) in the last bit at this x on an AVX-512 host with numpy
# 2.4.6, as on 2.7% of random doubles for powers 3 to 9
NUMPY_POWER_DIFFERS_X = 1.740289695151073


def test_moment_columns_equal_the_list_moments():
    # the residual's moments on columns take their powers as _moments
    # does, entry by entry; a power past the double range leaves its row
    # not finite, where _moments raises
    rng = np.random.default_rng(11)
    nodes = np.sort(rng.uniform(-2.0, 2.0, (300, 3)), axis=1)
    nodes[0, 1] = NUMPY_POWER_DIFFERS_X
    amps = rng.uniform(0.5, 2.0, (300, 3)) * rng.choice([-1.0, 1.0], (300, 3))
    got = ps._moment_columns(amps, nodes, 7)
    want = [_moments(a, x, 7) for a, x in zip(amps.tolist(), nodes.tolist())]
    assert [[v.hex() for v in row] for row in got.tolist()] == [
        [v.hex() for v in row] for row in want]

    huge = np.array([[0.0, 1e50], [0.0, 1e150]])
    with pytest.raises(ValueError, match="moments must be finite"):
        _moments([1.0, 1.0], huge[1].tolist(), 3)
    got = ps._moment_columns(np.ones((2, 2)), huge, 3)
    assert np.isfinite(got[0]).all() and not np.isfinite(got[1]).all()


# ---------------------------------------------------------------------------
# make_cluster_signal


def test_cluster_by_construction():
    s = ps.make_cluster_signal(2, 0.1)
    assert np.array_equal(s.nodes, [0.0, 0.1])
    assert np.array_equal(s.amplitudes, [1.0, -1.0])
    s = ps.make_cluster_signal(3, 0.3)
    assert np.array_equal(s.nodes, [0.0, 0.15, 0.3])
    assert np.array_equal(s.amplitudes, [1.0, -1.0, 1.0])


def test_cluster_small_h_moments():
    for h in (0.5, 0.1, 1e-3):
        mu = compute_moments(ps.make_cluster_signal(2, h), 3)
        assert mu.values[0] == 0.0
        assert mu.values[1] == -h
        assert np.isclose(mu.values[2], -h * h, rtol=1e-15)


def test_cluster_validation():
    with pytest.raises(ValueError):
        ps.make_cluster_signal(1, 0.1)
    with pytest.raises(ValueError):
        ps.make_cluster_signal(2, 0.0)
    with pytest.raises(ValueError):
        ps.make_cluster_signal(2, -0.5)


# ---------------------------------------------------------------------------
# the family parameter of a complete-system signal


def test_parameter_is_negated_last_moment():
    rng = np.random.default_rng(2718)
    for i in range(50):
        d = 2 + i % 3
        s = _random_signal(rng, d)
        mu = compute_moments(s, 2 * d - 1)
        line = pl.line_params(MomentVector(mu.values[: 2 * d - 1], 2 * d - 2))
        t = line.parameter_of(elementary_symmetric(s.nodes))
        ref = -float(mu.values[2 * d - 1])
        assert abs(t - ref) <= 1e-9 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# curve_distance


def test_distance_membership():
    rng = np.random.default_rng(161803)
    for i in range(20):
        d = 2 + i % 2
        s = _random_signal(rng, d)
        mu = compute_moments(s, 2 * d - 1)
        head = MomentVector(mu.values[: 2 * d - 1], 2 * d - 2)
        grid = _grid_through(-float(mu.values[2 * d - 1]))
        assert ps.curve_distance(s, head, grid) <= 1e-7


def test_distance_two_spike_example():
    s = Signal((-0.5, 0.5), (-1.0, 1.0))
    dist = ps.curve_distance(s, (0.0, 1.0, 0.0), _grid_through(-1.0))
    assert dist <= 1e-9


def test_distance_bounded_by_perturbation():
    rng = np.random.default_rng(55)
    for _ in range(20):
        s = _random_signal(rng, 2)
        mu = compute_moments(s, 3)
        delta = rng.uniform(-1e-4, 1e-4, 4)
        moved = Signal(s.amplitudes + delta[:2], s.nodes + delta[2:])
        grid = _grid_through(-float(mu.values[3]))
        dist = ps.curve_distance(moved, MomentVector(mu.values[:3], 2), grid)
        # the unperturbed signal sits on the family at a sampled parameter
        assert dist <= np.linalg.norm(delta) * (1.0 + 1e-9) + 1e-12


def _golden_brackets():
    # (f, a, b, c): smooth, kinked, flat and one-sided cases
    yield lambda t: (t - 0.3) ** 2, -1.0, 0.0, 2.0
    yield lambda t: (t - 0.3) ** 2, -1.0, 0.5, 0.6
    yield lambda t: abs(t + 1e-3), -2.0, 0.0, 1.0
    yield lambda t: np.cosh(t - 17.0), 16.0, 17.5, 21.0
    yield lambda t: 1.0, -1.0, 0.0, 1.0
    yield lambda t: t, -1.0, 0.0, 1.0
    yield lambda t: np.inf if t < 0.0 else (t - 1.0) ** 2, -1.0, 0.5, 3.0


def test_golden_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    for f, a, b, c in _golden_brackets():
        got = ps._golden(f, a, b, c)
        try:
            want = optimize.golden(f, brack=(a, b, c))
        except ValueError:  # scipy's "not a bracket"
            assert got is None
        else:
            assert got == want


def test_distance_empty_domain():
    s = _random_signal(np.random.default_rng(3), 3)
    with pytest.raises(EmptyDomain):
        ps.curve_distance(s, EMPTY_DOMAIN_MU, np.linspace(-2, 2, 41))


def test_distance_dimension_mismatch():
    s = _random_signal(np.random.default_rng(4), 3)
    with pytest.raises(ValueError):
        ps.curve_distance(s, (0.0, 1.0, 0.0), np.linspace(-2, 0, 11))


def test_noisy_reconstructions_hug_the_family():
    # per trial, the nearest family point is no farther than the true
    # signal, which lies on the family at a sampled parameter (both
    # distances Euclidean; the max-norm point error can be smaller)
    true = ps.make_cluster_signal(2, 0.4)
    mu = compute_moments(true, 3)
    head = MomentVector(mu.values[:3], 2)
    grid = _grid_through(float(-mu.values[3]), half_width=0.5)
    target = np.concatenate([true.amplitudes, true.nodes])
    for trial in range(30):
        rng = np.random.default_rng([77, trial])
        rec = ps.solve_complete(mu.values + rng.uniform(-1e-8, 1e-8, 4))
        guess = np.concatenate([rec.amplitudes, rec.nodes])
        l2_err = float(np.linalg.norm(guess - target))
        # slack absorbs root-refinement noise in the family sampler
        assert ps.curve_distance(rec, head, grid) <= l2_err + 1e-13


# a d = 2 line sigma(t) = (0, -t), so z^2 - t, whose mu_0..mu_2 are 1e300:
# at t = 1e20 its nodes are -1e10 and 1e10 and the amplitudes' numerators
# overflow
OVERFLOW_LINE = pl.PronyLine(d=2, slopes=np.array([0.0, -1.0]), intercepts=np.zeros(2),
                             detM=1.0, mu=MomentVector([1e300] * 3))


def _on_the_whole_axis(line):
    # a copy of line whose domain is the whole axis, so that every finite
    # t reaches the node polynomial, hyperbolic or not
    copy = dataclasses.replace(line)
    copy.__dict__["domain"] = pl.HyperbolicDomain(intervals=((-math.inf, math.inf),),
                                                  endpoints=())
    return copy


@st.composite
def _distance_cases(draw):
    # (line, targets, ts): the line of a d = 2..4 signal, on its own domain
    # or on the whole axis, and one to thirty parameters beside targets
    # near the signal.  The parameters lie in and out of the domain, near
    # its ends, at the signal's own parameter, and past the range where
    # sigma(t) overflows, and include +-inf and NaN
    signal = draw(signal_strategy(min_d=2, max_d=4))
    d = signal.d
    mu = compute_moments(signal, 2 * d - 1).values
    try:
        line = pl.line_params(mu[: 2 * d - 1])
        assert line.domain is not None  # built now, or refused
    except (MathDegeneracy, InterpolationInconsistency):
        assume(False)
    if draw(st.booleans()):
        line = _on_the_whole_axis(line)
    t_star = -float(mu[2 * d - 1])
    ends = [v for iv in line.domain.intervals for v in iv if math.isfinite(v)] or [t_star]
    ts = draw(st.lists(st.one_of(
        st.sampled_from([t_star, 0.0, 1e300, -1e300, 1e308, -1.7e308,
                         math.inf, -math.inf, math.nan]),
        st.floats(-10.0, 10.0).map(lambda e: t_star + e * max(1.0, abs(t_star))),
        st.tuples(st.sampled_from(ends), st.floats(-1e-6, 1e-6)).map(
            lambda p: p[0] * (1.0 + p[1]) + p[1]),
        st.floats()), min_size=1, max_size=30))
    point = signal.amplitudes.tolist() + signal.nodes.tolist()
    targets = [[v + e for v, e in zip(point, draw(st.lists(
        st.floats(-1e-3, 1e-3), min_size=2 * d, max_size=2 * d)))] for _ in ts]
    return line, targets, ts


def _assert_same_distances(got, want):
    # the same bits, as a Python float, or the same class and message
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert type(g) is float and g.hex() == w.hex()


@settings(max_examples=150, deadline=None)
@given(_distance_cases())
def test_columnar_distances_equal_the_point_by_point_route(case):
    # _distances builds the family points on numpy columns and sends the
    # rows whose sigma(t) or amplitudes are not finite to the scalar route;
    # each entry is that of list_distances, one PronyLine._points call per
    # t: the same bits (a Python float), or the same class and message.
    # Where the roots of a finite but huge sigma(t) overflow in the Rolle
    # pass, both raise its ValueError
    line, targets, ts = case
    try:
        want = list_distances(line, targets, ts)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            ps._distances(line, np.array(targets), ts)
        assert str(err.value) == str(exc)
        return
    _assert_same_distances(ps._distances(line, np.array(targets), ts), want)


def test_overflowing_amplitudes_take_the_scalar_route():
    # at t = 1e20 and 1e-300 sigma is finite and hyperbolic, but the column
    # amplitudes overflow, so those rows go point by point; 4.0 stays on
    # the columns, -1.0 is outside the domain and inf leaves sigma infinite
    ts = [1e20, 4.0, 1e-300, -1.0, math.inf]
    with np.errstate(all="ignore"):
        hyperbolic, _, amps = ps._nodes_and_amplitudes(
            np.array([[-t, 0.0] for t in ts[:3]]), OVERFLOW_LINE._plain[2], np.ones(3, dtype=bool))
    assert hyperbolic.all() and np.isfinite(amps).all(axis=1).tolist() == [False, True, False]
    targets = [[1.0, -1.0, -1e10, 1e10]] * len(ts)
    _assert_same_distances(ps._distances(OVERFLOW_LINE, targets, ts),
                           list_distances(OVERFLOW_LINE, targets, ts))


# ---------------------------------------------------------------------------
# NoiseConfig / AmplificationResult


def test_config_defaults_and_mapping():
    cfg = ps.NoiseConfig.from_mapping({
        "d": 2, "epsilon": 1e-8, "trials": 10, "seed": 3,
        "h_grid": [0.4, 0.2]})
    assert cfg == ps.NoiseConfig(d=2, epsilon=1e-8, trials=10, seed=3,
                                 h_grid=(0.4, 0.2))
    ok = {"d": 2, "epsilon": 1e-8, "trials": 10, "seed": 3, "h_grid": [0.4, 0.2]}
    # five keys, all required: the old h and t_resolution are unknown keys
    for key in ("h", "t_resolution", "bogus"):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            ps.NoiseConfig.from_mapping(dict(ok, **{key: 21}))
    with pytest.raises(ValueError, match="missing 'h_grid'"):
        ps.NoiseConfig.from_mapping({"d": 2, "epsilon": 1e-8, "trials": 10,
                                     "seed": 3})


def test_config_validation():
    ok = dict(d=2, epsilon=1e-8, trials=5, seed=0, h_grid=(0.4, 0.2))
    ps.NoiseConfig(**ok)
    for bad in (dict(ok, d=1), dict(ok, epsilon=0.0), dict(ok, trials=0),
                dict(ok, h_grid=(0.2, 0.4)), dict(ok, h_grid=(0.4,)),
                dict(ok, h_grid=(0.4, 0.4)), dict(ok, h_grid=(0.4, -0.1)),
                dict(ok, seed=-1)):
        with pytest.raises(ValueError):
            ps.NoiseConfig(**bad)
    # JSON reads NaN and Infinity: refused here, by the field's name
    for field, value in (("h_grid", (0.4, np.nan)), ("h_grid", (np.nan, 0.4)),
                         ("h_grid", (np.inf, 0.4)), ("epsilon", np.inf)):
        with pytest.raises(ValueError, match=f"^{field} .*finite"):
            ps.NoiseConfig(**dict(ok, **{field: value}))
    # nor are JSON's booleans, null and strings numbers, though Python
    # reads a bool as an int and float() a numeric string
    for field, value in (("trials", True), ("seed", False), ("d", True),
                         ("epsilon", True), ("epsilon", "1e-8"), ("d", "2"),
                         ("epsilon", None), ("h_grid", ["0.4", "0.2"]),
                         ("h_grid", [True, 0.5]), ("h_grid", [0.4, None]),
                         ("h_grid", "21")):
        with pytest.raises(ValueError, match=f"^{field} must be numeric"):
            ps.NoiseConfig.from_mapping(dict(ok, **{field: value}))


def test_result_validation():
    rows = ((0.4, 1e-6, 1e-7, 0), (0.2, 1e-5, 1e-6, 0))
    ps.AmplificationResult(rows=rows, point_slope=-3.0, point_intercept=0.0,
                           point_r2=1.0, curve_slope=-2.0,
                           curve_intercept=0.0, curve_r2=1.0)
    with pytest.raises(ValueError):
        ps.AmplificationResult(rows=rows[:1], point_slope=-3.0,
                               point_intercept=0.0, point_r2=1.0,
                               curve_slope=-2.0, curve_intercept=0.0,
                               curve_r2=1.0)


# ---------------------------------------------------------------------------
# amplification_experiment


def test_experiment_slopes_and_determinism():
    cfg = ps.NoiseConfig(d=2, epsilon=1e-8, trials=50, seed=7,
                         h_grid=(0.4, 0.2, 0.1))
    res = ps.amplification_experiment(cfg)
    assert all(row[3] == 0 for row in res.rows)
    assert res.point_slope < -2.3
    assert -2.6 < res.curve_slope < -1.4
    assert res.curve_slope >= res.point_slope + 0.4
    assert res.point_r2 > 0.95 and res.curve_r2 > 0.95
    again = ps.amplification_experiment(cfg)
    assert res.rows == again.rows
    assert res.point_slope == again.point_slope
    assert res.curve_slope == again.curve_slope


def test_experiment_reproduces_the_recorded_rows(caplog):
    # the benchmark's five amplify configs, recorded as hex floats before
    # the trial loop ran on plain floats: the noise stream, the LAPACK
    # solve and np.dot fix the bits, and the rest repeats their arithmetic.
    # Five more configs, at their own epsilon, reach what the benchmark's
    # never do: failed trials, fallbacks to the nearest family point (their
    # warnings, in order), TooFewValidTrials (its class and message), and,
    # in two of them, a curve distance above the point error (2.817
    # against 1.619 at h = 0.1 of the fifth): the Euclidean distance at
    # t-hat against a max norm.  The last config's seed, 2**40 + 5, spans
    # two words of the noise streams' entropy
    data = json.loads((FIXTURES / "amplify_rows.json").read_text())
    fits = ("point_slope", "point_intercept", "point_r2",
            "curve_slope", "curve_intercept", "curve_r2")
    for rec in data["configs"]:
        cfg = ps.NoiseConfig(
            d=rec["d"], epsilon=rec.get("epsilon", data["epsilon"]),
            trials=rec["trials"], seed=rec["seed"], h_grid=tuple(data["h_grid"]))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="prony.prony_solver"):
            try:
                res = ps.amplification_experiment(cfg)
            except TooFewValidTrials as exc:
                assert f"{type(exc).__name__}: {exc}" == rec["error"]
            else:
                assert [[h.hex(), p.hex(), c.hex(), f] for h, p, c, f in res.rows] == rec["rows"]
                assert [getattr(res, key).hex() for key in fits] == [rec[key] for key in fits]
        assert [r.getMessage() for r in caplog.records] == rec.get("warnings", [])


def test_noise_streams_match_numpy_bit_for_bit():
    # the experiment's noise is np.random.default_rng([seed, h, trial])
    # .uniform(-eps, eps, 2d), drawn without building a generator; numpy
    # is the reference.  Seeds of one to four words (so 6 entropy words,
    # past the pool of 4), trial indices of one and two words, and an
    # epsilon whose range 2e300 leaves no room for reordered arithmetic
    trial_sets = [range(50), range(2**32 - 2, 2**32 + 2), range(5 * 2**33, 5 * 2**33 + 2)]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30):
        for d in (2, 3, 4, 5):
            for eps in (1e-10, 3e-4, 1e300):
                for trials in trial_sets if d == 2 else trial_sets[:1]:
                    noise = list(ps._uniform_streams(seed, 6, trials, eps, 2 * d))
                    assert len(noise) == 6
                    for h, per_h in enumerate(noise):
                        assert per_h == [
                            np.random.default_rng([seed, h, t]).uniform(-eps, eps, 2 * d).tolist()
                            for t in trials]


@pytest.mark.parametrize("epsilon, error", [
    (1e-14, "TooFewValidTrials: 18/20 perturbed systems had no real solution at h=0.02"),
    (1e-5, "TooFewValidTrials: 19/20 perturbed systems had no real solution at h=0.4"),
])
def test_experiment_raises_at_the_first_failing_h(epsilon, error):
    # one _solve_many call covers the trials of every h, but each h's
    # line, distances and checks still come at its turn: h = 0.005's line
    # is refused (DegenerateHankel), and the earlier h whose trials fail
    # raises first
    cfg = ps.NoiseConfig(d=4, epsilon=epsilon, trials=20, seed=0,
                         h_grid=(0.4, 0.1, 0.02, 0.005))
    with pytest.raises(DegenerateHankel):
        pl.line_params(compute_moments(ps.make_cluster_signal(4, 0.005), 6))
    with pytest.raises(TooFewValidTrials) as err:
        ps.amplification_experiment(cfg)
    assert f"{type(err.value).__name__}: {err.value}" == error


def test_experiment_errors_scale_with_epsilon():
    small = ps.NoiseConfig(d=2, epsilon=1e-8, trials=40, seed=77,
                           h_grid=(0.4, 0.1))
    big = ps.NoiseConfig(d=2, epsilon=1e-7, trials=40, seed=77,
                         h_grid=(0.4, 0.1))
    r1 = ps.amplification_experiment(small)
    r2 = ps.amplification_experiment(big)
    for (_, p1, c1, _), (_, p2, c2, _) in zip(r1.rows, r2.rows):
        assert 5.0 <= p2 / p1 <= 20.0
        assert 5.0 <= c2 / c1 <= 20.0


def test_experiment_accepts_mapping():
    res = ps.amplification_experiment({
        "d": 2, "epsilon": 1e-8, "trials": 10, "seed": 5,
        "h_grid": [0.4, 0.2]})
    assert len(res.rows) == 2


def test_experiment_epsilon_too_large():
    cfg = ps.NoiseConfig(d=2, epsilon=0.2, trials=5, seed=0,
                         h_grid=(0.4, 0.2))
    with pytest.raises(ValueError):
        ps.amplification_experiment(cfg)


def test_experiment_d4_cluster_is_not_malformed_input():
    # mu_0 = 0 leaves a rounding-level slope on the d = 4 cluster line; it
    # once set the domain's sampling radius and the run died on a
    # ValueError, which the CLI reports as malformed input
    cfg = ps.NoiseConfig(d=4, epsilon=1e-12, trials=5, seed=1,
                         h_grid=(0.8, 0.4))
    try:
        res = ps.amplification_experiment(cfg)
    except (MathDegeneracy, InconsistentComputation):
        return
    assert [row[0] for row in res.rows] == [0.8, 0.4]


def test_experiment_reports_failure_flood():
    # at the epsilon ceiling and a tight d=3 cluster, most perturbed
    # systems leave the real hyperbolic regime
    cfg = ps.NoiseConfig(d=3, epsilon=0.1, trials=40, seed=9,
                         h_grid=(0.3, 0.2))
    with pytest.raises(TooFewValidTrials) as err:
        ps.amplification_experiment(cfg)
    assert "h=" in str(err.value)

"""Signals, moments, symmetric coordinates, and the node/amplitude conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.polynomial import polynomial as npoly

from helpers import random_signal, relerr, signal_strategy
from prony import poly_engine as pe
from prony import signal_model as sm
from prony.errors import NotHyperbolic, RepeatedNodes


# ---------------------------------------------------------------------------
# containers and validation


def test_signal_validation():
    s = sm.Signal(amplitudes=[1.0, -2.0], nodes=[0.0, 1.0])
    assert s.d == 2
    for amplitudes, nodes in [
        ([1.0, np.nan], [0.0, 1.0]),  # not finite
        ([np.inf, 1.0], [0.0, 1.0]),
        ([1.0, 2.0], [np.nan, 1.0]),
        ([1.0, 2.0], [0.0, -np.inf]),
        ([1.0, 0.0], [0.0, 1.0]),  # zero amplitude
        ([-0.0, 1.0], [0.0, 1.0]),
        (np.array([1.0, -0.0, 2.0]), np.array([0.0, 1.0, 2.0])),
        ([1.0, 2.0], [1.0, 0.0]),  # not increasing
        ([1.0, 2.0, 3.0], [0.0, 2.0, 1.0]),
        ([1.0, 2.0], [1.0, 1.0]),  # tie
        ([1.0, 2.0], [-0.0, 0.0]),
        ([1.0], [0.0, 1.0]),  # length mismatch
        ([1.0, 2.0], [0.0]),
    ]:
        with pytest.raises(ValueError):
            sm.Signal(amplitudes=amplitudes, nodes=nodes)


def test_moment_vector_container():
    mu = sm.MomentVector([1.0, 2.0, 3.0])
    assert mu.q == 2
    assert len(mu) == 3
    assert np.array_equal(mu.truncated(1).values, [1.0, 2.0])
    with pytest.raises(ValueError):
        mu.truncated(5)
    with pytest.raises(ValueError):
        sm.MomentVector([])


def test_symmetric_coords_hyperbolic_flag():
    # z^2 - 3z + 2 = (z-1)(z-2): sigma = (-3, 2)
    assert sm.SymmetricCoords([-3.0, 2.0]).hyperbolic is True
    # z^2 + 1: sigma = (0, 1)
    assert sm.SymmetricCoords([0.0, 1.0]).hyperbolic is False
    # z^2 - 2z + 1 = (z-1)^2: real but repeated
    assert sm.SymmetricCoords([-2.0, 1.0]).hyperbolic is False


# ---------------------------------------------------------------------------
# compute_moments


def test_compute_moments_examples():
    s = sm.Signal(amplitudes=[-0.5, 0.5], nodes=[-1.0, 1.0])
    assert np.array_equal(sm.compute_moments(s, 2).values, [0.0, 1.0, 0.0])
    s = sm.Signal(amplitudes=[1.0], nodes=[2.0])
    assert np.array_equal(sm.compute_moments(s, 3).values, [1.0, 2.0, 4.0, 8.0])
    s = sm.Signal(amplitudes=[1.0, 1.0], nodes=[-1.0, 1.0])
    assert np.array_equal(sm.compute_moments(s, 4).values, [2.0, 0.0, 2.0, 0.0, 2.0])


def test_compute_moments_validation():
    s = sm.Signal(amplitudes=[1.0], nodes=[0.5])
    with pytest.raises(ValueError):
        sm.compute_moments(s, -1)


def test_compute_moments_overflow_is_a_value_error():
    # x^3 = 1e309 is past the double range; the moments are not finite
    s = sm.Signal([1.0, -1.0], [1e103, 2e103])
    with pytest.raises(ValueError, match="moments must be finite"):
        sm.compute_moments(s, 3)
    assert np.isfinite(sm.compute_moments(s, 2).values).all()


def _moments_reference(s, q):
    # the numpy-scalar loop compute_moments replaced with plain floats
    a, x = s.amplitudes, s.nodes
    out = np.empty(q + 1)
    for k in range(q + 1):
        acc = 0.0
        for i in range(len(a)):
            acc += a[i] * x[i] ** k
        out[k] = acc
    return out


def test_compute_moments_bit_equal_to_reference():
    rng = np.random.default_rng(914)
    for d in range(1, 7):
        for scale in 10.0 ** np.arange(-3, 4):
            x = np.sort(rng.uniform(-3.0, 3.0, size=d)) * scale
            a = rng.uniform(0.5, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
            s = sm.Signal(a, x)
            assert np.array_equal(sm.compute_moments(s, 2 * d + 1).values,
                                  _moments_reference(s, 2 * d + 1))


def test_compute_moments_matches_direct_sum():
    rng = np.random.default_rng(909)
    for _ in range(50):
        s = random_signal(rng, int(rng.integers(1, 6)))
        q = int(rng.integers(0, 9))
        mu = sm.compute_moments(s, q).values
        want = np.array(
            [float(np.sum(s.amplitudes * s.nodes**k)) for k in range(q + 1)]
        )
        assert relerr(mu, want) < 1e-12


# ---------------------------------------------------------------------------
# elementary_symmetric / vieta_inverse


def test_elementary_symmetric_examples():
    assert np.array_equal(sm.elementary_symmetric([1.0, 2.0]).sigma, [-3.0, 2.0])
    assert np.array_equal(
        sm.elementary_symmetric([-1.0, 0.0, 1.0]).sigma, [0.0, -1.0, 0.0]
    )
    assert np.array_equal(sm.elementary_symmetric([2.0]).sigma, [-2.0])


def test_elementary_symmetric_matches_polyfromroots():
    rng = np.random.default_rng(910)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(-4.0, 4.0, size=d))
        sigma = sm.elementary_symmetric(x).sigma
        # polyfromroots returns ascending coefficients of prod (z - x_i)
        c = npoly.polyfromroots(x)
        want = c[:-1][::-1]
        assert relerr(sigma, want) < 1e-10


def test_vieta_inverse_examples():
    x = sm.vieta_inverse(sm.SymmetricCoords([-3.0, 2.0]))
    assert relerr(x, [1.0, 2.0]) < 1e-12
    x = sm.vieta_inverse(sm.SymmetricCoords([0.0, -1.0, 0.0]))
    assert relerr(x, [-1.0, 0.0, 1.0]) < 1e-10
    with pytest.raises(NotHyperbolic):
        sm.vieta_inverse(sm.SymmetricCoords([0.0, 1.0]))


def test_vieta_inverse_repeated_root_rejected():
    with pytest.raises(NotHyperbolic):
        sm.vieta_inverse(sm.SymmetricCoords([-2.0, 1.0]))  # (z-1)^2


# ---------------------------------------------------------------------------
# amplitudes_from_nodes


def test_amplitudes_examples():
    mu = sm.MomentVector([0.0, 1.0])
    a = sm.amplitudes_from_nodes(mu, [-1.0, 1.0])
    assert relerr(a, [-0.5, 0.5]) < 1e-12
    mu = sm.MomentVector([6.0, 14.0, 36.0])
    a = sm.amplitudes_from_nodes(mu, [1.0, 2.0, 3.0])
    assert relerr(a, [1.0, 2.0, 3.0]) < 1e-10
    mu = sm.MomentVector([5.0])
    a = sm.amplitudes_from_nodes(mu, [2.0])
    assert relerr(a, [5.0]) < 1e-14


def _amplitudes_reference(mu, x):
    # the np.delete and SymmetricCoords formulation amplitudes_from_nodes
    # replaced with plain-float products in the same operation order
    d = len(x)
    out = np.empty(d)
    for k in range(d):
        lagrange = 1.0
        for i in range(d):
            if i != k:
                lagrange *= x[k] - x[i]
        rest = np.delete(x, k)
        rho = sm.elementary_symmetric(rest).sigma if len(rest) else np.empty(0)
        acc = 0.0
        for j in range(d):
            order = d - 1 - j
            acc += (1.0 if order == 0 else rho[order - 1]) * mu[j]
        out[k] = acc / lagrange
    return out


def test_amplitudes_bit_equal_to_reference():
    rng = np.random.default_rng(913)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(-3.0, 3.0, size=d)) * 10.0 ** rng.integers(-3, 4)
        mu = rng.uniform(-5.0, 5.0, size=2 * d)
        assert np.array_equal(sm.amplitudes_from_nodes(mu, x), _amplitudes_reference(mu, x))


def test_vieta_inverse_falls_back_to_rolle_only_when_the_seeds_fall_short(monkeypatch):
    from prony import _kernels as K
    from prony import poly_engine as pe

    counts = dict.fromkeys(("rolle", "eigvals"), 0)

    def counting(key, f):
        def wrapped(*args):
            counts[key] += 1
            return f(*args)
        return wrapped

    monkeypatch.setattr(pe, "_rolle_roots", counting("rolle", pe._rolle_roots))
    monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
    for nodes in ([0.5], [-1.0, 2.0], [-1.0, 0.25, 2.0], [-2.0, -0.5, 1.0, 3.0, 4.5]):
        counts.update(dict.fromkeys(counts, 0))
        x = sm.vieta_inverse(sm.elementary_symmetric(nodes))
        assert relerr(x, nodes) < 1e-12
        # the root, the vertex sign or the seeds certify the roots: no
        # Rolle pass
        assert counts == {"rolle": 0, "eigvals": int(len(nodes) >= 3)}

    # a pair 8.3e-7 apart that the seeds cannot certify: one Rolle pass
    # proves the three roots and finds them, with the eigenvalues computed
    # once (the derivative is a quadratic and needs none)
    c = [-52.2868722567103, 0.2638330689659605, 7.122841458445947, 1.0]
    counts.update(dict.fromkeys(counts, 0))
    x = sm.vieta_inverse(c[-2::-1])
    assert counts == {"rolle": 1, "eigvals": 1}
    abs_c, dc = [abs(v) for v in c], K.poly_derivative(c)
    assert len(x) == 3 and all(pe._on_root(c, abs_c, dc, r) for r in x)


def test_amplitudes_validation():
    with pytest.raises(RepeatedNodes):
        sm.amplitudes_from_nodes(sm.MomentVector([1.0, 1.0]), [1.0, 1.0])
    with pytest.raises(ValueError):
        sm.amplitudes_from_nodes(sm.MomentVector([1.0]), [0.0, 1.0])  # too few moments


def test_amplitudes_match_vandermonde_solve():
    rng = np.random.default_rng(911)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        x = np.sort(rng.uniform(-3.0, 3.0, size=d))
        if d > 1 and np.min(np.diff(x)) < 5e-2:
            continue
        mu = rng.uniform(-5.0, 5.0, size=d)
        a = sm.amplitudes_from_nodes(sm.MomentVector(mu), x)
        V = np.vander(x, increasing=True).T
        want = np.linalg.solve(V, mu)
        assert relerr(a, want) < 1e-8


# ---------------------------------------------------------------------------
# round trips


@settings(max_examples=80, deadline=None)
@given(signal_strategy(min_d=1, max_d=5))
def test_moment_round_trip(s):
    mu = sm.compute_moments(s, s.d - 1)
    a = sm.amplitudes_from_nodes(mu, s.nodes)
    assert relerr(a, s.amplitudes) < sm.ROUND_TRIP_RTOL


@settings(max_examples=80, deadline=None)
@given(signal_strategy(min_d=1, max_d=5, min_gap=0.2))
def test_vieta_round_trip(s):
    sigma = sm.elementary_symmetric(s.nodes)
    x = sm.vieta_inverse(sigma)
    assert relerr(x, s.nodes) < 1e-7


def test_vieta_round_trip_with_nodes_of_size_1e4():
    # the leading 1 of such quintics is below 1e-14 of their largest
    # coefficient: a Sturm chain trimmed it and called all 50 non-hyperbolic
    rng = np.random.default_rng(4104)
    R = 1e4
    for _ in range(50):
        nodes = np.sort(rng.uniform(-R, R, size=5))
        x = sm.vieta_inverse(sm.elementary_symmetric(nodes))
        assert np.max(np.abs(x - nodes)) <= 1e-6 * R


def test_monic_product_identity():
    # prod (z - x_i) agrees with the polynomial rebuilt from sigma.
    rng = np.random.default_rng(912)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        x = np.sort(rng.uniform(-3.0, 3.0, size=d))
        p = pe._monic_coeffs(sm.elementary_symmetric(x))
        for z in rng.uniform(-5.0, 5.0, size=10):
            want = float(np.prod(z - x))
            assert abs(npoly.polyval(z, p) - want) <= 1e-10 * (1.0 + abs(want))


def test_vieta_inverse_count_guard():
    # A coords object whose flag is forced stale gets no wrong-size root
    # set: root isolation itself finds z^2 + 1 without real roots.
    coords = sm.SymmetricCoords([0.0, 1.0])  # z^2 + 1, no real roots
    object.__setattr__(coords, "hyperbolic", True)
    with pytest.raises(NotHyperbolic):
        sm.vieta_inverse(coords)

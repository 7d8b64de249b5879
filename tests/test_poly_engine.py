"""Real-root machinery: sign variations, Sturm counts, root isolation, discriminants."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from helpers import relerr
from prony import _kernels as K
from prony import poly_engine as pe
from prony.errors import DegenerateSequence

INF = float("inf")


def P(*coeffs):
    """Ascending-order polynomial shorthand."""
    return pe.Poly.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# monic_from_sigma


def test_monic_from_sigma_layout():
    p = pe.monic_from_sigma([2.0, -1.0, 3.0])
    # z^3 + 2 z^2 - z + 3, stored ascending
    assert np.array_equal(p.coefficients, [3.0, -1.0, 2.0, 1.0])
    assert p.degree == 3
    assert p(1.0) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# sign_variation / budan_fourier_bound


def test_sign_variation_finite():
    p = P(-6.0, 11.0, -6.0, 1.0)  # (x-1)(x-2)(x-3)
    assert pe.sign_variation(p, 0.0).count == 3
    assert pe.sign_variation(p, 4.0).count == 0
    assert pe.sign_variation(p, 2.5).count == 1


def test_sign_variation_at_infinity():
    for coeffs in ([-6.0, 11.0, -6.0, 1.0], [1.0, 0.0, 1.0], [2.0, 3.0]):
        p = P(*coeffs)
        assert pe.sign_variation(p, INF).count == 0
        assert pe.sign_variation(p, -INF).count == p.degree


def test_budan_fourier_three_real_roots():
    p = P(-6.0, 11.0, -6.0, 1.0)
    assert pe.budan_fourier_bound(p, 0.0, 4.0) == 3
    assert pe.budan_fourier_bound(p, 1.5, 4.0) == 2
    assert pe.budan_fourier_bound(p, 3.5, 4.0) == 0


def test_budan_fourier_even_slack():
    # x^2 + 1 has no real roots; the variation drop across (-10, 10] is 2,
    # overcounting by an even amount as the bound permits.
    assert pe.budan_fourier_bound(P(1.0, 0.0, 1.0), -10.0, 10.0) == 2


def test_budan_fourier_bad_interval():
    with pytest.raises(ValueError):
        pe.budan_fourier_bound(P(1.0, 1.0), 2.0, 2.0)
    with pytest.raises(ValueError):
        pe.budan_fourier_bound(P(1.0, 1.0), 3.0, 1.0)


# ---------------------------------------------------------------------------
# sturm_count


def test_sturm_count_examples():
    cubic = P(-6.0, 11.0, -6.0, 1.0)
    assert pe.sturm_count(cubic, 0.0, 4.0) == 3
    assert pe.sturm_count(cubic, 1.5, 2.5) == 1
    assert pe.sturm_count(P(1.0, 0.0, 1.0), -10.0, 10.0) == 0


def test_sturm_count_half_open_endpoints():
    p = P(-1.0, 0.0, 1.0)  # roots -1, 1
    assert pe.sturm_count(p, -1.0, 0.0) == 0  # left endpoint excluded
    assert pe.sturm_count(p, -2.0, 1.0) == 2  # right endpoint included
    assert pe.sturm_count(p, -INF, INF) == 2


def test_sturm_count_repeated_roots_counted_once():
    # (x-1)^2 (x+2): the generalized chain counts distinct roots.
    p = pe.Poly.from_coeffs(npoly.polyfromroots([1.0, 1.0, -2.0]))
    assert pe.sturm_count(p, -INF, INF) == 2


def test_sturm_count_zero_poly_raises():
    with pytest.raises(DegenerateSequence):
        pe.sturm_count(P(0.0), -1.0, 1.0)


# ---------------------------------------------------------------------------
# is_hyperbolic


def test_is_hyperbolic_examples():
    for sigma, hyperbolic in (
        ([0.0, -1.0], True),  # z^2 - 1
        ([0.0, 1.0], False),  # z^2 + 1
        ([-2.0, 1.0], False),  # (z-1)^2, repeated
        ([-6.0, 11.0, -6.0], True),  # (z-1)(z-2)(z-3)
    ):
        assert pe.is_hyperbolic(sigma) is hyperbolic
        # one verdict: hyperbolic_roots finds the roots or says None
        assert (pe.hyperbolic_roots(sigma) is not None) is hyperbolic


def test_is_hyperbolic_random_products():
    rng = np.random.default_rng(20240311)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        roots = np.sort(rng.uniform(-4.0, 4.0, size=d))
        distinct = d == 1 or np.min(np.diff(roots)) > 1e-3
        c = npoly.polyfromroots(roots)  # ascending, monic
        sigma = c[:-1][::-1]
        if distinct:
            assert pe.is_hyperbolic(sigma) is True


# ---------------------------------------------------------------------------
# real_roots


def test_real_roots_examples():
    r = pe.real_roots(P(-6.0, 11.0, -6.0, 1.0))
    assert relerr(r, [1.0, 2.0, 3.0]) < 1e-10
    assert pe.real_roots(P(1.0, 0.0, 1.0)).size == 0
    r = pe.real_roots(P(1.0, -2.0, 1.0))  # (z-1)^2
    assert relerr(r, [1.0]) < 1e-10


def test_real_roots_low_degree():
    assert pe.real_roots(P(3.0)).size == 0
    assert relerr(pe.real_roots(P(-6.0, 2.0)), [3.0]) < 1e-14
    r = pe.real_roots(P(2.0, -3.0, 1.0))
    assert relerr(r, [1.0, 2.0]) < 1e-12


def test_real_roots_ill_conditioned_quadratic():
    # roots 1e-8 and 1e8; naive formula loses the small root
    r = pe.real_roots(P(1.0, -(1e8 + 1e-8), 1.0))
    assert r.size == 2
    assert abs(r[0] - 1e-8) / 1e-8 < 1e-9
    assert abs(r[1] - 1e8) / 1e8 < 1e-9


def test_real_roots_from_random_roots():
    rng = np.random.default_rng(77123)
    for _ in range(300):
        d = int(rng.integers(3, 9))
        roots = np.sort(rng.uniform(-5.0, 5.0, size=d))
        if d > 1 and np.min(np.diff(roots)) < 1e-2:
            continue
        scale = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
        p = pe.Poly.from_coeffs(scale * npoly.polyfromroots(roots))
        got = pe.real_roots(p)
        assert got.size == d
        assert relerr(got, roots) < 1e-8


def test_real_roots_mixed_real_complex():
    # (x^2+1)(x-2)(x+3)
    c = npoly.polymul(npoly.polymul([1.0, 0.0, 1.0], [-2.0, 1.0]), [3.0, 1.0])
    got = pe.real_roots(pe.Poly.from_coeffs(c))
    assert relerr(got, [-3.0, 2.0]) < 1e-10


def test_real_roots_sorted_and_deduplicated():
    c = npoly.polyfromroots([0.5, 0.5, 0.5, -1.25])
    got = pe.real_roots(pe.Poly.from_coeffs(c))
    assert got.size == 2
    assert np.all(np.diff(got) > 0)
    assert relerr(got, [-1.25, 0.5]) < 1e-8


def test_real_roots_spurious_chain_gcd():
    # x^4 + 2^-9 x^3 + 3x: a near-degree drop in the Sturm chain leaves a
    # cancellation-noise remainder, and the chain's last element (a line
    # through 1.6e-4) was once divided out as if it were gcd(P, P')
    p = P(0.0, 3.0, 0.0, 0.001953125, 1.0)
    want = sorted(r.real for r in npoly.polyroots(p.coefficients) if r.imag == 0.0)
    assert len(want) == 2
    assert relerr(pe.real_roots(p), want) < 1e-12


def test_real_roots_bracket_end_on_a_root():
    # the Cauchy bound 3.8 splits at 1.9 and then at the root 0.95, where
    # P is rounding noise; refinement once took that noise for the sign
    # inside (0.95, 1.9] and returned 1.9 instead of 1.15
    roots = [0.25, 0.45, 0.95, 1.15]
    got = pe.real_roots(pe.Poly.from_coeffs(npoly.polyfromroots(roots)))
    assert relerr(got, roots) < 1e-10


def test_real_roots_subnormal_root():
    # the root near 6.6e-324 has a subnormal magnitude sum, whose 1.5e-8 share
    # underflows to 0; the one-ulp Newton step still places it
    got = pe.real_roots(P(3e-323, -4.5, 7.5, -3.0))
    assert got[0] == 5e-324
    assert got[1:].tolist() == pytest.approx([1.0, 1.5], rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=8),
)
def test_real_roots_residual_property(coeffs):
    if max(abs(c) for c in coeffs) < 1e-6 or abs(coeffs[-1]) < 1e-3:
        return
    p = pe.Poly.from_coeffs(coeffs)
    if p.degree < 1:
        return
    scale = max(abs(c) for c in coeffs)
    for r in pe.real_roots(p):
        assert abs(p(r)) <= 1e-7 * scale * (1.0 + abs(r)) ** p.degree


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=8),
    st.floats(-6.0, 6.0, allow_nan=False),
    st.floats(0.1, 12.0, allow_nan=False),
)
def test_budan_bound_dominates_sturm(coeffs, a, width):
    if max(abs(c) for c in coeffs) < 1e-6 or abs(coeffs[-1]) < 1e-3:
        return
    p = pe.Poly.from_coeffs(coeffs)
    if p.degree < 1:
        return
    chain = K.sturm_chain(p.coefficients.tolist())
    if not chain or len(chain[-1]) > 1:
        return  # parity statement needs a squarefree input
    b = a + width
    try:
        exact = pe.sturm_count(p, a, b)
    except DegenerateSequence:
        return
    bound = pe.budan_fourier_bound(p, a, b)
    assert bound >= exact
    assert (bound - exact) % 2 == 0


# ---------------------------------------------------------------------------
# seeded isolation and its bisection fallback


def _count_paths(monkeypatch):
    """Count real_roots isolations that certify from companion seeds and
    those that fall back to Sturm bisection."""
    counts = {"seeded": 0, "bisected": 0}
    seeded, bisected = pe._seeded_roots, pe._bisected_roots

    def counting_seeded(*args):
        roots = seeded(*args)
        counts["seeded"] += roots is not None
        return roots

    def counting_bisected(*args):
        counts["bisected"] += 1
        return bisected(*args)

    monkeypatch.setattr(pe, "_seeded_roots", counting_seeded)
    monkeypatch.setattr(pe, "_bisected_roots", counting_bisected)
    return counts


@st.composite
def _real_rooted(draw):
    # degree 3..6, all roots real: a cluster of 0 or 2..d roots spaced
    # 10^-1..10^-7 apart in [0, 5.5], the rest distinct multiples of 1/32
    # in [-5, 0)
    d = draw(st.integers(3, 6))
    size = draw(st.sampled_from([0] + list(range(2, d + 1))))
    spread = 10.0 ** -draw(st.integers(1, 7))
    center = draw(st.integers(0, 160)) / 32.0
    others = draw(st.lists(st.integers(-160, -1), min_size=d - size, max_size=d - size,
                           unique=True))
    roots = [center + spread * k for k in range(size)] + [k / 32.0 for k in others]
    scale = draw(st.sampled_from([-3.0, 0.5, 1.0, 2.0]))
    return scale * npoly.polyfromroots(roots)


@settings(max_examples=80, deadline=None)
@given(_real_rooted())
def test_seeded_roots_agree_with_bisection(coeffs):
    p = pe.Poly.from_coeffs(coeffs)
    c = p.coefficients.tolist()
    abs_c = [abs(v) for v in c]
    dc = K.poly_derivative(c)
    got = pe.real_roots(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pe, "_seeded_roots", lambda *args: None)
        want = pe.real_roots(p)
    if len(K.sturm_chain(c)[-1]) > 1 and len(got) == p.degree:
        # the chain reads a pair closer than its resolution (1e-7 apart at
        # 0 in -3z(z - 1e-7)(z + 1/32)) as a double root, and the fallback
        # reports it once; the seeds prove two simple roots there, so
        # real_roots reports every root, each of them on P
        assert all(pe._on_root(c, abs_c, dc, x) for x in got)
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        # the residual test cannot judge roots whose magnitude sum sits at
        # the bottom of the float range (a root at 6.7e-324 came back as
        # 5e-11 from the seeded bracket and 2.5e-11 from bisection); there
        # the two must agree to the bisection's own stopping width
        assert (
            relerr(a, b) < 1e-12
            or (pe._on_root(c, abs_c, dc, a) and pe._on_root(c, abs_c, dc, b))
            or abs(a - b) <= pe._BISECT_RELWIDTH * (1.0 + abs(b))
        )


def test_seeded_path_certifies_separated_roots(monkeypatch):
    counts = _count_paths(monkeypatch)
    got = pe.real_roots(pe.Poly.from_coeffs(npoly.polyfromroots([-2.0, 0.5, 1.0, 3.0])))
    assert relerr(got, [-2.0, 0.5, 1.0, 3.0]) < 1e-14
    assert counts == {"seeded": 1, "bisected": 0}


def test_near_double_pair_falls_back_to_bisection(monkeypatch):
    # a collision probe's node polynomial: a pair 8.3e-7 apart near -4.73.
    # |P| at the pair's midpoint stays under the rounding guard, so no
    # bracket gets a sure sign change and the seeds cannot certify
    counts = _count_paths(monkeypatch)
    c = [-52.2868722567103, 0.2638330689659605, 7.122841458445947, 1.0]
    got = pe.real_roots(pe.Poly.from_coeffs(c))
    assert counts == {"seeded": 0, "bisected": 1}
    abs_c, dc = [abs(v) for v in c], K.poly_derivative(c)
    assert len(got) == 3
    assert all(pe._on_root(c, abs_c, dc, x) for x in got)


def test_seed_certificate_reads_the_kernel_guard(monkeypatch):
    assert K.EVAL_GUARD == 1e-14
    counts = _count_paths(monkeypatch)
    p = pe.Poly.from_coeffs(npoly.polyfromroots([-1.0, 0.25, 2.0]))
    # |P(x)| never exceeds its Horner magnitude sum, so a guard of 1 leaves
    # no sure sign anywhere and the certificate must refuse every seed.  The
    # guard is raised in poly_engine's view of the kernels only: the Sturm
    # counting of the bisection fallback reads the kernels' own guard
    monkeypatch.setattr(pe, "K", SimpleNamespace(**{**vars(K), "EVAL_GUARD": 1.0}))
    assert pe._sure_sign(p.coefficients.tolist(), np.abs(p.coefficients).tolist(), 5.0) == 0
    got = pe.real_roots(p)
    assert counts == {"seeded": 0, "bisected": 1}
    assert relerr(got, [-1.0, 0.25, 2.0]) < 1e-10


def _chain_first_roots(c):
    """Roots of P (ascending c, degree >= 2) with the Sturm chain built
    first, as before the seed certificate: None unless the chain proves
    deg P distinct real roots, else the closed form (degree 2) or the
    seeds tried against that count, with Sturm bisection when they fail."""
    d = len(c) - 1
    chain = K.sturm_chain(c)
    if not pe._hyperbolic_chain(chain, d):
        return None
    if d == 2:
        return pe._low_degree_roots(c)
    roots = pe._seeded_roots(c, pe._companion_seeds(c), d)
    return pe._bisected_roots(c, chain) if roots is None else roots


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    _real_rooted().map(lambda c: (c / c[-1])[-2::-1]),
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=6, unique=True)
    .map(lambda x: npoly.polyfromroots(x)[-2::-1]),
))
def test_certified_roots_equal_the_chain_roots(sigma):
    # the certificate only skips the chain: wherever the chain proves d
    # roots, the roots are the same bits
    roots = pe.hyperbolic_roots(sigma)
    assert pe.is_hyperbolic(sigma) == (roots is not None)
    want = _chain_first_roots(pe._monic_coeffs(sigma))
    if want is not None:
        assert roots is not None and np.array_equal(roots, want)


@settings(max_examples=100, deadline=None)
@given(_real_rooted())
def test_certified_real_roots_equal_the_chain_roots(coeffs):
    p = pe.Poly.from_coeffs(coeffs)
    want = _chain_first_roots(p.coefficients.tolist())
    if want is not None:
        assert np.array_equal(pe.real_roots(p), want)


# ---------------------------------------------------------------------------
# discriminant


def test_discriminant_examples():
    assert pe.discriminant(P(0.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    # z^2 - 3z + 2: b^2 - 4c = 1
    assert pe.discriminant(P(2.0, -3.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    # (z-1)(z-2)(z-3): product of squared differences = 4
    assert pe.discriminant(P(-6.0, 11.0, -6.0, 1.0)) == pytest.approx(4.0, rel=1e-10)
    # z^3 + 1: -27
    assert pe.discriminant(P(1.0, 0.0, 0.0, 1.0)) == pytest.approx(-27.0, rel=1e-10)


def test_discriminant_requires_monic():
    with pytest.raises(ValueError):
        pe.discriminant(P(1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        pe.discriminant(P(1.0, 1.0))


def test_discriminant_keeps_the_monic_leading_one():
    # coefficients 1e15 times the leading 1 once had it trimmed away, and the
    # polynomial then failed as non-monic
    p = pe.monic_from_sigma([1e15, -2e15])
    assert p.degree == 2 and p.coefficients[-1] == 1.0
    assert pe.discriminant(p) == pytest.approx(1e30 + 8e15, rel=1e-12)
    assert pe.discriminant([-2e15, 1e15, 1.0]) == pe.discriminant(p)


def test_discriminant_plain_sequence_validation():
    assert pe.discriminant([2.0, -3.0, 1.0]) == pe.discriminant(P(2.0, -3.0, 1.0))
    with pytest.raises(ValueError):
        pe.discriminant([1.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        pe.discriminant([[2.0, -3.0, 1.0]])
    with pytest.raises(ValueError):
        pe.discriminant([1.0, 1.0])
    with pytest.raises(ValueError):
        pe.discriminant([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        pe.is_hyperbolic([0.0, np.inf])


def test_discriminant_quadratic_bridge():
    # For monic quadratics the determinant route must reproduce b^2 - 4c.
    rng = np.random.default_rng(5150)
    for _ in range(1000):
        b, c = rng.uniform(-10.0, 10.0, size=2)
        got = pe.discriminant(P(c, b, 1.0))
        assert relerr(got, b * b - 4.0 * c) < 1e-10


def test_discriminant_cubic_bridge():
    # Monic depressed-or-not cubics versus the classical expansion
    # 18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2 for z^3 + b z^2 + c z + d.
    rng = np.random.default_rng(5151)
    for _ in range(1000):
        b, c, d = rng.uniform(-5.0, 5.0, size=3)
        got = pe.discriminant(P(d, c, b, 1.0))
        want = (
            18.0 * b * c * d
            - 4.0 * b**3 * d
            + b * b * c * c
            - 4.0 * c**3
            - 27.0 * d * d
        )
        assert relerr(got, want) < 1e-8


def test_discriminant_sign_tracks_root_pattern():
    rng = np.random.default_rng(5152)
    for _ in range(300):
        roots = np.sort(rng.uniform(-3.0, 3.0, size=3))
        if np.min(np.diff(roots)) < 1e-2:
            continue
        p = pe.Poly.from_coeffs(npoly.polyfromroots(roots))
        assert pe.discriminant(p) > 0.0  # three distinct real roots
        q = pe.Poly.from_coeffs(
            npoly.polymul([1.0, 0.0, 1.0], [-roots[0], 1.0])
        )  # one real, complex pair
        assert pe.discriminant(q) < 0.0

"""Real-root machinery: sign variations and root isolation."""

import sys
from types import SimpleNamespace

import numpy as np
import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from helpers import relerr
from prony import _kernels as K
from prony import poly_engine as pe

INF = float("inf")
Z = sympy.Symbol("z")


def _exact_poly(c):
    """The polynomial with the exact rational values of the ascending float
    coefficients c."""
    return sympy.Poly([sympy.Rational(float(v)) for v in c[::-1]], Z)


# ---------------------------------------------------------------------------
# sign_variation / budan_fourier_bound


def test_sign_variation_finite():
    p = [-6.0, 11.0, -6.0, 1.0]  # (x-1)(x-2)(x-3)
    assert pe.sign_variation(p, 0.0).count == 3
    assert pe.sign_variation(p, 4.0).count == 0
    assert pe.sign_variation(p, 2.5).count == 1


def test_sign_variation_at_infinity():
    for p in ([-6.0, 11.0, -6.0, 1.0], [1.0, 0.0, 1.0], [2.0, 3.0]):
        assert pe.sign_variation(p, INF).count == 0
        assert pe.sign_variation(p, -INF).count == len(p) - 1


def test_budan_fourier_three_real_roots():
    p = [-6.0, 11.0, -6.0, 1.0]
    assert pe.budan_fourier_bound(p, 0.0, 4.0) == 3
    assert pe.budan_fourier_bound(p, 1.5, 4.0) == 2
    assert pe.budan_fourier_bound(p, 3.5, 4.0) == 0


def test_budan_fourier_even_slack():
    # x^2 + 1 has no real roots; the variation drop across (-10, 10] is 2,
    # overcounting by an even amount as the bound permits.
    assert pe.budan_fourier_bound([1.0, 0.0, 1.0], -10.0, 10.0) == 2


def test_budan_fourier_counts_roots_a_float_shift_underflows():
    # z (z - 7.3e-285) on (a, a + 1] with a = -7.3e-285 holds both roots;
    # the float Taylor shift at a underflows P(a) = 2 a^2 to zero and lost
    # one of them
    a = -7.285810657341256e-285
    p = [0.0, a, 1.0]
    assert pe.sign_variation(p, a).count == 2
    assert pe.budan_fourier_bound(p, a, a + 1.0) == 2


def test_budan_fourier_bad_interval():
    with pytest.raises(ValueError):
        pe.budan_fourier_bound([1.0, 1.0], 2.0, 2.0)
    with pytest.raises(ValueError):
        pe.budan_fourier_bound([1.0, 1.0], 3.0, 1.0)


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
    r = pe.real_roots([-6.0, 11.0, -6.0, 1.0])
    assert relerr(r, [1.0, 2.0, 3.0]) < 1e-10
    assert pe.real_roots([1.0, 0.0, 1.0]).size == 0
    r = pe.real_roots([1.0, -2.0, 1.0])  # (z-1)^2
    assert relerr(r, [1.0]) < 1e-10


def test_real_roots_low_degree():
    assert pe.real_roots([3.0]).size == 0
    assert relerr(pe.real_roots([-6.0, 2.0]), [3.0]) < 1e-14
    r = pe.real_roots([2.0, -3.0, 1.0])
    assert relerr(r, [1.0, 2.0]) < 1e-12


def test_real_roots_ill_conditioned_quadratic():
    # roots 1e-8 and 1e8; naive formula loses the small root
    r = pe.real_roots([1.0, -(1e8 + 1e-8), 1.0])
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
        p = scale * npoly.polyfromroots(roots)
        got = pe.real_roots(p)
        assert got.size == d
        assert relerr(got, roots) < 1e-8


def test_real_roots_mixed_real_complex():
    # (x^2+1)(x-2)(x+3)
    c = npoly.polymul(npoly.polymul([1.0, 0.0, 1.0], [-2.0, 1.0]), [3.0, 1.0])
    got = pe.real_roots(c)
    assert relerr(got, [-3.0, 2.0]) < 1e-10


def test_real_roots_sorted_and_deduplicated():
    c = npoly.polyfromroots([0.5, 0.5, 0.5, -1.25])
    got = pe.real_roots(c)
    assert got.size == 2
    assert np.all(np.diff(got) > 0)
    assert relerr(got, [-1.25, 0.5]) < 1e-8


@pytest.mark.parametrize("c, want", [
    (npoly.polyfromroots([0.1, 0.1, -2.0]), [-2.0, 0.1]),
    (npoly.polyfromroots([0.1, 0.1, 0.3, -2.0]), [-2.0, 0.1, 0.3]),
    (npoly.polyfromroots([0.7, 0.7, 2.5, 2.5]), [0.7, 2.5]),
    (npoly.polyfromroots([0.1, 0.1, 0.1, -2.0]), [-2.0, 0.1]),
    (npoly.polymul(npoly.polyfromroots([-1.9, -1.9]), [5.0, 2.0, 1.0]), [-1.9]),
    (npoly.polymul(npoly.polyfromroots([0.7, 0.7]), [0.02, 0.0, 1.0]), [0.7]),
])
def test_real_roots_inexact_repeated_root(c, want):
    # a double root whose float coefficients leave P at the critical point
    # to rounding noise; the noise's sign must neither drop the root nor
    # split it in two
    got = pe.real_roots(c)
    assert len(got) == len(want)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_real_roots_spurious_chain_gcd():
    # x^4 + 2^-9 x^3 + 3x has two simple real roots, 0 and one near -1.44;
    # its small cubic coefficient must not pass a critical point off as a
    # common root of P and P'
    p = [0.0, 3.0, 0.0, 0.001953125, 1.0]
    want = sorted(r.real for r in npoly.polyroots(p) if r.imag == 0.0)
    assert len(want) == 2
    assert relerr(pe.real_roots(p), want) < 1e-12


def test_real_roots_bracket_end_on_a_root():
    # the Cauchy bound 3.8 splits at 1.9 and then at the root 0.95, where
    # P is rounding noise; refinement once took that noise for the sign
    # inside (0.95, 1.9] and returned 1.9 instead of 1.15
    roots = [0.25, 0.45, 0.95, 1.15]
    got = pe.real_roots(npoly.polyfromroots(roots))
    assert relerr(got, roots) < 1e-10


def test_real_roots_subnormal_root():
    # the root near 6.6e-324 has a subnormal magnitude sum, whose 1.5e-8 share
    # underflows to 0; the one-ulp Newton step still places it
    got = pe.real_roots([3e-323, -4.5, 7.5, -3.0])
    assert got[0] == 5e-324
    assert got[1:].tolist() == pytest.approx([1.0, 1.5], rel=1e-14)


def test_real_roots_trims_a_negligible_leading_coefficient():
    # 19 is below 1e-14 of the largest magnitude 2e15 and is dropped, so the
    # quadratic is read as the line 1e15 z - 2e15; 21 is kept
    assert pe.real_roots([-2e15, 1e15, 19.0]).tolist() == [2.0]
    assert pe.real_roots([-2e15, 1e15, 1.0]).tolist() == [2.0]
    assert len(pe.real_roots([-2e15, 1e15, 21.0])) == 2


@pytest.mark.parametrize("sigma, want", [
    # roots -1e15 - 2 - 4e-15 and 2 - 4e-15
    ([1e15, -2e15], [-1e15 - 2.0, 2.0]),
    # (z + 1e15)(z - 2)(z - 3)
    ([1e15 - 5.0, 6.0 - 5e15, 6e15], [-1e15, 2.0, 3.0]),
], ids=["quadratic", "cubic"])
def test_hyperbolic_roots_keeps_the_monic_leading_one(sigma, want):
    # coefficients 1e15 times the leading 1 would have it trimmed away in
    # real_roots; the monic root path keeps it and finds all d roots
    roots = pe.hyperbolic_roots(sigma)
    assert len(roots) == len(sigma)
    assert roots.tolist() == pytest.approx(want, rel=1e-12)


def test_root_functions_validate_their_coefficients():
    for bad in ([1.0, np.nan, 1.0], [1.0, np.inf], [[2.0, -3.0, 1.0]], []):
        with pytest.raises(ValueError):
            pe.real_roots(bad)
        with pytest.raises(ValueError):
            pe.sign_variation(bad, 0.0)
    with pytest.raises(ValueError):
        pe.is_hyperbolic([0.0, np.inf])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=4, max_size=8),
)
def test_real_roots_residual_property(coeffs):
    if max(abs(c) for c in coeffs) < 1e-6 or abs(coeffs[-1]) < 1e-3:
        return
    degree = len(coeffs) - 1  # |leading| >= 1e-3, so real_roots trims nothing
    scale = max(abs(c) for c in coeffs)
    for r in pe.real_roots(coeffs):
        assert abs(npoly.polyval(r, coeffs)) <= 1e-7 * scale * (1.0 + abs(r)) ** degree


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=3, max_size=8),
    st.floats(-6.0, 6.0, allow_nan=False),
    st.floats(0.1, 12.0, allow_nan=False),
)
def test_budan_bound_dominates_sturm(coeffs, a, width):
    # the exact count in (a, b] is sympy's Sturm count on the rational
    # values of the float coefficients, as in the Budan-Fourier acceptance
    # check
    if max(abs(c) for c in coeffs) < 1e-6 or abs(coeffs[-1]) < 1e-3:
        return
    poly = _exact_poly(coeffs)
    if sympy.degree(sympy.gcd(poly, poly.diff(Z))) > 0:
        return  # parity statement needs a squarefree input
    b = a + width
    ra, rb = sympy.Rational(a), sympy.Rational(b)
    exact = int(poly.count_roots(ra, rb)) - int(poly.eval(ra) == 0)
    bound = pe.budan_fourier_bound(coeffs, a, b)
    assert bound >= exact
    assert (bound - exact) % 2 == 0


# ---------------------------------------------------------------------------
# seeded isolation and its Rolle fallback


def _count_paths(monkeypatch):
    """Count real_roots isolations that certify from companion seeds and
    those that fall back to the Rolle pass."""
    counts = {"seeded": 0, "rolle": 0}
    seeded, rolle = pe._seeded_roots, pe._rolle_roots

    def counting_seeded(*args):
        roots = seeded(*args)
        counts["seeded"] += roots is not None
        return roots

    def counting_rolle(*args):
        counts["rolle"] += 1
        return rolle(*args)

    monkeypatch.setattr(pe, "_seeded_roots", counting_seeded)
    monkeypatch.setattr(pe, "_rolle_roots", counting_rolle)
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


def _mp_coeffs(p):
    """The descending coefficients of the sympy Poly p as mpmath numbers."""
    return [mpmath.mpf(v.p) / v.q for v in p.all_coeffs()]


def _mp_real_roots(p):
    """The distinct real roots of the sympy Poly p to 30 digits, bisected
    in 40-digit mpmath from the exact isolating intervals of its squarefree
    part."""
    p = p.sqf_part()
    q = _mp_coeffs(p)
    roots = []
    with mpmath.workdps(40):
        for (a, b), _mult in p.intervals():
            # the sign of P just right of a, taken exactly; a may be a
            # (simple) root itself, the exact root of the neighbouring interval
            lo_sign = int(sympy.sign(p.eval(a))) or int(sympy.sign(p.diff(Z).eval(a)))
            lo, hi = mpmath.mpf(a.p) / a.q, mpmath.mpf(b.p) / b.q
            while hi - lo > 1e-30 * max(abs(lo), abs(hi)):
                mid = (lo + hi) / 2
                if mpmath.sign(mpmath.polyval(q, mid)) == lo_sign:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
    return roots


def _clears_rounding(q, x):
    """|[x]| above 1e3 times EVAL_GUARD of its Horner magnitude sum, and
    above 1e3 times the smallest normal double, under which doubles lose
    their relative precision, for the mpmath coefficients q of P."""
    guard = K.EVAL_GUARD * mpmath.polyval([abs(v) for v in q], abs(x))
    return abs(mpmath.polyval(q, x)) > 1e3 * max(guard, sys.float_info.min)


def _resolved(poly):
    """True when double precision resolves the real roots of P and of its
    derivatives.  Rounding cannot change the sign pattern that they are
    read from: at every real critical point x of every derivative P^(k) of
    degree >= 2, |P^(k)(x)| clears its rounding guard (see
    :func:`_clears_rounding`), so no real root of any derivative, down to
    the linear one, can appear, vanish or turn double under rounding.  And
    the real roots of each P^(k) lie further apart than 1e3 times the
    distance _BISECT_RELWIDTH * (1 + |x|) to which the root layer places
    them (see :func:`_check_against_exact`)."""
    q, p = None, poly
    while p.degree() >= 1:
        roots = _mp_real_roots(p)
        if q is not None and not all(_clears_rounding(q, x) for x in roots):
            return False
        if any(b - a <= 1e3 * pe._BISECT_RELWIDTH * (1 + abs(a))
               for a, b in zip(roots, roots[1:])):
            return False
        q, p = _mp_coeffs(p), p.diff(Z)
    return True


def _check_against_exact(c, got):
    """got, the real roots found for the ascending float coefficients c,
    against the roots of the same polynomial in exact arithmetic.

    Rounding in the evaluation of P, up to EVAL_GUARD of its Horner
    magnitude sum, guard(w), can flip the sign of P only where |P| is below
    that.  Where double precision resolves the roots (see
    :func:`_resolved`), got holds each exact real root w, to the distance
    guard(w) / |P'(w)| over which rounding moves it, plus
    _BISECT_RELWIDTH * (1 + |w|).  That term is absolute: a seeded root
    near zero is accepted at a residual that can leave it 1e-8 of itself
    off, and the fallback bisects a root at zero to a few subnormals.
    Below resolution a cluster may lose or gain real roots (five roots
    1e-5 apart have come back as two, of a float polynomial with one real
    root), and only the residual is checked."""
    poly = _exact_poly(c)
    with mpmath.workdps(40):
        if not _resolved(poly):
            scale = max(map(abs, c))
            assert all(abs(K.horner(c, x)) <= 1e-7 * scale * (1.0 + abs(x)) ** (len(c) - 1)
                       for x in got)
            return
        abs_q, dq = [abs(v) for v in _mp_coeffs(poly)], _mp_coeffs(poly.diff(Z))
        want = [(float(w), float(K.EVAL_GUARD * mpmath.polyval(abs_q, abs(w))
                                 / abs(mpmath.polyval(dq, w))))
                for w in _mp_real_roots(poly)]
    assert len(got) == len(want)
    for x, (w, blur) in zip(got, want):
        assert abs(x - w) <= blur + pe._BISECT_RELWIDTH * (1.0 + abs(w))


@settings(max_examples=80, deadline=None)
@given(_real_rooted())
def test_seeded_roots_agree_with_bisection(coeffs):
    # with every seed refused, the Rolle pass bisects its monotone pieces;
    # the seeded route (test_certified_real_roots_equal_the_exact_roots)
    # and this one both hold to the exact roots where they are resolved
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pe, "_seeded_roots", lambda *args: None)
        bisected = pe.real_roots(coeffs)
    _check_against_exact(coeffs.tolist(), bisected.tolist())


def test_seeded_path_certifies_separated_roots(monkeypatch):
    counts = _count_paths(monkeypatch)
    got = pe.real_roots(npoly.polyfromroots([-2.0, 0.5, 1.0, 3.0]))
    assert relerr(got, [-2.0, 0.5, 1.0, 3.0]) < 1e-14
    assert counts == {"seeded": 1, "rolle": 0}


def test_near_double_pair_falls_back_to_bisection(monkeypatch):
    # a collision probe's node polynomial: a pair 8.3e-7 apart near -4.73.
    # |P| at the pair's midpoint stays under the rounding guard, so no
    # bracket gets a sure sign change and the seeds cannot certify.  The
    # Rolle pass bisects the pieces between the roots of P' and must place
    # the pair within 1e-8 of the exact roots
    counts = _count_paths(monkeypatch)
    c = [-52.2868722567103, 0.2638330689659605, 7.122841458445947, 1.0]
    got = pe.real_roots(c)
    assert counts == {"seeded": 0, "rolle": 1}
    want = [float(w) for w in _mp_real_roots(_exact_poly(c))]
    assert len(got) == 3 and len(want) == 3
    assert np.max(np.abs(got - want)) <= 1e-8
    assert np.array_equal(pe.hyperbolic_roots(c[-2::-1]), got)


def test_bisected_root_is_polished_to_rounding(monkeypatch):
    # -3 prod (z + k/32), k = 1..5, has exact coefficients.  With the seeds
    # refused the Rolle pass bisects the middle root to 1e-10 relative, and
    # Newton once stopped at the bisected bracket, 3.2e-11 from -3/32.  The
    # polish runs in the piece that holds the root; it stops at steps below
    # 1e-15 * (1 + |x|), where the computed sign of P is rounding noise
    monkeypatch.setattr(pe, "_seeded_roots", lambda *args: None)
    c = (-3.0 * npoly.polyfromroots([-k / 32.0 for k in range(1, 6)])).tolist()
    exact = -3 * sympy.prod(Z + sympy.Rational(k, 32) for k in range(1, 6))
    assert _exact_poly(c) == sympy.Poly(exact, Z)  # the float coefficients are exact
    x = pe.real_roots(c)[2]
    assert abs(x + 3.0 / 32.0) <= 1e-15 * (1.0 + 3.0 / 32.0)


def test_real_roots_places_a_pair_near_zero_to_its_own_scale():
    # 2z^3 - 0.75z^2 + 7.5e-201z + 2.5e-201 has roots 0.375 and a pair at
    # +-5.77e-101, which the seeds do not certify.  Bisection to an
    # absolute width of 1e-10 once left Newton, slow at the near-double
    # pair, at +-1.5625e-12
    c = [2.5e-201, 7.5e-201, -0.75, 2.0]
    want = [float(r.evalf(30)) for r in _exact_poly(c).real_roots()]
    got = pe.real_roots(c)
    assert len(got) == 3
    for x, w in zip(got, want):
        assert abs(x - w) <= 1e-12 * abs(w)


def test_cluster_of_four_roots_within_resolution():
    # prod (z - (1.375 + 1e-3 k)), k = 0..3: the seeds do not certify the
    # cluster, and the Rolle pass must find all four roots, each within
    # 1e-6 of the exact roots of the float polynomial
    c = npoly.polyfromroots([1.375 + 1e-3 * k for k in range(4)])
    want = [float(w) for w in _mp_real_roots(_exact_poly(c))]
    assert len(want) == 4
    for got in (pe.real_roots(c), pe.hyperbolic_roots(c[-2::-1])):
        assert len(got) == 4
        assert np.max(np.abs(got - want)) <= 1e-6


def test_seed_certificate_reads_the_kernel_guard(monkeypatch):
    assert K.EVAL_GUARD == 1e-14
    counts = _count_paths(monkeypatch)
    p = npoly.polyfromroots([-1.0, 0.25, 2.0])
    # |[x]| never exceeds its Horner magnitude sum, so a guard of 1 leaves
    # no sure sign anywhere and the certificate must refuse every seed; the
    # Rolle pass reads plain signs and still finds the three roots
    monkeypatch.setattr(pe, "K", SimpleNamespace(**{**vars(K), "EVAL_GUARD": 1.0}))
    assert pe._sure_sign(p.tolist(), np.abs(p).tolist(), 5.0) == 0
    got = pe.real_roots(p)
    assert counts == {"seeded": 0, "rolle": 1}
    assert relerr(got, [-1.0, 0.25, 2.0]) < 1e-10


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    _real_rooted().map(lambda c: (c / c[-1])[-2::-1]),
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=6, unique=True)
    .map(lambda x: npoly.polyfromroots(x)[-2::-1]),
))
def test_certified_roots_equal_the_exact_roots(sigma):
    # hyperbolic_roots finds d roots or says None.  The roots it finds hold
    # to the exact roots where those are resolved, and it says None there
    # only when the exact polynomial has fewer than d distinct real roots
    roots = pe.hyperbolic_roots(sigma)
    if roots is None:
        poly = _exact_poly(pe._monic_coeffs(sigma))
        with mpmath.workdps(40):
            assert not _resolved(poly) or len(_mp_real_roots(poly)) < len(sigma)
        return
    assert len(roots) == len(sigma)
    _check_against_exact(pe._monic_coeffs(sigma), roots.tolist())


@settings(max_examples=100, deadline=None)
@given(_real_rooted())
def test_certified_real_roots_equal_the_exact_roots(coeffs):
    roots = pe.real_roots(coeffs)
    assert np.all(np.diff(roots) > 0)
    _check_against_exact(coeffs.tolist(), roots.tolist())


@st.composite
def _root_stacks(draw):
    # a stack of one to six polynomials of one degree n = 3..6: real roots,
    # a complex pair (fewer real seeds than n, so the Rolle pass runs) or a
    # pair 0 to 1e-4 apart (a double root, or a pair below resolution)
    n = draw(st.integers(3, 6))
    stack = []
    for _ in range(draw(st.integers(1, 6))):
        roots = draw(st.lists(st.floats(-20.0, 20.0), min_size=n - 2, max_size=n - 2))
        kind = draw(st.sampled_from(["real", "pair", "double"]))
        a = draw(st.floats(-20.0, 20.0))
        if kind == "real":
            last = npoly.polyfromroots([a, draw(st.floats(-20.0, 20.0))])
        elif kind == "pair":
            b = draw(st.floats(1e-6, 20.0))
            last = np.array([a * a + b * b, -2.0 * a, 1.0])
        else:
            last = npoly.polyfromroots([a, a + draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))])
        scale = draw(st.sampled_from([-3.0, 0.5, 1.0, 2.0]))
        stack.append((scale * npoly.polymul(npoly.polyfromroots(roots), last)).tolist())
    return stack


@settings(max_examples=80, deadline=None)
@given(_root_stacks())
def test_stacked_roots_carry_the_bits_of_single_calls(stack):
    # _roots_many roots the whole stack from one stacked eigvals call; each
    # polynomial gets the bits of its own call, and of the seeds of an
    # eigvals call on its companion matrix alone
    got = pe._roots_many(stack)
    assert len(got) == len(stack)
    for c, roots in zip(stack, got):
        n = len(c) - 1
        companion = np.zeros((n, n))
        companion[np.arange(1, n), np.arange(n - 1)] = 1.0
        companion[:, -1] = [v / -c[-1] for v in c[:-1]]
        seeds = sorted(z.real for z in np.linalg.eigvals(companion).tolist() if z.imag == 0.0)
        single = pe._seeded_roots(c, seeds, n)
        single = pe._rolle_roots(c, seeds) if single is None else single
        assert [x.hex() for x in roots] == [x.hex() for x in single]
        assert [x.hex() for x in roots] == [x.hex() for x in pe._roots(c)]

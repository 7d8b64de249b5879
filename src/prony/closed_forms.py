"""Closed-form collision and boundedness verdicts for d=2 and d=3.

At d=2 one Hankel determinant decides both questions.  At d=3 the decision
reduces to a degree-4 polynomial in the line parameter whose leading
coefficient has an explicit 2x2-determinant expression; this module expands
that quartic in integers from the exact line and decides both verdicts from
exact signs and an exact count of its real roots.  The numeric domain is
attached as evidence only.

Sign convention: `discriminant_cubic_paper` is the negative of the standard
cubic discriminant, so negative values mean three distinct real roots.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import prony_line
from ._kernels import _dyadic
from .errors import UnresolvedDomain
from .prony_line import _poly_mul, _real_root_count, _rounded

__all__ = [
    "Classification",
    "classify_d2",
    "classify_d3",
    "discriminant_cubic_paper",
    "quartic_Pmu",
    "P8_closed_form",
    "P8_second_form",
    "K_value",
]

logger = logging.getLogger(__name__)

_VERDICTS = ("yes", "no", "indeterminate")


@dataclass(frozen=True, eq=False)
class Classification:
    """Collision / boundedness verdict for one moment vector.

    collision and bounded are "yes", "no", or "indeterminate"; evidence
    carries the numbers the verdict was read from (det M always; for d=3
    additionally the quartic coefficients, K, the hypothesis flags, and the
    numeric domain intervals, attached for cross-examination).
    """

    d: int
    collision: str
    bounded: str
    evidence: dict

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("classification covers d=2 and d=3 only")
        if self.collision not in _VERDICTS:
            raise ValueError(f"unsupported collision verdict {self.collision!r}")
        if self.bounded not in _VERDICTS:
            raise ValueError(f"unsupported bounded verdict {self.bounded!r}")


def discriminant_cubic_paper(sigma) -> float:
    """27*s3^2 + 4*s2^3 - s1^2*s2^2 + 4*s1^3*s3 - 18*s1*s2*s3 for the monic
    cubic z^3 + s1*z^2 + s2*z + s3.

    Negative iff the cubic has three distinct real roots; equals the negative
    of the standard discriminant.  Raises ValueError where a power, a
    product or the sum exceeds the double range.
    """
    s = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if s.shape != (3,):
        raise ValueError("expected exactly three symmetric coordinates")
    if not np.all(np.isfinite(s)):
        raise ValueError("symmetric coordinates must be finite")
    s1, s2, s3 = s.tolist()
    try:
        disc = (27.0 * s3 * s3 + 4.0 * s2 ** 3 - s1 * s1 * s2 * s2
                + 4.0 * s1 ** 3 * s3 - 18.0 * s1 * s2 * s3)
    except OverflowError:  # from a float power past the double range
        disc = math.inf
    # a product past the double range is inf, and inf - inf is NaN
    if not math.isfinite(disc):
        raise ValueError("moments exceed double range: the cubic "
                         f"discriminant of {s.tolist()} overflows")
    return disc


def _check_length(mu, n: int) -> np.ndarray:
    if isinstance(mu, prony_line.PronyLine):
        mu = mu.mu
    m = np.asarray(getattr(mu, "values", mu), dtype=float)
    if m.shape != (n,):
        raise ValueError(f"expected a moment vector of length {n}")
    if not np.all(np.isfinite(m)):
        raise ValueError("moments must be finite")
    return m


def P8_closed_form(mu) -> float:
    """Leading (t^4) coefficient of the denominator-cleared quartic, as the
    explicit combination 4*d1^3*d2 - d1^2*d3^2 of 2x2 Hankel determinants
    d1 = mu0*mu2 - mu1^2, d2 = mu1*mu3 - mu2^2, d3 = mu0*mu3 - mu1*mu2.

    Exact for the float moments and rounded once (+-inf past the double
    range), so it is the t^4 coefficient of quartic_Pmu.
    """
    m = _check_length(mu, 5)
    (m0, m1, m2, m3, _), e = _dyadic(m.tolist())
    d1, d2, d3 = m0 * m2 - m1 * m1, m1 * m3 - m2 * m2, m0 * m3 - m1 * m2
    return _rounded(4 * d1 ** 3 * d2 - d1 * d1 * d3 * d3, 8 * e)


def K_value(mu) -> float:
    """discriminant_cubic_paper at (3*mu1/mu0, 3*mu2/mu0, mu3/mu0).

    Scale-invariant in mu; its sign decides boundedness at d=3 when the
    hypotheses of classify_d3 hold.  Requires mu0 != 0.
    """
    m = np.asarray(getattr(mu, "values", mu), dtype=float)
    if m.ndim != 1 or m.size < 4:
        raise ValueError("need at least the first four moments")
    if not np.all(np.isfinite(m[:4])):
        raise ValueError("moments must be finite")
    if m[0] == 0.0:
        raise ValueError("K is undefined for a zero leading moment")
    # plain floats: a ratio past the double range is inf, without a
    # RuntimeWarning, and refused as not finite
    m0, m1, m2, m3 = m[:4].tolist()
    return discriminant_cubic_paper((3.0 * m1 / m0, 3.0 * m2 / m0, m3 / m0))


def P8_second_form(mu) -> float:
    """-(mu0^4/27) * d1^2 * K_value(mu); identical to P8_closed_form whenever
    mu0 != 0 (the division by mu0 inside K cancels against the mu0^4).
    Raises ValueError where a power, a product or K exceeds the double
    range."""
    m = _check_length(mu, 5)
    if m[0] == 0.0:
        raise ValueError("the second form needs a nonzero leading moment")
    # plain floats, as in K_value: a product past the double range is inf,
    # without a RuntimeWarning, and refused as not finite
    m0, m1, m2 = m[:3].tolist()
    d1 = m0 * m2 - m1 * m1
    try:
        p8 = -(m0**4 / 27.0) * d1 * d1 * K_value(m)
    except OverflowError:  # from a float power past the double range
        p8 = math.inf
    if not math.isfinite(p8):
        raise ValueError(f"moments exceed double range: P8 of {m.tolist()} overflows")
    return p8


def quartic_Pmu(mu) -> list[float]:
    """Ascending coefficients of the degree <= 4 polynomial in t whose real
    roots are where the node cubic of the one-missing-moment line at d=3
    has a repeated root, the finite endpoints of its hyperbolic parameter
    set among them: det(M)^4 times the cubic discriminant along the line,
    with P8_closed_form leading.

    The quartic is expanded exactly, in integers, from the exact line of
    the float moments; each coefficient is then rounded once (+-inf past
    the double range), and only leading coefficients that are exactly zero
    are dropped.  mu may be the d=3 line itself.  Raises what line_params
    raises.
    """
    _check_length(mu, 5)
    quartic, shift = _exact_quartic(prony_line.line_params(mu))
    return [_rounded(c, shift) for c in quartic] or [0.0]


def _exact_quartic(line) -> tuple:
    # (D, shift): the ascending integer coefficients of the quartic of
    # quartic_Pmu times 2**shift, exact zeros dropped from the top.  With
    # sigma_j(t) = (b_j + t*s_j) / p each monomial of the discriminant of
    # degree k is cleared by p**(4-k)
    p, b, s, e = line._exact
    u1, u2, u3 = ([bj, sj] for bj, sj in zip(b, s))
    u11, u22 = _poly_mul(u1, u1), _poly_mul(u2, u2)
    # the five monomials of discriminant_cubic_paper, in its order
    terms = ((27 * p * p, _poly_mul(u3, u3)), (4 * p, _poly_mul(u22, u2)),
             (-1, _poly_mul(u11, u22)), (4, _poly_mul(_poly_mul(u11, u1), u3)),
             (-18 * p, _poly_mul(_poly_mul(u1, u2), u3)))
    quartic = [0] * 5
    for w, poly in terms:
        for k, c in enumerate(poly):
            quartic[k] += w * c
    while quartic and quartic[-1] == 0:
        quartic.pop()
    return quartic, 12 * e


def classify_d2(mu) -> Classification:
    """Collision iff det M < 0; no moment vector gives a bounded family.

    Degenerate Hankel matrices are rejected (DegenerateHankel).  det M is
    the line's, correctly rounded, so its sign is exact; the det M policy
    refuses zero, and every det M that rounds to zero, first.
    """
    _check_length(mu, 3)
    detM = prony_line.line_params(mu).detM
    return Classification(d=2, collision="yes" if detM < 0.0 else "no", bounded="no",
                          evidence={"detM": detM})


def _domain_evidence(line) -> dict:
    # the domain, or why it is unavailable: below the resolution of its
    # build, or past the double range
    try:
        dom = line.domain
    except (UnresolvedDomain, ValueError) as exc:
        logger.warning("domain evidence unavailable: %s", exc)
        return {"domain_intervals": None, "domain_all_bounded": None,
                "domain_error": str(exc)}
    return {
        "domain_intervals": dom.intervals,
        "domain_all_bounded": all(
            np.isfinite(lo) and np.isfinite(hi) for lo, hi in dom.intervals),
    }


def classify_d3(mu) -> Classification:
    """Collision iff the cleared quartic D has a real root; bounded iff
    P8 > 0 (that is K < 0), given mu0, the top-left 2x2 Hankel determinant
    d1 and P8 are nonzero.

    Both verdicts are decided exactly, from the integer quartic of the exact
    line (see quartic_Pmu) and the exact moments: the collision verdict by a
    Sturm count of the distinct real roots of D, "indeterminate" only where
    D vanishes identically, and the bounded verdict "indeterminate" only
    where mu0, d1 or P8 is exactly zero.  Under those hypotheses
    P8 = -(mu0^4/27) * d1^2 * K, so the sign of P8 gives that of K.  K itself
    is evidence only (None where mu0 = 0 or K is past the double range), as
    are the numeric hyperbolic-set intervals, attached so callers can
    cross-examine the closed-form answer (domain_error where the domain
    build abstains on resolution or is past the double range).
    """
    m = _check_length(mu, 5)
    line = prony_line.line_params(mu)
    quartic, shift = _exact_quartic(line)
    n_real = _real_root_count(quartic) if quartic else None
    collision = "indeterminate" if n_real is None else "yes" if n_real else "no"

    (m0, m1, m2), _ = _dyadic(m[:3].tolist())
    mu0_ok, d1_ok, p8_ok = m0 != 0, m0 * m2 != m1 * m1, len(quartic) == 5
    if mu0_ok and d1_ok and p8_ok:
        bounded = "yes" if quartic[4] > 0 else "no"
    else:
        bounded = "indeterminate"
    K = None
    if mu0_ok:
        try:
            K = K_value(m)
        except ValueError:  # K past the double range
            pass

    coeffs = [_rounded(c, shift) for c in quartic] + [0.0] * (5 - len(quartic))
    evidence = {
        "detM": line.detM,
        "quartic_coefficients": tuple(coeffs[::-1]),
        "P8": coeffs[4],
        "K": K,
        "real_root_count": n_real,
        "mu0_ok": mu0_ok,
        "d1_ok": d1_ok,
        "p8_ok": p8_ok,
    }
    evidence.update(_domain_evidence(line))
    return Classification(d=3, collision=collision, bounded=bounded,
                          evidence=evidence)

"""Closed-form collision and boundedness verdicts for d=2 and d=3.

At d=2 one Hankel determinant decides both questions.  At d=3 the decision
reduces to a degree-4 polynomial in the line parameter whose leading
coefficient has an explicit 2x2-determinant expression; this module expands
that quartic from the line's slopes and intercepts.  The numeric domain is
attached as evidence, and the d=3 collision verdict is given only where the
domain's finite endpoints agree with it.

Sign convention: `discriminant_cubic_paper` is the negative of the standard
cubic discriminant, so negative values mean three distinct real roots.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import poly_engine, prony_line
from .errors import UnresolvedDomain

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

# Verdicts become "indeterminate" when the deciding quantity sits within
# _INDET_REL of zero, measured against what its own monomials add up to
# before cancellation (term-magnitude scale).  The underlying statements are
# strict inequalities, so near-zero pivots are genuinely undecidable in
# floating point.
_INDET_REL = 1e-6

_VERDICTS = ("yes", "no", "indeterminate")


@dataclass(frozen=True, eq=False)
class Classification:
    """Collision / boundedness verdict for one moment vector.

    collision and bounded are "yes", "no", or "indeterminate"; evidence
    carries the numbers the verdict was read from (det M always; for d=3
    additionally the quartic coefficients, K, the hypothesis flags, and the
    numeric domain intervals used as a cross-check).
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


def _moment_scale(mu: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(mu))))


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


def _delta_term_scale(s1: float, s2: float, s3: float) -> float:
    # Magnitude the five monomials of the cubic discriminant add up to before
    # cancellation; the natural yardstick for "is this value really nonzero".
    return (27.0 * s3 * s3 + 4.0 * abs(s2) ** 3 + s1 * s1 * s2 * s2
            + 4.0 * abs(s1) ** 3 * abs(s3) + 18.0 * abs(s1 * s2 * s3))


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
    """
    m = _check_length(mu, 5)
    d1 = m[0] * m[2] - m[1] * m[1]
    d2 = m[1] * m[3] - m[2] * m[2]
    d3 = m[0] * m[3] - m[1] * m[2]
    return float(4.0 * d1 ** 3 * d2 - d1 * d1 * d3 * d3)


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
    mu0 != 0 (the division by mu0 inside K cancels against the mu0^4)."""
    m = _check_length(mu, 5)
    if m[0] == 0.0:
        raise ValueError("the second form needs a nonzero leading moment")
    d1 = m[0] * m[2] - m[1] * m[1]
    return float(-(m[0] ** 4 / 27.0) * d1 * d1 * K_value(m))


def quartic_Pmu(mu) -> list[float]:
    """Ascending coefficients of the degree <= 4 polynomial in t whose real
    roots are the finite endpoints of the hyperbolic parameter set of the
    one-missing-moment line at d=3; leading coefficients of at most 1e-14 of
    the largest are dropped (see :func:`poly_engine.real_roots`).

    Computed as det(M)^4 times the cubic discriminant along the line,
    expanded from sigma_j(t) = intercept_j + slope_j * t; the denominator
    clearing makes every coefficient polynomial in the moments, with
    P8_closed_form leading.

    mu may be the d=3 line itself.  Raises DegenerateHankel through
    line_params, and ValueError when det(M)^4 or a coefficient exceeds the
    double range.
    """
    _check_length(mu, 5)
    line = prony_line.line_params(mu)
    try:
        scale4 = line.detM ** 4
    except OverflowError:
        raise ValueError(
            "moments exceed double range: det M^4 overflows "
            f"(det M = {line.detM:.3e})") from None
    slopes, intercepts, _ = line._plain
    s1, s2, s3 = ([b, s] for s, b in zip(slopes, intercepts))
    s11, s22 = _mul(s1, s1), _mul(s2, s2)
    # the five monomials of discriminant_cubic_paper, in its order
    terms = ((27.0, _mul(s3, s3)), (4.0, _mul(s22, s2)), (-1.0, _mul(s11, s22)),
             (4.0, _mul(_mul(s11, s1), s3)), (-18.0, _mul(_mul(s1, s2), s3)))
    disc = [0.0] * 5
    for w, p in terms:
        for k, c in enumerate(p):
            disc[k] += w * c
    cleared = [scale4 * c for c in disc]
    if not all(map(math.isfinite, cleared)):
        raise ValueError("moments exceed double range: the quartic is not finite")
    return poly_engine._coeffs(cleared)


def _mul(p: list, q: list) -> list:
    # product of two ascending coefficient lists on plain floats, where a
    # product past the double range is inf without a warning
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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
    try:
        dom = line.domain
    except UnresolvedDomain as exc:
        logger.warning("domain evidence unavailable: %s", exc)
        return {"domain_intervals": None, "domain_all_bounded": None,
                "domain_error": str(exc)}
    return {
        "domain_intervals": dom.intervals,
        "domain_all_bounded": all(
            np.isfinite(lo) and np.isfinite(hi) for lo, hi in dom.intervals),
    }


def classify_d3(mu) -> Classification:
    """Collision iff the cleared quartic has a real root (counted by
    :func:`poly_engine.real_roots`); bounded iff K < 0, decided only while
    mu0, the top-left 2x2 Hankel determinant, and P8 are all safely nonzero.

    Whenever a pivot quantity falls inside its indeterminate band the verdict
    abstains, and the bounded verdict also where K is past the double range
    (evidence K None).  The collision verdict is given only where the
    numeric domain agrees with it, a finite endpoint for "yes" and none for
    "no", and abstains where the domain build abstains on resolution
    (evidence domain_error).  The numeric hyperbolic-set intervals are
    always attached as evidence so callers can cross-examine the
    closed-form answer.
    """
    m = _check_length(mu, 5)
    line = prony_line.line_params(mu)
    quartic = quartic_Pmu(line)
    s = _moment_scale(m)

    d1 = m[0] * m[2] - m[1] * m[1]
    d2 = m[1] * m[3] - m[2] * m[2]
    d3 = m[0] * m[3] - m[1] * m[2]
    p8 = P8_closed_form(m)
    p8_scale = 4.0 * abs(d1) ** 3 * abs(d2) + (d1 * d3) ** 2
    p8_ok = abs(p8) > _INDET_REL * max(1.0, p8_scale)
    mu0_ok = abs(m[0]) > _INDET_REL * s
    d1_ok = abs(d1) > _INDET_REL * max(1.0, abs(m[0] * m[2]) + m[1] * m[1])

    if p8_ok and len(quartic) == 5:
        n_real = len(poly_engine.real_roots(quartic))
        collision = "yes" if n_real >= 1 else "no"
    else:
        # With the leading coefficient this close to zero, or trimmed as
        # below 1e-14 of the largest one, the quartic's behaviour at
        # infinity, and with it the root count, is unreliable.
        n_real = None
        collision = "indeterminate"
    domain = _domain_evidence(line)
    if "domain_error" in domain:
        # critical values closer than the domain build resolves are a
        # near-double root of the quartic, whose count rounding decides
        collision = "indeterminate"
    elif collision != ("yes" if line.domain.endpoints else "no"):
        # the domain's finite ends are the real roots of the quartic: where
        # the two routes part, rounding decided one of them
        collision = "indeterminate"

    K = None
    if m[0] != 0.0:
        try:
            K = K_value(m)
        except ValueError:  # K past the double range: the bounded verdict abstains
            pass
    if K is None or not (mu0_ok and d1_ok and p8_ok):
        bounded = "indeterminate"
    else:
        r1, r2, r3 = 3.0 * m[1] / m[0], 3.0 * m[2] / m[0], m[3] / m[0]
        k_tol = _INDET_REL * max(1.0, _delta_term_scale(r1, r2, r3))
        if K < -k_tol:
            bounded = "yes"
        elif K > k_tol:
            bounded = "no"
        else:
            bounded = "indeterminate"

    coeffs = np.zeros(5)
    coeffs[: len(quartic)] = quartic
    evidence = {
        "detM": line.detM,
        "quartic_coefficients": tuple(float(c) for c in coeffs[::-1]),
        "P8": p8,
        "K": K,
        "real_root_count": n_real,
        "mu0_ok": mu0_ok,
        "d1_ok": d1_ok,
        "p8_ok": p8_ok,
    }
    evidence.update(domain)
    return Classification(d=3, collision=collision, bounded=bounded,
                          evidence=evidence)

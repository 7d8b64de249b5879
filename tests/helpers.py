"""Shared test utilities: tolerances, random-instance builders, strategies."""

import numpy as np
import sympy
from hypothesis import strategies as st

from prony.signal_model import Signal


# d = 4 moments mu_0..mu_7 of a signal with a close pair, whose Hankel
# matrix passes the det M policy yet is singular to LU: np.linalg.solve
# raises LinAlgError on it, stacked or alone, and the first seven alone
# give the same matrix to line_params
SINGULAR_LU_MU = [-108.45808513305067, 75.77757654947045, -60.293245125276364,
                  52.07683329618369, -47.00701295444623, 43.35910892198191,
                  -40.403751790627624, 0.5]


def relerr(a, b):
    """Relative difference scaled against max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def exact_line(mu):
    """(base, slope) of sigma(t) in exact rationals, from the float moments."""
    d = (len(mu) + 1) // 2
    m = [sympy.Rational(v) for v in mu]
    M = sympy.Matrix(d, d, lambda i, j: m[i + j])
    rhs = sympy.Matrix([-m[d + k] for k in range(d - 1)] + [0])
    base = M.LUsolve(rhs)
    slope = M.LUsolve(sympy.Matrix([0] * (d - 1) + [1]))
    return list(base)[::-1], list(slope)[::-1]


def exact_discriminant(sigma):
    """Standard discriminant of z^d + s1*z^(d-1) + ... + sd, exact from the
    rational values of the float sigma (a vector or SymmetricCoords)."""
    s = [sympy.Rational(float(v)) for v in np.asarray(getattr(sigma, "sigma", sigma), dtype=float)]
    return float(sympy.discriminant(sympy.Poly([1] + s, sympy.Symbol("z"))))


def random_signal(rng, d, min_gap=0.1, max_gap=2.0, amp_lo=0.1, amp_hi=10.0):
    x0 = rng.uniform(-3.0, 3.0)
    gaps = rng.uniform(min_gap, max_gap, size=d - 1) if d > 1 else np.empty(0)
    nodes = np.concatenate([[x0], x0 + np.cumsum(gaps)]) if d > 1 else np.array([x0])
    amps = rng.uniform(amp_lo, amp_hi, size=d) * rng.choice([-1.0, 1.0], size=d)
    return Signal(amplitudes=amps, nodes=nodes)


@st.composite
def signal_strategy(draw, min_d=1, max_d=5, min_gap=0.1):
    d = draw(st.integers(min_d, max_d))
    x0 = draw(st.floats(-3.0, 3.0, allow_nan=False))
    gaps = draw(
        st.lists(st.floats(min_gap, 2.0, allow_nan=False), min_size=d - 1, max_size=d - 1)
    )
    nodes = np.concatenate([[x0], x0 + np.cumsum(gaps)]) if d > 1 else np.array([x0])
    mags = draw(st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
    return Signal(amplitudes=np.array(mags) * np.array(signs), nodes=nodes)

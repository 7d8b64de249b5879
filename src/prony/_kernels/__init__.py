"""Kernel dispatch: compiled lane when available, pure-Python fallback.

Set ``PRONY_PURE=1`` in the environment to force the pure lane (useful for
benchmarking and for debugging suspected extension issues).  Both lanes
implement identical operation order, so results agree bit-for-bit.
"""

import os

# Both lanes read an evaluation as zero when it is at most this share of its
# Horner magnitude sum (see ``pure._EVAL_GUARD``); above it the computed sign
# is the true sign.  The compiled lane keeps the same value as a C constant.
from .pure import _EVAL_GUARD as EVAL_GUARD

if os.environ.get("PRONY_PURE"):
    from . import pure as _impl

    HAVE_FAST = False
else:
    try:
        from . import _fast as _impl  # type: ignore[attr-defined]

        HAVE_FAST = True
    except ImportError:
        from . import pure as _impl

        HAVE_FAST = False

IMPL_NAME = "fast" if HAVE_FAST else "pure"

horner = _impl.horner
poly_derivative = _impl.poly_derivative
max_abs = _impl.max_abs
trim_coeffs = _impl.trim_coeffs
shifted_coeffs = _impl.shifted_coeffs
sign_changes = _impl.sign_changes
sturm_chain = _impl.sturm_chain
chain_variations = _impl.chain_variations
chain_variations_inf = _impl.chain_variations_inf
bisect_refine = _impl.bisect_refine
newton_polish = _impl.newton_polish

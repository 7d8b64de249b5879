"""prony: spike-train reconstruction from power moments.

Solves Prony systems, parametrizes the one-dimensional solution curve that
appears when the last moment is missing, and certifies its structural
behavior numerically: node collisions with amplitude blow-up, single-node
escape to infinity, closed-form collision/boundedness classification for
d = 2 and d = 3, and the error-amplification scaling of clustered nodes
under moment noise.
"""

from .closed_forms import Classification, classify_d2, classify_d3
from .curve_analysis import (
    CollisionReport,
    CurveSample,
    EscapeReport,
    detect_collisions,
    escape_analysis,
    sample_curve,
)
from .errors import InconsistentComputation, MathDegeneracy, PronyError
from .poly_engine import budan_fourier_bound, is_hyperbolic, real_roots
from .prony_line import (
    HyperbolicDomain,
    PronyLine,
    hankel,
    hyperbolic_domain,
    lift_to_solution,
    line_params,
    projection_residuals,
)
from .prony_solver import (
    AmplificationResult,
    NoiseConfig,
    amplification_experiment,
    curve_distance,
    make_cluster_signal,
    solve_complete,
)
from .signal_model import (
    MomentVector,
    Signal,
    amplitudes_from_nodes,
    compute_moments,
    elementary_symmetric,
    vieta_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PronyError",
    "MathDegeneracy",
    "InconsistentComputation",
    "Signal",
    "MomentVector",
    "compute_moments",
    "elementary_symmetric",
    "vieta_inverse",
    "amplitudes_from_nodes",
    "real_roots",
    "is_hyperbolic",
    "budan_fourier_bound",
    "PronyLine",
    "HyperbolicDomain",
    "hankel",
    "line_params",
    "hyperbolic_domain",
    "projection_residuals",
    "lift_to_solution",
    "CurveSample",
    "CollisionReport",
    "EscapeReport",
    "sample_curve",
    "detect_collisions",
    "escape_analysis",
    "Classification",
    "classify_d2",
    "classify_d3",
    "NoiseConfig",
    "AmplificationResult",
    "solve_complete",
    "make_cluster_signal",
    "curve_distance",
    "amplification_experiment",
]

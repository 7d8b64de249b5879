"""Exception hierarchy for the prony package.

Two families matter to callers (and to the CLI exit codes):

* :class:`MathDegeneracy` subclasses signal that the requested computation is
  mathematically undefined or unavailable for the given input (singular Hankel
  matrix, no real solution, empty hyperbolic domain, ...).  CLI exit code 3.
* :class:`InconsistentComputation` signals that two routes to the same
  quantity disagreed beyond tolerance, i.e. an internal numerical
  inconsistency.  CLI exit code 4.

Plain ``ValueError`` is reserved for malformed input (CLI exit code 2).
"""


class PronyError(Exception):
    """Base class for all package-specific errors."""


class MathDegeneracy(PronyError):
    """A mathematically degenerate configuration was encountered."""


class DegenerateHankel(MathDegeneracy):
    """Hankel determinant vanishes relative to its first minors (the det M
    policy: decided exactly on the line, on M^-1 by the complete-system
    solver); the moment vector corresponds to an identical node collision
    or an identically vanishing amplitude and the line construction is
    unavailable."""


class NotHyperbolic(MathDegeneracy):
    """Coefficient vector does not define a polynomial with all roots real
    and distinct."""


class RepeatedNodes(MathDegeneracy):
    """A node appears at least twice; Lagrange denominators vanish."""


class ResidualTooLarge(MathDegeneracy):
    """A residual that the contract requires to vanish exceeded tolerance."""


class NoRealSolution(MathDegeneracy):
    """The complete system has no solution with real distinct nodes; the
    honest failure mode under measurement noise."""


class UnresolvedDomain(MathDegeneracy):
    """The hyperbolic domain is below the resolution of its build: critical
    values lie too close together to decide what lies between them, or a
    critical point and a pole are the same double."""


class EmptyDomain(MathDegeneracy):
    """The hyperbolic domain contains no interval but the caller needs one."""


class NoUnboundedComponent(MathDegeneracy):
    """No unbounded hyperbolic interval exists in the requested direction."""


class TooFewValidTrials(MathDegeneracy):
    """More than half of the noise trials failed at some cluster size."""


class InconsistentComputation(PronyError):
    """Two independent routes to the same quantity disagreed; indicates an
    internal numerical inconsistency rather than bad input."""


class InterpolationInconsistency(InconsistentComputation):
    """The expansion at infinity contradicts the hyperbolic domain: along an
    unbounded component, escape_analysis finds no real branches for the
    escaping nodes or no distinct real limits for the bounded ones, or its
    first probe there is not hyperbolic."""

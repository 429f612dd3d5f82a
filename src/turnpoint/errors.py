"""Exception hierarchy shared across the package.

Numerical routines raise instead of returning NaN so that quadrature and
root-finding layers see hard failures at poles, not poisoned sums.
"""


class TurnpointError(Exception):
    """Base class for all package errors."""


class DomainError(TurnpointError):
    """Point lies outside a potential's domain or at a pole."""


class SpecParseError(TurnpointError):
    """Malformed potential spec string."""


class ExpressionSyntaxError(TurnpointError):
    """Malformed expression source; carries the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier outside the closed function/constant set."""


class EvalError(TurnpointError):
    """Expression evaluation hit a pole or an out-of-domain argument."""


class InvalidEnergy(TurnpointError):
    """Energy at or below the well minimum (or discriminant non-positive)."""


class InvalidInput(TurnpointError):
    """Non-positive or otherwise inadmissible physical input."""


class InvalidRegion(TurnpointError):
    """Position outside the region where the quantity is defined."""


class InvalidRegime(TurnpointError):
    """Energy regime does not support the requested quantity."""


class InvalidLevel(TurnpointError):
    """Quantum number below 1."""


class NoBoundRegion(TurnpointError):
    """Fewer than two turning points found at the given energy."""


class AmbiguousWells(TurnpointError):
    """More than two turning points for a single-well potential."""


class MaxIterationsExceeded(TurnpointError):
    """Bisection failed to converge within the iteration guard."""


class QuadratureDivergence(TurnpointError):
    """Quadrature gave up: max depth, a non-integrable singularity or a non-finite f."""


class ConvergenceFailure(TurnpointError):
    """Self-consistent energy solve found no bracket or no root."""


class DegenerateNorm(TurnpointError):
    """Wavefunction norm integral too small to normalize."""


# the failures of a search or an integral, as against inadmissible input
CONVERGENCE_ERRORS = (ConvergenceFailure, QuadratureDivergence, MaxIterationsExceeded)

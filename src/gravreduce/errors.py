"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
numerical failures (integration, quadrature) exit 3.
"""


class GravreduceError(Exception):
    """Base class for all package errors."""


class DomainError(GravreduceError, ValueError):
    """Argument outside the mathematical domain of an operation (e.g. r < 0)."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a non-removable singularity."""


class BodyKindError(GravreduceError, TypeError):
    """Operation applied to the wrong body kind (point vs. sphere)."""


class AccuracyError(GravreduceError, ArithmeticError):
    """Quadrature failed to reach the requested tolerance.

    Carries the partial result and the achieved error estimate.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class BracketError(GravreduceError, ValueError):
    """Minimization bracket does not isolate a stationary point."""


class InsufficientDataError(GravreduceError, ValueError):
    """A trajectory does not contain enough events for the requested analysis."""


class IntegrationError(GravreduceError, ArithmeticError):
    """ODE integration failed (step-size underflow or non-finite force)."""


class ConfigError(GravreduceError, ValueError):
    """Invalid command-line / config-file input."""

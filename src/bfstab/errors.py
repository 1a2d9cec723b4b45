"""Semantic exception hierarchy."""

__all__ = [
    "BfstabError",
    "DomainError",
    "ParseError",
    "ConditioningError",
    "UnderflowError",
    "EvaluationError",
    "CapabilityError",
    "InvariantViolation",
]


class BfstabError(Exception):
    """Base class for library errors."""


class DomainError(BfstabError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ParseError(BfstabError, ValueError):
    """Malformed input file or inline spec; message carries line/field info."""


class ConditioningError(BfstabError, ValueError):
    """Covariance or linear system too ill-conditioned to trust."""


class UnderflowError(BfstabError, ArithmeticError):
    """A required positive quantity underflowed to zero."""


class EvaluationError(BfstabError, RuntimeError):
    """Numerical routine failed to reach its target accuracy.

    Carries the partial result when one exists (``value``/``error``
    attributes), and ``row``, the row of a batched quadrature that failed,
    or None.
    """

    def __init__(self, message, value=None, error=None, row=None):
        super().__init__(message)
        self.value = value
        self.error = error
        self.row = row


class CapabilityError(BfstabError, NotImplementedError):
    """Requested combination of inputs is out of scope for the implementation."""


class InvariantViolation(BfstabError, AssertionError):
    """A documented postcondition failed; indicates a bug, not bad input."""

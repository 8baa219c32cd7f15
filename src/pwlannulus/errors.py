"""Exception types shared across the package."""


class PwlError(Exception):
    """Base class for all errors raised by this package."""


class CanonicalizationError(PwlError):
    """Raised when no crossing dynamics exist (aL12 * aR12 <= 0)."""


class DomainError(PwlError):
    """Raised when an argument lies outside a half-map's domain of validity."""


class EmptyDomainError(PwlError):
    """Raised when an operation needs a nonempty common half-map domain."""


class PreconditionError(PwlError):
    """Raised when a structural precondition is violated."""


class NoReturnError(PwlError):
    """Raised when an orbit never returns to the switching line."""


class TangencyError(PwlError):
    """Raised when a switching-line crossing is non-transversal."""

    def __init__(self, message, t=None, y=None):
        super().__init__(message)
        self.t = t
        self.y = y


class SlidingEncounteredError(PwlError):
    """Raised when an orbit meets the sliding interval on the switching line."""


class ConvergenceError(PwlError):
    """Raised when an iterative solver exhausts its budget."""

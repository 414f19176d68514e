"""Exception hierarchy for the solver.

Every error raised by this package derives from :class:`RashbaDotError`,
so callers can catch numerical failures with a single except clause.
"""


class RashbaDotError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RashbaDotError):
    """An argument violates a documented precondition."""


class BracketInvalid(RashbaDotError):
    """Root bracket does not straddle a sign change."""


class NoConvergence(RashbaDotError):
    """An iterative scheme hit its iteration cap."""


class NotSingular(RashbaDotError):
    """Matrix passed the rank test: no nullspace at this energy."""


class RankDeficiency2(RashbaDotError):
    """Two or more pivots vanished: degenerate level, kernel dim >= 2."""

    def __init__(self, message: str, kernel_dim: int = 2):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class OrderCapExceeded(RashbaDotError):
    """Bessel order beyond the supported cap."""


class ArgumentOutOfRange(RashbaDotError):
    """Argument outside the validated domain of a special function."""


class DomainError(RashbaDotError):
    """Argument outside the mathematical domain (e.g. Re z <= 0 for K)."""


class WindowViolation(RashbaDotError):
    """Energy outside the open bound-state window."""


class BelowWindow(WindowViolation):
    """Energy at or below the lower window edge."""


class AboveWindow(WindowViolation):
    """Energy at or above the upper window edge."""


class NotNormalized(RashbaDotError):
    """Operation requires a normalized bound state."""


class DegenerateState(RashbaDotError):
    """Normalization integral vanished; not a genuine bound state."""


class BoundaryPoint(RashbaDotError):
    """Residual evaluation requested exactly at r = 0 or r = 1."""

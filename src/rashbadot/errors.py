"""Exception hierarchy for the solver.

Every error raised by this package derives from :class:`RashbaDotError`,
so callers can catch all of them with a single except clause.  The three
subclasses are the three outcomes a caller acts on differently; the
message carries the detail.
"""


class RashbaDotError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RashbaDotError):
    """An argument violates a documented precondition: a parameter that is
    not finite, an energy outside the open bound-state window, a state
    that is not normalized, a radius where the residual is undefined."""


class ArgumentOutOfRange(RashbaDotError):
    """A valid problem outside the validated domain: a Bessel order or
    argument beyond its cap, a K argument with Re z <= 0, or a window that
    double precision or the scan cannot resolve."""


class NumericalFailure(RashbaDotError):
    """A numerical scheme failed on valid input: no sign change, no
    convergence, an energy that is not a level, or a degenerate one."""

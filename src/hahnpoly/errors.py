"""Exception types raised by the library.

Everything derives from HahnPolyError so callers can catch one base class.
Construction-time parameter problems raise DomainError; the more specific
subclasses mark conditions a caller may want to handle individually.
"""


class HahnPolyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HahnPolyError):
    """A parameter is outside the domain an operation supports."""


class DegreeOutOfRangeError(DomainError):
    """A polynomial degree is not an integer in 0..N."""


class NonTerminatingError(DomainError):
    """The leading series parameter does not force termination."""


class ZeroDenominatorError(DomainError):
    """A denominator Pochhammer factor hits zero before the series ends."""


class DegenerateRecurrenceError(HahnPolyError):
    """A recurrence coefficient is not finite in double precision."""


class DegenerateIntervalError(DomainError):
    """An interval [a, b] with a >= b was supplied."""


class LengthMismatchError(DomainError):
    """Two grid quantities that must share a grid do not."""


class ZeroLambdaError(DomainError):
    """A decay bound with k >= 1 was requested at eigenvalue zero."""


class ConvergenceFailureError(HahnPolyError):
    """An iterative solve failed to reach tolerance."""

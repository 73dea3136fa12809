"""Exception types shared across the package, and the integer check.

Errors are grouped by outcome, and a handler catches the group's base class:
InvalidParameter, exit 2 (NotSymmetric is one); NotPositiveDefinite, exit 3
(NonPositiveVariance is one), as for NonConvergence; NotAdmissibleClassical,
exit 5 (DegenerateBeta is one), as for NotInRegion.  NotApplicable never
leaves ``bounds.report``, which records it as an absent bound.
"""

import numbers


class GaussdecError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidParameter(GaussdecError, ValueError):
    """An argument violates a documented precondition (shape, range, format)."""


class NotSymmetric(InvalidParameter):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(GaussdecError):
    """A matrix failed the Cholesky positive-definiteness test."""


class NonPositiveVariance(NotPositiveDefinite):
    """A covariance matrix has a diagonal entry that is not strictly positive."""


class NonConvergence(GaussdecError):
    """An iterative eigenvalue computation exceeded its iteration cap."""


class NotAdmissibleClassical(GaussdecError):
    """The exponent p is below the classical threshold beta_bar * p(X)."""


class DegenerateBeta(NotAdmissibleClassical):
    """The variance-ratio parameter collapsed to 1; the classical constant
    requires it to be strictly larger."""


class NotInRegion(GaussdecError):
    """The exponent p is outside the admissible region, or too close to a
    breakpoint for the region constant to be meaningful."""


class NotApplicable(GaussdecError):
    """The hypothesis of the requested bound (strict diagonal dominance)
    does not hold for the given matrix."""


def as_int(value, name: str) -> int:
    """``value`` as an int for an integer field or count; booleans,
    non-integral numbers and whatever ``int`` refuses (``"2.5"``, None, a
    list) raise InvalidParameter instead of truncating or escaping."""
    lossy = isinstance(value, bool) or (
        isinstance(value, numbers.Real)
        and not isinstance(value, numbers.Integral)
        and not float(value).is_integer()
    )
    if not lossy:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")

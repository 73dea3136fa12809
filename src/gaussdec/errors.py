"""Exception types shared across the package, and the JSON integer check."""


class GaussdecError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidParameter(GaussdecError, ValueError):
    """An argument violates a documented precondition (shape, range, format)."""


class NotSymmetric(GaussdecError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(GaussdecError):
    """A matrix failed the Cholesky positive-definiteness test."""


class NonPositiveVariance(GaussdecError):
    """A covariance matrix has a diagonal entry that is not strictly positive."""


class NonConvergence(GaussdecError):
    """An iterative eigenvalue computation exceeded its iteration cap."""


class DegenerateBeta(GaussdecError):
    """The variance-ratio parameter collapsed to 1; the classical constant
    requires it to be strictly larger."""


class NotAdmissibleClassical(GaussdecError):
    """The exponent p is below the classical threshold beta_bar * p(X)."""


class NotInRegion(GaussdecError):
    """The exponent p is outside the admissible region, or too close to a
    breakpoint for the region constant to be meaningful."""


class NotApplicable(GaussdecError):
    """The hypothesis of the requested bound (strict diagonal dominance)
    does not hold for the given matrix."""


def as_int(value, name: str) -> int:
    """``value`` as an int for an integer field of a JSON document; booleans,
    non-integral numbers and whatever ``int`` refuses (``"2.5"``, None, a
    list) raise InvalidParameter instead of truncating or escaping."""
    lossy = isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    if not lossy:
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise InvalidParameter(f"{name} must be an integer, got {value!r}")

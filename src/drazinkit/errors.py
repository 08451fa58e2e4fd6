"""Exception types shared across the toolkit."""


class DrazinkitError(Exception):
    """Base class for every error raised by this package."""


# Rational division by zero is the built-in error; re-exported so callers
# can catch it under the package vocabulary.
DivisionByZero = ZeroDivisionError


class ZeroPolynomial(DrazinkitError):
    """An operation requiring a nonzero polynomial received the zero polynomial."""


class RingMismatch(DrazinkitError):
    """Two operands live over different coefficient rings."""


class DimensionMismatch(DrazinkitError):
    """Two matrices have incompatible dimensions."""


class NotAField(DrazinkitError):
    """An operation requiring a field coefficient ring got a non-field ring."""


class NotInvertible(DrazinkitError):
    """The matrix is not a unit of its matrix ring.

    ``reason`` explains why: rank deficiency over a field, or a determinant
    that is not a unit of the coefficient ring.
    """

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason


class NoGroupInverse(DrazinkitError):
    """The element is Drazin invertible only with index >= 2."""


class RelationViolation(DrazinkitError):
    """A candidate quadruple fails an intertwining relation.

    ``report`` is the IntertwiningReport pinpointing the failing relation.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FormulaViolation(DrazinkitError):
    """Defensive check failed: a verified identity did not hold.

    Raising this is always an implementation bug, never expected behavior.
    """


class UnsupportedRing(DrazinkitError):
    """The coefficient ring is outside the operation's supported kinds."""


class ZeroLambda(DrazinkitError):
    """A spectral sample point lambda must be nonzero."""


class BudgetExceeded(DrazinkitError):
    """An enumeration or search would exceed its budget."""


class NoSolution(DrazinkitError):
    """A linear matrix equation is inconsistent."""

"""Exception types raised across the package.

Every error that callers are expected to catch derives from
:class:`InvstabError`.  Most also derive from :class:`ValueError` (bad
input) or :class:`ArithmeticError` (impossible arithmetic request), so
generic handlers keep working.
"""


class InvstabError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(InvstabError, ValueError):
    """The requested characteristic is not a prime number."""


class PrimeTooLarge(InvstabError, ValueError):
    """The requested characteristic exceeds the supported bound."""


class DegreeTooLarge(InvstabError, ValueError):
    """The requested extension degree exceeds the supported bound."""


class ReducibleModulus(InvstabError, ValueError):
    """An extension modulus factors over its base field."""


class NotMonic(InvstabError, ValueError):
    """A modulus that must be monic is not."""


class DepthExceeded(InvstabError, ValueError):
    """Building the extension would exceed the supported tower depth."""


class CtxMismatch(InvstabError, ValueError):
    """Operands belong to different field contexts."""


class DivisionByZero(InvstabError, ZeroDivisionError):
    """Inversion or division by the zero element or zero polynomial."""


class NotInTower(InvstabError, ValueError):
    """The named subfield is not on the base chain of the given field."""


class BothZero(InvstabError, ValueError):
    """An input pair that must not vanish simultaneously is (0, 0)."""


class ZeroModulus(InvstabError, ZeroDivisionError):
    """Modular polynomial arithmetic was asked to reduce mod zero."""


class ConstantPolynomial(InvstabError, ValueError):
    """A polynomial of positive degree is required."""


class GcdNotOne(InvstabError, ArithmeticError):
    """An iterate fraction came out non-reduced; this indicates a bug."""


class IterationTooLarge(InvstabError, ValueError):
    """The requested iterate would exceed the configured degree cap."""


class TableTooLarge(InvstabError, ValueError):
    """A trace table to print has more rows than the output budget."""


class IrreducibilityHypothesisViolated(InvstabError, ValueError):
    """The supplied xi has trace zero, so X^p - X + xi is reducible."""


class NotCharTwo(InvstabError, ValueError):
    """The operation is only defined in characteristic two."""


class AZero(InvstabError, ValueError):
    """The linear coefficient a must be nonzero."""


class NotGenerating(InvstabError, ValueError):
    """The element does not generate the extension over the subfield."""

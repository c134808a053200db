"""Exception hierarchy shared by all modules, and the one int check."""


class EdwardsError(Exception):
    """Base class for all library errors."""


class DivisionByZero(EdwardsError, ZeroDivisionError):
    """Inversion (or division) of the zero element."""


class FieldMismatch(EdwardsError, ValueError):
    """Operands belong to fields with different moduli."""


class NotASquare(EdwardsError, ValueError):
    """Square root requested for a quadratic non-residue."""


class InvalidCurve(EdwardsError, ValueError):
    """Degenerate curve parameters (a*d*(a-d) = 0 or similar)."""


class InvalidTwist(EdwardsError, ValueError):
    """Quadratic twist requested with a square scaling factor."""


class ExceptionalPair(EdwardsError, ArithmeticError):
    """Point addition hit a vanishing denominator: the true sum is a
    singular point at infinity, which the affine law does not represent."""


class ExceptionalInput(EdwardsError, ArithmeticError):
    """Rational map evaluated at a pole (vanishing denominator)."""


class NotOnCurve(EdwardsError, ValueError):
    """Coordinates do not satisfy the curve equation."""


class DeskScaleOnly(EdwardsError, ValueError):
    """Operation requires exhaustive enumeration and the field is too large."""


class BadKernelGenerator(EdwardsError, ValueError):
    """Kernel generator does not have the exact order required."""


class EvenDegreeUnsupported(EdwardsError, ValueError):
    """Only odd isogeny degrees are supported."""


class SetupFailed(EdwardsError, RuntimeError):
    """Protocol parameter generation exhausted its sampling budget."""


class ProtocolError(EdwardsError, ValueError):
    """Malformed public key, JSON document or other protocol input."""


class InvalidParameter(EdwardsError, ValueError):
    """A modulus, exponent, subgroup degree, search bound or search
    variant that the library does not accept."""


def check_int(value, name: str, error: type = InvalidParameter):
    """`error` naming `name` unless value is an int.  A bool is refused,
    though Python counts it an int: True for a count or secret is a slip."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} {value!r} is not an int")

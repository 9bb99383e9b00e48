"""Exception types shared across the package."""


class ProtekError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(ProtekError, ValueError):
    """An argument is outside the range the operation is defined on."""


def check_int(name: str, value, lo: int) -> None:
    """Raise InvalidArgument unless ``value`` is an int (not a bool) >= lo."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgument(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise InvalidArgument(f"{name} must be >= {lo}")


class OrderMismatch(ProtekError):
    """Two series with different truncation orders were combined."""


class ValuationError(ProtekError):
    """Composition needs an inner series with no constant term."""


class UnknownFamily(ProtekError):
    """The requested builtin family name is not registered."""


class InvalidWeights(ProtekError):
    """A user-supplied weight sequence violates a family invariant."""


class PeriodMismatch(ProtekError):
    """No trees exist at this size: the total weight y_n is 0.

    That holds for every n != 1 mod the period D, and can hold for some
    n = 1 mod D as well (w1 = 0 leaves no tree of size 2)."""


class CapExceeded(ProtekError):
    """Brute-force enumeration was requested above the size cap."""


class NoTau(ProtekError):
    """t*Phi'(t) = Phi(t) has no root below the radius of convergence,
    so the family is outside the class this package analyzes."""


class WrongRegime(ProtekError):
    """The operation belongs to the other regime (w1 = 0 vs w1 != 0)."""


class NoConvergence(ProtekError):
    """An iterative solve failed; carries the last iterate for diagnosis."""

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate

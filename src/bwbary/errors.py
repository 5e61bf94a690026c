"""Exception types shared across the package, and scalar checks that import no numpy."""

import numbers


class InvalidInput(ValueError):
    """Input violates a documented precondition (bad shape, non-finite entries, bad flags)."""


class DimensionMismatch(InvalidInput):
    """Operands do not share the same dimension."""


class NotPSD(InvalidInput):
    """Matrix fails the positive-semidefiniteness tolerance."""


class KernelNotIncluded(Exception):
    """Kernel-inclusion precondition for an optimal transport map fails.

    Raised when ker(A) is not contained in ker(B), in which case no linear
    transport map from the centred Gaussian with covariance A to the one with
    covariance B exists.
    """


class NonFinite(ArithmeticError):
    """A numerical computation produced NaN or infinity (e.g. a diverging iteration)."""


def check_integer(x, name: str, least: int):
    """``x`` if it is an integer ``>= least`` (numpy's count, ``bool`` does not); else raise."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < least:
        raise InvalidInput(f"{name} must be an integer >= {least}")
    return x


def is_real(x) -> bool:
    """Whether ``x`` is a real number: numpy's floats and ints are, ``bool`` and strings not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)

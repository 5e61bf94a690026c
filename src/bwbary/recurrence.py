"""Scalar recurrences that certify nonvanishing of would-be kernel coordinates.

A vector mapped by the shift-based PSD map into the kernel of the singular
covariance has coordinates obeying ``x_{4k} = -2 x_{2k} - x_k`` along each
doubling orbit.  Writing ``y_j`` for the coordinate at the j-th doubling of a
fixed start index gives a three-term recurrence whose characteristic
polynomial is ``1 + 2t + t**2`` (sign "plus") or ``1 - 2t + t**2`` (sign
"minus", arising for the mirrored map ``I - (F + F^T)/2``).  Both have a
double root on the unit circle, so the general solution is an alternating or
plain affine sequence in j; it tends to zero only if it is identically zero.
This module iterates the recurrence, evaluates the closed form, and extracts
an explicit nonvanishing witness, giving two independent routes that
cross-check each other.

Both routes compute on Python floats (:func:`iterate`, :func:`closed_form`),
whose arithmetic is IEEE double precision, the same operations as float64:
the terms have the bits a numpy loop gives them.  The public
:func:`kernel_recurrence_solve` and :func:`generating_coefficients` make
float64 arrays of them at the API boundary, and only they import numpy, so
``bwbary recurrence`` runs without it.
"""

from dataclasses import dataclass
from math import ceil, isfinite

from .errors import InvalidInput, check_integer, is_real

SIGNS = ("plus", "minus")


@dataclass(frozen=True)
class RecurrenceParams:
    """Seeds, denominator sign and horizon for the doubling recurrence.

    ``sign="plus"`` selects ``y_j = -2 y_{j-1} - y_{j-2}`` (denominator
    ``1 + 2t + t**2``); ``sign="minus"`` selects ``y_j = +2 y_{j-1} - y_{j-2}``
    (denominator ``1 - 2t + t**2``).  ``horizon`` is the largest index J
    computed, an integer >= 2 that a float can hold; sequences have length
    J + 1.  The seeds must be finite real numbers that a float can hold (an
    int beyond the float range, a ``bool`` and a string are not), and so must
    be twice :meth:`term_bound`, the closed form's bound on every term: the
    iteration doubles a term before it subtracts the one before.  The seeds
    are kept as Python floats and the horizon as an int.
    """

    y0: float
    y1: float
    sign: str = "plus"
    horizon: int = 30

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise InvalidInput(f"sign must be one of {SIGNS}")
        check_integer(self.horizon, "horizon", 2)
        if not _fits_float(self.horizon):
            raise InvalidInput("horizon must be an integer >= 2 that a float can hold")
        if not all(is_real(y) and _fits_float(y) for y in (self.y0, self.y1)):
            raise InvalidInput("y0 and y1 must be finite real numbers")
        # Python numbers overflow to inf without a warning, where numpy
        # scalars would warn
        for name, kind in (("y0", float), ("y1", float), ("horizon", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if not isfinite(2.0 * self.term_bound()):
            raise InvalidInput("the seeds are too large for the horizon: "
                               "2 (|b| + |a| (horizon + 1)) overflows")

    def affine_coefficients(self) -> tuple:
        """Slope/offset pair (a, b) of the closed form.

        For sign "plus": ``a = -y0 - y1``, ``b = 2 y0 + y1`` and
        ``y_j = (-1)**j * (b + a * (j + 1))``.  For sign "minus" the mirrored
        partial fractions give ``a = y1 - y0``, ``b = 2 y0 - y1`` and
        ``y_j = b + a * (j + 1)``.
        """
        if self.sign == "plus":
            return -self.y0 - self.y1, 2.0 * self.y0 + self.y1
        return self.y1 - self.y0, 2.0 * self.y0 - self.y1

    def term_bound(self) -> float:
        """``|b| + |a| (horizon + 1)``: the closed form's bound on every computed ``|y_j|``."""
        a, b = self.affine_coefficients()
        return abs(b) + abs(a) * (self.horizon + 1)


def _fits_float(x) -> bool:
    """``math.isfinite(x)``, and False for an int beyond the float range, where it raises."""
    try:
        return isfinite(x)
    except OverflowError:
        return False


def iterate(params: RecurrenceParams) -> list:
    """The iterated terms ``y_0 .. y_J`` as Python floats."""
    y = [params.y0, params.y1]
    two = -2.0 if params.sign == "plus" else 2.0
    for j in range(2, params.horizon + 1):
        y.append(two * y[j - 1] - y[j - 2])
    return y


def closed_form(params: RecurrenceParams) -> list:
    """The closed-form terms ``y_0 .. y_J`` as Python floats."""
    a, b = params.affine_coefficients()
    affine = [b + a * (j + 1.0) for j in range(params.horizon + 1)]
    if params.sign == "plus":
        # +0.0 normalizes the -0.0 produced by negating exact zeros
        return [(t if j % 2 == 0 else -t) + 0.0 for j, t in enumerate(affine)]
    return affine


def kernel_recurrence_solve(params: RecurrenceParams) -> "numpy.ndarray":
    """Iterate the recurrence, as a float64 array; exact for integer seeds up to J=40."""
    import numpy as np

    return np.array(iterate(params), dtype=np.float64)


def generating_coefficients(params: RecurrenceParams) -> "numpy.ndarray":
    """Closed-form sequence from the partial-fraction expansion of the generating function.

    A float64 array with the bits of :func:`closed_form`.
    """
    import numpy as np

    return np.array(closed_form(params), dtype=np.float64)


@dataclass(frozen=True)
class GrowthWitness:
    """Explicit nonvanishing certificate for a recurrence solution.

    ``kind`` is ``"zero"`` (both seeds zero: the sequence vanishes
    identically), ``"bounded"`` (slope zero: ``|y_j|`` is the constant
    ``floor``), or ``"linear"`` (``|y_j| >= slope * j / 2`` for all
    ``j >= start_index``).  ``holds`` reports that the claimed bound was
    verified on the computed sequence out to the checked horizon.
    """

    kind: str
    start_index: int
    slope: float
    floor: float
    holds: bool

    @property
    def all_zero(self) -> bool:
        return self.kind == "zero"


def growth_witness(params: RecurrenceParams) -> GrowthWitness:
    """Certify that a nonzero solution cannot tend to zero.

    The closed form is affine (up to sign) in j, so a nonzero solution is
    eventually bounded below by half its linear term, from the explicit index
    ``start_index = ceil(2 (|b| - |a|) / |a|)`` on; a zero-slope solution is
    constant in absolute value.  The bound is additionally verified on the
    computed terms out to ``max(horizon, start_index + 8)``.
    """
    a, b = params.affine_coefficients()
    if a == 0.0 and b == 0.0:
        return GrowthWitness(kind="zero", start_index=0, slope=0.0, floor=0.0, holds=True)
    if a == 0.0:
        holds = all(abs(abs(t) - abs(b)) <= 1e-9 * max(1.0, abs(b)) for t in iterate(params))
        return GrowthWitness(kind="bounded", start_index=0, slope=0.0, floor=abs(b), holds=holds)
    ratio = 2.0 * (abs(b) - abs(a)) / abs(a)
    if not isfinite(ratio):
        raise InvalidInput("slope is too small to certify growth at a finite index")
    j0 = max(0, ceil(ratio))
    # evaluate the closed form pointwise; j0 can be far beyond any horizon
    # worth materializing when the slope nearly cancels the offset
    check = list(range(j0, j0 + 9)) + list(range(j0, params.horizon + 1))
    holds = all(
        abs(b + a * (j + 1.0)) >= 0.5 * abs(a) * j - 1e-12 for j in check
    )
    return GrowthWitness(kind="linear", start_index=j0, slope=abs(a), floor=0.0, holds=holds)

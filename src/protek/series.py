"""Exact truncated power-series arithmetic with rational coefficients.

Every series is truncated at a fixed order N and carries exactly N + 1
coefficients.  Coefficients are ``fractions.Fraction`` values, so all
arithmetic is exact: probabilities produced downstream are reproducible
to any number of printed digits, and tree counts that grow like c^n are
held without rounding.

The Cauchy product scales each operand to integers over the lcm of its
coefficient denominators, convolves the integers schoolbook-style in
O(N^2), and divides once per output coefficient.  Truncation orders stay
in the low hundreds everywhere in this package, so nothing faster than
schoolbook is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Iterable, List, Sequence, Tuple, Union

from .errors import InvalidArgument, OrderMismatch, ValuationError, check_int

Coefficient = Union[int, Fraction]
PhiCoeffs = Union[Sequence[Coefficient], Callable[[int], Coefficient]]


def _coerce(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _scaled(coeffs: Tuple[Fraction, ...]) -> Tuple[List[int], int]:
    """Integers ``c * d`` for every coefficient ``c``, and their common
    denominator ``d``, the lcm of the coefficient denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


class TruncatedSeries:
    """A formal power series truncated at a fixed order.

    ``coeffs[n]`` is the coefficient of x^n and ``len(coeffs) == order + 1``.
    Instances are immutable; operations return new series of the same
    order, so values can be shared freely between threads.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient]):
        cs = tuple(_coerce(c) for c in coeffs)
        if not cs:
            raise InvalidArgument("a truncated series needs at least a constant term")
        self._coeffs = cs

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        check_int("order", order, 0)
        return cls([0] * (order + 1))

    @classmethod
    def constant(cls, value: Coefficient, order: int) -> "TruncatedSeries":
        check_int("order", order, 0)
        return cls([value] + [0] * order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        """The series x, truncated at ``order`` (which must be >= 1)."""
        check_int("order", order, 1)
        return cls([0, 1] + [0] * (order - 1))

    # -- accessors ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int) -> Fraction:
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __iter__(self):
        return iter(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        if self.order + 1 > 8:
            shown += ", ..."
        return f"TruncatedSeries(order={self.order}, [{shown}])"

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._coeffs)

    # -- arithmetic --------------------------------------------------

    def _check_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise OrderMismatch(
                f"orders differ: {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(a + b for a, b in zip(self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(a - b for a, b in zip(self._coeffs, other._coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self._coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product truncated at the common order."""
        self._check_order(other)
        a, da = _scaled(self._coeffs)
        b, db = _scaled(other._coeffs)
        d = da * db
        return TruncatedSeries(
            Fraction(sum(map(mul, a[: m + 1], b[m::-1])), d)
            for m in range(len(a))
        )

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (must not exceed self.order)."""
        check_int("order", order, 0)
        if order > self.order:
            raise OrderMismatch(
                f"cannot extend a series truncated at {self.order} to {order}"
            )
        return TruncatedSeries(self._coeffs[: order + 1])


def compose_phi(phi_coeffs: PhiCoeffs, inner: TruncatedSeries) -> TruncatedSeries:
    """Evaluate Phi(inner) truncated at ``inner.order``.

    ``phi_coeffs`` supplies the coefficients of Phi, either as a sequence
    (missing entries count as 0) or as a callable j -> coefficient.  Phi
    may have infinitely many nonzero coefficients; because the inner
    series must have no constant term, only indices 0..order contribute,
    and the result equals the Horner evaluation of the degree-``order``
    truncation of Phi at ``inner``.
    """
    if inner[0] != 0:
        raise ValuationError(
            "inner series has nonzero constant term; composition with an "
            "infinite coefficient stream is only defined at valuation >= 1"
        )
    n = inner.order
    if callable(phi_coeffs):
        get = phi_coeffs
    else:
        seq = phi_coeffs

        def get(j: int):
            return seq[j] if j < len(seq) else 0

    acc = TruncatedSeries.constant(get(n), n)
    for j in range(n - 1, -1, -1):
        # adding the constant get(j) changes coefficient 0 alone
        c0, *rest = (acc * inner)._coeffs
        acc = TruncatedSeries((c0 + _coerce(get(j)), *rest))
    return acc

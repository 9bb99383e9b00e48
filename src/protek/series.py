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

``compose_phi`` evaluates Phi(inner) by Horner's rule on integers over a
single denominator.  It starts at degree order // v, v the valuation of
the inner series, because every higher power of inner vanishes through
the order, and it cancels the common factor of the accumulator once per
step.  Only the result becomes Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    may have infinitely many nonzero coefficients.  The inner series must
    have no constant term; with valuation v, inner^j vanishes below
    x^(order+1) once j*v > order, so only c_0..c_top with
    top = order // v contribute (top = 0 for the zero series), and the
    result equals the Horner evaluation of that truncation of Phi.

    Horner runs on integers: the accumulator is ``b / scale``, inner is
    scaled once to integers over its denominator d, and every c_j over q,
    the lcm of the denominators of c_0..c_top.  Each step convolves from
    index v, multiplies ``scale`` by d, adds c_j and cancels the gcd of
    ``scale // q`` and every ``b``, so ``scale`` stays a multiple of q and
    does not grow like d^top.  Each coefficient becomes a Fraction once,
    at the end.
    """
    if inner[0] != 0:
        raise ValuationError(
            "inner series has nonzero constant term; composition with an "
            "infinite coefficient stream is only defined at valuation >= 1"
        )
    n = inner.order
    s, d = _scaled(inner._coeffs)
    v = next((i for i, c in enumerate(s) if c), 0)
    top = n // v if v else 0
    if callable(phi_coeffs):
        cs = [_coerce(phi_coeffs(j)) for j in range(top + 1)]
    else:
        cs = [_coerce(c) for c in phi_coeffs[: top + 1]]
        cs += [Fraction(0)] * (top + 1 - len(cs))
    q = lcm(*(c.denominator for c in cs))
    scale = q
    b = [cs[top].numerator * (q // cs[top].denominator)] + [0] * n
    for j in range(top - 1, -1, -1):
        b = [0] * v + [
            sum(map(mul, s[v : m + 1], b[m - v :: -1])) for m in range(v, n + 1)
        ]
        scale *= d
        b[0] += cs[j].numerator * (scale // cs[j].denominator)
        g = gcd(scale // q, *b)
        if g > 1:
            scale //= g
            b = [c // g for c in b]
    return TruncatedSeries(Fraction(c, scale) for c in b)

"""Deterministic text rendering for exact rationals and mpmath reals.

Rationals are rendered by integer arithmetic (no float round trip), so
the printed probabilities carry as many correct digits as requested.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

SIGNIFICANT_DIGITS = 17


def _floor_log10(q: Fraction) -> int:
    n, d = q.numerator, q.denominator
    # q lies in [10^(e-1), 10^(e+1)), so e is floor(log10(q)) or one more
    e = len(str(n)) - len(str(d))
    ten = Fraction(10)
    while ten**e > q:
        e -= 1
    return e


def rational_to_decimal(q: Fraction) -> str:
    """Exact decimal form of q with SIGNIFICANT_DIGITS significant digits.

    Rounds half to even; exact integers render without a fraction part,
    and magnitudes below 1e-4 switch to scientific notation.
    """
    sign = "-" if q < 0 else ""
    q = abs(q)
    if q.denominator == 1:
        return sign + str(q.numerator)
    e = _floor_log10(q)
    scaled = q / Fraction(10) ** (e - SIGNIFICANT_DIGITS + 1)
    num, den = scaled.numerator, scaled.denominator
    digits, rem = divmod(num, den)
    twice = 2 * rem
    if twice > den or (twice == den and digits % 2 == 1):
        digits += 1
    if digits >= 10**SIGNIFICANT_DIGITS:
        digits //= 10
        e += 1
    ds = str(digits)
    if -4 <= e < SIGNIFICANT_DIGITS:
        if e >= 0:
            int_part, frac_part = ds[: e + 1], ds[e + 1 :]
            return sign + int_part + ("." + frac_part if frac_part else "")
        return sign + "0." + "0" * (-e - 1) + ds
    return f"{sign}{ds[0]}.{ds[1:]}e{e}"


def rational_pair(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def real_str(x) -> str:
    """Deterministic decimal form of an mpmath float, SIGNIFICANT_DIGITS long."""
    return mp.nstr(mp.mpf(x), SIGNIFICANT_DIGITS)


def fraction_to_mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator

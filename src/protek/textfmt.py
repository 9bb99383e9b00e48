"""Deterministic text rendering for exact rationals and mpmath reals.

This module alone decides how a number becomes text.  Rationals are
rounded by exact Fraction arithmetic (no float round trip), so the printed
probabilities carry as many correct digits as requested.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

SIGNIFICANT_DIGITS = 17


def rational_to_decimal(q: Fraction) -> str:
    """Exact decimal form of q with SIGNIFICANT_DIGITS significant digits.

    Rounds half to even; exact integers render without a fraction part,
    and magnitudes below 1e-4 switch to scientific notation.
    """
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    q = abs(q)
    # q lies in [10^(e-1), 10^(e+1)), so floor(log10(q)) is e or e - 1
    e = len(str(q.numerator)) - len(str(q.denominator))
    if Fraction(10) ** e > q:
        e -= 1
    # round() of a Fraction is exact and rounds half to even
    digits = round(q / Fraction(10) ** (e - SIGNIFICANT_DIGITS + 1))
    if digits == 10**SIGNIFICANT_DIGITS:  # rounding carried into a new digit
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
    """Deterministic decimal form of an mpmath float, SIGNIFICANT_DIGITS long.

    x is rounded to 53 bits first, whatever precision is active at the call.
    """
    return mp.nstr(mp.mpf(x, prec=53), SIGNIFICANT_DIGITS)


def fraction_to_mpf(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from protek import cdf_asymptotic, family_constants, make_builtin
from protek.textfmt import SIGNIFICANT_DIGITS, rational_to_decimal, real_str

E18 = 10**18


@pytest.mark.parametrize(
    "q, text",
    [
        pytest.param(Fraction(0), "0", id="zero"),
        pytest.param(Fraction(-7), "-7", id="negative-integer"),
        pytest.param(Fraction(1, 2), "0.50000000000000000", id="half"),
        pytest.param(Fraction(-1, 3), "-0.33333333333333333", id="negative-third"),
        # rounding up to 10^17 digits carries into the exponent
        pytest.param(Fraction(999999999999999995, E18), "1.0000000000000000", id="carry"),
        pytest.param(Fraction(123456789012345675, E18), "0.12345678901234568",
                     id="tie-up-to-even"),
        pytest.param(Fraction(123456789012345665, E18), "0.12345678901234566",
                     id="tie-down-to-even"),
        pytest.param(Fraction(1, 10**4), "0.00010000000000000000", id="1e-4-fixed"),
        pytest.param(Fraction(1, 10**5), "1.0000000000000000e-5", id="1e-5-scientific"),
        pytest.param(Fraction(10**17) + Fraction(1, 2), "1.0000000000000000e17",
                     id="1e17-scientific"),
    ],
)
def test_exact_strings(q, text):
    assert rational_to_decimal(q) == text


def _floor_log10(q: Fraction) -> int:
    e = math.floor(math.log10(q.numerator) - math.log10(q.denominator))
    while Fraction(10) ** e > q:
        e -= 1
    while Fraction(10) ** (e + 1) <= q:
        e += 1
    return e


magnitudes = st.builds(
    lambda q, k: q * Fraction(10) ** k,
    st.fractions(max_denominator=10**30).filter(bool),
    st.integers(-40, 40),
)
# exact halves of a unit in the 17th significant digit, of either sign
ties = st.builds(
    lambda d, k, s: s * Fraction(2 * d + 1, 2) * Fraction(10) ** k,
    st.integers(10**16, 10**17 - 1),
    st.integers(-40, 40),
    st.sampled_from((1, -1)),
)


@given(st.one_of(magnitudes, ties))
def test_within_half_a_unit_of_the_last_digit(q):
    rendered = Fraction(rational_to_decimal(q))
    unit = Fraction(10) ** (_floor_log10(abs(q)) - SIGNIFICANT_DIGITS + 1)
    assert abs(rendered - q) <= unit / 2
    # exact integers print in full; round() on a Fraction is exact half-to-even
    assert rendered == (q if q.denominator == 1 else round(q / unit) * unit)


@pytest.mark.parametrize("value", [
    pytest.param(lambda: mp.mpf(1) / 3, id="one-third"),
    pytest.param(lambda: cdf_asymptotic(
        family_constants(make_builtin("plane"), 300), 50, 4), id="plane-cdf"),
])
def test_real_str_ignores_the_ambient_precision(value):
    with mp.workprec(300):
        x = value()
        inside = real_str(x)
    assert real_str(x) == inside

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import InvalidArgument, OrderMismatch, TruncatedSeries, ValuationError, compose_phi
from conftest import catalan


def S(*coeffs):
    return TruncatedSeries(coeffs)


class TestAdd:
    def test_additive_identity(self):
        assert S(1, 1) + S(0, 0) == S(1, 1)

    def test_disjoint_supports(self):
        assert S(1, 0, 2) + S(0, 3, 0) == S(1, 3, 2)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            S(1, 1) + S(1, 1, 1)


class TestInvalidArgument:
    def test_empty_series(self):
        with pytest.raises(InvalidArgument):
            TruncatedSeries(())

    @pytest.mark.parametrize("order", [0, -1])
    def test_x_needs_order_at_least_one(self, order):
        with pytest.raises(InvalidArgument):
            TruncatedSeries.x(order)


class TestMul:
    def test_difference_of_squares(self):
        assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)

    def test_truncation_drops_high_terms(self):
        assert S(0, 1) * S(0, 1) == S(0, 0)

    def test_catalan_shift(self):
        # x*C(x)^2 reproduces the Catalan tail, by the convolution recurrence
        cs = [catalan(i) for i in range(4)]
        c = TruncatedSeries(cs)
        x = TruncatedSeries.x(3)
        assert x * c * c == S(0, cs[1], cs[2], cs[3])

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            S(1, 1) * S(1, 1, 1)


class TestComposePhi:
    def test_geometric_of_x(self):
        ones = lambda j: 1
        assert compose_phi(ones, TruncatedSeries.x(3)) == S(1, 1, 1, 1)

    def test_one_plus_square(self):
        inner = S(0, 1, 1, 0)
        assert compose_phi([1, 0, 1], inner) == S(1, 0, 1, 2)

    def test_exponential_coefficients(self):
        phi = lambda j: Fraction(1, factorial(j))
        got = compose_phi(phi, TruncatedSeries.x(2))
        assert got == TruncatedSeries([1, 1, Fraction(1, 2)])

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValuationError):
            compose_phi([1, 1], S(1, 1))


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def series_strategy(order):
    return st.lists(
        small_fraction, min_size=order + 1, max_size=order + 1
    ).map(TruncatedSeries)


@settings(max_examples=60)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40)
@given(
    st.lists(small_fraction, min_size=1, max_size=6),
    st.lists(small_fraction, min_size=5, max_size=5),
)
def test_compose_matches_horner_by_hand(phi, inner_tail):
    inner = TruncatedSeries([Fraction(0)] + inner_tail)
    order = inner.order
    acc = TruncatedSeries.zero(order)
    for j in range(len(phi) - 1, -1, -1):
        acc = acc * inner + TruncatedSeries.constant(phi[j], order)
    assert compose_phi(phi, inner) == acc


# distinct, large denominators: factorials and primes
_DENOMINATORS = [factorial(j) for j in range(1, 16)] + [
    2, 3, 5, 7, 101, 257, 7919, 104729, 2**31 - 1,
]
wide_fraction = st.builds(
    Fraction,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.sampled_from(_DENOMINATORS),
)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=9).flatmap(
    lambda order: st.tuples(
        st.lists(wide_fraction, min_size=order + 1, max_size=order + 1),
        st.lists(wide_fraction, min_size=order + 1, max_size=order + 1),
    )
))
def test_product_matches_schoolbook_fractions(pair):
    a, b = pair
    expected = [
        sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
        for m in range(len(a))
    ]
    assert (TruncatedSeries(a) * TruncatedSeries(b)).coeffs == tuple(expected)


def horner_by_hand(phi, degree, inner):
    """Full-degree Horner of c_degree .. c_0 at ``inner`` on Fraction series,
    one coefficient of Phi per step; ``phi`` maps j to c_j."""
    order = inner.order
    acc = TruncatedSeries.zero(order)
    for j in range(degree, -1, -1):
        acc = acc * inner + TruncatedSeries.constant(phi(j), order)
    return acc


def inv_factorial(j):
    return Fraction(1, factorial(j))


@st.composite
def inner_series(draw, max_order=12):
    """(order, valuation): a series with no constant term, of any valuation
    from 1 to its order, or the zero series (valuation 0 here)."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    v = draw(st.integers(min_value=0, max_value=order))
    coeffs = [Fraction(0)] * (order + 1)
    if v:
        coeffs[v] = draw(wide_fraction.filter(bool))
        coeffs[v + 1 :] = draw(
            st.lists(wide_fraction, min_size=order - v, max_size=order - v)
        )
    return TruncatedSeries(coeffs)


@settings(max_examples=80, deadline=None)
@given(inner_series(), st.lists(wide_fraction, min_size=1, max_size=16))
def test_compose_skips_vanishing_powers_of_a_list(inner, phi):
    expected = horner_by_hand(phi.__getitem__, len(phi) - 1, inner)
    assert compose_phi(phi, inner) == expected


@settings(max_examples=60, deadline=None)
@given(inner_series())
def test_compose_skips_vanishing_powers_of_an_infinite_phi(inner):
    expected = horner_by_hand(inv_factorial, inner.order, inner)
    assert compose_phi(inv_factorial, inner) == expected


@pytest.mark.parametrize("valuation", range(1, 13))
def test_compose_at_every_valuation(valuation):
    # 1 + x/2 + x^2/3 + ... from the valuation on, through order 12
    inner = TruncatedSeries(
        [Fraction(0)] * valuation
        + [Fraction(1, i - valuation + 1) for i in range(valuation, 13)]
    )
    phi = [Fraction(1, 7919), Fraction(-3, 2), 0, Fraction(5, 6)] * 4
    assert compose_phi(phi, inner) == horner_by_hand(phi.__getitem__, len(phi) - 1, inner)
    assert compose_phi(inv_factorial, inner) == horner_by_hand(inv_factorial, 12, inner)


@pytest.mark.parametrize("order", [0, 1, 12])
def test_compose_at_the_zero_series_is_phi_at_zero(order):
    zero = TruncatedSeries.zero(order)
    assert compose_phi(inv_factorial, zero) == TruncatedSeries.constant(1, order)
    assert compose_phi([Fraction(1, 2), 5], zero) == TruncatedSeries.constant(
        Fraction(1, 2), order
    )


@settings(max_examples=40)
@given(series_strategy(6), series_strategy(6))
def test_truncation_consistency(a, b):
    for m in (2, 4):
        assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)
        assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)


@settings(max_examples=40)
@given(st.lists(small_fraction, min_size=1, max_size=5), series_strategy(5))
def test_compose_truncation_consistency(phi, inner_raw):
    inner = TruncatedSeries([0] + list(inner_raw.coeffs[1:]))
    full = compose_phi(phi, inner)
    for m in (2, 3):
        assert full.truncate(m) == compose_phi(phi, inner.truncate(m))

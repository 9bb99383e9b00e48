from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from protek import (
    BUILTIN_NAMES,
    InvalidWeights,
    UnknownFamily,
    family_structure,
    make_builtin,
    make_polynomial,
)

BUILTIN_COEFFS = {
    "plane": lambda j: Fraction(1),
    "binary": lambda j: Fraction(1) if j in (0, 2) else Fraction(0),
    "pruned-binary": lambda j: {0: Fraction(1), 1: Fraction(2), 2: Fraction(1)}.get(
        j, Fraction(0)
    ),
    "cayley": lambda j: Fraction(1, factorial(j)),
    "riordan": lambda j: Fraction(0) if j == 1 else Fraction(1),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_COEFFS))
def test_builtin_weights_match_closed_form(name):
    f = make_builtin(name)
    expected = BUILTIN_COEFFS[name]
    for j in range(20):
        assert f.weight(j) == expected(j)


def test_builtin_invariants():
    for name in BUILTIN_COEFFS:
        f = make_builtin(name)
        assert f.weight(0) == 1
        assert all(f.weight(j) >= 0 for j in range(20))
        assert any(f.weight(j) > 0 for j in range(2, 20))


@pytest.mark.parametrize("name", sorted(BUILTIN_COEFFS))
def test_phi_eval_derivatives_match_finite_differences(name):
    import math

    f = make_builtin(name)
    t = mp.mpf(1) if math.isinf(f.radius) else mp.mpf(f.radius) / 2
    with mp.workprec(256):
        step = mp.mpf(10) ** -8
        for m in (1, 2):
            fd = (f.phi_eval(t + step, m - 1) - f.phi_eval(t - step, m - 1)) / (2 * step)
            exact = f.phi_eval(t, m)
            assert abs(fd - exact) <= abs(exact) * mp.mpf(10) ** -6


def test_phi_eval_agrees_with_coefficient_sum():
    for name in BUILTIN_COEFFS:
        f = make_builtin(name)
        t = mp.mpf("0.25")
        with mp.workprec(128):
            direct = sum(
                mp.mpf(f.weight(j).numerator) / f.weight(j).denominator * t**j
                for j in range(80)
            )
            assert abs(direct - f.phi_eval(t, 0)) < mp.mpf(10) ** -30


@pytest.mark.parametrize("spec", BUILTIN_NAMES + ("1,1/2,1/3", "1,0,1/6,1/10"))
def test_phim1_eval_matches_phi_minus_one_at_four_times_the_precision(spec):
    f = make_polynomial(spec.split(",")) if "," in spec else make_builtin(spec)
    with mp.workprec(256):
        points = [mp.mpf("0.3"), mp.mpf(2) ** -20, mp.mpf(2) ** -300]
        got = [f.phim1_eval(t) for t in points]
    with mp.workprec(4 * 256):
        for t, value in zip(points, got):
            reference = f.phi_eval(t, 0) - 1
            assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -250


class TestStructure:
    def test_complete_binary(self, complete_binary):
        assert family_structure(complete_binary) == (True, 2, 2)

    def test_plane(self, plane):
        assert family_structure(plane) == (False, 2, 1)

    def test_cubic(self):
        f = make_polynomial([1, 0, 0, 1])
        assert family_structure(f) == (True, 3, 3)

    def test_riordan(self, riordan):
        assert family_structure(riordan) == (True, 2, 1)

    def test_period_divides_support(self):
        for weights in ([1, 0, 1], [1, 0, 0, 1], [1, 0, 1, 0, 1], [1, 2, 1]):
            f = make_polynomial(weights)
            _, r, D = family_structure(f)
            assert r >= 2
            for j, w in enumerate(weights):
                if j > 0 and w:
                    assert j % D == 0


class TestMakePolynomial:
    def test_binary_weights(self):
        f = make_polynomial([1, 0, 1])
        assert f.weight(2) == 1 and f.weight(1) == 0 and f.weight(5) == 0

    def test_accepts_fraction_strings(self):
        f = make_polynomial(["1", "1/2", "1/4"])
        assert f.weight(1) == Fraction(1, 2)

    def test_w0_must_be_one(self):
        with pytest.raises(InvalidWeights, match="w0"):
            make_polynomial([2, 0, 1])

    def test_nonnegative(self):
        with pytest.raises(InvalidWeights, match="nonnegative"):
            make_polynomial([1, -1, 1])

    def test_needs_branching_degree(self):
        with pytest.raises(InvalidWeights, match="j >= 2"):
            make_polynomial([1, 1])


def test_unknown_family():
    with pytest.raises(UnknownFamily, match="unknown family"):
        make_builtin("ternary")


def test_complete_binary_alias(complete_binary):
    binary = make_builtin("binary")
    assert complete_binary.cache_key == binary.cache_key
    assert complete_binary.name == "complete-binary"
    for j in range(8):
        assert complete_binary.weight(j) == binary.weight(j)

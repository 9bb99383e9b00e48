from dataclasses import replace
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import (
    BUILTIN_NAMES,
    InvalidArgument,
    InvalidWeights,
    NoConvergence,
    PeriodMismatch,
    UnknownFamily,
    cdf_exact,
    family_constants,
    family_structure,
    make_builtin,
    make_polynomial,
    oracle_check,
    oracle_distribution,
    solve_protection_system,
    solve_rho_h,
)
from protek.cli import main
from protek.families import _rational_family
from protek.textfmt import fraction_to_mpf
from conftest import weight_vectors

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
            upper = f.phi_derivs(t + step, m - 1)[m - 1]
            lower = f.phi_derivs(t - step, m - 1)[m - 1]
            fd = (upper - lower) / (2 * step)
            exact = f.phi_derivs(t, m)[m]
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
            assert abs(direct - f.phi_derivs(t, 0)[0]) < mp.mpf(10) ** -30


@pytest.mark.parametrize("spec", BUILTIN_NAMES + ("1,1/2,1/3", "1,0,1/6,1/10"))
def test_phim1_eval_matches_phi_minus_one_at_four_times_the_precision(spec):
    f = make_polynomial(spec.split(",")) if "," in spec else make_builtin(spec)
    with mp.workprec(256):
        points = [mp.mpf("0.3"), mp.mpf(2) ** -20, mp.mpf(2) ** -300]
        got = [f.phim1_eval(t) for t in points]
    with mp.workprec(4 * 256):
        for t, value in zip(points, got):
            reference = f.phi_derivs(t, 0)[0] - 1
            assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -250


# Closed forms of the plane and riordan Phi, kept as references for the
# evaluators that derive them from the rational coefficients.
CLOSED_FORM_DERIVS = {
    "plane": lambda t, m: mp.factorial(m) / (1 - t) ** (m + 1),
    "riordan": lambda t, m: (1 / (1 - t) - t, 1 / (1 - t) ** 2 - 1, 2 / (1 - t) ** 3)[m],
}
CLOSED_FORM_PHIM1 = {"plane": lambda t: t / (1 - t), "riordan": lambda t: t**2 / (1 - t)}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_DERIVS))
def test_phi_derivs_and_phim1_eval_match_the_closed_forms(name):
    f = make_builtin(name)
    with mp.workprec(256):
        tol = mp.mpf(2) ** -250
        for t in (mp.mpf("0.3"), mp.mpf(2) ** -20, mp.mpf("0.9")):
            for m in range(3):
                got = f.phi_derivs(t, m)
                assert len(got) == m + 1
                for k, value in enumerate(got):
                    reference = CLOSED_FORM_DERIVS[name](t, k)
                    assert abs(value - reference) <= abs(reference) * tol
            reference = CLOSED_FORM_PHIM1[name](t)
            assert abs(f.phim1_eval(t) - reference) <= abs(reference) * tol


@pytest.mark.parametrize("name", ["plane", "riordan"])
@pytest.mark.parametrize("t", ["1", "1.5"])
def test_rational_evaluators_reject_t_at_or_beyond_the_radius(name, t):
    f = make_builtin(name)
    assert f.radius == 1.0
    with pytest.raises(InvalidArgument, match="only defined for t < 1"):
        f.phi_derivs(mp.mpf(t), 0)
    with pytest.raises(InvalidArgument):
        f.phim1_eval(mp.mpf(t))


def test_rational_family_with_a_numerator_polynomial():
    # (1+t)/(1-t) = -1 + 2/(1-t): the pole numerator differs from P(0)
    f = _rational_family((), (1, 1), (1, -1), "one-plus-t-over-one-minus-t")
    assert [f.weight(j) for j in range(6)] == [1, 2, 2, 2, 2, 2]
    with mp.workprec(256):
        t = mp.mpf("0.3")
        got = f.phi_derivs(t, 2)
        expected = [2 / (1 - t) - 1, 2 / (1 - t) ** 2, 4 / (1 - t) ** 3]
        for value, reference in zip(got, expected):
            assert abs(value - reference) <= abs(reference) * mp.mpf(2) ** -250
        reference = 2 * t / (1 - t)
        assert abs(f.phim1_eval(t) - reference) <= reference * mp.mpf(2) ** -250
    assert oracle_check(f, 9).passed
    residuals = solve_protection_system(f, 3, 12).residuals()
    assert all(c == 0 for r in residuals for c in r)


def test_cache_key_follows_the_coefficients():
    # trailing zero weights and the builtin name do not change the family
    binary = make_builtin("binary")
    assert make_polynomial([1, 0, 1, 0]).cache_key == binary.cache_key
    assert binary.phi == ("rational", (), (1, 0, 1), (1,))
    assert make_builtin("riordan").phi == ("rational", (0, -1), (1,), (1, -1))
    assert make_builtin("cayley").phi == ("exp",)


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

    def test_support_hint_without_a_branching_degree(self):
        f = replace(make_builtin("plane"), support_hint=frozenset({0, 1}))
        with pytest.raises(InvalidWeights, match="j >= 2"):
            family_structure(f)

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


def _cdf_rows(f, n):
    try:
        return [row.p_exact for row in cdf_exact(f, n, n - 1)]
    except PeriodMismatch:
        return None


def _rho_3(f, prec):
    try:
        return solve_rho_h(f, 3, prec).rho_h
    except NoConvergence:
        return None


class TestTilting:
    """w_j -> a^j*w_j multiplies the weight of every n-vertex tree by
    a^(n-1), so the law of the maximum protection number stays the same.
    The tilted Phi is Phi(a*t): tau, rho, lambda1 and every rho_h scale by
    1/a, while zeta, d, kappa, lambda2 and mu stay the same."""

    @settings(max_examples=20, deadline=None)
    @given(
        ws=weight_vectors(),
        a=st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6).filter(bool),
    )
    def test_tilt_keeps_every_law(self, ws, a):
        f = make_polynomial(ws)
        g = make_polynomial([w * a**j for j, w in enumerate(ws)])
        # descending sizes, so the first solve stores every shorter column
        for n in range(29, 0, -1):
            assert _cdf_rows(g, n) == _cdf_rows(f, n), n
        for n in range(1, 10):
            law = oracle_distribution(f, n).weights
            scaled = {m: a ** (n - 1) * w for m, w in law.items()}
            assert oracle_distribution(g, n).weights == scaled, n

        prec = 128
        cf, cg = family_constants(f, prec), family_constants(g, prec)
        assert cg.regime == cf.regime
        # Newton stops once the residuals are below 2^-(bits/2), so rho_3
        # is solved at twice the bits to be compared like the rest
        rf, rg = _rho_3(f, 2 * prec), _rho_3(g, 2 * prec)
        assert (rg is None) == (rf is None)
        with mp.workprec(2 * prec):
            tol = mp.mpf(2) ** -(prec - 8)
            scale = 1 / fraction_to_mpf(a)
            pairs = [(cg.tau, cf.tau * scale), (cg.rho, cf.rho * scale),
                     (cg.lambda1, cf.lambda1 * scale)]
            if rf is not None:
                pairs.append((rg, rf * scale))
            for name in ("zeta", "d", "kappa", "lambda2", "mu"):
                assert (getattr(cg, name) is None) == (getattr(cf, name) is None)
                if getattr(cf, name) is not None:
                    pairs.append((getattr(cg, name), getattr(cf, name)))
            for got, want in pairs:
                assert abs(got / want - 1) <= tol, (got, want)

    @pytest.mark.parametrize(
        "family, tilted",
        [(["--family", "binary"], ["--weights", "1,0,1"]),
         (["--weights", "1,1/2,1/3"], ["--weights", "1,3/2,3"])],
        ids=["binary-is-1,0,1", "1,1/2,1/3-tilted-by-3"],
    )
    def test_cdf_cli_p_exact_column(self, capsys, family, tilted):
        columns = []
        for args in (family, tilted):
            assert main(["cdf", *args, "--n", "41"]) == 0
            lines = capsys.readouterr().out.splitlines()
            columns.append([line.split(",")[1] for line in lines])
        assert columns[0] == columns[1]

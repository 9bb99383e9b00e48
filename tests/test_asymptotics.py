import math
import os
import re
from dataclasses import fields, replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import (
    BUILTIN_NAMES,
    InvalidArgument,
    NoConvergence,
    NoTau,
    PeriodMismatch,
    WeightFamily,
    WrongRegime,
    bounded_count,
    cdf_asymptotic,
    cdf_exact,
    complex_gamma,
    count_asymptotic,
    eta_sequence,
    expectation_asymptotic,
    family_constants,
    family_structure,
    make_builtin,
    make_polynomial,
    oracle_check,
    psi_fluctuation,
    solve_Y,
    solve_rho_h,
    solve_tau_rho,
    two_point_predictor,
)
from protek import _split, asymptotics, families
from protek.asymptotics import _GUARD_BITS, _predictor_round, _rho_h_system
from protek.textfmt import fraction_to_mpf
from conftest import assert_no_child_left, split_on, weight_vectors

ALL_BUILTINS = ("plane", "binary", "pruned-binary", "cayley", "riordan")


def _as_mpf(value):
    if isinstance(value, Fraction):
        return fraction_to_mpf(value)
    return mp.mpf(value)


def family_of(name):
    if "," not in name:
        return make_builtin(name)
    return make_polynomial([Fraction(eval(w)) for w in name.split(",")])


def close(x, target, tol):
    # compare at high working precision so stored values are not re-rounded
    with mp.workprec(400):
        return abs(_as_mpf(x) - _as_mpf(target)) <= mp.mpf(tol)


# lambda1 (and kappa built from it) in the w1 != 0 regime is an iterated
# limit with a 1e-25 relative stabilization stop; closed-form constants
# are accurate to the working precision.
ITERATED_TOL = mp.mpf("1e-23")


class TestTauRho:
    def test_plane(self, plane):
        tau, rho = solve_tau_rho(plane)
        assert close(tau, "0.5", mp.mpf(10) ** -60)
        assert close(rho, "0.25", mp.mpf(10) ** -60)

    def test_cayley(self, cayley):
        tau, rho = solve_tau_rho(cayley)
        with mp.workprec(280):
            assert close(tau, 1, mp.mpf(10) ** -60)
            assert close(rho, 1 / mp.e, mp.mpf(10) ** -60)

    def test_riordan(self, riordan):
        tau, rho = solve_tau_rho(riordan)
        assert close(tau, "0.5", mp.mpf(10) ** -60)
        with mp.workprec(280):
            assert close(rho, mp.mpf(1) / 3, mp.mpf(10) ** -60)
            phi_tau = riordan.phi_derivs(tau, 0)[0]
            assert close(phi_tau, mp.mpf(3) / 2, mp.mpf(10) ** -60)

    def test_cubic_family(self):
        f = make_polynomial([1, 0, 0, 1])
        tau, rho = solve_tau_rho(f)
        with mp.workprec(280):
            assert close(tau**3, mp.mpf(1) / 2, mp.mpf(10) ** -60)

    def test_entire_phi_with_tau_beyond_1e6(self):
        # H(1e6) < 0 here, so the bracket has to grow past 1e6
        f = make_polynomial([1, 0, Fraction(1, 10**13)])
        tau, _ = solve_tau_rho(f)
        with mp.workprec(280):
            target = mp.mpf(10) ** mp.mpf("6.5")
            assert close(tau / target, 1, mp.mpf(10) ** -50)

    @pytest.mark.parametrize("bits", (64, 256, 1024))
    @pytest.mark.parametrize(
        "name", ALL_BUILTINS + ("1,1/2,1/3", "1,0,1/6,1/10", "1,0,1/10**13", "1,0,10**80")
    )
    def test_bracket_is_the_linear_scan_bracket(self, name, bits):
        # 1,0,10**80 has H > 0 at every grid point, so its bracket starts at 0
        f = family_of(name)
        assert _first_newton_point(f, bits)._mpf_ == _linear_scan_midpoint(f, bits)._mpf_

    @settings(max_examples=25, deadline=None)
    @given(weights=weight_vectors(), bits=st.sampled_from((64, 256)))
    def test_bracket_is_the_linear_scan_bracket_for_any_weights(self, weights, bits):
        f = make_polynomial(weights)
        assert _first_newton_point(f, bits)._mpf_ == _linear_scan_midpoint(f, bits)._mpf_

    def test_bracket_takes_at_most_eight_values_of_h(self, plane):
        # every value of H is read at full precision
        precs = []

        def phi_derivs(t, m=0):
            if m == 1:
                precs.append(mp.mp.prec)
            return plane.phi_derivs(t, m)

        solve_tau_rho(replace(plane, phi_derivs=phi_derivs), 1024)
        assert 0 < len(precs) <= 8
        assert set(precs) == {1024 + _GUARD_BITS}

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_defining_identities(self, name):
        f = make_builtin(name)
        tau, rho = solve_tau_rho(f)
        with mp.workprec(280):
            tol = mp.mpf(10) ** -25
            assert abs(rho * f.phi_derivs(tau, 1)[1] - 1) < tol
            assert abs(rho * f.phi_derivs(tau, 0)[0] - tau) < tol
            assert tau > rho > 0


def _first_newton_point(f: WeightFamily, bits: int):
    # solve_tau_rho's first phi_derivs(t, 2) call is at t = (lo + hi)/2 of
    # its bracket
    points = []

    def phi_derivs(t, m=0):
        if m == 2:
            points.append(t)
        return f.phi_derivs(t, m)

    solve_tau_rho(replace(f, phi_derivs=phi_derivs), bits)
    return points[0]


def _linear_scan_midpoint(f: WeightFamily, bits: int):
    # reference bracket: scan the grid hi_cap*2^-k upward from k = 120 to
    # the first point where H > 0; the point before it, or 0, is lo
    with mp.workprec(bits + _GUARD_BITS):
        def big_h(t):
            phi, dphi = f.phi_derivs(t, 1)
            return t * dphi - phi

        if math.isinf(f.radius):
            hi_cap = mp.mpf(10) ** 6
            while not big_h(hi_cap) > 0:
                hi_cap *= 2
        else:
            hi_cap = mp.mpf(f.radius) * (1 - mp.mpf(10) ** -6)
        lo = mp.mpf(0)
        for k in range(120, -1, -1):
            hi = hi_cap * mp.mpf(2) ** (-k)
            if big_h(hi) > 0:
                return (lo + hi) / 2
            lo = hi
        raise AssertionError("no sign change on the grid")


def _subcritical_family() -> WeightFamily:
    # weights 1/j^3: the mean-one point would sit beyond the radius
    def weight(j: int) -> Fraction:
        return Fraction(1) if j == 0 else Fraction(1, j**3)

    def phi_derivs(t, m: int = 0):
        t = mp.mpf(t)
        derivs = [
            1 + mp.polylog(3, t),
            mp.polylog(2, t) / t,
            (-mp.log(1 - t) - mp.polylog(2, t)) / t**2,
        ]
        return derivs[: m + 1]

    return WeightFamily(
        name="subcritical",
        weight=weight,
        phi_derivs=phi_derivs,
        phim1_eval=lambda t: mp.polylog(3, t),
        radius=1.0,
        support_hint=frozenset({0, 1, 2, 3}),
        cache_key="subcritical-test",
    )


def test_no_tau_detected():
    with pytest.raises(NoTau):
        solve_tau_rho(_subcritical_family())


def test_counting_refuses_a_family_without_a_tag():
    # only evaluators and weights, no tag naming Phi: exact counting must
    # not read such a family as e^t, which gave cayley's numbers
    f = _subcritical_family()
    for count in (
        lambda: solve_Y(f, 6),
        lambda: bounded_count(f, 2, 6),
        lambda: cdf_exact(f, 6),
        lambda: oracle_check(f, 6),
    ):
        with pytest.raises(InvalidArgument, match="subcritical: exact counting needs a tag"):
            count()


def test_shared_constants_carry_each_family_name(monkeypatch):
    # one stored entry serves binary, its alias and the same weights by hand
    monkeypatch.setattr(families, "_STORE", {})
    solves = []
    solve = asymptotics.solve_tau_rho
    monkeypatch.setattr(
        asymptotics, "solve_tau_rho", lambda *args: solves.append(args) or solve(*args)
    )
    fams = [make_builtin(name) for name in ("binary", "complete-binary")]
    fams.append(make_polynomial([1, 0, 1]))
    consts = [family_constants(f, 96) for f in fams]
    assert [c.family for c in consts] == ["binary", "complete-binary", "weights(1,0,1)"]
    assert len({c.tau for c in consts}) == 1
    assert len(solves) == 1
    with pytest.raises(WrongRegime, match=r"^weights\(1,0,1\):"):
        expectation_asymptotic(consts[2], 100)


class TestEtaSequence:
    def test_first_step_is_tau_minus_rho(self):
        for name in ALL_BUILTINS:
            f = make_builtin(name)
            c = family_constants(f)
            etas = eta_sequence(c, f, 1)
            with mp.workprec(280):
                assert abs(etas[1] - (c.tau - c.rho)) < mp.mpf(10) ** -60

    def test_plane_third_value(self, plane):
        c = family_constants(plane)
        etas = eta_sequence(c, plane, 2)
        with mp.workprec(280):
            assert abs(etas[2] - mp.mpf(1) / 12) < mp.mpf(10) ** -60

    def test_complete_binary_closed_form(self, complete_binary):
        c = family_constants(complete_binary)
        etas = eta_sequence(c, complete_binary, 6)
        with mp.workprec(280):
            for k, eta in enumerate(etas):
                assert close(eta, 2 * mp.mpf("0.5") ** (2**k), mp.mpf(10) ** -50)

    def test_strictly_decreasing_to_zero(self):
        for name in ("plane", "riordan"):
            f = make_builtin(name)
            c = family_constants(f)
            etas = eta_sequence(c, f, 20)
            assert all(a > b > 0 for a, b in zip(etas, etas[1:]))

    def test_riordan_values_carry_only_the_working_precision(self, riordan):
        prec = 256
        etas = eta_sequence(family_constants(riordan, prec), riordan, 20)
        reference = eta_sequence(family_constants(riordan, 2 * prec), riordan, 20)
        assert all(eta._mpf_[3] <= prec + _GUARD_BITS for eta in etas)
        with mp.workprec(4 * prec):
            for eta, ref in zip(etas, reference):
                assert abs(eta - ref) <= ref * mp.mpf(2) ** -prec

    def test_ratio_limits(self, plane, complete_binary):
        c = family_constants(plane)
        etas = eta_sequence(c, plane, 40)
        with mp.workprec(280):
            assert close(etas[40] / etas[39], c.zeta, mp.mpf(10) ** -8)
        c2 = family_constants(complete_binary)
        etas2 = eta_sequence(c2, complete_binary, 8)
        with mp.workprec(280):
            ratio = mp.log(etas2[8]) / mp.log(etas2[7])
            assert close(ratio, 2, mp.mpf(10) ** -2)


class TestConstants:
    def test_plane(self, plane):
        c = family_constants(plane)
        assert c.regime == "exponential" and c.D == 1
        assert close(c.kappa, Fraction(9, 16), ITERATED_TOL)
        assert close(c.d, 4, mp.mpf(10) ** -40)
        assert close(c.lambda1, Fraction(3, 2), ITERATED_TOL)
        assert close(c.a, Fraction(-1, 2), mp.mpf(10) ** -40)

    def test_pruned_binary(self, pruned_binary):
        c = family_constants(pruned_binary)
        assert close(c.d, 2, mp.mpf(10) ** -40)
        assert close(c.lambda1, "3.664", mp.mpf("2e-3"))
        assert close(c.kappa, "0.9160", mp.mpf("1e-3"))

    def test_cayley(self, cayley):
        c = family_constants(cayley)
        with mp.workprec(280):
            assert close(c.d, mp.e, mp.mpf(10) ** -40)
        assert close(c.lambda1, "3.1789", mp.mpf("2e-3"))
        assert close(c.kappa, "0.73926", mp.mpf("1e-4"))

    def test_complete_binary(self, complete_binary):
        c = family_constants(complete_binary)
        assert c.regime == "double-exponential"
        assert (c.r, c.D) == (2, 2)
        for value, target in ((c.lambda1, 2), (c.mu, "0.5"), (c.d, 4), (c.kappa, 2)):
            assert close(value, target, mp.mpf(10) ** -40)

    def test_riordan(self, riordan):
        c = family_constants(riordan)
        assert (c.r, c.D) == (2, 1)
        assert close(c.lambda1, 3, mp.mpf(10) ** -40)
        assert close(c.kappa, 6, mp.mpf(10) ** -40)

    def test_cubic(self):
        c = family_constants(make_polynomial([1, 0, 0, 1]))
        assert (c.r, c.D) == (3, 3)
        assert close(c.lambda1, "1.37473", mp.mpf("1e-5"))

    def test_fractional_branching_weight(self):
        # Phi = 1 + t^2/3: tau = sqrt(3), lambda1 = 2*sqrt(3), mu = 1/2
        c = family_constants(make_polynomial(["1", "0", "1/3"]))
        with mp.workprec(280):
            assert abs(c.tau - mp.sqrt(3)) < mp.mpf(10) ** -50
            assert abs(c.lambda1 - 2 * mp.sqrt(3)) < mp.mpf(10) ** -50
        assert close(c.mu, "0.5", mp.mpf(10) ** -50)
        assert close(c.d, 4, mp.mpf(10) ** -50)

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_structural_invariants(self, name):
        c = family_constants(make_builtin(name))
        assert c.tau > c.rho > 0
        assert c.d > 1 and c.kappa > 0 and c.a < 0
        with mp.workprec(280):
            assert abs(c.a**2 - 2 * c.phi_tau / c.phi2_tau) < mp.mpf(10) ** -40
        if c.regime == "exponential":
            assert 0 < c.zeta < 1
            with mp.workprec(300):
                # same formula through tau = rho*Phi(tau)
                alt = c.lambda1 * (1 - c.zeta) * c.zeta / (c.rho * c.phi_tau)
                assert abs(alt - c.kappa) < mp.mpf(10) ** -40
        else:
            assert 0 < c.mu < 1

    @pytest.mark.parametrize(
        "weights, limit", [("1,300,1", "lambda1 iteration"), ("1,180,1", "lambda2 product")]
    )
    def test_names_the_limit_that_did_not_stabilize(self, weights, limit):
        # zeta = w1/(w1 + 2) is close to 1, so the eta steps run out first:
        # lambda1 at 1,300,1, and only lambda2 at 1,180,1
        f = make_polynomial(weights.split(","))
        message = rf"^weights\({weights}\): {limit} did not stabilize$"
        with pytest.raises(NoConvergence, match=message):
            family_constants(f, 64)

    def test_riordan_mu_agrees_with_singularity_route(self, riordan):
        # two independent computations of the decay base
        c = family_constants(riordan, 320)
        with mp.workprec(360):
            sol = solve_rho_h(riordan, 4, 320)
            signal = (sol.rho_h / c.rho - 1) / c.kappa
            mu_emp = signal ** (1 / mp.mpf(c.r) ** 5)
            assert abs(mu_emp - c.mu) < mp.mpf(10) ** -8
        assert close(1 / c.d, "0.06102861341729106", mp.mpf(10) ** -9)


class TestCdfAsymptotic:
    def test_plane_value(self, plane):
        c = family_constants(plane)
        got = cdf_asymptotic(c, 200, 5)
        with mp.workprec(280):
            expected = mp.e ** (-mp.mpf(9) / 16 * 200 * mp.mpf(4) ** -5)
        assert close(got, expected, ITERATED_TOL)
        assert close(got, "0.895954", mp.mpf("5e-6"))

    def test_complete_binary_value(self, complete_binary):
        c = family_constants(complete_binary)
        got = cdf_asymptotic(c, 205, 2)
        with mp.workprec(280):
            expected = mp.e ** (-mp.mpf(2) * 205 * mp.mpf(4) ** -4)
        assert close(got, expected, mp.mpf(10) ** -40)

    def test_tends_to_one(self, plane, complete_binary):
        for c, h in ((family_constants(plane), 300), (family_constants(complete_binary), 30)):
            value = cdf_asymptotic(c, 1000, h)
            assert 1 - mp.mpf(10) ** -10 < value <= 1


class TestExpectationAsymptotic:
    def test_plane_layout(self, plane):
        c = family_constants(plane)
        got = expectation_asymptotic(c, 200)
        with mp.workprec(280):
            ln4 = mp.log(4)
            base = (
                mp.log(200) / ln4
                + mp.log(c.kappa) / ln4
                + mp.euler / ln4
                + mp.mpf(1) / 2
            )
            assert abs(got - base) <= mp.mpf("2.1e-3")  # psi stays within its bound

    def test_wrong_regime(self, complete_binary):
        with pytest.raises(WrongRegime):
            expectation_asymptotic(family_constants(complete_binary), 100)

    def test_psi_periodicity(self):
        with mp.workprec(256):
            for x in ("0.17", "0.5", "0.93"):
                a = psi_fluctuation(4, mp.mpf(x))
                b = psi_fluctuation(4, mp.mpf(x) + 1)
                assert abs(a - b) < mp.mpf(10) ** -12

    def test_psi_amplitude_via_gamma_modulus(self):
        # |Gamma(iy)|^2 = pi/(y*sinh(pi*y)) bounds the Fourier coefficients
        with mp.workprec(256):
            ln4 = mp.log(4)
            bound = (
                2
                / ln4
                * sum(
                    mp.sqrt(mp.pi / (y * mp.sinh(mp.pi * y)))
                    for y in (2 * mp.pi * k / ln4 for k in range(1, 11))
                )
            )
            assert bound <= mp.mpf("2e-3")
            worst = max(
                abs(psi_fluctuation(4, mp.mpf(i) / 31)) for i in range(31)
            )
            assert worst <= bound

    def test_lanczos_gamma_accuracy(self):
        with mp.workprec(256):
            for d in (mp.mpf(2), mp.e, mp.mpf(4)):
                for k in range(1, 11):
                    y = 2 * mp.pi * k / mp.log(d)
                    got = abs(complex_gamma(mp.mpc(0, y)))
                    closed = mp.sqrt(mp.pi / (y * mp.sinh(mp.pi * y)))
                    assert abs(got - closed) <= closed * mp.mpf(10) ** -12

    def test_lanczos_gamma_on_integers(self):
        with mp.workprec(256):
            from math import factorial

            for n in range(1, 9):
                assert abs(complex_gamma(n).real - factorial(n - 1)) < mp.mpf("1e-10")


class TestRhoH:
    def test_plane_matches_leading_term(self, plane):
        c = family_constants(plane)
        sol = solve_rho_h(plane, 12, 256)
        with mp.workprec(280):
            predicted = c.lambda1 * (1 - c.zeta) * c.zeta**13 / c.phi_tau
            ratio = (sol.rho_h - c.rho) / predicted
            assert abs(ratio - 1) < mp.mpf("0.01")

    def test_complete_binary_matches_leading_term(self, complete_binary):
        c = family_constants(complete_binary)
        sol = solve_rho_h(complete_binary, 3, 256)
        with mp.workprec(280):
            predicted = c.rho * c.kappa * c.mu ** (mp.mpf(2) ** 4)
            assert abs((sol.rho_h - c.rho) / predicted - 1) < mp.mpf("0.05")

    def test_solution_shape(self, plane):
        c = family_constants(plane)
        sol = solve_rho_h(plane, 6, 256)
        tol = mp.mpf(2) ** -120
        assert all(abs(r) < tol for r in sol.residuals)
        with mp.workprec(280):
            assert abs((sol.eta[0] - sol.eta[1]) - sol.rho_h) < mp.mpf(2) ** -240
            assert abs(sol.s - plane.phi_derivs(sol.eta[6], 0)[0]) < tol
        assert sol.rho_h > c.rho
        assert all(a >= b for a, b in zip(sol.eta, sol.eta[1:]))

    def test_decreasing_in_h(self, plane):
        rhos = [solve_rho_h(plane, h, 192).rho_h for h in (4, 6, 8)]
        assert rhos[0] > rhos[1] > rhos[2]

    def test_corollary_rates_at_h14(self, plane):
        c = family_constants(plane)
        sol = solve_rho_h(plane, 14, 256)
        with mp.workprec(280):
            lhs = sol.rho_h * plane.phi_derivs(sol.eta[0], 1)[1] - 1
            rhs = c.lambda2 * (1 - c.zeta) * c.zeta**14
            assert abs(lhs / rhs - 1) < mp.mpf("0.05")
            eta_target = c.lambda1 * (1 - c.zeta) * c.zeta**14
            assert abs(sol.eta[14] / eta_target - 1) < mp.mpf("0.05")

    def test_h_must_be_at_least_two(self, plane):
        with pytest.raises(ValueError):
            solve_rho_h(plane, 1, 128)

    @pytest.mark.parametrize(
        "name, h, order",
        [("plane", h, 300) for h in (2, 3, 4, 6)]
        + [("pruned-binary", h, 300) for h in (2, 4)]
        + [("cayley", h, 200) for h in (2, 3, 5)]
        + [("1,1/2,1/3", h, 200) for h in (2, 4)]
        + [("1,1,0,1/7", 3, 200)]
        + [("riordan", h, 300) for h in (2, 3)]
        + [("binary", 2, 301)],
    )
    def test_matches_the_coefficient_ratios(self, name, h, order):
        # rho_h is the dominant singularity of Y_{h,0}, so with period D the
        # ratio y_{h,n}/y_{h,n-D} tends to rho_h^-D; the polynomial in 1/n
        # through the ratios at n = order-6D .. order, taken at 1/n = 0,
        # extrapolates the limit
        f = make_polynomial(name.split(",")) if "," in name else make_builtin(name)
        period = family_structure(f).D
        sizes = range(order - 6 * period, order + 1, period)
        ts = [Fraction(1, n) for n in sizes]
        ps = [bounded_count(f, h, n) / bounded_count(f, h, n - period) for n in sizes]
        for k in range(1, len(ps)):
            ps = [
                (ts[i + k] * ps[i] - ts[i] * ps[i + 1]) / (ts[i + k] - ts[i])
                for i in range(len(ps) - 1)
            ]
        rho_h = solve_rho_h(f, h).rho_h
        with mp.workprec(256):
            assert abs(fraction_to_mpf(ps[0]) * rho_h**period - 1) < mp.mpf("1e-12")

    @pytest.mark.parametrize(
        "name", BUILTIN_NAMES + ("1,1/2,1/3", "1,1,0,1/7", "1,0,1/6,1/10", "1,3,0,2/7,5")
    )
    def test_newton_iterations_are_few(self, name):
        f = make_polynomial(name.split(",")) if "," in name else make_builtin(name)
        for h in range(2, 9):
            assert solve_rho_h(f, h, 256).iterations <= 12

    @pytest.mark.xfail(
        strict=True,
        raises=NoConvergence,
        reason="singular Newton Jacobian from the start (rho, tau, 1) at "
        "zeta = 0.75: the FOUND line on solve_rho_h for 1,3,1/4 in CHANGES.md",
    )
    @pytest.mark.parametrize("h", [2, 3])
    def test_converges_when_zeta_is_near_one(self, h):
        f = make_polynomial([1, 3, Fraction(1, 4)])
        assert solve_rho_h(f, h, 128).iterations <= 12


def rho_h_bits(f, h, bits):
    """solve_rho_h(f, h, bits) with every mpf as its _mpf_ tuple: each field
    of the solution, or the message and last iterate of its failure."""
    def exact(v):
        return tuple(map(exact, v)) if isinstance(v, tuple) else getattr(v, "_mpf_", v)

    try:
        sol = solve_rho_h(f, h, bits)
    except NoConvergence as exc:
        return str(exc), exact(exc.last_iterate)
    return {field.name: exact(getattr(sol, field.name)) for field in fields(sol)}


class TestRhoHSplit:
    @pytest.mark.parametrize(
        "name, bits, hs",
        [
            ("plane", 1024, range(2, 25)),
            ("plane", 64, range(2, 15)),
            ("cayley", 256, range(2, 15)),
            ("riordan", 128, range(2, 6)),
            ("1,3,1/4", 128, range(2, 7)),
            ("1,0,1/6,1/10", 96, range(2, 6)),
        ],
    )
    def test_child_solutions_keep_every_bit(self, name, bits, hs, monkeypatch):
        f = family_of(name)
        monkeypatch.setattr(families, "_STORE", {})
        serial = {h: rho_h_bits(f, h, bits) for h in hs}
        forked = split_on(monkeypatch, 2)
        asymptotics._prefetch_rho_h(f, hs, bits)
        assert_no_child_left()
        assert len(forked) == 1 and forked[0]
        assert {h: rho_h_bits(f, h, bits) for h in hs} == serial

    def test_a_failing_level_is_solved_once(self, tmp_path, monkeypatch):
        # 1,3,1/4 fails at h = 2 and 3 (see test_converges_when_zeta_is_near_one);
        # the child sends the failure back instead of exiting 1, so the
        # parent solves none of its levels again
        f = make_polynomial([1, 3, Fraction(1, 4)])
        log = tmp_path / "solves"
        newton = asymptotics._rho_h_newton

        def logged(f, h, bits):
            with open(log, "a") as fh:
                fh.write(f"{h} {os.getpid()}\n")
            return newton(f, h, bits)

        forked = split_on(monkeypatch, 2)
        monkeypatch.setattr(asymptotics, "_rho_h_newton", logged)
        asymptotics._prefetch_rho_h(f, range(2, 7), 128)
        assert_no_child_left()
        messages = []
        for _ in range(2):
            for h in (2, 3):
                with pytest.raises(NoConvergence) as exc:
                    solve_rho_h(f, h, 128)
                messages.append(str(exc.value))
        solves = [line.split() for line in log.read_text().splitlines()]
        assert sorted(int(h) for h, _ in solves) == [2, 3, 4, 5, 6]
        assert {int(h) for h, pid in solves if pid != str(os.getpid())} == set(forked[0])
        assert messages == [
            f"weights(1,3,1/4), h = {h}: singular Newton Jacobian" for h in (2, 3)
        ] * 2

    def test_shared_solutions_carry_each_family_name(self, monkeypatch):
        monkeypatch.setattr(families, "_STORE", {})
        monkeypatch.setattr(_split, "_cpus", lambda: 1)
        solves = []
        newton = asymptotics._rho_h_newton
        monkeypatch.setattr(
            asymptotics, "_rho_h_newton", lambda *args: solves.append(args[1:]) or newton(*args)
        )
        fams = [make_builtin(name) for name in ("binary", "complete-binary")]
        fams.append(make_polynomial([1, 0, 1]))
        asymptotics._prefetch_rho_h(fams[0], range(2, 5), 256)
        sols = [solve_rho_h(f, 3, 256) for f in fams]
        assert [sol.family for sol in sols] == ["binary", "complete-binary", "weights(1,0,1)"]
        assert len({sol.rho_h for sol in sols}) == 1
        # a stored failure names the family that reads it
        weights = [1, 3, Fraction(1, 4)]
        for f in (make_polynomial(weights), make_polynomial(weights, name="other")):
            with pytest.raises(NoConvergence, match=rf"^{re.escape(f.name)}, h = 2: singular"):
                solve_rho_h(f, 2, 128)
        assert solves == [(2, 256), (3, 256), (4, 256), (2, 128)]

    def test_prefetch_checks_every_level(self, plane, monkeypatch):
        forked = split_on(monkeypatch, 2)
        with pytest.raises(InvalidArgument, match="h must be >= 2"):
            asymptotics._prefetch_rho_h(plane, range(1, 9), 256)
        assert forked == []


def _central_difference_jacobian(f, h, u, prec):
    """Central finite differences of the rho_h residuals at 2*prec bits."""
    with mp.workprec(2 * prec):
        u = [mp.mpf(x) for x in u]
        jac = [[None] * 3 for _ in range(3)]
        for i in range(3):
            step = mp.mpf(2) ** -(prec // 2) * max(1, abs(u[i]))
            up, down = u[:], u[:]
            up[i] += step
            down[i] -= step
            res_up = _rho_h_system(f, h, up)[0]
            res_down = _rho_h_system(f, h, down)[0]
            for row in range(3):
                jac[row][i] = (res_up[row] - res_down[row]) / (2 * step)
        return jac


def _newton_points(f, h, prec):
    """The Newton start, the converged solution and their midpoint."""
    c = family_constants(f, prec)
    sol = solve_rho_h(f, h, prec)
    start, end = (c.rho, c.tau, mp.mpf(1)), (sol.rho_h, sol.eta[0], sol.s)
    with mp.workprec(2 * prec):
        mid = tuple((x + y) / 2 for x, y in zip(start, end))
    return start, end, mid


@pytest.mark.parametrize("spec", BUILTIN_NAMES + ("1,1/2,1/3", "1,0,1/6,1/10"))
def test_rho_h_jacobian_matches_central_difference(spec):
    f = make_polynomial(spec.split(",")) if "," in spec else make_builtin(spec)
    prec = 128
    for h in range(2, 7):
        for u in _newton_points(f, h, prec):
            with mp.workprec(prec):
                _, jac, _ = _rho_h_system(f, h, u)
            fd = _central_difference_jacobian(f, h, u, prec)
            with mp.workprec(2 * prec):
                for row in range(3):
                    for col in range(3):
                        err = abs(jac[row][col] - fd[row][col])
                        assert err <= max(1, abs(fd[row][col])) * mp.mpf(2) ** -96, (
                            h, row, col,
                        )


@pytest.mark.parametrize("spec", BUILTIN_NAMES + ("1,1/2,1/3", "1,0,1/6,1/10"))
def test_rho_h_determinant_is_the_expanded_product_sum(spec):
    # the recursion E_k = q + p_k*E_(k-1) against the determinant as the
    # paper writes it, p_1*...*p_h + q*(1 + sum_{k=2..h} p_k*...*p_h), with
    # p_k = rho_h*Phi'(eta_k) and q = 1 - p_0 at the returned etas.  The
    # error is relative to the sum of the absolute values of the terms, q
    # counted as 1 + |p_0|, since q cancels near the solution.
    f = make_polynomial(spec.split(",")) if "," in spec else make_builtin(spec)
    prec = 128
    for h in range(2, 9):
        for u in _newton_points(f, h, prec):
            with mp.workprec(prec):
                res, _, etas = _rho_h_system(f, h, u)
            with mp.workprec(2 * prec):
                p = [u[0] * f.phi_derivs(eta, 1)[1] for eta in etas]
                q = 1 - p[0]
                tails = [mp.fprod(p[k:]) for k in range(2, h + 1)]
                expanded = mp.fprod(p[1:]) + q * (1 + mp.fsum(tails))
                size = abs(mp.fprod(p[1:])) + (1 + abs(p[0])) * (
                    1 + mp.fsum(abs(t) for t in tails)
                )
                assert abs(res[2] - expanded) <= size * mp.mpf(2) ** -(prec - 8), h


class TestCountAsymptotic:
    def test_plane_close_at_moderate_size(self, plane):
        c = family_constants(plane)
        est = count_asymptotic(c, 100)
        with mp.workprec(280):
            exact = fraction_to_mpf(bounded_count(plane, 99, 100))
            assert abs(est / exact - 1) < mp.mpf("0.01")

    def test_period_mismatch(self, complete_binary):
        with pytest.raises(PeriodMismatch):
            count_asymptotic(family_constants(complete_binary), 100)

    def test_periodic_factor(self, complete_binary):
        c = family_constants(complete_binary)
        est = count_asymptotic(c, 101)
        with mp.workprec(280):
            exact = fraction_to_mpf(bounded_count(complete_binary, 100, 101))
            assert abs(est / exact - 1) < mp.mpf("0.02")


class TestTwoPointPredictor:
    def test_large_size(self, complete_binary):
        c = family_constants(complete_binary)
        h_n, m = two_point_predictor(c, 205)
        assert h_n == 2
        assert close(m, "1.9413", mp.mpf("1e-3"))

    def test_small_size_rounds_down(self, complete_binary):
        c = family_constants(complete_binary)
        h_n, m = two_point_predictor(c, 17)
        assert h_n == 1
        assert close(m, "1.0312", mp.mpf("1e-3"))

    def test_half_boundary_takes_floor(self):
        assert _predictor_round(mp.mpf("2.5")) == 2
        assert _predictor_round(mp.mpf("2.500001")) == 3

    def test_monotone_in_size(self, complete_binary):
        c = family_constants(complete_binary)
        hs = [two_point_predictor(c, n)[0] for n in range(17, 4000, 120)]
        assert hs == sorted(hs)

    def test_wrong_regime(self, plane):
        with pytest.raises(WrongRegime):
            two_point_predictor(family_constants(plane), 100)

    def test_size_too_small(self, complete_binary):
        with pytest.raises(ValueError):
            two_point_predictor(family_constants(complete_binary), 4)

    def test_size_too_small_is_invalid_argument(self, complete_binary):
        with pytest.raises(InvalidArgument, match="log_d"):
            two_point_predictor(family_constants(complete_binary), 4)

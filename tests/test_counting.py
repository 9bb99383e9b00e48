from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import (
    PeriodMismatch,
    TruncatedSeries,
    bounded_count,
    cdf_exact,
    expectation_exact,
    make_builtin,
    make_polynomial,
    oracle_distribution,
    solve_Y,
    solve_protection_system,
)
from protek import counting, families
from protek.series import compose_phi
from conftest import catalan


BUILTINS = ("plane", "binary", "pruned-binary", "cayley", "riordan", "complete-binary")


@st.composite
def weight_families(draw):
    """A builtin, or a small polynomial family with w1 = 0 or w1 != 0."""
    if draw(st.booleans()):
        return make_builtin(draw(st.sampled_from(BUILTINS)))
    weight = st.fractions(min_value=0, max_value=3, max_denominator=4)
    w1 = draw(st.one_of(st.just(Fraction(0)), weight.filter(bool)))
    tail = draw(st.lists(weight, min_size=1, max_size=4).filter(any))
    return make_polynomial([1, w1, *tail])


class TestSolveY:
    def test_plane_catalan(self, plane):
        got = solve_Y(plane, 8)
        assert list(got.coeffs) == [0] + [catalan(i) for i in range(8)]

    def test_cayley_labelled_counts(self, cayley):
        got = solve_Y(cayley, 8)
        from math import factorial

        for n in range(1, 9):
            assert got[n] == Fraction(n ** (n - 1), factorial(n))

    def test_first_coefficient_is_one(self):
        for name in ("plane", "binary", "pruned-binary", "cayley", "riordan"):
            assert solve_Y(make_builtin(name), 1)[1] == 1

    def test_fixed_point_residual(self):
        x = TruncatedSeries.x(25)
        for name in ("plane", "binary", "cayley", "riordan"):
            f = make_builtin(name)
            y = solve_Y(f, 25)
            assert x * compose_phi(f.weight, y) == y
            assert y.is_nonnegative()


class TestProtectionSystem:
    def test_plane_h1_small_count(self, plane):
        ps = solve_protection_system(plane, 1, 4)
        assert ps.y0[4] == 3

    def test_full_range_recovers_all_trees(self, plane):
        # at h >= n-1 the bound is vacuous, so the solve returns y_n
        ps = solve_protection_system(plane, 9, 10)
        assert ps.y0[10] == catalan(9)

    def test_complete_binary_parity(self, complete_binary):
        ps = solve_protection_system(complete_binary, 3, 12)
        for n in range(2, 13, 2):
            assert ps.y0[n] == 0

    @pytest.mark.parametrize(
        "family,h,order",
        [
            ("plane", 3, 30),
            ("riordan", 3, 30),
            ("cayley", 2, 24),
            ("cayley", 4, 24),
            ("pruned-binary", 2, 24),
            ("1,1/2,1/3", 3, 24),
            ("1,0,1/6,1/10", 2, 24),
        ],
    )
    def test_residuals_vanish(self, family, h, order):
        if "," in family:
            f = make_polynomial(family.split(","))
        else:
            f = make_builtin(family)
        ps = solve_protection_system(f, h, order)
        zero = TruncatedSeries.zero(order)
        for res in ps.residuals():
            assert res == zero

    def test_series_nonincreasing_in_protection_level(self, plane):
        ps = solve_protection_system(plane, 4, 15)
        for k in range(ps.h):
            a, b = ps.series[k], ps.series[k + 1]
            assert all(a[n] >= b[n] for n in range(16))

    def test_dominated_by_unrestricted_series(self, plane):
        y = solve_Y(plane, 15)
        ps = solve_protection_system(plane, 3, 15)
        assert all(ps.y0[n] <= y[n] for n in range(16))

    def test_counts_nondecreasing_in_h(self, riordan):
        counts = [bounded_count(riordan, h, 13) for h in range(0, 13)]
        assert counts == sorted(counts)

    @settings(max_examples=200, deadline=None)
    @given(f=weight_families(), h=st.integers(1, 8), order=st.integers(1, 30))
    def test_windowed_y0_matches_full_solve(self, f, h, order):
        full = counting._solve_system_raw(f, h, order)
        windowed = counting._solve_system_raw(f, h, order, y0_only=True)
        assert windowed[0] == full[0]
        for col, ref in zip(windowed, full):
            assert col == ref[: len(col)]

    def test_longer_solve_replaces_cached_column(self, plane, monkeypatch):
        monkeypatch.setattr(families, "_STORE", {})
        key = (plane.cache_key, "Y0", 3)
        bounded_count(plane, 3, 11)
        assert len(families._STORE[key]) == 12
        assert bounded_count(plane, 3, 40) == solve_protection_system(plane, 3, 40).y0[40]
        assert len(families._STORE[key]) == 41
        # a shorter request reads the longer column, and a full solve
        # neither reads nor writes the store
        bounded_count(plane, 3, 20)
        solve_protection_system(plane, 3, 50)
        assert len(families._STORE[key]) == 41

    def test_names_of_one_family_share_columns(self, monkeypatch):
        monkeypatch.setattr(families, "_STORE", {})
        binary, *others = (
            make_builtin("binary"), make_builtin("complete-binary"),
            make_polynomial([1, 0, 1]),
        )
        expected = [bounded_count(binary, h, 31) for h in (2, 30)]

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a column that is already stored")

        # h = 2 reads Y_{2,0}, h = 30 = n - 1 reads Y
        monkeypatch.setattr(counting, "_solve_system_raw", no_solve)
        monkeypatch.setattr(counting, "_make_composer", no_solve)
        for f in others:
            assert [bounded_count(f, h, 31) for h in (2, 30)] == expected

    def test_rejects_degenerate_arguments(self, plane):
        with pytest.raises(ValueError):
            solve_protection_system(plane, 0, 5)
        with pytest.raises(ValueError):
            solve_protection_system(plane, 2, 0)


class TestCdf:
    def test_plane_four_vertices(self, plane):
        table = cdf_exact(plane, 4)
        assert [(r.h, r.p_exact) for r in table.rows] == [
            (0, Fraction(0)),
            (1, Fraction(3, 5)),
            (2, Fraction(4, 5)),
            (3, Fraction(1)),
        ]

    def test_single_vertex(self, plane):
        table = cdf_exact(plane, 1)
        assert [(r.h, r.p_exact) for r in table.rows] == [(0, Fraction(1))]

    def test_monotone_and_bounded(self, plane):
        table = cdf_exact(plane, 30, hmax=29)
        ps = [r.p_exact for r in table.rows]
        assert all(0 <= p <= 1 for p in ps)
        assert ps == sorted(ps)
        assert ps[-1] == 1

    def test_period_mismatch(self, complete_binary, riordan):
        with pytest.raises(PeriodMismatch):
            cdf_exact(complete_binary, 206)
        with pytest.raises(PeriodMismatch):
            cdf_exact(make_polynomial([1, 0, 0, 1]), 3)
        # w1 = 0 with period 1: n = 2 = 1 mod 1, but no tree has 2 vertices
        with pytest.raises(PeriodMismatch, match="size 2"):
            cdf_exact(riordan, 2)

    def test_period_ok_sizes(self, complete_binary):
        table = cdf_exact(complete_binary, 7, hmax=6)
        assert table.rows[-1].p_exact == 1


class TestExpectation:
    def test_single_vertex(self, plane):
        assert expectation_exact(plane, 1) == 0

    def test_plane_four_vertices_matches_oracle_average(self, plane):
        # direct weighted average over the enumerated distribution
        dist = oracle_distribution(plane, 4)
        total = sum(dist.weights.values(), Fraction(0))
        mean = sum((Fraction(m) * w for m, w in dist.weights.items()), Fraction(0))
        assert expectation_exact(plane, 4) == mean / total == Fraction(8, 5)

    def test_oracle_average_all_builtins(self):
        for name in ("plane", "binary", "cayley", "riordan"):
            f = make_builtin(name)
            for n in (5, 7):
                dist = oracle_distribution(f, n)
                total = sum(dist.weights.values(), Fraction(0))
                if total == 0:
                    continue
                mean = sum(
                    (Fraction(m) * w for m, w in dist.weights.items()), Fraction(0)
                )
                assert expectation_exact(f, n) == mean / total

    def test_period_mismatch(self, complete_binary):
        with pytest.raises(PeriodMismatch):
            expectation_exact(complete_binary, 6)
        with pytest.raises(PeriodMismatch, match="size 2"):
            expectation_exact(make_polynomial(["1", "0", "1/6", "1/10"]), 2)

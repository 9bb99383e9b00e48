import ast
import dataclasses
import os
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protek
from protek import (
    InvalidWeights,
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
from protek import _split, counting, families
from protek.series import compose_phi
from conftest import assert_no_child_left, catalan, split_on, weight_vectors


BUILTINS = ("plane", "binary", "pruned-binary", "cayley", "riordan", "complete-binary")
WEIGHT_VECTORS = ("1,1/2,1/3", "1,0,1/6,1/10", "1,0,0,1")


def family_of(name):
    return make_polynomial(name.split(",")) if "," in name else make_builtin(name)


@st.composite
def weight_families(draw):
    """A builtin, or a small polynomial family with w1 = 0 or w1 != 0."""
    if draw(st.booleans()):
        return make_builtin(draw(st.sampled_from(BUILTINS)))
    return make_polynomial(draw(weight_vectors()))


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

    @pytest.mark.parametrize("name", ["plane", "cayley"])
    def test_residuals_catch_one_wrong_coefficient(self, name):
        h, order = 3, 16
        ps = solve_protection_system(make_builtin(name), h, order)
        for k in (0, 1, h):
            column = list(ps.series[k])
            valuation = next(i for i, c in enumerate(column) if c)
            for i in (valuation, order):
                wrong = column.copy()
                wrong[i] += 1
                series = (*ps.series[:k], TruncatedSeries(wrong), *ps.series[k + 1 :])
                residuals = dataclasses.replace(ps, series=series).residuals()
                assert any(c for r in residuals for c in r), (k, i)

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

    @settings(max_examples=150, deadline=None)
    @given(f=weight_families(), order=st.integers(2, 34), data=st.data())
    def test_linear_tail_matches_windowed_solve(self, f, order, data):
        tail = [h for h in range(1, order + 1) if 2 * h + 5 >= order]
        expected = serial_y0(f, tail, order)
        assert counting._tail_y0(f, tail, order) == expected
        # a subset truncates at its own lowest level
        hs = data.draw(st.sets(st.sampled_from(tail), min_size=1))
        assert counting._tail_y0(f, hs, order) == {h: expected[h] for h in hs}

    @pytest.mark.parametrize("name", ("plane", "cayley"))
    def test_linear_tail_reaches_no_lower_level(self, name):
        # The linear system drops x*O(D^2), D of valuation h + 2, and the
        # x^(2h+5) terms of the D_1 and Y_{h,h} equations cancel: the
        # identity holds for order <= 2h + 5, the threshold of _prefetch_y0,
        # and no further.
        f = make_builtin(name)
        for order in range(6, 31):
            for h in range(1, order):
                got = counting._tail_y0(f, [h], order)[h]
                ref = counting._solve_system_raw(f, h, order, y0_only=True)[0]
                assert (got == ref) == (2 * h + 5 >= order), (order, h)

    def test_prefetch_forks_only_levels_below_the_tail(self, plane, monkeypatch):
        dealt = []

        def fork_map(fn, work):
            dealt.extend(work)
            return {h: fn(h) for h in work}

        monkeypatch.setattr(families, "_STORE", {})
        monkeypatch.setattr(_split, "_fork_map", fork_map)
        bounded_count(plane, 5, 30)  # a single read takes the same route
        assert dealt == [5]
        dealt.clear()
        counting._prefetch_y0(plane, range(1, 29), 30)  # a stored level is solved by neither route
        assert sorted(dealt) == [h for h in range(1, 29) if 2 * h + 5 < 30 and h != 5]
        assert stored_y0(plane) == serial_y0(plane, range(1, 29), 30)

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

    @pytest.mark.parametrize("name", BUILTINS + WEIGHT_VECTORS)
    def test_default_rows_end_at_the_protection_bound(self, name):
        f = family_of(name)
        rows = cdf_exact(f, 31).rows
        assert [r.h for r in rows] == list(range(counting._protection_bound(f, 31) + 1))
        assert rows[-1].p_exact == 1
        assert rows == cdf_exact(f, 31, hmax=30).rows[: len(rows)]


def test_pascal_rows_are_right_under_threads(monkeypatch):
    # every e^t composer of every thread reads the one stored table
    monkeypatch.setattr(families, "_STORE", {})
    cayley = make_builtin("cayley")
    start = threading.Barrier(8, timeout=60)
    got = []

    def read():
        start.wait()
        got.append([len(counting._pascal_rows(cayley, m)[m]) for m in range(400)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [list(range(1, 401))] * 8
    assert counting._pascal_rows(cayley, 399)[399] == [comb(399, j) for j in range(400)]
    assert counting._pascal_rows(make_builtin("plane"), 399) is None  # scaled by L^n


def test_kernel_is_built_once_per_family(monkeypatch):
    # every tail step reads the integer lists of Phi' from the store
    monkeypatch.setattr(families, "_STORE", {})
    calls = []
    poly_deriv = counting._poly_deriv
    monkeypatch.setattr(counting, "_poly_deriv", lambda a: calls.append(a) or poly_deriv(a))
    cdf_exact(make_polynomial(["1", "1/2", "1/3"]), 40)
    assert len(calls) <= 3


def test_counting_imports_no_float_code():
    # the exact module reaches neither mpmath nor the limit laws
    imported = set()
    for node in ast.walk(ast.parse(Path(counting.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert imported and not any(
        name.split(".")[0] == "mpmath" or "asymptotics" in name.split(".")
        for name in imported
    ), sorted(imported)


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

    # expectation_exact sums the CDF rows only up to _protection_bound, so
    # its value rests on that bound admitting every tree
    @pytest.mark.parametrize("name", BUILTINS)
    def test_is_the_full_tail_sum(self, name):
        f = make_builtin(name)
        for n in range(40, 0, -1):  # the first size stores every level
            assert_full_tail_sum(f, n)

    @settings(max_examples=25, deadline=None)
    @given(f=weight_families(), n=st.integers(1, 40))
    def test_is_the_full_tail_sum_of_weight_vectors(self, f, n):
        assert_full_tail_sum(f, n)

    @pytest.mark.parametrize("name", BUILTINS + WEIGHT_VECTORS)
    def test_protection_bound_admits_every_tree(self, name):
        f = family_of(name)
        ys = solve_Y(f, 60)
        for n in range(1, 61):
            assert bounded_count(f, counting._protection_bound(f, n), n) == ys[n]


def assert_full_tail_sum(f, n):
    """expectation_exact(f, n) against sum_{h < n-1} (y_n - y_{h,n}) / y_n,
    with no bound and no early stop."""
    yn = bounded_count(f, n - 1, n)
    if yn == 0:
        with pytest.raises(PeriodMismatch):
            expectation_exact(f, n)
        return
    tail = sum((yn - bounded_count(f, h, n) for h in range(n - 1)), Fraction(0))
    assert expectation_exact(f, n) == tail / yn


# ---------------------------------------------------------------------------
# level solves shared among forked children
# ---------------------------------------------------------------------------


def stored_y0(f):
    return {
        key[2]: column
        for key, column in families._STORE.items()
        if key[:2] == (f.cache_key, "Y0")
    }


def serial_y0(f, levels, order):
    return {h: counting._solve_system_raw(f, h, order, y0_only=True)[0] for h in levels}


class FailingSolve(InvalidWeights):
    pass


class TestSplitLevels:
    @pytest.mark.parametrize("cpus", (2, 3))
    @pytest.mark.parametrize("name", BUILTINS)
    def test_cdf_columns_match_serial(self, name, cpus, monkeypatch):
        f = make_builtin(name)
        forked = split_on(monkeypatch, cpus)
        table = cdf_exact(f, 31, hmax=30)
        assert_no_child_left()
        assert len(forked) == cpus - 1
        assert stored_y0(f) == serial_y0(f, range(1, 30), 31)
        yn = solve_Y(f, 31)[31]
        assert [r.p_exact for r in table] == [bounded_count(f, h, 31) / yn for h in range(31)]

    @pytest.mark.parametrize("cpus", (2, 3))
    def test_expectation_matches_serial(self, plane, riordan, cpus, monkeypatch):
        expected = [expectation_exact(f, 24) for f in (plane, riordan)]
        split_on(monkeypatch, cpus)
        assert [expectation_exact(f, 24) for f in (plane, riordan)] == expected
        assert_no_child_left()

    @settings(max_examples=25, deadline=None)
    @given(f=weight_families(), order=st.integers(3, 24), cpus=st.sampled_from((2, 3)))
    def test_columns_match_serial(self, f, order, cpus):
        levels = range(1, order - 1)
        windowed = [h for h in levels if 2 * h + 5 < order]
        with pytest.MonkeyPatch.context() as monkeypatch:
            forked = split_on(monkeypatch, cpus)
            counting._prefetch_y0(f, levels, order)
            assert_no_child_left()
            # only the windowed levels are dealt; a single one stays with
            # the caller, which stores it and the linear tail too
            assert len(forked) == max(min(cpus, len(windowed)) - 1, 0)
            assert stored_y0(f) == serial_y0(f, levels, order)

    def test_failed_child_is_solved_by_the_parent(self, plane, monkeypatch):
        parent = os.getpid()
        solve = counting._solve_system_raw

        def child_fails(f, h, order, y0_only=False):
            if os.getpid() != parent:
                raise FailingSolve("child")
            return solve(f, h, order, y0_only)

        forked = split_on(monkeypatch, 3)
        monkeypatch.setattr(counting, "_solve_system_raw", child_fails)
        counting._prefetch_y0(plane, range(1, 20), 30)
        assert_no_child_left()
        assert len(forked) == 2
        assert stored_y0(plane) == serial_y0(plane, range(1, 20), 30)

    def test_error_of_a_child_level_is_raised_typed(self, plane, monkeypatch):
        solve = counting._solve_system_raw
        forked = split_on(monkeypatch, 2)
        windowed = [h for h in range(1, 20) if 2 * h + 5 < 30]
        _, theirs = _split._deal({h: counting._y0_work(h, 30) for h in windowed}, 2)

        def level_fails(f, h, order, y0_only=False):
            if h == theirs[0]:
                raise FailingSolve(f"level {h}")
            return solve(f, h, order, y0_only)

        monkeypatch.setattr(counting, "_solve_system_raw", level_fails)
        with pytest.raises(FailingSolve, match=f"level {theirs[0]}"):
            cdf_exact(plane, 30, hmax=19)
        assert_no_child_left()
        assert forked == [theirs]

    @pytest.mark.parametrize("error", (FailingSolve, KeyboardInterrupt))
    def test_parent_error_kills_and_reaps_children(self, plane, error, monkeypatch):
        parent = os.getpid()
        solve = counting._solve_system_raw

        def parent_fails(f, h, order, y0_only=False):
            if os.getpid() == parent:
                raise error("parent")
            return solve(f, h, order, y0_only)

        forked = split_on(monkeypatch, 3)
        monkeypatch.setattr(counting, "_solve_system_raw", parent_fails)
        with pytest.raises(error):
            expectation_exact(plane, 60)
        assert_no_child_left()
        assert len(forked) == 2

    def test_serial_while_another_thread_is_alive(self, plane, monkeypatch):
        forked = split_on(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            table = cdf_exact(plane, 30, hmax=20)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forked == []
        assert stored_y0(plane) == serial_y0(plane, range(1, len(table.rows)), 30)

    def test_serial_without_fork_or_a_second_cpu(self, plane, monkeypatch):
        forked = split_on(monkeypatch, 1)
        cdf_exact(plane, 30)
        monkeypatch.setattr(_split, "_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        expectation_exact(plane, 30)
        assert forked == []

    def test_small_work_stays_serial(self, plane, monkeypatch):
        forked = split_on(monkeypatch, 2)
        monkeypatch.setattr(_split, "_SPLIT_WORK_FLOOR", 10**9)
        cdf_exact(plane, 40)
        assert forked == []

    def test_fork_map_of_plain_items(self, monkeypatch):
        forked = split_on(monkeypatch, 3)
        parent = os.getpid()
        work = {item: item % 4 for item in range(1, 10)}
        got = _split._fork_map(lambda x: (x * x, os.getpid() != parent), work)
        assert_no_child_left()
        assert len(forked) == 2
        assert got == {x: (x * x, any(x in items for items in forked)) for x in work}

    def test_fork_map_raises_the_error_of_a_child_item(self, monkeypatch):
        forked = split_on(monkeypatch, 2)
        work = {item: item for item in range(1, 10)}
        _, theirs = _split._deal(work, 2)

        def fails_on_one(x):
            if x == theirs[0]:
                raise ValueError(f"item {x}")
            return x

        # the child exits 1 and the parent runs its items again
        with pytest.raises(ValueError, match=f"item {theirs[0]}"):
            _split._fork_map(fails_on_one, work)
        assert_no_child_left()
        assert forked == [theirs]

    def test_split_module_loads_on_the_first_cdf(self):
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            import protek.cli
            from protek import make_builtin, solve_protection_system
            loaded = []
            with contextlib.redirect_stdout(io.StringIO()):
                # the oracle splits its search through _split, so it is not
                # among the commands that leave the module unloaded
                assert protek.cli.main(["constants", "--family", "cayley"]) == 0
                solve_protection_system(make_builtin("plane"), 3, 9).residuals()
                loaded.append("protek._split" in sys.modules)
                assert protek.cli.main(["cdf", "--family", "plane", "--n", "9"]) == 0
                loaded.append("protek._split" in sys.modules)
            print(*loaded)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(protek.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert (run.returncode, run.stdout) == (0, "False True\n"), run.stderr

    def test_levels_are_dealt_by_cost(self):
        work = {1: 5, 2: 4, 3: 3, 4: 3, 5: 1}
        assert _split._deal(work, 2) == [[1, 4], [2, 3, 5]]
        assert _split._deal(work, 3) == [[1], [2, 5], [3, 4]]

    @pytest.mark.parametrize("name", BUILTINS + WEIGHT_VECTORS)
    def test_protection_bound_covers_every_tree(self, name):
        f = family_of(name)
        for n in range(1, 14):
            largest = max(
                (m for m, w in oracle_distribution(f, n).weights.items() if w), default=0
            )
            assert counting._protection_bound(f, n) >= largest

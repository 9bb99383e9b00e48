import os
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protek import (
    ENUMERATION_CAP,
    CapExceeded,
    InvalidArgument,
    make_builtin,
    make_polynomial,
    oracle_check,
    oracle_distribution,
    solve_Y,
)
import protek.oracle as oracle_module
from protek import _split, counting, families
from protek.errors import ProtekError
from protek.oracle import _class_counts
from conftest import (
    OrderedTree,
    assert_no_child_left,
    catalan,
    complete_binary_tree,
    enumerate_trees,
    leaf,
    max_protection,
    path_tree,
    per_tree_distribution,
    split_on,
    tree_height,
)


class TestEnumeration:
    def test_single_vertex(self):
        trees = list(enumerate_trees(1))
        assert len(trees) == 1 and trees[0].size() == 1

    def test_catalan_counts(self):
        for n in range(1, 9):
            assert len(list(enumerate_trees(n))) == catalan(n - 1)

    def test_restricted_degrees(self):
        # 0-2 trees on five vertices: the cherry hangs left or right
        trees = list(enumerate_trees(5, {0, 2}))
        assert len(trees) == 2

    def test_outdegree_sum_invariant(self):
        for t in enumerate_trees(6):
            degs = list(t.outdegrees())
            assert sum(degs) == 5 and len(degs) == 6

    def test_lexicographic_word_order(self):
        words = [tuple(t.outdegrees()) for t in enumerate_trees(4)]
        assert words == sorted(words)
        assert words[0] == (1, 1, 1, 0)

    def test_deterministic(self):
        a = [tuple(t.outdegrees()) for t in enumerate_trees(7)]
        b = [tuple(t.outdegrees()) for t in enumerate_trees(7)]
        assert a == b

    def test_cap(self):
        assert ENUMERATION_CAP == 13
        with pytest.raises(CapExceeded):
            list(enumerate_trees(ENUMERATION_CAP + 1))


def figure_tree() -> OrderedTree:
    # fifteen vertices, maximum protection number 2
    v6 = OrderedTree([leaf()])
    v4 = OrderedTree([leaf(), v6])
    v8 = OrderedTree([leaf(), leaf(), leaf()])
    v9 = OrderedTree([OrderedTree([leaf()])])
    v2 = OrderedTree([v8, v9])
    return OrderedTree([leaf(), v2, leaf(), v4])


class TestMaxProtection:
    def test_single_vertex(self):
        assert max_protection(leaf()) == 0

    def test_path(self):
        assert max_protection(path_tree(5)) == 4

    def test_fifteen_vertex_example(self):
        t = figure_tree()
        assert t.size() == 15
        assert max_protection(t) == 2

    def test_complete_binary_reaches_height(self):
        for depth in (1, 2, 3, 4):
            t = complete_binary_tree(depth)
            assert max_protection(t) == depth == tree_height(t)

    def test_bounded_by_height(self):
        for t in enumerate_trees(7):
            assert max_protection(t) <= tree_height(t)

    def test_word_stack_matches_definition(self, plane):
        # every plane tree up to ten vertices, one explicit tree at a time
        for n in range(1, 11):
            assert oracle_distribution(plane, n).weights == per_tree_distribution(
                plane, n
            )


class TestDistribution:
    def test_plane_four_vertices(self, plane):
        dist = oracle_distribution(plane, 4)
        assert dist.weights == {1: Fraction(3), 2: Fraction(1), 3: Fraction(1)}

    def test_cayley_three_vertices(self, cayley):
        dist = oracle_distribution(cayley, 3)
        assert dist.weights == {1: Fraction(1, 2), 2: Fraction(1)}

    def test_complete_binary_three_vertices(self, complete_binary):
        dist = oracle_distribution(complete_binary, 3)
        assert dist.weights == {1: Fraction(1)}

    def test_totals_match_series(self):
        for name in ("plane", "binary", "cayley", "riordan"):
            f = make_builtin(name)
            y = solve_Y(f, 9)
            for n in range(1, 10):
                dist = oracle_distribution(f, n)
                assert dist.total() == y[n]
                assert all(0 <= m <= n - 1 for m in dist.weights)

    def test_cap(self, plane):
        with pytest.raises(CapExceeded):
            oracle_distribution(plane, ENUMERATION_CAP + 1)

    @pytest.mark.parametrize(
        "family", ["plane", "cayley", "riordan", "1,1/2,1/3", "1,0,1/6,1/10"]
    )
    def test_matches_per_tree_reference(self, family):
        if "," in family:
            f = make_polynomial(family.split(","))
        else:
            f = make_builtin(family)
        for n in range(1, 10):
            assert oracle_distribution(f, n).weights == per_tree_distribution(f, n)


def cycle_lemma_count(support, n):
    """(1/n) [z^(n-1)] (sum_{d in support} z^d)^n: the number of trees on n
    vertices with outdegrees in ``support``."""
    power = [1] + [0] * (n - 1)
    for _ in range(n):
        power = [sum(power[k - d] for d in support if d <= k) for k in range(n)]
    return power[n - 1] // n


@st.composite
def finite_families(draw):
    """(family, support): w0 = 1 and random positive weights on a random
    support in 0..6 that has some degree >= 2."""
    high = draw(st.sets(st.integers(2, 6), min_size=1))
    w1 = draw(st.booleans())
    top = max(high)
    weight = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
    ws = [Fraction(1)] + [
        draw(weight) if d in high or (d == 1 and w1) else Fraction(0)
        for d in range(1, top + 1)
    ]
    return make_polynomial(ws), {d for d, w in enumerate(ws) if w}


class TestRightToLeftPass:
    @settings(max_examples=30, deadline=None)
    @given(finite_families(), st.integers(1, 9))
    def test_matches_explicit_trees(self, family, n):
        f, support = family
        assert oracle_distribution(f, n).weights == per_tree_distribution(f, n)
        allowed = tuple(sorted(d for d in support if d < n))
        counted = sum(_class_counts(n, allowed).values())
        assert counted == cycle_lemma_count(support, n)


class TestBoundary:
    def test_fractional_nmax(self, plane):
        with pytest.raises(InvalidArgument):
            oracle_check(plane, 2.5)

    def test_bool_nmax(self, plane):
        with pytest.raises(InvalidArgument):
            oracle_check(plane, True)

    def test_float_size(self, plane):
        with pytest.raises(InvalidArgument):
            oracle_distribution(plane, 3.0)

    def test_fractional_degree(self):
        with pytest.raises(InvalidArgument):
            list(enumerate_trees(5, {0, 1.5}))

    def test_string_degree(self):
        with pytest.raises(InvalidArgument):
            list(enumerate_trees(5, {0, 2, "x"}))

    def test_negative_degree(self):
        with pytest.raises(InvalidArgument):
            list(enumerate_trees(5, {0, -1, 2}))

    # enumerate_trees checks its arguments at the call, before any tree is built
    def test_cap_at_the_call(self):
        with pytest.raises(CapExceeded):
            enumerate_trees(ENUMERATION_CAP + 1)

    def test_negative_degree_at_the_call(self):
        with pytest.raises(InvalidArgument):
            enumerate_trees(5, {0, -1})


class TestOracleCheck:
    @pytest.mark.parametrize("name", ["plane", "riordan", "cayley"])
    def test_builtins_pass(self, name):
        report = oracle_check(make_builtin(name), 8)
        assert report.passed and report.first_failure() is None

    @pytest.mark.parametrize("weights", [["1", "1/2", "1/4"], ["1", "0", "1/3"]])
    def test_fractional_weight_families_pass(self, weights):
        report = oracle_check(make_polynomial(weights), 9)
        assert report.passed

    def test_even_sizes_are_empty_for_binary(self):
        report = oracle_check(make_polynomial([1, 0, 1]), 8)
        assert report.passed
        zero_rows = [r for r in report.rows if r.n % 2 == 0]
        assert zero_rows and all(r.oracle_weight == 0 for r in zero_rows)

    def test_cap(self, plane):
        with pytest.raises(CapExceeded):
            oracle_check(plane, ENUMERATION_CAP + 1)

    @pytest.mark.parametrize("nmax", [0, -5])
    def test_nmax_below_one_is_an_error(self, plane, nmax):
        with pytest.raises(InvalidArgument):
            oracle_check(plane, nmax)

    def test_each_level_is_solved_once(self, plane, monkeypatch):
        # largest size first: levels 1..nmax-2 are solved once, at nmax, and
        # every smaller size reads the stored column; ascending sizes would
        # make 45 solves
        monkeypatch.setattr(families, "_STORE", {})
        solve = counting._solve_system_raw
        solved = []

        def counted(f, h, order, **kwargs):
            solved.append((h, order))
            return solve(f, h, order, **kwargs)

        monkeypatch.setattr(counting, "_solve_system_raw", counted)
        assert oracle_check(plane, 11).passed
        assert sorted(solved) == [(h, 11) for h in range(1, 10)]

    def test_mismatch_fails_the_gate(self, plane, monkeypatch):
        exact = oracle_module.bounded_count

        def off_at_5_2(f, h, n):
            value = exact(f, h, n)
            return value + 1 if (n, h) == (5, 2) else value

        monkeypatch.setattr(oracle_module, "bounded_count", off_at_5_2)
        report = oracle_check(plane, 6)
        assert not report.passed
        first = report.first_failure()
        assert (first.n, first.h, first.ok) == (5, 2, False)
        assert first.series_coefficient == first.oracle_weight + 1
        assert [r for r in report.rows if not r.ok] == [first]


def family_of(name):
    return make_polynomial(name.split(",")) if "," in name else make_builtin(name)


def support(f, nmax):
    return tuple(j for j in range(nmax) if f.weight(j) != 0)


class FailingPart(ProtekError):
    pass


class TestSplitSearch:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize(
        "name", ["plane", "cayley", "riordan", "binary", "1,1/2,1/3", "1,0,1/6,1/10"]
    )
    def test_parts_add_up_to_one_search(self, name, cpus, monkeypatch):
        allowed = support(family_of(name), 11)
        serial = oracle_module._part_counts(11, allowed, 0, 1)
        forked = split_on(monkeypatch, cpus)
        classes = oracle_module._tree_classes(11, allowed)
        assert_no_child_left()
        assert forked == [[part] for part in range(1, cpus)]
        assert {n: dict(c) for n, c in classes.items()} == serial

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_every_tree_falls_to_one_part(self, parts):
        # down to nmax = 1, where the suffixes are dealt at depth 0
        for name in ("plane", "1,0,1/6,1/10"):
            for nmax in range(1, 10):
                allowed = support(family_of(name), nmax)
                summed = {n: Counter() for n in range(1, nmax + 1)}
                for part in range(parts):
                    for n, sized in oracle_module._part_counts(nmax, allowed, part, parts).items():
                        summed[n].update(sized)
                whole = oracle_module._part_counts(nmax, allowed, 0, 1)
                assert {n: dict(c) for n, c in summed.items()} == whole

    def test_one_search_counts_every_size(self):
        for name in ("plane", "riordan", "1,1/2,1/3", "1,0,1/6,1/10"):
            f = family_of(name)
            allowed = support(f, 10)
            counts = oracle_module._part_counts(10, allowed, 0, 1)
            trees = oracle_module._tree_counts(10, allowed)
            for n in range(1, 11):
                assert sum(counts[n].values()) == trees[n - 1]
                assert trees[n - 1] == cycle_lemma_count(set(allowed), n)

    def test_work_floor(self):
        # the verify workload's nmax = 11 splits; the probe and binary at the
        # cap stay in the calling process
        def work(name, nmax):
            return oracle_module._enumeration_work(nmax, support(family_of(name), nmax))

        assert work("plane", 11) >= _split._SPLIT_WORK_FLOOR
        assert work("cayley", 11) >= _split._SPLIT_WORK_FLOOR
        assert work("plane", 5) < _split._SPLIT_WORK_FLOOR
        assert work("binary", 13) < _split._SPLIT_WORK_FLOOR

    def test_one_more_part_per_floor_of_work(self, plane, monkeypatch):
        # 23714 trees at nmax = 11 are between one and two floors of work,
        # so eight CPUs still make two parts
        floor = _split._SPLIT_WORK_FLOOR
        forked = split_on(monkeypatch, 8)
        monkeypatch.setattr(_split, "_SPLIT_WORK_FLOOR", floor)
        assert oracle_check(plane, 11).passed
        assert_no_child_left()
        assert forked == [[1]]

    def test_failed_child_part_runs_in_the_parent(self, plane, monkeypatch):
        parent = os.getpid()
        part_counts = oracle_module._part_counts

        def child_fails(*args):
            if os.getpid() != parent:
                raise FailingPart("child")
            return part_counts(*args)

        serial = oracle_check(plane, 11)
        forked = split_on(monkeypatch, 3)
        monkeypatch.setattr(oracle_module, "_part_counts", child_fails)
        assert oracle_check(plane, 11) == serial
        assert_no_child_left()
        assert forked == [[1], [2]]

    def test_error_of_a_part_is_raised_typed(self, plane, monkeypatch):
        part_counts = oracle_module._part_counts

        def part_fails(nmax, allowed, part, parts):
            if part == 1:
                raise FailingPart(f"part {part}")
            return part_counts(nmax, allowed, part, parts)

        forked = split_on(monkeypatch, 2)
        monkeypatch.setattr(oracle_module, "_part_counts", part_fails)
        with pytest.raises(FailingPart, match="part 1"):
            oracle_distribution(plane, 11)
        assert_no_child_left()
        assert forked == [[1]]

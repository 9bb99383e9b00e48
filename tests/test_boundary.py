"""Every integer argument of the library goes through errors.check_int.

Each entry point gets a fractional value, a bool and the first value below
its bound, and must raise InvalidArgument for each.  Precision arguments
share the bound of --prec: 64 bits.
"""

import pytest

from protek import (
    InvalidArgument,
    TruncatedSeries,
    bounded_count,
    cdf_exact,
    default_hmax,
    eta_sequence,
    expectation_exact,
    family_constants,
    make_builtin,
    oracle_check,
    oracle_distribution,
    solve_protection_system,
    solve_rho_h,
    solve_tau_rho,
    solve_Y,
)
from protek.errors import check_int
from conftest import enumerate_trees

PLANE = make_builtin("plane")

# (id, call taking the argument under test, lowest valid value)
ENTRY_POINTS = [
    ("TruncatedSeries.x order", lambda v: TruncatedSeries.x(v), 1),
    ("TruncatedSeries.zero order", lambda v: TruncatedSeries.zero(v), 0),
    ("TruncatedSeries.constant order", lambda v: TruncatedSeries.constant(1, v), 0),
    ("TruncatedSeries.truncate order", lambda v: TruncatedSeries.x(3).truncate(v), 0),
    ("solve_Y order", lambda v: solve_Y(PLANE, v), 1),
    ("solve_protection_system h", lambda v: solve_protection_system(PLANE, v, 5), 1),
    ("solve_protection_system order", lambda v: solve_protection_system(PLANE, 2, v), 1),
    ("bounded_count h", lambda v: bounded_count(PLANE, v, 5), 0),
    ("bounded_count n", lambda v: bounded_count(PLANE, 2, v), 1),
    ("cdf_exact n", lambda v: cdf_exact(PLANE, v), 1),
    ("cdf_exact hmax", lambda v: cdf_exact(PLANE, 5, v), 0),
    ("expectation_exact n", lambda v: expectation_exact(PLANE, v), 1),
    ("default_hmax n", lambda v: default_hmax(family_constants(PLANE), v), 1),
    ("oracle_distribution n", lambda v: oracle_distribution(PLANE, v), 1),
    ("enumerate_trees n", lambda v: enumerate_trees(v), 1),
    ("enumerate_trees outdegree", lambda v: enumerate_trees(5, {0, 2, v}), 0),
    ("oracle_check nmax", lambda v: oracle_check(PLANE, v), 1),
    ("solve_rho_h h", lambda v: solve_rho_h(PLANE, v), 2),
    ("eta_sequence kmax", lambda v: eta_sequence(family_constants(PLANE), PLANE, v), 0),
]

PRECISION_ENTRY_POINTS = [
    ("solve_tau_rho", lambda p: solve_tau_rho(PLANE, p)),
    ("family_constants", lambda p: family_constants(PLANE, p)),
    ("solve_rho_h", lambda p: solve_rho_h(PLANE, 3, p)),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}={value!r}")
        for name, call, lo in ENTRY_POINTS
        for value in (2.5, True, lo - 1)
    ],
)
def test_integer_arguments_are_checked(call, value):
    with pytest.raises(InvalidArgument):
        call(value)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name} precision_bits={value!r}")
        for name, call in PRECISION_ENTRY_POINTS
        for value in (63, 100.5, True)
    ],
)
def test_precision_arguments_are_checked(call, value):
    with pytest.raises(InvalidArgument):
        call(value)


def test_lowest_precision_is_accepted():
    assert family_constants(PLANE, 64).precision_bits == 64


@pytest.mark.parametrize(
    "value, message",
    [
        (0, "n must be >= 1"),
        (2.5, "n must be an int, got 2.5"),
        (True, "n must be an int, got True"),
        ("3", "n must be an int, got '3'"),
    ],
)
def test_check_int_messages(value, message):
    with pytest.raises(InvalidArgument) as exc:
        check_int("n", value, 1)
    assert str(exc.value) == message


def test_check_int_accepts_the_bound():
    assert check_int("h", 2, 2) is None

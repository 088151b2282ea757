"""Quantization primitive tests: frozen examples plus algebraic properties."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quantloop.numerics import (
    SQRT2_MINUS_1,
    format_scalar,
    parse_scalar,
    round_half_away,
    rounding_error,
    sign,
)
from oracles import frac_part, int_part, parse_csv_scalar

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=200)


@pytest.mark.parametrize("z, expected", [
    (0, 0),
    (F(0), 0),
    (-0.3, -1),
    (F(7, 2), 1),
    (12, 1),
    (-F(1, 1000), -1),
])
def test_sign(z, expected):
    assert sign(z) == expected


@pytest.mark.parametrize("z, expected", [
    (1.7, 1),
    (-1.7, -1),
    (-3, -3),
    (F(9, 4), 2),
    (F(-9, 4), -2),
    (0, 0),
])
def test_int_part_truncates_toward_zero(z, expected):
    assert int_part(z) == expected


@pytest.mark.parametrize("z, expected", [
    (F(-17, 10), F(-7, 10)),
    (2, 0),
    (F(1, 2), F(1, 2)),
    (F(9, 4), F(1, 4)),
])
def test_frac_part(z, expected):
    assert frac_part(z) == expected


def test_frac_part_float_matches_subtraction():
    assert frac_part(-1.7) == -1.7 - (-1)
    assert frac_part(0.5) == 0.5


@pytest.mark.parametrize("z, expected", [
    (0.5, 1),
    (-0.5, -1),
    (0.49, 0),
    (F(-3, 2), -2),
    (F(3, 2), 2),
    (F(5, 2), 3),      # half away from zero, not to even
    (F(-5, 2), -3),
    (F(12, 10), 1),
    (F(-12, 10), -1),
    (F(99, 100), 1),
    (0, 0),
    (7, 7),
])
def test_round_half_away(z, expected):
    assert round_half_away(z) == expected


@pytest.mark.parametrize("z, expected", [
    (F(12, 10), F(2, 10)),
    (F(1, 2), F(-1, 2)),   # attains the bound
    (3, 0),
])
def test_rounding_error(z, expected):
    assert rounding_error(z) == expected


@given(rationals)
def test_rounding_error_bound(z):
    assert abs(z - round_half_away(z)) <= F(1, 2)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_rounding_error_bound_float(z):
    assert abs(rounding_error(z)) <= 0.5


def _is_half_tie(b):
    return abs(frac_part(b)) == F(1, 2)


@given(rationals, rationals.filter(lambda b: not _is_half_tie(b)))
@example(F(1, 2), F(99, 100))
@example(F(-7, 2), F(-1, 100))
def test_round_of_round_plus_value(a, b):
    # rounding distributes over an already-rounded first addend
    assert round_half_away(round_half_away(a) + b) == \
        round_half_away(a) + round_half_away(b)


half_ties = st.integers(min_value=-50, max_value=50).map(lambda j: j + F(1, 2))


@given(rationals, half_ties)
def test_round_of_round_plus_value_at_ties(a, b):
    # At half-integer ties the away-from-zero rule keys on the sign of the
    # shifted sum, so the distributive identity holds exactly when the
    # shift leaves the tie on the side of its own fractional part.
    lhs = round_half_away(round_half_away(a) + b)
    rhs = round_half_away(a) + round_half_away(b)
    shifted = round_half_away(a) + b  # integer + half-tie, never zero
    if (shifted > 0) == (frac_part(b) > 0):
        assert lhs == rhs
    else:
        assert lhs == rhs - sign(frac_part(b))


def test_round_shift_tie_counterexample():
    # the canonical crossing tie: rounding -1/2 goes down, +1/2 goes up
    a, b = F(-1, 2), F(1, 2)
    assert round_half_away(round_half_away(a) + b) == -1
    assert round_half_away(a) + round_half_away(b) == 0


@given(rationals)
@example(F(1, 2))
@example(F(-7, 2))
def test_round_is_odd(z):
    assert round_half_away(-z) == -round_half_away(z)


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_round_fixes_integers(n):
    assert round_half_away(n) == n
    assert round_half_away(F(n)) == n


@pytest.mark.parametrize("text, expected", [
    ("3/10", F(3, 10)),
    ("-3/10", F(-3, 10)),
    ("0.4", F(2, 5)),
    ("-1.7", F(-17, 10)),
    ("2", F(2)),
    ("  1/2 ", F(1, 2)),
])
def test_parse_scalar_exact_forms(text, expected):
    value = parse_scalar(text)
    assert value == expected
    assert isinstance(value, F)


def test_parse_scalar_float_forms():
    assert parse_scalar("float:0.4") == 0.4
    assert isinstance(parse_scalar("float:0.4"), float)
    assert parse_scalar("sqrt2-1") == SQRT2_MINUS_1
    assert parse_scalar("sqrt2-1") == math.sqrt(2) - 1


def test_parse_scalar_passthrough_and_errors():
    assert parse_scalar(3) == F(3)
    assert parse_scalar(F(1, 3)) == F(1, 3)
    assert parse_scalar(0.25) == 0.25
    with pytest.raises(ValueError):
        parse_scalar("abc")
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(TypeError):
        parse_scalar(None)
    with pytest.raises(TypeError):
        parse_scalar(True)


@pytest.mark.parametrize("value", [
    "float:nan", "float:inf", "float:-inf", "float:1e999", "float:-1e999",
    " float:NaN ", float("nan"), float("inf"), float("-inf"),
])
def test_parse_scalar_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="non-finite"):
        parse_scalar(value)


def test_parse_scalar_keeps_large_finite_values():
    assert parse_scalar("float:1e308") == 1e308
    assert parse_scalar("float:-0.0") == 0.0
    assert parse_scalar("1e999") == F(10) ** 999  # exact, so never overflows


@pytest.mark.parametrize("value, text", [
    (F(3, 10), "3/10"),
    (F(-3, 10), "-3/10"),
    (F(5), "5"),
    (0.1, "0.1"),
    (SQRT2_MINUS_1, repr(SQRT2_MINUS_1)),
])
def test_format_scalar(value, text):
    assert format_scalar(value) == text


@given(st.one_of(
    st.builds(F, st.integers(-10**60, 10**60), st.integers(1, 10**60)),
    st.builds(lambda n: F(2 * n + 1, 2), st.integers(-10**20, 10**20)),
    st.integers(-10**60, 10**60),
    st.floats(allow_nan=False, allow_infinity=False)))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072009e-308)
@example(1e300)
@example(-1e300)
@example(-2.5)
@example(0.49999999999999994)
@example(F(-1, 2))
def test_format_scalar_needs_no_csv_quoting(z):
    # the writers join fields with commas and fill row templates with %,
    # relying on no field holding a comma, a quote, a % or a line break
    assert not set(format_scalar(z)) & set(',"%\r\n')


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_exact_round_trip_lowest_terms(n, m):
    f = F(n, m)
    back = parse_scalar(format_scalar(f))
    assert back == f
    assert (back.numerator, back.denominator) == (f.numerator, f.denominator)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_csv_round_trip(x):
    assert parse_csv_scalar(format_scalar(x), "float") == x

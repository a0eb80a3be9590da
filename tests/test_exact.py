from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute import compare_root
from steinergut import SquareRoot, decimal_str, frac_str, value_str


def test_frac_str_hides_unit_denominator():
    assert frac_str(7) == "7"
    assert frac_str(Fraction(7, 1)) == "7"
    assert frac_str(Fraction(22, 7)) == "22/7"
    assert frac_str(Fraction(-3, 4)) == "-3/4"


def test_value_str_dispatch():
    assert value_str(5) == "5"
    assert value_str(Fraction(1, 3)) == "1/3"
    assert value_str(SquareRoot(Fraction(2048))) == "sqrt(2048)"
    assert value_str(SquareRoot(Fraction(9, 4))) == "sqrt(9/4)"


def test_square_root_comparisons():
    # the squared comparison the bound tests use as their reference
    r = SquareRoot(Fraction(2048))  # about 45.25
    assert compare_root(r, 46) == -1
    assert compare_root(r, 45) == 1
    assert compare_root(SquareRoot(Fraction(49)), 7) == 0
    assert compare_root(SquareRoot(Fraction(9, 4)), Fraction(3, 2)) == 0


def test_decimal_str_truncates():
    assert decimal_str(Fraction(22, 7), 3) == "3.142"
    assert decimal_str(Fraction(22, 7), 0) == "3"
    assert decimal_str(7, 2) == "7.00"
    assert decimal_str(Fraction(-22, 7), 3) == "-3.142"
    assert decimal_str(SquareRoot(Fraction(2)), 4) == "1.4142"
    assert decimal_str(SquareRoot(Fraction(2048)), 2) == "45.25"


def test_decimal_str_rejects_negative_digits():
    with pytest.raises(ValueError):
        decimal_str(1, -1)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
def test_decimal_matches_fraction_truncation(num, digits):
    f = Fraction(num, 997)
    text = decimal_str(f, digits)
    rebuilt = Fraction(text)
    assert rebuilt <= f < rebuilt + Fraction(1, 10**digits)


@given(st.fractions(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**5))
def test_squared_comparison_agrees_with_real_order(square, other):
    r = SquareRoot(square)
    assert (compare_root(r, other) <= 0) == (square <= other * other)
    assert (compare_root(r, other) >= 0) == (square >= other * other)

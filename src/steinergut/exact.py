"""Exact scalar plumbing: rational rendering and square roots compared by squaring."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


def frac_str(x: Union[int, Fraction]) -> str:
    """Render as ``num/den``, omitting the denominator when it is 1."""
    num, den = x.as_integer_ratio()
    if den == 1:
        return str(num)
    return f"{num}/{den}"


@dataclass(frozen=True)
class SquareRoot:
    """A nonnegative value known exactly as the square root of a rational.

    Bounds compare it with an index value through the square, so no
    precision is ever lost; decimal() is a convenience only.
    """

    square: Fraction

    def __str__(self) -> str:
        return f"sqrt({frac_str(self.square)})"

    def decimal(self, digits: int) -> str:
        scaled = self.square.numerator * 10 ** (2 * digits) // self.square.denominator
        return _place_point(math.isqrt(scaled), digits)


Scalar = Union[int, Fraction, SquareRoot]


def _place_point(unscaled: int, digits: int) -> str:
    s = str(unscaled)
    if digits == 0:
        return s
    s = s.rjust(digits + 1, "0")
    return f"{s[:-digits]}.{s[-digits:]}"


def value_str(x: Scalar) -> str:
    """Exact text form of a scalar: ``num/den`` or ``sqrt(num/den)``."""
    if isinstance(x, SquareRoot):
        return str(x)
    return frac_str(x)


def decimal_str(x: Scalar, digits: int) -> str:
    """Truncated decimal rendering with ``digits`` places (convenience column)."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    if isinstance(x, SquareRoot):
        return x.decimal(digits)
    f = Fraction(x)
    if f < 0:
        return "-" + decimal_str(-f, digits)
    scaled = f.numerator * 10**digits // f.denominator
    return _place_point(scaled, digits)


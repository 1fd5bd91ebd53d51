"""Exact rationals from numbers and p/q cells; half-up rounding for display and name counts."""

from __future__ import annotations

import math
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache


def to_fraction(value) -> Fraction:
    """Coerce a number to an exact Fraction.

    Floats go through their shortest decimal repr, so a literal like 0.4
    means 2/5 rather than its binary neighbour.  Strings and Decimals parse
    exactly; use Fraction directly for non-decimal rationals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot convert non-finite value {value!r}")
        return Fraction(repr(value))
    if isinstance(value, (str, Decimal)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


# Cut-off cells repeat in every chart and document of a bucket count: each is
# parsed once while it stays among the last few thousand (errors are not kept).
@lru_cache(maxsize=4096)
def fraction_cell(text: str) -> Fraction:
    with suppress(ZeroDivisionError):  # "1/0"
        if str(value := Fraction(text)) == text:
            return value
    raise ValueError(f"expected a p/q string in lowest terms with q > 0, not {text!r}")


def round_half_up(value):
    """Round to the nearest integer, halves toward +infinity (1.5 -> 2, -1.5 -> -1).

    Floats round like the exact Fraction branch: x - floor(x) is exact, where
    x + 0.5 would round 0.49999999999999994 up to 1.0.  An int comes back
    unchanged, and a float64 array as the float64 array of its rounded values.
    """
    if not isinstance(value, float):  # floats first: Fraction is an ABC, slow to test
        if isinstance(value, Fraction):  # floor(p/q + 1/2) in ints
            return (2 * value.numerator + value.denominator) // (2 * value.denominator)
    rounded = (floor := value // 1) + (value - floor >= 0.5)  # x // 1: exact, on arrays too
    return int(rounded) if isinstance(value, float) else rounded

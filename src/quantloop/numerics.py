"""Scalar arithmetic and the quantization primitives used by the loop.

Signals are plain Python numbers.  Exact values are ``fractions.Fraction``
(or ``int``); binary floating point values are ``float``.  Python's numeric
tower already implements the mixing rule we rely on -- exact op exact stays
exact, anything combined with a float becomes float -- so there is no
wrapper class.

The quantizer is a mid-tread rounding operator that rounds half-magnitudes
*away from zero*.  The behaviour of several boundary cases (any value with
fractional part exactly one half) depends on this, so built-in ``round``
(banker's rounding) must never be applied to signal values.
"""

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]

#: Quantization error of the only irrational disturbance used in the
#: reference experiments.
SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0


def is_exact(z: Scalar) -> bool:
    """True for int/Fraction values, False for binary floats."""
    return not isinstance(z, float)


def sign(z: Scalar) -> int:
    """Sign of ``z``: 1 for positive, 0 for zero, -1 for negative."""
    if z > 0:
        return 1
    if z < 0:
        return -1
    return 0


def round_half_away(z: Scalar) -> int:
    """Round ``z`` to the nearest integer, halves away from zero.

    The comparison against one half is a plain exact comparison in both
    arithmetic modes (doubling is lossless for floats, so no epsilon is
    involved).
    """
    n = math.trunc(z)
    f = z - n
    if 2 * abs(f) >= 1:
        return n + (1 if z > 0 else -1)
    return n


def rounding_error(z: Scalar) -> Scalar:
    """``z - round_half_away(z)``; always within [-1/2, 1/2]."""
    return z - round_half_away(z)


def parse_scalar(value: Union[str, int, Fraction, float]) -> Scalar:
    """Parse a scalar literal from a config file or the command line.

    Accepted string forms:

    * ``"n/m"``        exact rational, e.g. ``"3/10"``
    * decimal          exact, reduced: ``"0.4"`` means 2/5, ``"2"`` means 2
    * ``"float:X"``    binary double, e.g. ``"float:0.4"``
    * ``"sqrt2-1"``    keyword for the float value sqrt(2) - 1

    Ints become exact Fractions; Fractions and finite floats pass through.
    NaN and infinities (``"float:nan"``, ``"float:1e999"``) are rejected.
    """
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite float: {value!r}")
    if isinstance(value, (Fraction, float)):
        return value
    if not isinstance(value, str):
        raise TypeError(f"cannot parse a scalar from {type(value).__name__}")
    text = value.strip()
    if text == "sqrt2-1":
        return SQRT2_MINUS_1
    if text.startswith("float:"):
        try:
            return parse_scalar(float(text[len("float:"):]))
        except ValueError as exc:
            raise ValueError(f"bad float literal {text!r}: {exc}") from None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad scalar literal: {text!r}") from None


def format_scalar(z: Scalar) -> str:
    """Serialize a scalar for CSV/report output.

    Exact values print as ``n/m`` (bare ``n`` when the denominator is 1),
    floats as their shortest round-trip decimal.
    """
    if isinstance(z, float):
        return repr(z)
    f = z if isinstance(z, Fraction) else Fraction(z)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"

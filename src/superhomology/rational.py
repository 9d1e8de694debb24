"""Exact rational scalars.

Every coefficient in this package is exact.  Structure constants,
multivectors and pair brackets hold ``fractions.Fraction`` values (reduced,
positive denominator, arbitrary precision).  This module
only adds the string form used by every file format: ``"p/q"`` or ``"p"``,
no decimals.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (q > 0 after reduction) into a Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if not s or "." in s or "e" in s.lower():
        raise ValueError(f"not a decimal-free rational: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; integers print without ``/1``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

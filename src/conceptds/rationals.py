"""Exact rationals: parsing, rounding, formatting, and the numerator form.

Every value at this package's API is a fractions.Fraction; floats exist only
at the presentation boundary.  Every value taken in, by a document or a
library call, is read by `parse_rational` (`parse_rationals` for a sequence),
so its bounds and error rule hold at every entry point.  Sums of mass run on
integers, numerators over the lcm of the values' denominators, and
`common_numerators` and `fractions_over` convert each way.  Rounding is half-away-from-zero, which is
the convention used by the bundled example tables.
"""

from __future__ import annotations

import math
import numbers
import re
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ConceptDSError, ParseError, check_capacity, value_text

# Every float's shortest repr has an exponent within 324, so JSON numbers
# always pass; "1e1000000" would build a 3.3-million-bit numerator.
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)$")
# ASCII "p/q" and integers: the forms documents write, read without
# Fraction's own regex.
_INTEGER_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(value: object) -> Fraction:
    """Parse "p/q" or decimal strings (and numbers) into an exact Fraction.

    A string of ASCII digits, with an optional leading "-" and an optional
    "/" and denominator, is read with `int` and built as Fraction(p, q).
    Every other string (decimals, exponents, "+", "_", inner whitespace,
    non-ASCII digits) goes to Fraction's own parser.  Either way a string
    too long for `int` is a ParseError, not a ValueError.

    Ints and other `numbers.Rational`s are exact; a bool is refused.  A
    float is read through its shortest repr, so 0.2 means exactly 1/5, and a
    Decimal through its string; a decimal exponent is bounded by
    MAX_DECIMAL_EXPONENT before any power of ten is built.
    """
    if type(value) is not str:
        if isinstance(value, bool) or not isinstance(
                value, (numbers.Rational, float, Decimal, str)):
            raise ParseError(
                f"expected a rational number, got {value_text(value)}")
        if isinstance(value, numbers.Rational):
            return Fraction(value)
        # float.__repr__, since a float subclass may print its type name.
        value = float.__repr__(value) if isinstance(value, float) else str(value)
    text = value.strip()
    ratio = _INTEGER_RATIO.fullmatch(text)
    if ratio is None:
        exponent = _EXPONENT.search(text)
        if exponent:
            try:
                magnitude = abs(int(exponent.group(1)))
            except ValueError as exc:
                raise ParseError(f"not a rational number: {value!r}") from exc
            check_capacity("decimal exponent", magnitude, MAX_DECIMAL_EXPONENT)
    try:
        if ratio is None:
            return Fraction(text)
        p, q = ratio.groups()
        return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {value!r}") from exc


def parse_rationals(values: Iterable, name: Callable[[int], str],
                    error: type[ConceptDSError]) -> tuple[Fraction, ...]:
    """Each value read by `parse_rational`; a Fraction passes as it is.  Only
    on a ParseError is each value read again, and the first bad one, at i,
    raises `error`: "{name(i)} {value}, which is not a rational number",
    the value printed by `errors.value_text`."""
    values = tuple(values)
    try:
        return tuple([v if type(v) is Fraction else parse_rational(v)
                      for v in values])
    except ParseError:
        for i, value in enumerate(values):
            try:
                parse_rational(value)
            except ParseError as exc:
                raise error(f"{name(i)} {value_text(value)}, which is not a "
                            "rational number") from exc
        raise


def common_numerators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, numerators): d is the lcm of the values' denominators, and value i
    is numerators[i] / d.  No values give d = 1."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


def fractions_over(numerators: Sequence[int], d: int) -> list[Fraction]:
    """Each numerator / d, one Fraction per distinct numerator."""
    exact = {x: Fraction(x, d) for x in set(numerators)}
    return [exact[x] for x in numerators]


def round_half_away(x: Fraction, digits: int = 2) -> Fraction:
    """Round to `digits` decimal places, ties going away from zero."""
    scale = Fraction(10) ** digits
    n = math.floor(abs(x) * scale + Fraction(1, 2))
    return Fraction(-n if x < 0 else n) / scale


def format_fixed(x: Fraction, digits: int = 2) -> str:
    """Render x rounded half-away-from-zero with exactly `digits` decimals."""
    n = round_half_away(x, digits) * Fraction(10) ** digits
    units = abs(int(n))
    sign = "-" if n < 0 else ""
    if digits == 0:
        return f"{sign}{units}"
    return f"{sign}{units // 10 ** digits}.{units % 10 ** digits:0{digits}d}"


def format_exact(x: Fraction) -> str:
    """Render x as p/q (or a bare integer when q is 1)."""
    return str(x)

"""Exact rationals: parsing, rounding, formatting, and the numerator form.

Every value at this package's API is a fractions.Fraction; floats exist only
at the presentation boundary.  Every value taken in, by a document or a
library call, is read by `parse_rational` (`parse_rationals` for a sequence,
`read_over_lcm` for a document's mass), so its bounds and error rule hold at
every entry point; counts and digits are read by `read_size`.  Sums of mass
run on integers, numerators over the lcm of the values' denominators, and
this module owns that form: `common_numerators` and `read_over_lcm` build
it, `lowest_numerators` reduces integers over any denominator to it,
`check_unit` is the one sign-and-total check of a mass on it, and
`fractions_over` converts back.  Rounding is half-away-from-zero, which is
the convention used by the bundled example tables.
"""

from __future__ import annotations

import math
import numbers
import re
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import (ConceptDSError, ParseError, PreconditionError,
                     check_capacity, value_text)

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


def read_size(value: object, what: str, error: type[ConceptDSError],
              least: int | None = None) -> int:
    """`value`, when an int and not a bool, or `error`: "{what} must be an
    int, not {type}".  Given `least`, a smaller int raises "{what} must be
    at least {least}, got {value}"."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise error(f"{what} must be at least {least}, got {value}")
    return value


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


def read_over_lcm(values: Iterable, known: dict[str, tuple[Fraction, int, int]]
                  ) -> tuple[list[Fraction], int, list[int]]:
    """Each value read by `parse_rational`, and `common_numerators` of what
    it reads, as (values, d, numerators).  A string is read once for every
    call that shares `known`, which keeps its value with its integer ratio;
    only strings are keys, since True == 1."""
    ratios = [known[v] if type(v) is str and v in known else _ratio(v, known)
              for v in values]
    d = math.lcm(*{q for _, _, q in ratios})
    return [x for x, _, _ in ratios], d, [p * (d // q) for _, p, q in ratios]


def _ratio(value: object, known: dict[str, tuple[Fraction, int, int]]
           ) -> tuple[Fraction, int, int]:
    x = parse_rational(value)
    ratio = (x, *x.as_integer_ratio())
    if type(value) is str:
        known[value] = ratio
    return ratio


def check_unit(d: int, numerators: Sequence[int],
               negative: Callable[[int], str], total: str,
               error: type[ConceptDSError]) -> None:
    """The one sign-and-total check of a mass, on its numerators over d,
    whether a document or a library call gives it: the first negative
    numerator, at i, raises error(negative(i)), and then a total t other
    than 1 raises error(f"{total} {t}, expected 1")."""
    if min(numerators, default=0) < 0:
        raise error(negative(next(i for i, x in enumerate(numerators)
                                  if x < 0)))
    t = sum(numerators)
    if t != d:
        raise error(f"{total} {Fraction(t, d)}, expected 1")


def lowest_numerators(numerators: list[int], d: int) -> tuple[int, list[int]]:
    """The same values numerators[i] / d over the lcm of their denominators,
    the form `common_numerators` gives: d and every numerator divided by
    their gcd."""
    g = math.gcd(d, *numerators)
    if g == 1:
        return d, numerators
    return d // g, [x // g for x in numerators]


def fractions_over(numerators: Sequence[int], d: int) -> list[Fraction]:
    """Each numerator / d, one Fraction per distinct numerator."""
    exact = {x: Fraction(x, d) for x in set(numerators)}
    return [exact[x] for x in numerators]


def round_half_away(x: Fraction, digits: int = 2) -> Fraction:
    """Round to `digits` decimal places, ties going away from zero; a
    negative `digits` rounds to tens, hundreds and so on.  `digits` is read
    by `read_size`."""
    scale = Fraction(10) ** read_size(digits, "digits", PreconditionError)
    n = math.floor(abs(x) * scale + Fraction(1, 2))
    return Fraction(-n if x < 0 else n) / scale


def format_fixed(x: Fraction, digits: int = 2) -> str:
    """Render x rounded half-away-from-zero with exactly `digits` decimals;
    `digits` is read by `read_size`, and must be at least 0."""
    digits = read_size(digits, "digits", PreconditionError, least=0)
    n = round_half_away(x, digits) * Fraction(10) ** digits
    units = abs(int(n))
    sign = "-" if n < 0 else ""
    if digits == 0:
        return f"{sign}{units}"
    return f"{sign}{units // 10 ** digits}.{units % 10 ** digits:0{digits}d}"


def format_exact(x: Fraction) -> str:
    """Render x as p/q (or a bare integer when q is 1)."""
    return str(x)

"""Subsets: the powerset enumerator, and the one reader and rendering of a
subset that every set-level entry point shares.

It depends on nothing in the package but `errors` and `rationals`, so the
brute-force oracle can use it without sharing code with the paths it checks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, TypeVar

from .errors import ConceptDSError, value_text
from .rationals import parse_rationals

T = TypeVar("T")


def subsets(elements: Iterable[T]) -> list[frozenset[T]]:
    """Every subset of `elements`, in mask order over the carrier sorted by repr.

    The elements are ordered by `repr`, so the order does not depend on how
    the carrier was built.  Subset k holds the i-th element of that order
    exactly when bit i of k is set, so the empty set comes first and the
    whole set last.
    """
    out: list[frozenset[T]] = [frozenset()]
    for e in sorted(elements, key=repr):
        out += [s | {e} for s in out]
    return out


def size_key(subset: frozenset) -> tuple[int, list[str]]:
    """Display order of subsets: by size, then by their members' reprs."""
    return (len(subset), sorted(map(repr, subset)))


def subset_text(subset: frozenset) -> str:
    """A subset as Python prints a set, but with its members in repr order."""
    return value_text(set(subset))


def read_subset(value: object, what: str, error: type[ConceptDSError],
                carrier: frozenset | None = None) -> frozenset:
    """`value` as a frozenset, or `error`: "{what} {value} is not an
    iterable of hashable elements", the value printed by `value_text`.
    Given a carrier, a subset with a member outside it raises "{subset} is
    not a subset of the carrier"."""
    try:
        subset = frozenset(value)
    except TypeError as exc:
        raise error(f"{what} {value_text(value)} is not an iterable of "
                    "hashable elements") from exc
    if carrier is not None and not subset <= carrier:
        raise error(f"{subset_text(subset)} is not a subset of the carrier")
    return subset


def read_sequence(value: object, what: str,
                  error: type[ConceptDSError]) -> tuple:
    """`value` as a tuple, or `error`: "{what} must be an iterable, not
    {type}"."""
    try:
        items = iter(value)
    except TypeError:
        raise error(f"{what} must be an iterable, not "
                    f"{type(value).__name__}") from None
    return tuple(items)


def read_mapping(value: object, what: str,
                 error: type[ConceptDSError]) -> Mapping:
    """`value`, when a mapping, or `error`: "{what} must be a mapping, not
    {type}"."""
    if not isinstance(value, Mapping):
        raise error(f"{what} must be a mapping, not {type(value).__name__}")
    return value


def read_text(value: object, what: str, error: type[ConceptDSError]) -> str:
    """`value`, when a str, or `error`: "{what} must be a str, not {type}"."""
    if not isinstance(value, str):
        raise error(f"{what} must be a str, not {type(value).__name__}")
    return value


def read_table(table: Mapping, what: str, error: type[ConceptDSError],
               carrier: frozenset | None = None) -> dict[frozenset, Fraction]:
    """A subset-keyed table of exact values.  A table that is not a mapping
    raises "{what} table must be a mapping, not {type}" (`read_mapping`).
    Every key is read by `read_subset`, and a subset named by two keys is
    refused, before any value is read by `parse_rationals` and named
    "subset {subset} has {what} ..."."""
    keys = [read_subset(key, "subset", error, carrier)
            for key in read_mapping(table, f"{what} table", error)]
    if len(set(keys)) < len(keys):
        twice = next(x for i, x in enumerate(keys) if x in keys[:i])
        raise error(f"subset {subset_text(twice)} is named by two keys")
    return dict(zip(keys, parse_rationals(
        table.values(), lambda i: f"subset {subset_text(keys[i])} has {what}",
        error)))

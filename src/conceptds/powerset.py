"""The powerset enumerator that every subset sweep in the package shares.

It depends on nothing else in the package, so the brute-force oracle can use
it without sharing code with the paths it checks.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

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

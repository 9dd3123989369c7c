"""Exception types, the desk-scale capacity guard, and the one rendering of a
caller's value in an error text."""

from __future__ import annotations

import itertools
import os

ENV_UNSAFE_SCALE = "CONCEPTDS_UNSAFE_SCALE"


class ConceptDSError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ConceptDSError, ValueError):
    """Malformed input text.  Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(ConceptDSError, ValueError):
    """Input exceeds a documented desk-scale bound."""


class MassError(ConceptDSError, ValueError):
    """A mass or belief table violates its defining constraints."""


class LabelError(ConceptDSError, ValueError):
    """A concept label cannot be resolved, or resolves ambiguously."""


class PreconditionError(ConceptDSError, ValueError):
    """A structural precondition of an operation does not hold."""


class TotalConflictError(ConceptDSError, ArithmeticError):
    """Combination is undefined: every pair of focal elements conflicts."""

    def __init__(self, message: str = "total conflict: combination undefined",
                 step: int | None = None):
        self.step = step
        super().__init__(message)


def check_capacity(what: str, actual: int, bound: int) -> None:
    """Raise CapacityError when a documented desk-scale bound is exceeded.

    Setting the environment variable CONCEPTDS_UNSAFE_SCALE to a nonempty
    value disables every bound, at your own risk.
    """
    if os.environ.get(ENV_UNSAFE_SCALE):
        return
    if actual > bound:
        raise CapacityError(
            f"{what}: {actual} exceeds the supported bound of {bound} "
            f"(set {ENV_UNSAFE_SCALE}=1 to override at your own risk)")


_BRACKETS = {list: "[]", tuple: "()", dict: "{}", set: "{}", frozenset: "{}"}
# Members of one container that an error text prints before "...".
MAX_SHOWN_MEMBERS = 16


def value_text(value: object, _open: frozenset = frozenset()) -> str:
    """`repr(value)`, but with the members of every set and frozenset in it,
    at any depth, in the order of their own texts, so that an error text
    does not change with PYTHONHASHSEED.  A value that holds no set prints
    as its repr; a list or dict inside itself prints as "[...]" or "{...}".
    A container of more than MAX_SHOWN_MEMBERS members prints that many,
    the first in its own order (a set's, in the order of their texts), and
    then "...", so that an error text stays short whatever the value.
    """
    kind = type(value)
    if kind not in _BRACKETS:
        return repr(value)
    left, right = _BRACKETS[kind]
    if id(value) in _open:
        return f"{left}...{right}"
    _open |= {id(value)}
    unordered = kind is set or kind is frozenset
    members = value.items() if kind is dict else value
    if not unordered:
        members = itertools.islice(members, MAX_SHOWN_MEMBERS + 1)
    if kind is dict:
        items = [f"{value_text(k, _open)}: {value_text(v, _open)}"
                 for k, v in members]
    else:
        items = [value_text(x, _open) for x in members]
    if unordered:
        if not items:
            return f"{kind.__name__}()"
        items.sort()
        if kind is frozenset:
            left, right = "frozenset({", "})"
    elif kind is tuple and len(items) == 1:
        right = ",)"
    if len(items) > MAX_SHOWN_MEMBERS:
        items[MAX_SHOWN_MEMBERS:] = ["..."]
    return left + ", ".join(items) + right

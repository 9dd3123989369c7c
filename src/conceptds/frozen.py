"""The base of the validated value types: immutable plain classes.

Records that need no validation are `typing.NamedTuple`s.  The four types
whose construction validates or caches (`FormalContext`, `MassFunction`,
`ProbabilitySpace`, `ConceptRepresentation`) are plain classes on this base
instead.  Each writes its fields in its own `__init__` with
`object.__setattr__`; afterwards assignment and deletion raise
`AttributeError`.  The instance `__dict__` stays, so `cached_property`
caches there.  Equality, hashing and repr read the fields named in
`_compared`, in order; two instances are equal only when of the same class.
"""

from __future__ import annotations


class Frozen:
    _compared: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared)
        return f"{type(self).__name__}({fields})"

"""Bases for the package's record classes, written over __slots__.

They give what @dataclass gave before without importing the
dataclasses module, which loads inspect, ast, dis and tokenize and so
was a large part of the start-up time of every `python -m darcais.cli`
process.

A record class lists its fields in its own __slots__, in constructor
order, and defines __init__ with the signature and validation it needs.
The bases then add, over those fields:

* equality between two instances of the same class, field by field, as
  @dataclass(eq=True): an instance of any other class is never equal;
* a repr naming every field, as the dataclass repr;
* copy and pickle support, by calling the class with the fields in order;
* for Frozen records, a hash of the compared fields and no assignment
  or deletion of any attribute after __init__ (AttributeError).

Fields named in a class's `uncompared` take no part in equality and
hashing, as with dataclasses.field(compare=False).  Fields named in its
`derived` are set by __init__ from the others, as with
dataclasses.field(init=False, repr=False, compare=False): they take no
part in equality, hashing or the repr, and a copy recomputes them.
"""

from __future__ import annotations


class Plain:
    """A mutable record: value equality and unhashable, like @dataclass."""

    __slots__ = ()
    __hash__ = None
    uncompared: tuple[str, ...] = ()
    derived: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _fields(self))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in _fields(self))


class Frozen(Plain):
    """An immutable, hashable record, like @dataclass(frozen=True).

    Its __init__ sets each field once with object.__setattr__, as the
    __init__ that @dataclass(frozen=True) writes does.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(_compared(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _fields(record: Plain) -> list[str]:
    """The record's constructor fields, in order."""
    return [name for name in record.__slots__ if name not in record.derived]


def _compared(record: Plain) -> tuple:
    """The values of the record's fields that equality and hashing use."""
    skip = record.uncompared
    return tuple(getattr(record, name) for name in _fields(record) if name not in skip)

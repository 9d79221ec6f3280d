"""Immutable records: slotted classes with value semantics and no generated code.

A record class lists its fields in ``__slots__``, in the order of its
``__init__`` parameters, and sets each one once: with ``init_field``, or by
passing the values in that order to ``Record.__init__``. Equality, hashing,
the ``Name(field=value, ...)`` repr and copying read the fields from
``__slots__``; a class declared with ``uncompared=(...)`` leaves those
fields (provenance labels) out of equality and hashing.
"""

from __future__ import annotations

from operator import attrgetter


# Sets one field of a record under construction; Money's constructor and
# irb._filled call it directly, once per field.
init_field = object.__setattr__


class FrozenRecordError(AttributeError):
    """A field of a built record was assigned or deleted."""


class Record:
    """Base of every record: frozen, compared and hashed by field values."""

    __slots__ = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compared = [name for name in cls.__slots__ if name not in uncompared]
        get = attrgetter(*compared)
        # attrgetter of one name returns the bare value; keep it a tuple
        cls._compared = staticmethod(get if len(compared) > 1 else lambda r: (get(r),))

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            init_field(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

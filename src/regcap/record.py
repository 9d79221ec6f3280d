"""Immutable records: slotted classes with value semantics and no generated code.

A record class lists its fields once, in ``__slots__``, and may declare
defaults for its trailing fields as a class keyword, ``defaults=dict(...)``.
``Record.__init__`` binds values to the fields by position or by name, then
calls the class's ``__post_init__``, if any, which checks the record's rules
on ``self.<field>`` and stores a converted value with ``init_field``. Only
``Money`` writes its own ``__init__``: built once per priced line, it sets
its two fields itself, so that a line costs no second call. Equality,
hashing, the ``Name(field=value, ...)`` repr and copying read the fields
from ``__slots__``; a class declared with ``uncompared=(...)`` leaves those
fields (provenance labels) out of equality and hashing.

``KeyedEnum`` is the base of every named choice (regime, approach, policy,
counterparty class, business line): a member's ``key``, the spelling that
config files, table files, flags and reports use, is its value.
"""

from __future__ import annotations

import enum
from operator import attrgetter


# Sets one field of a record under construction, for Record.__init__ and a
# __post_init__; Money and irb.params_for_exposure set every field with it.
init_field = object.__setattr__


class KeyedEnum(enum.Enum):
    """An enum whose members are spelt by their values."""

    key = property(attrgetter("value"), doc="The member's spelling: its value.")


class FrozenRecordError(AttributeError):
    """A field of a built record was assigned or deleted."""


class Record:
    """Base of every record: frozen, compared and hashed by field values."""

    __slots__ = ()

    def __init_subclass__(
        cls, uncompared: tuple[str, ...] = (), defaults: dict | None = None, **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        compared = [name for name in cls.__slots__ if name not in uncompared]
        get = attrgetter(*compared)
        # attrgetter of one name returns the bare value; keep it a tuple
        cls._compared = staticmethod(get if len(compared) > 1 else lambda r: (get(r),))
        cls._defaults = dict(defaults or {})
        # every record shares its defaults, so each must be immutable
        hash(tuple(cls._defaults.values()))
        # worked out once, so that a record without the hook adds no call
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *values, **named) -> None:
        """Bind ``values`` to the fields in ``__slots__`` order, then each
        remaining field to its value in ``named``, else to its declared
        default; then check the record with its class's ``__post_init__``.

        A missing field, more values than fields, an unknown name or a field
        given twice raises TypeError naming the class and the field.
        """
        fields, record = self.__slots__, type(self).__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{record} takes {len(fields)} fields {fields}, got {len(values)}")
        for name, value in zip(fields, values):
            init_field(self, name, value)
        rest = fields[len(values):]
        for name in named:
            if name not in rest:
                problem = "given twice" if name in fields else "unknown"
                raise TypeError(f"{record}: field {name!r} {problem}")
        given = self._defaults | named
        for name in rest:
            if name not in given:
                raise TypeError(f"{record}: missing field {name!r}")
            init_field(self, name, given[name])
        if self._checked:
            self.__post_init__()

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

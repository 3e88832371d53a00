"""Base class of polyceva's immutable value classes.

A subclass lists its compared fields, in order, in ``_fields``.  The
inherited constructor takes one positional value per field and stores
them as they are; a subclass that checks or converts its arguments, or
stores results beyond its fields, writes its own ``__init__`` that sets
each attribute in ``self.__dict__`` (twice as fast as
``object.__setattr__``).  ``repr``, ``==`` and ``hash`` use exactly the
fields, so a result a constructor stores beyond them (computed once, at
construction) is left out of all three.  After construction, assigning
or deleting any attribute raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Immutable value with repr, equality and hash taken from ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:
            # attrgetter of one name returns the value itself, not a tuple.
            name, = cls._fields
            cls._values = property(lambda self: (getattr(self, name),))
        else:
            cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes "
                            f"{len(self._fields)} values, got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

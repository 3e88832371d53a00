"""Base class of polyceva's immutable value classes.

A subclass lists its compared fields, in order, in ``_fields``, at
least two of them: ``attrgetter`` of one name returns the bare value,
not a tuple, and a single datum is a plain value, not a class.  The
inherited constructor takes one positional value per field and stores
them as they are.  A subclass that checks or converts its arguments
writes its own ``__init__``, which calls ``Frozen.__init__`` once with
the checked values; results it stores beyond its fields (computed once,
at construction) it then sets in ``self.__dict__`` itself.  Only
``Point``, ``Line``, ``Factor``, ``InscribedConfig`` and
``InscribedReport`` set their attributes in ``self.__dict__`` by hand,
and store integers in place of their Fraction fields: ``Point`` its
reduced integer parts and its homogeneous triple, ``Line`` its
canonical integer triple, ``Factor`` its value as the pair ``num``/``den``,
``InscribedConfig`` its radius, parameters and second parameters, and
``InscribedReport`` its three values, as reduced pairs in ``parts``.
Each reads its Fraction fields through properties, which build the
Fraction on each read.  ``repr``,
``==`` and ``hash`` use exactly the fields, so stored results are left
out of all three.
After construction, assigning or deleting any attribute raises
AttributeError.

``repr`` spells every int and Fraction through `to_decimal`, so a value
prints under any int-string limit: error messages embed values whose
parts may have thousands of digits.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

# Python limits int <-> str conversion to sys.get_int_max_str_digits()
# digits (4300 by default, settable down to 640), so longer numbers go
# through in pieces of at most _CHUNK_DIGITS digits.  _CHUNK_BITS is the
# largest bit length whose values all have that many digits at most.
_CHUNK_DIGITS = 600
_CHUNK_BITS = (10 ** _CHUNK_DIGITS).bit_length() - 1


def to_decimal(n: int) -> str:
    """str(n) for an int of any size."""
    if n.bit_length() <= _CHUNK_BITS:
        return str(n)
    if n < 0:
        return "-" + to_decimal(-n)
    # About half of n's digits (log10(2) ~ 0.30103), so high is nonzero.
    low = n.bit_length() * 30103 // 200000
    high, rest = divmod(n, 10 ** low)
    return to_decimal(high) + to_decimal(rest).zfill(low)


def from_decimal(digits: str) -> int:
    """int(digits) for a string of ASCII digits of any length."""
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return (from_decimal(digits[:-low]) * 10 ** low
            + from_decimal(digits[-low:]))


def rational_text(num: int, den: int) -> str:
    """The wire text of the rational num/den, given in lowest terms with
    den > 0: "p/q", or "p" when den is 1."""
    if den == 1:
        return to_decimal(num)
    return f"{to_decimal(num)}/{to_decimal(den)}"


def _spell(value) -> str:
    """repr(value), with every int and Fraction, also inside tuples,
    converted by to_decimal."""
    if type(value) is int:
        return to_decimal(value)
    if isinstance(value, Fraction):
        return (f"Fraction({to_decimal(value.numerator)}, "
                f"{to_decimal(value.denominator)})")
    if isinstance(value, tuple):
        return f"({', '.join(map(_spell, value))}{',' * (len(value) == 1)})"
    return repr(value)


class Frozen:
    """Immutable value with repr, equality and hash taken from ``_fields``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
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
        fields = ", ".join(f"{name}={_spell(value)}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

"""Bases of the package's slotted value types.

A subclass lists in ``_fields`` the attributes that make up its value, in
constructor order: they are compared by ``==``, shown by ``repr`` and, for
a frozen type, hashed and handed back to the constructor by ``pickle``.
Attributes derived from them stay out of ``_fields``, and so out of all
of that.  Types that are only built and read are named tuples instead.
"""

from __future__ import annotations


class Value:
    """A mutable value: equal to an instance of its own class with equal fields; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenValue(Value):
    """An immutable value: hashed by its fields, and every attribute write is refused.

    A constructor sets its attributes with ``object.__setattr__``.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

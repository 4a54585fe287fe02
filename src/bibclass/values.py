"""The base of the package's slotted value types.

A subclass lists in ``_fields`` the attributes that make up its value, in
constructor order: they are compared by ``==``, shown by ``repr``, hashed
and handed back to the constructor by ``pickle`` and ``copy``.  Attributes
derived from them stay out of ``_fields``, and so out of all of that; a
constructor that runs again derives them again.  Types that are only built
and read are named tuples instead.
"""

from __future__ import annotations


class Value:
    """An immutable value: equal to an instance of its own class with equal fields.

    A constructor sets each attribute once, with plain assignment; every
    later write and every delete is refused.  It is hashed by its fields,
    so a type whose fields hold a dict or a list is unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

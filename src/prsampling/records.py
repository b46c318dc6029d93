"""Value records: field-wise ``==``, ``hash`` and ``repr`` with no code
generation.

A subclass names its fields in ``_fields``, in declaration order, and sets
each one in its own ``__init__`` with ``object.__setattr__`` before its
checks. ``==``, ``hash`` and ``repr`` then behave as a dataclass's do
(``FrozenRecord`` as ``frozen=True``), but defining the class costs
nothing: ``dataclasses`` ``exec``s the methods of every class it makes,
about a millisecond each, on every import.
"""

from __future__ import annotations


class Record:
    """Equality by type and field values, a ``Name(field=value, ...)``
    repr, and pickling and copying through ``__init__``; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A :class:`Record` whose fields cannot be set or deleted once
    ``__init__`` has set them, hashed by its field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

"""Value records: one constructor, field-wise ``==``, ``hash`` and ``repr``,
and one JSON form, with no code generation.

A subclass declares its fields once: their names in ``_fields``, in
declaration order, and the values of its trailing optional fields in
``_defaults``. :class:`Record`'s ``__init__`` binds positional and keyword
arguments to them as a Python signature would, raising ``TypeError`` where
one would. ``==``, ``hash`` and ``repr`` then behave as a dataclass's do
(``FrozenRecord`` as ``frozen=True``), but defining the class costs
nothing: ``dataclasses`` ``exec``s the methods of every class it makes,
about a millisecond each, on every import.

The same declaration gives a report its JSON form: :func:`fields_json`
writes the fields by name, every exact rational as its ``a/b`` string, and
a report's ``to_json`` writes only what differs from that. ``Record`` has
no ``to_json``: an ``Instance``'s file format is ``model.instance_to_json``.

A class that checks its input (``Graph``, ``VariableSpec``, ``EventSpec``,
``Instance``, ``CnfFormula``) keeps its own ``__init__``, which sets each
field with ``object.__setattr__`` before its checks and runs them all on
every call. A builder holding values its own layer has checked makes the
record through :func:`_unchecked` instead. The encoders and the JSON loader
make tens of thousands of ``VariableSpec``s and ``EventSpec``s that way, and
set their slots through ``model``'s private helpers: a fixed signature
binds faster than this loop does, and the slot setters faster still,
fastest one column of records at a time.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Equality by type and field values, a ``Name(field=value, ...)``
    repr, and pickling and copying through ``__init__``; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                "%s() takes %d positional arguments but %d were given"
                % (type(self).__qualname__, len(fields), len(args))
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        required = len(fields) - len(self._defaults)
        for i in range(len(args), len(fields)):
            name = fields[i]
            if name in kwargs:
                value = kwargs.pop(name)
            elif i >= required:
                value = self._defaults[i - required]
            else:
                raise TypeError(
                    "%s() missing required argument %r" % (type(self).__qualname__, name)
                )
            object.__setattr__(self, name, value)
        if kwargs:  # a keyword left over names no field, or one given by position
            name = next(iter(kwargs))
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError("%s() got %s argument %r" % (type(self).__qualname__, problem, name))

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


def _unchecked(cls, *values):
    """A ``cls`` record of ``values``, one per field, made without its
    ``__init__`` and so without its checks: the caller guarantees them."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


def fields_json(record) -> dict:
    """``record``'s fields by name, in ``_fields`` order, as JSON data."""
    return {name: _json(getattr(record, name)) for name in record._fields}


def _json(value):
    """A ``Fraction`` as its ``a/b`` string, a tuple or list as a list of
    converted values, a record as its ``to_json()``; anything else as is."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_json(x) for x in value]
    if isinstance(value, Record):
        return value.to_json()
    return value

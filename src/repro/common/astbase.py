"""Immutable values equal by their fields: the runtime values and the
syntax trees of every language.

Every language in the reproduction represents programs as trees of
immutable nodes, and its core states, activation frames, step messages
and step outcomes as immutable values: they are graph-node keys, memo
keys and ≼-checker operands, so they must compare and hash by content
and never change. :class:`Record` owns that rule once. A subclass
declares ``_fields`` (the names its equality covers) and writes its own
``__init__`` with its defaults and coercions; the base provides the rest:

* ``__setattr__`` raises (constructors set fields through
  ``object.__setattr__``);
* ``__eq__`` is true on identity and otherwise needs the same class and
  equal field values;
* ``__hash__`` over the field values, cached in the ``_hash`` slot on
  first use (cores carry deep continuations; without the cache every
  frame and world hash would re-walk them);
* ``__reduce__`` rebuilds through ``cls(*fields)``, so pickling (the
  parallel transport, ``copy``) never needs the blocked slot-state
  restore and never carries a cached hash.

The methods are built once per class in ``__init_subclass__``, as
closures over an ``operator.attrgetter`` of ``_fields``; a class that
defines one of them itself keeps its own.

:class:`Node` is the record base of syntax: it adds the keyword-aware
constructor, a field-listing ``repr`` and ``replace``. Tuples passed for
a field are kept as tuples; lists are converted, so nodes stay hashable
as long as leaf values are.
"""

from operator import attrgetter

_set = object.__setattr__


def _field_values(fields):
    """A function returning ``obj``'s field values as one tuple."""
    if not fields:
        return lambda obj: ()
    if len(fields) == 1:
        get = attrgetter(fields[0])
        return lambda obj: (get(obj),)
    return attrgetter(*fields)


class Record:
    """An immutable value, equal and hashed by its ``_fields``."""

    _fields = ()
    __slots__ = ("_hash",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        values = _field_values(cls._fields)
        # Mixed into the hash so that records of different classes with
        # equal fields (``TInt()``/``TVoid()``) do not collide.
        salt = hash(cls.__qualname__)

        def __eq__(self, other):
            if self is other:
                return True
            return type(other) is type(self) and values(self) == values(
                other
            )

        def __hash__(self):
            h = getattr(self, "_hash", None)
            if h is None:
                h = hash(values(self)) ^ salt
                _set(self, "_hash", h)
            return h

        def __reduce__(self):
            return type(self), values(self)

        for method in (__eq__, __hash__, __reduce__):
            if method.__name__ not in cls.__dict__:
                setattr(cls, method.__name__, method)

    def __setattr__(self, name, value):
        raise AttributeError(
            "{} is immutable".format(type(self).__name__)
        )


class Node(Record):
    """Immutable syntax node with fields declared via ``_fields``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if len(args) > len(self._fields):
            raise TypeError(
                "{} takes {} arguments".format(
                    type(self).__name__, len(self._fields)
                )
            )
        values = dict(zip(self._fields, args))
        for name, value in kwargs.items():
            if name not in self._fields:
                raise TypeError(
                    "{} has no field {!r}".format(
                        type(self).__name__, name
                    )
                )
            if name in values:
                raise TypeError("duplicate field {!r}".format(name))
            values[name] = value
        for name in self._fields:
            value = values.get(name)
            if isinstance(value, list):
                value = tuple(value)
            _set(self, name, value)

    def __repr__(self):
        args = ", ".join(
            "{}={!r}".format(f, getattr(self, f)) for f in self._fields
        )
        return "{}({})".format(type(self).__name__, args)

    def replace(self, **kwargs):
        """A copy with the given fields replaced."""
        values = {f: getattr(self, f) for f in self._fields}
        for name, value in kwargs.items():
            if name not in self._fields:
                raise TypeError(
                    "{} has no field {!r}".format(
                        type(self).__name__, name
                    )
                )
            values[name] = value
        return type(self)(**values)

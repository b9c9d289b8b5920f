"""Immutable records, the library's value types.

A record is a tuple of its fields, in the order of the parameters of
its class's ``__new__``, and reads each field by name.  Two records are
equal when they are of the same class and their fields are equal, so a
record never equals a plain tuple or a record of another class; the hash
is the tuple hash of the fields, and no attribute can be assigned.  A
modified copy is made with the constructor.

``X._make(fields)``, as for a namedtuple, builds a record from an
iterable of its fields without calling ``__new__``.  It is only for a
record whose ``__new__`` just packs its parameters, as
``return tuple.__new__(cls, (a, b, ...))``; tests/test_hygiene.py keeps
it so, so that no check or memo that a ``__new__`` sets up is skipped.

The fields are properties over tuple items, set up when the class is
defined, without generated code: building the classes costs next to
nothing at import.  A class that caches properties on its instances
(``functools.cached_property``) leaves out ``__slots__`` and so has an
instance ``__dict__``, which takes no part in equality, hashing or repr.
"""

from __future__ import annotations

from operator import itemgetter


class Record(tuple):
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _make = classmethod(tuple.__new__)

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    # tuple's own != would compare across classes, and a class that defines
    # __eq__ loses its inherited __hash__.
    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getnewargs__(self):
        """The fields, which copy and pickle pass to __new__."""
        return tuple(self)

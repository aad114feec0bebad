"""Bases of the value classes: plain classes that compare by their fields.

``_fields`` names a class's fields in constructor order.  Two values are
equal when they are of the same class with equal fields, and a frozen one
hashes by them.  A frozen value refuses assignment and deletion; its
``__init__`` writes the fields into the instance ``__dict__``, as
``functools.cached_property`` does.  These replace ``dataclasses``, which
every command-line process would otherwise import, ``inspect`` with it,
only to build six classes.

``DataError`` is the base of the errors that bad input data raises, which
the command line reports with exit status 2.
"""


class DataError(ValueError):
    """Malformed data, or data outside a function's contract."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is immutable")

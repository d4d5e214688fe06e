"""Immutable value classes, written out by hand.

A value class subclasses ``Frozen``, lists its fields in ``__slots__`` and
sets them in its ``__init__`` through ``set_field``. After that, assigning or
deleting an attribute raises ``AttributeError``. A class whose values are
compared takes its ``__eq__`` and ``__hash__`` from ``compare_by``.

The classes are not generated: the standard library's class decorator
loads ``inspect`` and compiles each class's methods through ``exec`` when
the class is defined, which cost every ``ctp`` process about a quarter of
its start-up.
"""

from operator import attrgetter

# Sets a field inside ``__init__``, where plain assignment raises.
set_field = object.__setattr__


class Frozen:
    """Base of the immutable value classes."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def compare_by(*names: str):
    """``__eq__`` and ``__hash__`` that compare two values of one class by the fields ``names``."""
    key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__

"""Immutable value classes: a value is the tuple of its fields.

A value class subclasses ``Frozen``, names its fields once in ``_fields``
and declares ``__slots__ = ()``, so no value has a ``__dict__``. Its
``__new__`` runs the class's checks and then builds the value with one
``tuple.__new__(cls, (...))`` call. ``Frozen`` gives each field a
read-only accessor by position, and it holds the one rule for every value:

- Two values are equal, and hash alike, when they are of the same class
  and have equal fields. A value never equals a plain tuple, or a value of
  another class, with the same items.
- Values have no order: ``<``, ``<=``, ``>`` and ``>=`` raise ``TypeError``.
- Assigning or deleting an attribute raises ``AttributeError``.

Neither ``collections.namedtuple`` nor the standard library's class
decorator builds these classes. A named tuple's ``_make`` and ``_replace``
build values that skip the class's checks, and ``namedtuple`` compiles its
class through ``exec``. The decorator loads ``inspect`` and compiles each
class's methods through ``exec`` when the class is defined, which cost
every ``ctp`` process about a quarter of its start-up.
"""

from operator import itemgetter


class Frozen(tuple):
    """Base of the immutable value classes."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # Not NotImplemented: Python would then ask the plain tuple, which compares items.
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{self.__class__.__name__} values have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

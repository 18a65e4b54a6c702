"""The base of the package's value types, in place of frozen dataclasses:
``dataclasses`` imports ``inspect`` and ``exec``s six methods per class,
which every command-line process would pay.  ``_built_many`` makes families the
package built, unchecked; unlike ``_built`` it never touches ``__dict__``, which
would turn CPython's inline instance values into a dict per record."""

from itertools import repeat
from operator import attrgetter


class Record:
    """A value type.  A subclass lists its fields in ``_fields`` and writes its
    own ``__init__``, which stores them with ``_set`` (``object.__setattr__``,
    so no per-instance dict is made) and then checks them.  Equality, the hash
    (of the tuple of fields), ``repr`` and immutability follow from ``_fields``.
    No slots: ``_built(**state)`` may store a field in another form (ints for
    Fractions), read by a ``cached_property`` of that name, which a checked
    ``__init__`` shadows by storing the field.  ``GrassmannPoint`` may store
    either form, so keeps a ``__getattr__``; ``PlabicGraph`` keeps its cached
    families free of a dict apiece, storing as ``_built_many`` does."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one getter per class; a lone field still reads as a 1-tuple.  Equality
        # and the hash call it directly, unless the class body writes its own
        # (an __eq__ there sets __hash__ too)
        get = attrgetter(*cls._fields)
        values = get if len(cls._fields) > 1 else lambda r: (get(r),)
        cls._values = staticmethod(values)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)
        if "__eq__" not in cls.__dict__:
            cls.__eq__ = __eq__
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = lambda r: hash(values(r))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _built(cls, **state) -> "Record":
        """An unchecked record of the package's own making, its state stored as given."""
        record = object.__new__(cls)
        record.__dict__.update(state)
        return record

    @classmethod
    def _built_many(cls, *columns) -> list:
        """Unchecked records, one column of values per field (the first sized, ``repeat``
        for a constant): a C-level map per field, so no Python code runs per record."""
        records = list(map(object.__new__, repeat(cls, len(columns[0]))))
        for name, column in zip(cls._fields, columns):
            any(map(object.__setattr__, records, repeat(name), column))
        return records

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

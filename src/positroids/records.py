"""The base of the package's value types, in place of frozen dataclasses:
``dataclasses`` imports ``inspect`` and ``exec``s six methods per class,
which every command-line process would pay."""

from operator import attrgetter


class Record:
    """A value type.  A subclass lists its fields in ``_fields`` and writes its
    own ``__init__``, which stores them with ``_set`` (``object.__setattr__``,
    so no per-instance dict is made) and then checks them.  Equality, the hash
    (of the tuple of fields), ``repr`` and immutability follow from ``_fields``.
    There are no slots, so ``cached_property`` and a ``__getattr__`` work."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one getter per class; a lone field still reads as a 1-tuple
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

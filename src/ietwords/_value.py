"""The base of the package's immutable value classes.

A subclass declares its fields, in order, as ``__slots__``.  Instances
compare equal exactly when they are of the same class with equal fields,
hash as the tuple of their fields, print as ``Name(field=value, ...)``
and refuse every assignment or deletion with :class:`AttributeError`.
The generic constructor takes the fields positionally or by keyword;
classes that validate their arguments, or are built in bulk, define
their own ``__init__`` and set each field with ``object.__setattr__``;
``QuadNumber`` also keeps its own equality, hash and repr.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._fields = staticmethod(
            get if len(cls.__slots__) > 1 else lambda obj: (get(obj),)
        )

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        # too many arguments, a field given twice, an unknown or a missing one
        if (
            len(args) > len(names)
            or len(values) != len(args) + len(kwargs)
            or values.keys() != set(names)
        ):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self))
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, which takes the fields in order
        return type(self), self._fields(self)

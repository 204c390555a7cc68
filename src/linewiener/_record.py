"""Frozen value records: the part of a frozen dataclass this package uses.

A subclass lists its fields as class annotations, in order, and gets:
construction by position or keyword, a `__post_init__` validation hook
run after the fields are set, the dataclass repr text (`Spider(a=7, b=7,
c=7)`), equality and hash by type and field values, and an
`AttributeError` on any assignment or deletion. A subclass that defines
its own `__init__` keeps it, and sets its fields with
`object.__setattr__`. `__match_args__` holds the field names in order.

`dataclasses` would do the same, but importing it and generating the
methods of each class took more than half of `import linewiener.cli`,
which every command pays; these methods are shared by every record and
cost nothing at import.
"""

from __future__ import annotations


class Record:
    """Base of the package's frozen report and spec types."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        cls = type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(
                f"{cls}() takes {len(names)} arguments, got {len(args)}"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls}() got multiple values for {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls}() is missing {', '.join(missing)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; runs once they are all set."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

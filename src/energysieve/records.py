"""Bases for the package's immutable records, defined without code generation.

Reports and rows are `typing.NamedTuple`s.  One whose values must pass a check
subclasses its fields with `Checked` first, so that the check runs on every
construction.  A record with array fields, or one that a tuple's length,
iteration or equality would misdescribe, is a slotted `Frozen` class.
"""


class Frozen:
    """Base of a slotted record whose fields, `__slots__` in `__init__`'s
    order, are set once by `Frozen.__init__` and never assigned after."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and pickles rebuild through __init__ and its checks
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({values})"


class Checked:
    """Mixin, listed before a NamedTuple base, that runs the record's `_check`
    on every construction: direct, by `_make` and by `_replace`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

"""`Record`, the base of the immutable value classes that must not be tuples:
`Code` and `PositionFamily`, whose len() is their size, and
`ConstructionConfig` and `SparsifierConfig`, whose own `__init__` validates
its arguments under the signature that `help()` and `inspect.signature` show.
The other fpc records are NamedTuples. A subclass names its fields in
`__slots__` and passes their values, in that order and once validated, to
`Record.__init__`."""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # Copy and pickle through the constructor, which validates again.
        return type(self), self._values()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

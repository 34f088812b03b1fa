"""Shared exception types, and the base of the immutable value classes."""


class SizeError(ValueError):
    """An index or ground-set size is outside the supported range."""


class StructureError(ValueError):
    """Input data does not have the required combinatorial structure."""


class InsufficientDataError(LookupError):
    """A cumulant of higher order than the supplied data was requested."""


class Frozen:
    """An immutable value whose identity is the tuple of its __slots__,
    compared only within one type.  Subclasses set their slots through
    object.__setattr__ or the slot descriptor's __set__; any other
    assignment, and any deletion, is refused."""

    __slots__ = ()

    def _slot_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._slot_values() == other._slot_values()

    def __hash__(self):
        return hash(self._slot_values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

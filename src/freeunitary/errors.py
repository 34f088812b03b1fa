"""Shared exception types, the quoting of input in their messages, the one
refusal of a value below its lower bound and the one of a value above its
cap, and the base of the immutable value classes."""

QUOTE_LIMIT = 60  # characters of an input that an error message repeats in full


class SizeError(ValueError):
    """An index or ground-set size is outside the supported range."""


class StructureError(ValueError):
    """Input data does not have the required combinatorial structure."""


class InsufficientDataError(LookupError):
    """A cumulant of higher order than the supplied data was requested."""


def quote(text: str) -> str:
    """repr(text) for an error message; past QUOTE_LIMIT characters, the
    repr of its first QUOTE_LIMIT characters and the length of the whole,
    so that a long bad input gives a short message."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"


def check_at_least(name: str, value, low: int) -> None:
    """Refuse value < low with the SizeError "{name} must be >= {low}, got {value}"."""
    if value < low:
        raise SizeError(f"{name} must be >= {low}, got {value}")


def check_at_most(name: str, value, const: str, limit: int) -> None:
    """Refuse value > limit with the SizeError "{name} {value} exceeds the
    limit {const} = {limit}", where const names the cap."""
    if value > limit:
        raise SizeError(f"{name} {value} exceeds the limit {const} = {limit}")


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

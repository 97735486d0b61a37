"""Exception types and the rules their messages share: echo quotes every
value a message shows, abbreviated and safe on ints too long to print, and
need_int and need_tuple check that an argument is a bounded int or iterable.
Record is the immutable base of the package's value types."""

import reprlib


class InvalidInputError(ValueError):
    """A value violates a documented precondition (bad partition, rank mismatch, ...)."""


class ResourceLimitError(RuntimeError):
    """A requested search exceeds the configured size bounds or a fixed
    depth limit (theorems.MAX_LEADING_BLOCKS).

    Raised instead of silently truncating, so callers can distinguish "no
    solutions" from "refused to look".  The CLI maps this to exit code 3.
    """


class InternalError(RuntimeError):
    """A soundness check inside the library failed: a computed value
    contradicts a fact the code relies on (two routes to one exact value
    disagree, an orbit dimension is odd, ...), so some result is wrong.

    Raised explicitly rather than by assert, so the checks also run under
    python -O.  The CLI maps this to exit code 4.
    """


ECHO_LIMIT = 200


class _Echo(reprlib.Repr):
    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:  # past CPython's 4,300-digit limit: name its size instead
            return f"{'a negative' if x < 0 else 'an'} integer of {x.bit_length()} bits"


_echo_repr = _Echo()
_echo_repr.maxstring = 80
_echo_repr.maxother = 80
_echo_repr.maxlong = 40


def echo(value: object) -> str:
    """repr(value) for an error message, abbreviated to at most ECHO_LIMIT
    characters: input can be arbitrarily large, and a message that quotes
    it whole is as large as the input."""
    text = _echo_repr.repr(value)
    if len(text) > ECHO_LIMIT:
        text = text[: ECHO_LIMIT - 3] + "..."
    return text


def need_int(
    value: object, low: int | None, who: str, name: str = "n", high: int | None = None
) -> int:
    """value, if it is an int (not a bool) and, unless low is None, in
    [low, high], or at least low when high is None."""
    if value.__class__ is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InvalidInputError(f"{who} needs an integer {name}, got {echo(value)}")
    if low is not None and (value < low or high is not None and value > high):
        bounds = f">= {echo(low)}" if high is None else f"in [{echo(low)}, {echo(high)}]"
        raise InvalidInputError(f"{who} needs {name} {bounds}, got {echo(value)}")
    return value


def need_tuple(value: object, who: str, name: str) -> tuple:
    """value if it is a tuple, else tuple(value), if value is iterable.  A
    TypeError raised while iterating surfaces as it is."""
    if value.__class__ is tuple:
        return value
    try:
        return tuple(value)
    except TypeError:
        try:
            iter(value)
        except TypeError:
            raise InvalidInputError(
                f"{who} needs an iterable of {name}, got {echo(value)}"
            ) from None
        raise


class Record:
    """An immutable value: equal to a record of its own class whose fields are
    equal, hashed and shown by those fields, and never changed once built.

    A subclass names its fields, in that order, in its class statement:
    `class Speh(Record, fields=("p", "q"))`.  Its __init__ checks its
    arguments and stores them, and any attribute derived from them, straight
    into self.__dict__, where copy and pickle find them too.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, fields: tuple[str, ...]) -> None:
        cls._fields = fields

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = []
        for f, v in zip(self._fields, self._values()):
            try:
                shown.append(f"{f}={v!r}")
            except ValueError:  # an int past CPython's 4,300-digit limit, which repr refuses
                shown.append(f"{f}={echo(v)}")
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

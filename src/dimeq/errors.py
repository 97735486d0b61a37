"""Exception types, how their messages quote input, and the integer-argument check."""

import reprlib


class InvalidInputError(ValueError):
    """A value violates a documented precondition (bad partition, rank mismatch, ...)."""


class ResourceLimitError(RuntimeError):
    """A requested search exceeds the configured size bounds or the
    interpreter's recursion limit.

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

_echo_repr = reprlib.Repr()
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


def need_int(value: object, low: int | None, who: str, name: str = "n") -> int:
    """value, if it is an int (not a bool) and, unless low is None, at least low."""
    if value.__class__ is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise InvalidInputError(f"{who} needs an integer {name}, got {echo(value)}")
    if low is not None and value < low:
        try:
            shown = str(value)
        except ValueError:  # past CPython's 4,300-digit limit: name its size instead
            shown = f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        raise InvalidInputError(f"{who} needs {name} >= {low}, got {shown}")
    return value

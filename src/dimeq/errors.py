"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """A value violates a documented precondition (bad partition, rank mismatch, ...)."""


class ResourceLimitError(RuntimeError):
    """A requested search exceeds the configured size bounds.

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

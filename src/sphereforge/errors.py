"""The errors of this package, one class per party at fault.  The message
of each refusal says which check failed and on what."""


class SphereforgeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(SphereforgeError):
    """An argument breaks a rule that the called function states."""


class InputParseError(SphereforgeError):
    """A file or text argument cannot be decoded into what it should
    hold."""


class InternalInvariantViolation(SphereforgeError):
    """A construction broke one of its own guarantees."""

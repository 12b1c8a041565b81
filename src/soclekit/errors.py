"""Exception hierarchy shared across the package."""


class SocleKitError(Exception):
    """Base class for all package errors."""


class ParseError(SocleKitError):
    """Raised on malformed polynomial or specification text, at a 1-based
    ``line`` and ``column`` when the text gives one (else both are None)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DegenerateInputError(SocleKitError):
    """Raised when an input is structurally invalid (zero socle, zero sum)."""


class InputError(SocleKitError):
    """Raised when an input file cannot be read."""


class EnvelopeError(SocleKitError):
    """Raised when a request exceeds the supported (n, d) envelope."""


class ConsistencyError(SocleKitError):
    """Raised when two computations of one invariant disagree."""


class ArgumentError(SocleKitError, ValueError):
    """Raised on an argument outside a function's domain, such as a row of
    the wrong length; a ``ValueError`` too, so callers that caught that
    before still do."""

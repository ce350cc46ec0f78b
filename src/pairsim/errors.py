"""Shared exception types."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """A configuration value violates its constraints."""


class DegenerateInputError(ValueError):
    """Input is outside the operation's domain (e.g. a zero vector to normalize)."""


class ParseError(ValueError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

"""Exception taxonomy shared across the package.

``exit_code`` drives the CLI contract: 2 for configuration problems, 3 for
bad market data, 4 for numerical failures.
"""


class RvdlmError(Exception):
    """Base of the package's errors; carries the offending date if known,
    as `.date` and as a `[date=...]` suffix of the message."""

    exit_code = 1

    def __init__(self, message, date=None):
        super().__init__(message)
        self.date = date

    def __str__(self):
        text = super().__str__()
        return text if self.date is None else f"{text} [date={self.date}]"

    def within(self, context: str) -> "RvdlmError":
        """The same error, its message prefixed by `context`."""
        return type(self)(f"{context}: {self.args[0]}", self.date)


class ConfigError(RvdlmError):
    exit_code = 2


class DataError(RvdlmError):
    """Bad or inconsistent market data."""

    exit_code = 3


class NumericalError(RvdlmError):
    exit_code = 4


class DomainError(NumericalError):
    """Argument outside the domain of a math routine."""

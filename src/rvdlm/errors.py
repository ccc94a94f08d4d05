"""Exception taxonomy shared across the package.

``exit_code`` drives the CLI contract: 2 for configuration problems, 3 for
bad market data, 4 for numerical failures. `number` is the one rule for a
scalar a caller hands in: checked once, and kept as a Python float.
"""

import math
import numbers


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


# The number rule: a scalar a caller hands in, by the wording it must meet (a
# realized variance has its own). Each row is the type the value must have,
# the one it is kept as, and the test the kept value must pass.
_RULES = {
    "a number": (numbers.Real, float, lambda v: v == v),  # anything but NaN
    "finite": (numbers.Real, float, math.isfinite),
    "finite and positive": (numbers.Real, float, lambda v: 0.0 < v < math.inf),
    "finite and nonnegative": (numbers.Real, float, lambda v: 0.0 <= v < math.inf),
    "in (0, 1]": (numbers.Real, float, lambda v: 0.0 < v <= 1.0),
    "in (0, 1)": (numbers.Real, float, lambda v: 0.0 < v < 1.0),
    "positive (floor it upstream)": (numbers.Real, float, lambda v: 0.0 < v < math.inf),
    "an integer": (numbers.Integral, int, lambda v: True),
    "a nonnegative integer": (numbers.Integral, int, lambda v: v >= 0),
}


def number(value, name: str, wording: str = "finite", error=DomainError, prefix: str = ""):
    """`value` kept as the Python float (or, for an integer wording, int) it
    equals: a real number, not a bool, that meets `wording`. Otherwise raises
    error(f"{prefix}{name} must be {wording}, got {value!r}")."""
    kind, keep, test = _RULES[wording]
    try:  # float() of an int past the float range overflows
        if isinstance(value, kind) and not isinstance(value, bool) and test(keep(value)):
            return keep(value)
    except OverflowError:
        pass
    raise error(f"{prefix}{name} must be {wording}, got {value!r}")


def number_fields(owner, wording: str, *names, error=DomainError, prefix: str = "") -> None:
    """`number` of each named field of a frozen dataclass, stored back."""
    for name in names:
        object.__setattr__(owner, name, number(getattr(owner, name), name, wording, error, prefix))

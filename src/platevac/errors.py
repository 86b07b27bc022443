"""Exception types shared across the package."""

import math


class PlatevacError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PlatevacError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class SingularityError(DomainError):
    """Evaluation was requested at a boundary point where the quantity diverges."""


class RangeError(PlatevacError):
    """A result overflows the range of a finite double."""


def check_overflow(value, what: str, length: float):
    """``value`` itself if it is finite, everywhere for a list or a numpy array.

    Otherwise RangeError: "<what> overflows a double at L = <length>".
    """
    if isinstance(value, list):
        finite = all(map(math.isfinite, value))
    else:
        finite = abs(value) < math.inf  # False at nan; elementwise for an array
    if not (finite if isinstance(finite, bool) else finite.all()):
        raise RangeError(f"{what} overflows a double at L = {length!r}")
    return value


class FitError(PlatevacError):
    """A power-law fit could not be carried out on the given samples."""


class ConfigError(PlatevacError):
    """An invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field

"""Exception types shared across the package."""


class PlatevacError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PlatevacError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class SingularityError(DomainError):
    """Evaluation was requested at a boundary point where the quantity diverges."""


class RangeError(PlatevacError):
    """A result lies outside the range of normal doubles."""


class FitError(PlatevacError):
    """A power-law fit could not be carried out on the given samples."""


class ConfigError(PlatevacError):
    """An invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field

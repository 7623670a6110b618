"""Typed errors shared by all modules.

The CLI maps these onto process exit codes: configuration problems, and
runs that do not fit in memory, exit with 2, missing phase-matching
solutions (or an empty matched band) and wavelengths outside the
transparency window with 3, and unmet statistical preconditions with 4.
Everything else is a plain Python error and exits 1.
"""


class ZpRainbowError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(ZpRainbowError, ValueError):
    """An operation was called with arguments violating its precondition."""


class ConfigError(ZpRainbowError, ValueError):
    """A configuration file or block failed validation.

    Carries the offending field path so the CLI can point at it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(ZpRainbowError, ValueError):
    """A wavelength or frequency left the configured transparency window."""


class NotFoundError(ZpRainbowError, KeyError):
    """A mode (or table entry) was requested that the container lacks."""


class NoSolutionError(ZpRainbowError, RuntimeError):
    """Phase matching has no solution for the requested frequency."""


class BandError(NoSolutionError):
    """A frequency sweep found no matched points at all."""


class StatisticalError(ZpRainbowError, RuntimeError):
    """A statistical precondition (trial count, window size) is unmet."""


def present(result):
    """result, or raise it when it is the error saying why it is absent."""
    if isinstance(result, ZpRainbowError):
        raise result
    return result

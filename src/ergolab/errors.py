"""Exception types shared across the package, and check_integer.  A plain
argument out of its range, NaN included, raises ValueError naming it
instead (ParameterError, for catalog parameters, is both a ValueError and
an ErgolabError)."""

import numbers


def check_integer(name: str, value, least=None):
    """ValueError naming `name` unless value is an integer (a numpy integer
    too), and at least `least` where that is given."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


class ErgolabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ErgolabError):
    """A point lies outside the domain of the system it was handed to."""


class RateNotEstablishedError(ErgolabError):
    """A dimension bound was requested from a non-positive decay rate; the
    exponential-decay hypothesis is not established, so no bound follows."""


class ParameterError(ErgolabError, ValueError):
    """A catalog id is unknown, or one of its parameters is missing or breaks
    its rule.  `param` names the parameter, and is None for the id itself."""

    def __init__(self, msg, param=None):
        super().__init__(msg)
        self.param = param


class GridBudgetError(ErgolabError):
    """A cover sweep would exceed its cell-evaluation budget."""


class ValidationError(ErgolabError):
    """An experiment configuration failed validation.  The message names the
    offending field."""


class StageError(ErgolabError):
    """A pipeline stage failed.  Carries the stage name and the underlying
    cause; partial artifacts for completed stages remain available."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause

"""Exception types shared across the package, and the argument checks
check_integer and check_real.  A plain argument out of its range, NaN
included, raises ValueError naming it instead (ParameterError, for catalog
parameters, is both a ValueError and an ErgolabError)."""

import math
import numbers


def check_integer(name: str, value, least=None):
    """ValueError naming `name` unless value is an integer (a numpy integer
    too, a bool not), and at least `least` where that is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, lo=-math.inf, hi=math.inf, ends="[]") -> float:
    """value as a float; ValueError naming `name` unless it is a real number
    (a numpy one too, a bool not) inside the interval from lo to hi.  `ends`
    gives its brackets: "[" or "(" for lo, "]" or ")" for hi.  NaN lies
    inside no interval, so the default refuses NaN alone and open infinite
    ends, "()", refuse every value that is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    above = v > lo if ends[0] == "(" else v >= lo
    below = v < hi if ends[1] == ")" else v <= hi
    if not (above and below):
        raise ValueError(f"{name} must lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {v!r}")
    return v


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

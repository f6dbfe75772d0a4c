"""Exception hierarchy shared by all modules.

Two failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): invalid inputs or configuration, and
numerical breakdown at runtime.  Every scalar argument is read by one of two
rules, :func:`_integer` and :func:`_real`: a value neither takes is a ConfigError.
"""

import math
import numbers
import operator

__all__ = [
    "SpotSpectraError",
    "ConfigError",
    "DegenerateStatisticError",
    "NumericalError",
    "SingularEstimateError",
    "WorkerError",
]


class SpotSpectraError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SpotSpectraError, ValueError):
    """Invalid user input: bad shapes, out-of-range parameters, bad files."""


class DegenerateStatisticError(ConfigError):
    """A statistic is undefined for the requested dimensions.

    Raised e.g. when the aspect ratio p / k_n is >= 1, in which case the
    spot estimator is singular with probability one and log-determinant
    statistics do not exist.
    """


class NumericalError(SpotSpectraError, RuntimeError):
    """Numerical failure: solver divergence, singular matrix, NaN input."""


class SingularEstimateError(NumericalError):
    """An estimate that should be positive definite is numerically singular."""


class WorkerError(SpotSpectraError, RuntimeError):
    """A Monte Carlo worker process exited without reporting; as the cause
    of an error a worker did report, it holds that error's traceback."""


def _integer(value: object, requirement: str, low: int = 1, high: float = math.inf) -> int:
    """The integer rule: ``value`` as a plain ``int`` in ``[low, high)`` when ``operator.index``
    takes it and it is no ``bool``, else a ConfigError ``"<requirement>, got <value!r>"``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is not None and not isinstance(value, bool) and low <= number < high:
        return number
    raise ConfigError(f"{requirement}, got {value!r}")


def _real(value: object, requirement: str, positive: bool = False, below: float = math.inf,
          bounded: bool = True) -> float:
    """The real rule: ``float(value)`` when ``value`` is a ``numbers.Real`` and no ``bool``,
    else a ConfigError ``"<requirement>, got <value!r>"``.  Unless ``bounded`` is false the
    float must also be finite, at least 0 (above 0 if ``positive``) and below ``below``."""
    # float first: it takes numpy floats too, and the ABC check is slow
    if isinstance(value, (float, numbers.Real)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not bounded or (number > 0.0 if positive else number >= 0.0) and number < below:
            return number
    raise ConfigError(f"{requirement}, got {value!r}")

"""Exception hierarchy shared by all modules.

Two failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): invalid inputs or configuration, and
numerical breakdown at runtime.  Every argument is read by the rule of its kind,
:func:`_integer`, :func:`_real`, :func:`_sequence` (each entry by its own rule)
or :func:`_array` (and :func:`_complex` for a complex point): a value its rule
does not take is a ConfigError that names the argument.
"""

import math
import numbers
import operator
from collections.abc import Callable, Mapping

import numpy as np

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


def _complex(value: object, requirement: str) -> complex:
    """The complex rule: ``complex(value)`` when ``value`` is a ``numbers.Complex`` and no
    ``bool``, else a ConfigError ``"<requirement>, got <value!r>"``; the caller checks its range."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{requirement}, got {value!r}")


def _sequence(values: object, name: str, read: Callable[[object], object]) -> tuple:
    """The sequence rule: ``read``, the entries' own rule, of each entry of ``values``, any iterable
    but a ``str``, ``bytes``, ``bytearray`` or mapping, with at least one entry, as a tuple."""
    if isinstance(values, (str, bytes, bytearray, Mapping)) or not np.iterable(values):
        raise ConfigError(f"{name} must be a sequence, got {values!r}")
    entries = tuple(map(read, values))
    if not entries:
        raise ConfigError(f"{name} must name at least one entry, got {values!r}")
    return entries


def _array(value: object, name: str, ndim: int) -> np.ndarray:
    """The array rule: ``value`` as a float array, itself if it is one, when ``np.asarray`` holds
    it as integers or floats in ``ndim`` axes, none empty, and every entry is finite."""
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's error for a ragged nesting
        raise ConfigError(f"{name} must be a rectangular array, got a ragged one") from None
    if array.dtype.kind not in "iuf":  # so no bool, complex, string or object array
        raise ConfigError(f"{name} must be an array of integers or floats, got dtype {array.dtype}")
    if array.ndim != ndim or 0 in array.shape:
        raise ConfigError(f"{name} must be a nonempty {ndim}-D array, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise ConfigError(f"{name} contains non-finite entries")
    return array.astype(float, copy=False)

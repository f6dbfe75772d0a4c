"""Exception hierarchy shared by all modules.

Two failure families matter to callers (and to the command line tool, which
maps them to distinct exit codes): invalid inputs or configuration, and
numerical breakdown at runtime.
"""

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

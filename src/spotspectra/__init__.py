"""Spectral analysis of high-frequency spot volatility matrix estimators.

The package simulates multivariate price paths, forms local (spot) and
integrated realized covariance estimates, compares their eigenvalue
distributions against Marchenko--Pastur theory, and runs standardized
identity and sphericity tests, together with a Monte Carlo harness that
reproduces size/power tables and figure data.
"""

from . import errors, estimators, harness, hdtests, rmt, simkit, spectra
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .harness import *  # noqa: F403
from .hdtests import *  # noqa: F403
from .rmt import *  # noqa: F403
from .simkit import *  # noqa: F403
from .spectra import *  # noqa: F403

__version__ = "0.1.0"

# Each public name is listed once, in the ``__all__`` of the module defining it.
__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += estimators.__all__
__all__ += harness.__all__
__all__ += hdtests.__all__
__all__ += rmt.__all__
__all__ += simkit.__all__
__all__ += spectra.__all__

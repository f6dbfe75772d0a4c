r"""Realized covariance estimators built from high-frequency increments.

Given increments :math:`\Delta_i X = X_{i/n} - X_{(i-1)/n}` of a
:math:`p`-dimensional semimartingale observed on an equidistant grid, this
module forms the local spot covariance estimate at time :math:`t`,

.. math::

   \widehat{c}_t \;=\; \frac{n}{k_n} \sum_{i=\lfloor tn\rfloor + 1}^{\lfloor tn\rfloor + k_n}
   (\Delta_i X)(\Delta_i X)^\top ,

which averages :math:`k_n` rescaled outer products over a shrinking window
right of :math:`t`.  :func:`window_start`, the one check of where a window
sits, takes the floor after it snaps a :math:`tn` within a relative ``1e-9``
of an integer to that integer, and rejects every window that does not fit.
The realized integrated covariance :math:`\sum_{i=1}^{n} (\Delta_i X)(\Delta_i X)^\top`
is ``spot_vol(incr, 0.0, n).matrix``, the estimate whose window is the whole
sample.

One function forms every estimate, public or Monte Carlo: the Gram product
``w @ w.T`` of a unit-stride copy ``w`` of the window, in the caller's
:mod:`~spotspectra._blas` scope, scaled in place by ``n / k_n`` and then by a
factor, ``1.0`` here and ``1 / base`` in a sweep or ESD figure.  numpy forms
the Gram with BLAS ``syrk`` and mirrors one triangle, so it is exactly
symmetric, whatever the input's layout, and no symmetrization pass follows.

The spot estimate is the input to the spectral tests: its aspect ratio
``z_n = p / k_n`` plays the role of the concentration index in the
Marchenko--Pastur approximation of its eigenvalue distribution.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass
from typing import Optional, TextIO, Union

import numpy as np

from ._blas import kernel_scope
from ._csvio import float_rows, read_float_csv, write_csv
from .errors import ConfigError, NumericalError
from .simkit import _snapped_floor
from .spectra import checked_symmetric

__all__ = [
    "SpotEstimate",
    "spot_vol",
    "spot_vol_from_window",
    "rescale",
    "write_matrix_csv",
    "read_matrix_csv",
]

@dataclass(frozen=True)
class SpotEstimate:
    """A spot covariance estimate plus the window metadata the tests need.

    Construction checks that ``matrix`` is square, finite and symmetric up
    to a relative ``1e-8``, and that ``k_n`` is a positive integer.  It does
    not check that ``matrix`` is positive semidefinite, which
    :mod:`spotspectra.hdtests` assumes.

    Attributes
    ----------
    matrix
        The ``p x p`` symmetric estimate, stored as given.
    t
        Time the window is anchored at.
    k_n
        Number of increments averaged.
    window
        1-based increment index range ``(first, last)`` that was averaged.
    """

    matrix: np.ndarray
    t: float
    k_n: int
    window: tuple[int, int]

    def __post_init__(self) -> None:
        with kernel_scope():  # A - A^T can overflow
            m = checked_symmetric(self.matrix, "estimate matrix")
        _check_k_n(self.k_n)
        object.__setattr__(self, "matrix", m)

    @property
    def p(self) -> int:
        """Matrix dimension."""
        return self.matrix.shape[0]

    @property
    def z_n(self) -> float:
        """Aspect ratio ``p / k_n``."""
        return self.p / self.k_n


def _check_k_n(k_n: object) -> None:
    if not isinstance(k_n, int) or k_n < 1:
        raise ConfigError(f"k_n must be a positive integer, got {k_n!r}")


def _scaled_gram(window: np.ndarray, n: int, k_n: int, factor: float) -> np.ndarray:
    """Every estimate matrix: ``w @ w.T`` scaled in place by ``n / k_n``, then by ``factor``,
    in the caller's :mod:`~spotspectra._blas` scope; the caller reports an overflow."""
    # A column-strided window can take a general product, which is not always
    # symmetric; the copy (a no-op for a C-contiguous window) avoids it.
    w = np.ascontiguousarray(window)
    matrix = w @ w.T
    matrix *= n / k_n
    matrix *= factor
    return matrix


def _window_length(n: int, k_n: Optional[int]) -> int:
    return math.isqrt(n) if k_n is None else k_n  # the default k_n is floor(sqrt(n))


def window_start(t: float, n: int, k_n: int) -> int:
    """Cells before a ``k_n``-increment window at time ``t`` on an ``n``-cell grid:
    ``floor(t*n)``, where a ``t*n`` within a relative ``1e-9`` of an integer counts as
    that integer (``t = 0.29, n = 100`` starts after cell 29).  An ``n`` or ``k_n`` not
    a positive integer, ``t*n`` not finite, ``t < 0`` or an overrun is a ``ConfigError``."""
    if not isinstance(n, int) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    _check_k_n(k_n)
    if not math.isfinite(t * n):
        raise ConfigError(f"window start t * n is not finite: t = {t!r}, n = {n!r}")
    if t < 0.0:
        raise ConfigError(f"t must be finite and nonnegative, got {t!r}")
    start = _snapped_floor(t * n)
    if start + k_n > n:
        raise ConfigError(
            f"window [{start + 1}, {start + k_n}] at t = {t!r} overruns the sample of n = {n}")
    return start


def spot_vol(incr: np.ndarray, t: float, k_n: int) -> SpotEstimate:
    """Local spot covariance estimate from a window of ``k_n`` increments.

    Parameters
    ----------
    incr
        ``p x n`` increment matrix for the full sample.
    t
        Anchor time in ``[0, 1]``; the window covers increments
        ``s + 1 .. s + k_n`` with ``s = window_start(t, n, k_n)``, that is
        ``floor(t*n)`` up to round-off.
    k_n
        Window length; the window must fit inside the sample.

    Returns
    -------
    SpotEstimate
        ``(n / k_n)`` times the sum of outer products over the window (an
        exactly symmetric Gram matrix), with the window metadata attached.

    Raises
    ------
    ConfigError
        If the window overruns the sample or the inputs are malformed.
    NumericalError
        If the estimate overflows.
    """
    incr = _validated_increments(incr)
    n = incr.shape[1]
    start = window_start(t, n, k_n)
    return spot_vol_from_window(incr[:, start : start + k_n], n, t, k_n)


def spot_vol_from_window(window: np.ndarray, n: int, t: float, k_n: int) -> SpotEstimate:
    """Spot estimate from an already-extracted ``p x k_n`` window block.

    ``n`` is the full-sample size the ``n / k_n`` rescaling refers to; the
    window is assumed to start at increment ``window_start(t, n, k_n) + 1``,
    and an estimate that overflows is a :class:`NumericalError`.
    """
    start = window_start(t, n, k_n)
    window = _validated_increments(window)
    if window.shape[1] != k_n:
        raise ConfigError(f"window block must have k_n = {k_n} columns, got shape {window.shape}")
    with kernel_scope():  # the estimate's own check nests, so it sets no thread count
        matrix = _finite(_scaled_gram(window, n, k_n, 1.0))
        return SpotEstimate(matrix=matrix, t=t, k_n=k_n, window=(start + 1, start + k_n))


def rescale(estimate: SpotEstimate, factor: float) -> SpotEstimate:
    """Return the estimate with its matrix multiplied by ``factor``.

    Used to express an estimate in null units: the factor ``1 / level`` for the
    hypothesised variance level makes the null population the identity.  A
    product that overflows is a :class:`NumericalError`; it is as symmetric as
    the estimate's matrix, so it is not checked again.
    """
    _check_factor(factor)
    scaled = copy(estimate)
    with kernel_scope():
        object.__setattr__(scaled, "matrix", _finite(estimate.matrix * factor))
    return scaled


def _finite(matrix: np.ndarray) -> np.ndarray:
    if not np.isfinite(matrix).all():
        raise NumericalError("estimate is not finite")
    return matrix


def _check_factor(factor: float, name: str = "scale factor") -> None:
    if not math.isfinite(factor) or factor <= 0.0:
        raise ConfigError(f"{name} must be positive and finite, got {factor!r}")


def _validated_increments(incr: np.ndarray) -> np.ndarray:
    incr = np.asarray(incr, dtype=float)
    if incr.ndim != 2 or incr.shape[0] < 1 or incr.shape[1] < 1:
        raise ConfigError(f"increment matrix must be 2-D p x n, got shape {incr.shape}")
    if not np.all(np.isfinite(incr)):
        raise ConfigError("increment matrix contains non-finite entries")
    return incr


def write_matrix_csv(matrix: np.ndarray, stream: Union[str, TextIO]) -> None:
    """Write a square matrix as CSV, row-major, with header ``c1,...,cp``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {matrix.shape}")
    header = [f"c{j + 1}" for j in range(matrix.shape[1])]
    write_csv(stream, header, float_rows(matrix))


def read_matrix_csv(stream: Union[str, TextIO]) -> np.ndarray:
    """Read a square matrix written by :func:`write_matrix_csv`."""
    header, rows = read_float_csv(stream, "matrix CSV", ("c1",))
    if rows.shape[0] != rows.shape[1] or rows.shape[1] != len(header):
        raise ConfigError(f"matrix CSV is not square: shape {rows.shape}")
    return rows

"""Eigenvalue extraction and empirical spectral distribution utilities.

A covariance estimate enters as a symmetric positive semidefinite matrix and
leaves as a sorted spectrum; the empirical spectral distribution (ESD) of
that spectrum is what gets compared against limiting laws.  Tiny negative
eigenvalues caused by round-off are clamped to zero, while genuinely negative
spectra are rejected as numerical failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._blas import kernel_scope
from .errors import ConfigError, NumericalError, _array

__all__ = [
    "SpectralSample",
    "eigenvalues_sym",
    "esd_eval",
    "kolmogorov_distance",
]

# Eigenvalues below -_PSD_RTOL * ||A||_2 are a hard error; ones in
# [-_PSD_RTOL * ||A||_2, 0) are treated as round-off and clamped to zero.
_PSD_RTOL = 1e-10


def checked_symmetric(matrix: np.ndarray, name: str) -> np.ndarray:
    """Return ``matrix``, read by the array rule of :mod:`spotspectra.errors` as a 2-D array,
    after checking it is square and has ``max |A - A^T| <= 1e-8 * max |A|``; a
    :class:`~spotspectra.errors.ConfigError` names ``name`` and the condition that failed."""
    m = _array(matrix, name, 2)
    if m.shape[0] != m.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {m.shape}")
    rtol = 1e-8  # relative asymmetry accepted as round-off
    scale = np.max(np.abs(m))
    asym = np.max(np.abs(m - m.T))
    if asym > rtol * max(scale, 1e-300):
        raise ConfigError(
            f"{name} is asymmetric: max |A - A^T| = {asym:.3e} exceeds "
            f"{rtol:.1e} * max |A| = {rtol * scale:.3e}"
        )
    return m


@dataclass(frozen=True)
class SpectralSample:
    """Eigenvalues of one matrix, read by the array rule of :mod:`spotspectra.errors`,
    sorted in descending order: one per dimension, multiplicities included."""

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        lam = _array(self.eigenvalues, "eigenvalue vector", 1)
        if np.any(np.diff(lam) > 0.0):
            raise ConfigError("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", lam)


def eigenvalues_sym(matrix: np.ndarray) -> SpectralSample:
    """Spectrum of a symmetric positive semidefinite matrix.

    The input may be asymmetric up to ``1e-8`` relative round-off (it is
    re-symmetrized as ``A / 2 + A^T / 2``, finite for any finite ``A``, before
    decomposition).  Eigenvalues within ``1e-10 * ||A||_2`` of zero are
    snapped to exactly zero: a rank-deficient matrix has its zero eigenvalues
    returned by LAPACK as values of order ``±eps * ||A||_2``, and leaving the
    positive half of that noise in place would smear a point mass at zero
    across distinct tiny values.  Anything below the band raises
    :class:`~spotspectra.errors.NumericalError` because the matrix is not a
    plausible covariance.  It runs in the :mod:`~spotspectra._blas` scope, so
    the bits do not depend on the caller's thread count.  A private kernel does
    all but the check and the copy; the ESD figure and CLI ``test`` call it.
    """
    with kernel_scope():
        m = checked_symmetric(matrix, "matrix")
        return _spectrum(0.5 * m + 0.5 * m.T)


def _spectrum(sym: np.ndarray) -> SpectralSample:
    """:func:`eigenvalues_sym` of a finite, exactly symmetric matrix, unchecked; caller's scope."""
    try:
        lam = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue decomposition failed: {exc}") from exc
    spectral_norm = max(abs(lam[0]), abs(lam[-1]))
    if lam[0] < -_PSD_RTOL * spectral_norm:
        raise NumericalError(
            f"matrix is not positive semidefinite: min eigenvalue {lam[0]:.6e} "
            f"below -{_PSD_RTOL:.1e} * ||A||_2 = {-_PSD_RTOL * spectral_norm:.6e}"
        )
    lam = np.where(np.abs(lam) <= _PSD_RTOL * spectral_norm, 0.0, lam)
    return SpectralSample(eigenvalues=lam[::-1].copy())


def _count_at_most(sample: SpectralSample, x: Union[float, np.ndarray]) -> np.ndarray:
    """Number of eigenvalues ``<= x``, elementwise."""
    return np.searchsorted(sample.eigenvalues[::-1], x, side="right")


def esd_eval(sample: SpectralSample, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Empirical spectral distribution at ``x``: fraction of eigenvalues ``<= x``.

    Accepts scalars or arrays and returns a ``float`` for a scalar; NaN at a
    NaN, as :func:`~spotspectra.rmt.mp_cdf` gives.
    """
    out = np.where(np.isnan(x), np.nan, _count_at_most(sample, x) / sample.eigenvalues.size)
    return out if np.ndim(out) else float(out)


def kolmogorov_distance(
    sample: SpectralSample, cdf: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Supremum distance between the ESD and a reference distribution function.

    ``cdf`` may itself have jumps; left limits are therefore compared with
    left limits, by evaluating both functions just below each eigenvalue.
    The supremum of ``|ESD - cdf|`` over the whole line is attained at an
    eigenvalue from one side or the other, which is what is scanned here.
    ``cdf`` is called twice, each time on an array: the distinct eigenvalues,
    then their left neighbours ``np.nextafter(lam, -inf)``.  The ESD figure
    runs the same scan with ``cdf`` already evaluated on a grid that holds
    every eigenvalue, and calls ``cdf`` once, for the left neighbours.
    """
    lam = np.unique(sample.eigenvalues)
    return _ks_scan(sample, cdf, lam, cdf(lam))


def _ks_scan(
    sample: SpectralSample, cdf: Callable[[np.ndarray], np.ndarray],
    xs: np.ndarray, cdf_xs: np.ndarray,
) -> float:
    """:func:`kolmogorov_distance` given ``cdf_xs = cdf(xs)`` on a sorted
    grid ``xs`` that holds every eigenvalue: the right limits at the
    eigenvalues are read from ``cdf_xs``, and ``cdf`` is called once, on the
    left neighbours."""
    asc = sample.eigenvalues[::-1]
    lam = np.unique(asc)
    p = asc.size
    right = np.searchsorted(asc, lam, side="right") / p - cdf_xs[np.searchsorted(xs, lam)]
    left = np.searchsorted(asc, lam, side="left") / p - cdf(np.nextafter(lam, -np.inf))
    return float(np.max(np.maximum(np.abs(right), np.abs(left))))

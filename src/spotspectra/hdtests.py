r"""High-dimensional identity and sphericity tests for spot covariance estimates.

All three tests consume a :class:`~spotspectra.estimators.SpotEstimate` whose
aspect ratio ``z_n = p / k_n`` stays bounded away from zero, and standardize
their statistics with Marchenko--Pastur CLT constants so the z-scores are
asymptotically standard normal under the null.

* :func:`bjyz_test` -- likelihood-ratio-type identity test built on the
  log-spectral statistic :math:`\sum_i (\lambda_i - \log\lambda_i - 1)`;
  requires ``z_n < 1`` (otherwise the estimate is singular and the
  log-determinant does not exist).
* :func:`lw_test` -- quadratic-loss identity test built on
  :math:`p^{-1}\operatorname{tr}((\widehat c - I)^2)` with a dimension
  correction; defined for any aspect ratio.
* :func:`j_test` -- scale-invariant sphericity test: the quadratic loss of
  the trace-normalized estimate.  The matrix is normalized *before* the
  decomposition, which makes the statistic exactly invariant under positive
  rescaling of the input.

P-values are two-sided normal tail probabilities ``2 * (1 - Phi(|z|))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from ._csvio import write_csv
from .errors import ConfigError, NumericalError, SingularEstimateError
from .estimators import SpotEstimate
from .rmt import mp_lss_constants
from .spectra import checked_symmetric, eigenvalues_sym

__all__ = [
    "TestKind",
    "TestReport",
    "bjyz_test",
    "lw_test",
    "j_test",
    "evaluate_tests",
    "whiten_increments",
    "write_report_csv",
]

# Eigenvalues at or below this floor make log-spectral statistics (and
# whitening) undefined.
_EIG_FLOOR = 1e-12


class TestKind(str, Enum):
    """Identifier of one of the three test statistics."""

    BJYZ = "bjyz"
    LW = "lw"
    J = "j"


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test on one estimate."""

    kind: TestKind
    raw: float
    zscore: float
    pvalue: float
    z_n: float
    p: int
    k_n: int

    CSV_HEADER = ("kind", "p", "k_n", "z_n", "raw", "zscore", "pvalue")

    def csv_row(self) -> list[str]:
        """Row matching ``CSV_HEADER``."""
        return [
            self.kind.value,
            str(self.p),
            str(self.k_n),
            repr(self.z_n),
            repr(self.raw),
            repr(self.zscore),
            repr(self.pvalue),
        ]


def _two_sided_pvalue(zscore: float) -> float:
    # erfc(|z| / sqrt(2)) == 2 * (1 - Phi(|z|))
    return math.erfc(abs(zscore) / math.sqrt(2.0))


def _spectrum(est: SpotEstimate) -> np.ndarray:
    return eigenvalues_sym(est.matrix).eigenvalues


def bjyz_test(est: SpotEstimate) -> TestReport:
    """Log-spectral identity test: is the population covariance the identity?

    Raw statistic ``sum(lam - log(lam) - 1)`` over the eigenvalues ``lam`` of
    the estimate, standardized as
    ``(raw - p*center - mean_shift) / sqrt(variance)`` with the constants of
    :func:`~spotspectra.rmt.mp_lss_constants` at ``z_n``.

    Raises
    ------
    DegenerateStatisticError
        If ``z_n >= 1``.
    SingularEstimateError
        If any eigenvalue is at or below ``1e-12``.
    """
    constants = mp_lss_constants(est.z_n)
    return _bjyz_report(est, _spectrum(est), constants)


def _bjyz_report(est: SpotEstimate, lam: np.ndarray, constants) -> TestReport:
    smallest = float(np.min(lam))
    if smallest <= _EIG_FLOOR:
        raise SingularEstimateError(
            f"smallest eigenvalue {smallest:.6e} at or below {_EIG_FLOOR:.1e}: "
            "log-spectral statistic undefined"
        )
    p = est.p
    raw = float(np.sum(lam) - np.sum(np.log(lam))) - p
    zscore = (raw - p * constants.center - constants.mean_shift) / math.sqrt(
        constants.variance
    )
    return TestReport(
        kind=TestKind.BJYZ,
        raw=raw,
        zscore=zscore,
        pvalue=_two_sided_pvalue(zscore),
        z_n=est.z_n,
        p=p,
        k_n=est.k_n,
    )


def lw_test(est: SpotEstimate) -> TestReport:
    """Quadratic-loss identity test with dimension correction.

    Raw statistic
    ``mean((lam - 1)**2) - z_n * mean(lam)**2 + z_n`` standardized as
    ``(k_n * raw - p - 1) / 2``.  Defined for every aspect ratio, including
    ``z_n >= 1``.
    """
    return _lw_report(est, _spectrum(est))


def _lw_report(est: SpotEstimate, lam: np.ndarray) -> TestReport:
    p = est.p
    ratio = p / est.k_n
    raw = float(np.mean((lam - 1.0) ** 2) - ratio * np.mean(lam) ** 2 + ratio)
    zscore = (est.k_n * raw - p - 1.0) / 2.0
    return TestReport(
        kind=TestKind.LW,
        raw=raw,
        zscore=zscore,
        pvalue=_two_sided_pvalue(zscore),
        z_n=est.z_n,
        p=p,
        k_n=est.k_n,
    )


def j_test(est: SpotEstimate) -> TestReport:
    """Sphericity test: is the population covariance proportional to the identity?

    The estimate is divided by its average diagonal ``trace / p`` first and
    the quadratic loss ``mean((mu - 1)**2)`` of the normalized spectrum
    ``mu`` is standardized like the quadratic identity statistic.  Because
    the normalization happens at matrix level, the report is exactly
    invariant under ``matrix -> alpha * matrix`` for ``alpha > 0``.

    Raises
    ------
    SingularEstimateError
        If the trace is not strictly positive (normalization undefined).
    """
    trace = float(np.trace(est.matrix))
    if not trace > 0.0:
        raise SingularEstimateError(
            f"trace {trace!r} is not positive: sphericity normalization undefined"
        )
    normalized = est.matrix / (trace / est.p)
    mu = eigenvalues_sym(normalized).eigenvalues
    p = est.p
    raw = float(np.mean((mu - 1.0) ** 2))
    zscore = (est.k_n * raw - p - 1.0) / 2.0
    return TestReport(
        kind=TestKind.J,
        raw=raw,
        zscore=zscore,
        pvalue=_two_sided_pvalue(zscore),
        z_n=est.z_n,
        p=p,
        k_n=est.k_n,
    )


def evaluate_tests(
    est: SpotEstimate, kinds: Optional[Sequence[TestKind]] = None
) -> list[TestReport]:
    """Run several tests on one estimate, decomposing the matrix only once.

    With ``kinds=None`` all applicable tests run: the log-spectral test is
    included only when ``z_n < 1``.  The identity tests share a single
    eigenvalue decomposition; the sphericity test decomposes the normalized
    matrix as its exact-invariance contract requires.
    """
    if kinds is None:
        kinds = [k for k in TestKind if k is not TestKind.BJYZ or est.z_n < 1.0]
    lam: Optional[np.ndarray] = None
    reports = []
    for kind in kinds:
        if kind is TestKind.J:
            reports.append(j_test(est))
            continue
        if lam is None:
            lam = _spectrum(est)
        if kind is TestKind.BJYZ:
            reports.append(_bjyz_report(est, lam, mp_lss_constants(est.z_n)))
        elif kind is TestKind.LW:
            reports.append(_lw_report(est, lam))
        else:
            raise ConfigError(f"unknown test kind {kind!r}")
    return reports


def whiten_increments(incr: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Multiply increments by ``sigma**(-1/2)`` so a test of ``c = sigma``
    becomes a test of ``c = I``.

    ``sigma`` must be symmetric positive definite with eigenvalues above
    ``1e-12``.
    """
    incr = np.asarray(incr, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if incr.ndim != 2:
        raise ConfigError(f"increments must be 2-D, got shape {incr.shape}")
    if sigma.shape != (incr.shape[0], incr.shape[0]):
        raise ConfigError(
            f"sigma shape {sigma.shape} does not match {incr.shape[0]} coordinates"
        )
    sigma = checked_symmetric(sigma, "sigma")
    try:
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue decomposition of sigma failed: {exc}") from exc
    smallest = float(w[0])
    if smallest <= _EIG_FLOOR:
        raise NumericalError(
            f"sigma eigenvalue {smallest:.6e} at or below {_EIG_FLOOR:.1e}: "
            "inverse square root undefined"
        )
    inv_root = (v / np.sqrt(w)) @ v.T
    return inv_root @ incr


def write_report_csv(reports: Iterable[TestReport], stream: Union[str, TextIO]) -> None:
    """Write test reports as CSV rows under the standard header."""
    write_csv(stream, TestReport.CSV_HEADER, (report.csv_row() for report in reports))

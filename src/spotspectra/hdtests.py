r"""High-dimensional identity and sphericity tests for spot covariance estimates.

All three tests consume a :class:`~spotspectra.estimators.SpotEstimate` whose
aspect ratio ``z_n = p / k_n`` stays bounded away from zero, and standardize
their statistics with Marchenko--Pastur CLT constants so the z-scores are
asymptotically standard normal under the null.  Each raw statistic is a
linear spectral statistic of the estimate ``A`` with eigenvalues ``lam``,
computed from matrix invariants with no eigendecomposition:

* :func:`bjyz_test` -- likelihood-ratio identity test (Bai, Jiang, Yao and
  Zheng 2009): ``sum(lam - log(lam) - 1) = tr(A) - log(det(A)) - p``, with
  the log-determinant from the Cholesky factor; requires ``z_n < 1``.
* :func:`lw_test` -- quadratic-loss identity test (Ledoit and Wolf 2002),
  from ``sum((lam - 1)**2) = ||A - I||_F**2`` and ``tr(A)``; any ``z_n``.
* :func:`j_test` -- John's sphericity test: the same loss for
  ``A / (tr(A) / p)``, so rescaling ``A`` by a power of two leaves it
  bit-identical.

``A`` is assumed symmetric positive semidefinite and is not checked: an
indefinite matrix gives finite, meaningless ``lw`` and ``j`` statistics.
Check a matrix from outside the program with
:func:`~spotspectra.spectra.eigenvalues_sym` first, as the command line
``test`` does.  P-values are two-sided: ``2 * (1 - Phi(|z|))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from ._blas import one_thread
from ._csvio import write_csv
from .errors import ConfigError, SingularEstimateError
from .estimators import SpotEstimate
from .rmt import mp_lss_constants

__all__ = [
    "TestKind",
    "TestReport",
    "bjyz_test",
    "lw_test",
    "j_test",
    "evaluate_tests",
    "write_report_csv",
]

# Cholesky pivots at or below this floor make the log-determinant undefined.
_FLOOR = 1e-12


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


def _report(kind: TestKind, est: SpotEstimate, raw: float, zscore: float) -> TestReport:
    return TestReport(
        kind=kind,
        raw=raw,
        zscore=zscore,
        pvalue=_two_sided_pvalue(zscore),
        z_n=est.z_n,
        p=est.p,
        k_n=est.k_n,
    )


def _squared_distance_to_identity(a: np.ndarray) -> float:
    d = a - np.eye(a.shape[0])
    with one_thread():
        return float(np.vdot(d, d))


def bjyz_test(est: SpotEstimate) -> TestReport:
    """Log-spectral identity test: is the population covariance the identity?

    Raw statistic ``tr(A) - 2*sum(log(diag(L))) - p`` for the Cholesky
    factor ``A = L L^T``, which is ``sum(lam - log(lam) - 1)``, standardized
    as ``(raw - p*center - mean_shift) / sqrt(variance)`` with the constants
    of :func:`~spotspectra.rmt.mp_lss_constants` at ``z_n``.

    Raises
    ------
    DegenerateStatisticError
        If ``z_n >= 1``.
    SingularEstimateError
        If the Cholesky factorization fails or a pivot ``L[i, i]**2`` is at
        or below ``1e-12``.
    """
    constants = mp_lss_constants(est.z_n)
    try:
        with one_thread():
            root_pivots = np.diagonal(np.linalg.cholesky(est.matrix))
    except np.linalg.LinAlgError as exc:
        raise SingularEstimateError(
            f"Cholesky factorization failed ({exc}): log-determinant undefined"
        ) from exc
    smallest = float(np.min(root_pivots)) ** 2
    if smallest <= _FLOOR:
        raise SingularEstimateError(
            f"smallest Cholesky pivot {smallest:.6e} at or below {_FLOOR:.1e}: "
            "log-determinant undefined"
        )
    p = est.p
    raw = float(np.trace(est.matrix)) - 2.0 * float(np.sum(np.log(root_pivots))) - p
    zscore = (raw - p * constants.center - constants.mean_shift) / math.sqrt(
        constants.variance
    )
    return _report(TestKind.BJYZ, est, raw, zscore)


def lw_test(est: SpotEstimate) -> TestReport:
    """Quadratic-loss identity test with dimension correction.

    Raw statistic ``||A - I||_F**2 / p - z_n * (tr(A) / p)**2 + z_n``, which
    is ``mean((lam - 1)**2) - z_n * mean(lam)**2 + z_n``, standardized as
    ``(k_n * raw - p - 1) / 2``.  Defined for every aspect ratio.
    """
    p = est.p
    mean_lam = float(np.trace(est.matrix)) / p
    raw = _squared_distance_to_identity(est.matrix) / p - est.z_n * mean_lam**2 + est.z_n
    return _report(TestKind.LW, est, raw, (est.k_n * raw - p - 1.0) / 2.0)


def j_test(est: SpotEstimate) -> TestReport:
    """Sphericity test: is the population covariance proportional to the identity?

    Raw statistic ``||B - I||_F**2 / p`` for ``B = A / (tr(A) / p)``,
    standardized like :func:`lw_test`.  Because ``A`` is normalized first,
    the report is bit-identical under ``A -> 2**m * A``.

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
    p = est.p
    raw = _squared_distance_to_identity(est.matrix / (trace / p)) / p
    return _report(TestKind.J, est, raw, (est.k_n * raw - p - 1.0) / 2.0)


_RUNNERS = {TestKind.BJYZ: bjyz_test, TestKind.LW: lw_test, TestKind.J: j_test}


def evaluate_tests(
    est: SpotEstimate, kinds: Optional[Sequence[TestKind]] = None
) -> list[TestReport]:
    """Run several tests on one estimate, one report per entry of ``kinds``.

    Each report is the one the standalone ``*_test`` call returns.  With
    ``kinds=None`` all applicable tests run in the order ``bjyz, lw, j``,
    where the log-spectral test is included only when ``z_n < 1``.
    """
    if kinds is None:
        kinds = [k for k in TestKind if k is not TestKind.BJYZ or est.z_n < 1.0]
    reports = []
    for kind in kinds:
        runner = _RUNNERS.get(kind)
        if runner is None:
            raise ConfigError(f"unknown test kind {kind!r}")
        reports.append(runner(est))
    return reports


def write_report_csv(reports: Iterable[TestReport], stream: Union[str, TextIO]) -> None:
    """Write test reports as CSV rows under the standard header."""
    write_csv(stream, TestReport.CSV_HEADER, (report.csv_row() for report in reports))

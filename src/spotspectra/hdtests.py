r"""High-dimensional identity and sphericity tests for spot covariance estimates.

All three tests consume a :class:`~spotspectra.estimators.SpotEstimate` whose
aspect ratio ``z_n = p / k_n`` stays bounded away from zero, and standardize
their statistics with Marchenko--Pastur CLT constants so the z-scores are
asymptotically standard normal under the null.  Each raw statistic is a
linear spectral statistic of the estimate ``A`` with eigenvalues ``lam``,
computed from matrix invariants with no eigendecomposition:

* ``bjyz`` -- likelihood-ratio identity test (Bai, Jiang, Yao and Zheng
  2009): ``tr(A) - 2*sum(log(diag(L))) - p = sum(lam - log(lam) - 1)`` for
  the Cholesky factor ``A = L L^T``, standardized as ``(raw - p*center -
  mean_shift) / sqrt(variance)`` with the constants of
  :func:`~spotspectra.rmt.mp_lss_constants` at ``z_n``; requires ``z_n < 1``.
* ``lw`` -- quadratic-loss identity test (Ledoit and Wolf 2002):
  ``||A - I||_F**2 / p - z_n * (tr(A) / p)**2 + z_n``, standardized as
  ``(k_n * raw - p - 1) / 2``; any ``z_n``.
* ``j`` -- John's sphericity test: ``||B - I||_F**2 / p`` for ``B = A /
  (tr(A) / p)``, standardized like ``lw``.

:func:`evaluate_tests` runs them through one private kernel, which the Monte
Carlo harness calls directly.  ``lw`` and ``j`` read two invariants of ``A``,
``tr(A)`` and ``||A||_F**2`` (one ``vdot``, no copy of ``A``):
``||A - I||_F**2 = ||A||_F**2 - 2 tr(A) + p``, and ``j``'s raw statistic is
``p * (||A||_F**2 / tr(A)) / tr(A) - 1``, which overflows only where
``||A||_F**2`` does (``tr(A)**2`` alone can).  A power-of-two rescaling scales
both invariants exactly, so it leaves ``j`` bit-identical.  If ``||A||_F**2``
is not finite (an overflowed estimate), the kernel raises
:class:`~spotspectra.errors.NumericalError`.

``A`` is assumed symmetric positive semidefinite and is not checked: an
indefinite matrix gives finite, meaningless ``lw`` and ``j`` statistics.
Check a matrix from outside the program with
:func:`~spotspectra.spectra.eigenvalues_sym` first; the command line
``test`` makes the same check.  P-values are two-sided: ``2 * (1 - Phi(|z|))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from ._blas import kernel_scope
from ._csvio import write_csv
from .errors import ConfigError, NumericalError, SingularEstimateError
from .estimators import SpotEstimate
from .rmt import LssConstants, mp_lss_constants

__all__ = [
    "TestKind",
    "TestReport",
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


def _statistics(
    a: np.ndarray, k_n: int, kinds: Sequence[TestKind],
    constants: Optional[LssConstants],
) -> list[tuple[float, float]]:
    """``(raw, zscore)`` of each test in ``kinds`` on the C-ordered ``p x p`` matrix ``a``.

    The caller holds the :mod:`~spotspectra._blas` scope and passes, if ``kinds`` has ``bjyz``,
    ``constants = mp_lss_constants(p / k_n)``."""
    p = a.shape[0]
    trace = float(a.trace())
    frob = float(np.vdot(a, a))
    if not math.isfinite(frob):  # then ||A - I||_F**2 is not finite either
        raise NumericalError(f"||A - I||_F**2 = {frob!r}: estimate is not finite")
    stats = []
    for kind in kinds:
        if kind is TestKind.BJYZ:
            try:
                root_pivots = np.diagonal(np.linalg.cholesky(a))
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
            raw = trace - 2.0 * float(np.sum(np.log(root_pivots))) - p
            centered = raw - p * constants.center - constants.mean_shift
            zscore = centered / math.sqrt(constants.variance)
        elif kind is TestKind.LW:
            z_n = p / k_n
            raw = (frob - 2.0 * trace + p) / p - z_n * (trace / p) ** 2 + z_n
            zscore = (k_n * raw - p - 1.0) / 2.0
        else:
            if not trace > 0.0:
                raise SingularEstimateError(
                    f"trace {trace!r} is not positive: sphericity normalization undefined"
                )
            raw = p * (frob / trace) / trace - 1.0  # (tr A)**2 alone can overflow
            zscore = (k_n * raw - p - 1.0) / 2.0
        stats.append((raw, zscore))
    return stats


def _default_kinds(z_n: float) -> list[TestKind]:
    return [k for k in TestKind if k is not TestKind.BJYZ or z_n < 1.0]


def evaluate_tests(
    est: SpotEstimate, kinds: Optional[Sequence[TestKind]] = None
) -> list[TestReport]:
    """The tests of the module docstring on one estimate, one report per entry of ``kinds``.

    With ``kinds=None`` all applicable tests run in the order ``bjyz, lw, j``,
    where the log-spectral test is included only when ``z_n < 1``.

    Raises
    ------
    DegenerateStatisticError
        If ``kinds`` names ``bjyz`` and ``z_n >= 1``.
    SingularEstimateError
        For ``bjyz``, if the Cholesky factorization fails or a pivot
        ``L[i, i]**2`` is at or below ``1e-12``; for ``j``, if the trace is
        not strictly positive (normalization undefined).
    """
    try:
        kinds = [TestKind(kind) for kind in (_default_kinds(est.z_n) if kinds is None else kinds)]
    except ValueError as exc:
        raise ConfigError(f"unknown test kind: {exc}") from None
    constants = mp_lss_constants(est.z_n) if TestKind.BJYZ in kinds else None
    with kernel_scope():
        stats = _statistics(np.ascontiguousarray(est.matrix), est.k_n, kinds, constants)
    return [
        TestReport(kind, raw, zscore, _two_sided_pvalue(zscore), est.z_n, est.p, est.k_n)
        for kind, (raw, zscore) in zip(kinds, stats)
    ]


def write_report_csv(reports: Iterable[TestReport], stream: Union[str, TextIO]) -> None:
    """Write test reports as CSV rows under the standard header."""
    write_csv(stream, TestReport.CSV_HEADER, (report.csv_row() for report in reports))

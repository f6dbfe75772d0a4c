"""Monte Carlo experiments: size and power tables, ESD figures, Q-Q figures.

One experiment sweeps a list of cross-section dimensions ``p`` at a fixed
window length ``k_n``; each replication simulates only the increment window
the spot estimator consumes, normalizes the estimate by the null variance
level so the null population is the identity, and records the z-scores of
every applicable test.  The estimate takes the products of the public
``rescale(spot_vol_from_window(...), 1 / base)`` in the same order, so it is
bit-identical, but is symmetric by construction and is not validated again:
the :mod:`~spotspectra.hdtests` kernel it goes to checks that
``||A - I||_F**2`` is finite, so an overflow is a keyed numerical error.
Replications are keyed to counter-based substreams, so results are
bit-for-bit identical no matter how many workers share the sweep.
``workers`` counts worker processes, the calling process included:
a cell's replications are cut into ``workers`` chunks, the caller runs the
first and a pool of at most ``workers - 1`` processes (bounded by the chunks
and the usable CPUs) runs the rest.  A cell runs its kernels on one OpenBLAS
thread, in the caller and in every pool process, and restores the caller's
thread count when it ends.

The log-spectral test is skipped (left out of the result dictionaries, the
way singular columns are left blank in a report) whenever ``p / k_n >= 1``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from ._blas import one_thread, set_one_thread
from ._csvio import make_dir, write_csv
from .errors import ConfigError, NumericalError
from .estimators import _scaled_spot_estimate, _symmetrized_outer, window_start
from .hdtests import TestKind, _default_kinds, _statistics
from .rmt import MPLaw, mp_cdf, mp_lss_constants
from .simkit import GridConfig, VolKind, VolModel, simulate_window_increments
from .simkit import _draw_window, _substreams
from .spectra import eigenvalues_sym, esd_eval, kolmogorov_distance

__all__ = [
    "Alternative",
    "MCConfig",
    "MCSummary",
    "EsdArtifact",
    "QQArtifact",
    "run_size_experiment",
    "run_power_experiment",
    "run_esd_figure",
    "run_qq_figure",
    "write_size_table",
    "write_power_table",
]

_DEFAULT_MODEL = VolModel.deterministic_sin(0.0009, 0.0)


@dataclass(frozen=True)
class Alternative:
    """Two-block alternative: ``m = floor(s*p)`` variances stay at the null
    level and the remaining ``p - m`` drop to ``low``.  A product ``s*p``
    within a relative ``1e-9`` of an integer counts as that integer."""

    s: float
    low: float = 0.0004

    def __post_init__(self) -> None:
        if not math.isfinite(self.s) or not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie in (0, 1), got {self.s!r}")
        if not math.isfinite(self.low) or self.low <= 0.0:
            raise ConfigError(f"low must be finite and positive, got {self.low!r}")


@dataclass(frozen=True)
class MCConfig:
    """Settings of one Monte Carlo sweep.

    ``k_n`` defaults to ``floor(sqrt(n))`` when omitted.  ``model`` is the
    null data-generating process (a scalar-volatility kind whose ``base`` is
    the null variance level); power experiments derive the two-block
    alternative from it and ``alternative``.  ``workers`` is the number of
    worker processes per cell, the calling process included; ``1`` runs the
    sweep in the calling process alone.
    """

    seed: int
    reps: int = 1000
    n: int = 4680
    k_n: Optional[int] = None
    p_list: tuple[int, ...] = (34, 68, 102)
    model: VolModel = _DEFAULT_MODEL
    t: float = 0.0
    levels: tuple[float, ...] = (0.10, 0.05, 0.01)
    alternative: Optional[Alternative] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not isinstance(self.reps, int) or self.reps < 1:
            raise ConfigError(f"reps must be a positive integer, got {self.reps!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        k_n = self.k_n if self.k_n is not None else math.isqrt(self.n)
        if not isinstance(k_n, int) or k_n < 1:
            raise ConfigError(f"k_n must be a positive integer, got {self.k_n!r}")
        object.__setattr__(self, "k_n", k_n)
        object.__setattr__(self, "p_list", tuple(int(p) for p in self.p_list))
        if not self.p_list:
            raise ConfigError("p_list must name at least one dimension")
        if any(p < 1 for p in self.p_list):
            raise ConfigError(f"p_list entries must be positive, got {self.p_list!r}")
        if len(set(self.p_list)) != len(self.p_list):
            raise ConfigError(f"p_list entries must be distinct, got {self.p_list!r}")
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ConfigError(f"t must be finite and nonnegative, got {self.t!r}")
        if window_start(self.t, self.n) + k_n > self.n:
            raise ConfigError(
                f"window of length {k_n} at t = {self.t} overruns n = {self.n}"
            )
        object.__setattr__(self, "levels", tuple(float(x) for x in self.levels))
        if not self.levels:
            raise ConfigError("levels must name at least one test level")
        if any(not 0.0 < lv < 1.0 for lv in self.levels):
            raise ConfigError(f"levels must lie in (0, 1), got {self.levels!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True, eq=False)
class MCSummary:
    """Z-score samples per (test, dimension) plus derived rejection rates."""

    config: MCConfig
    zscores: dict[tuple[TestKind, int], np.ndarray]

    def rejection_rate(self, kind: TestKind, level: float, p: int) -> float:
        """Fraction of replications with ``|z| > Phi^{-1}(1 - level/2)``."""
        z = self.zscores[(kind, p)]
        threshold = NormalDist().inv_cdf(1.0 - level / 2.0)
        return float(np.mean(np.abs(z) > threshold))

    def rates(self) -> dict[tuple[TestKind, float, int], float]:
        """All rejection rates keyed by (test, level, p)."""
        return {
            (kind, level, p): self.rejection_rate(kind, level, p)
            for (kind, p) in self.zscores
            for level in self.config.levels
        }


def _run_rep_range(
    seed: int,
    n: int,
    t: float,
    k_n: int,
    p: int,
    data_model: VolModel,
    null_scale: float,
    rep_lo: int,
    rep_hi: int,
) -> dict[TestKind, np.ndarray]:
    """Z-scores for replications ``rep_lo .. rep_hi - 1`` of one cell."""
    grid = GridConfig(n=n, p=p, seed=seed)
    start = window_start(t, n)
    kinds = _default_kinds(p / k_n)
    constants = mp_lss_constants(p / k_n) if TestKind.BJYZ in kinds else None
    eye = np.eye(p)
    inv_scale = 1.0 / null_scale
    stream = _substreams(seed, p)
    z = np.empty((rep_hi - rep_lo, len(kinds)))
    try:
        with one_thread():
            for rep in range(rep_lo, rep_hi):
                window = _draw_window(stream, grid, data_model, start, k_n, rep)
                matrix = (n / k_n) * _symmetrized_outer(window)
                matrix *= inv_scale
                stats = _statistics(matrix, k_n, kinds, constants, eye)
                z[rep - rep_lo] = [zscore for _, zscore in stats]
    except NumericalError as exc:
        raise type(exc)(f"seed {seed}, p {p}, replication {rep}: {exc}") from exc
    return {kind: z[:, i] for i, kind in enumerate(kinds)}


def _run_cell(
    cfg: MCConfig, p: int, data_model: VolModel, null_scale: float
) -> dict[TestKind, np.ndarray]:
    args = (cfg.seed, cfg.n, cfg.t, cfg.k_n, p, data_model, null_scale)
    bounds = _chunk_bounds(cfg.reps, cfg.workers)
    # workers comes from the user: never run more processes, this one
    # included, than there are chunks or usable cores.
    processes = min(cfg.workers, len(bounds), _usable_cpus())
    with one_thread():
        if processes == 1:
            pieces = [_run_rep_range(*args, lo, hi) for lo, hi in bounds]
        else:
            # This process is worker 0: the pool runs chunks 1.. meanwhile.
            with ProcessPoolExecutor(
                max_workers=processes - 1, initializer=set_one_thread
            ) as pool:
                futures = [pool.submit(_run_rep_range, *args, lo, hi) for lo, hi in bounds[1:]]
                pieces = [_run_rep_range(*args, *bounds[0])]
                pieces += [future.result() for future in futures]
    merged = {kind: np.empty(cfg.reps) for kind in pieces[0]}
    for (lo, hi), piece in zip(bounds, pieces):
        for kind in merged:
            merged[kind][lo:hi] = piece[kind]
    return merged


def _usable_cpus() -> int:
    # The CPUs this process may run on (a taskset or cgroup cpuset can leave
    # fewer than the machine has), where the platform can tell.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_bounds(reps: int, workers: int) -> list[tuple[int, int]]:
    size = max(1, math.ceil(reps / workers))
    return [(lo, min(lo + size, reps)) for lo in range(0, reps, size)]


def _null_scale(model: VolModel) -> float:
    if model.kind not in (VolKind.DETERMINISTIC_SIN, VolKind.STOCHASTIC_BM):
        raise ConfigError(
            "experiments need a scalar-volatility null model "
            f"(deterministic_sin or stochastic_bm), got {model.kind.value}"
        )
    if not model.base > 0.0 or not math.isfinite(1.0 / model.base):
        raise ConfigError(f"null variance level needs a finite reciprocal, got {model.base!r}")
    return model.base


def run_size_experiment(cfg: MCConfig) -> MCSummary:
    """Monte Carlo null rejection rates of every applicable test.

    Each replication simulates the spot window under ``cfg.model``, divides
    the estimate by the null level ``cfg.model.base``, and evaluates the
    tests; the summary holds the full z-score samples.
    """
    if cfg.alternative is not None:
        raise ConfigError("size experiment takes no alternative; use run_power_experiment")
    base = _null_scale(cfg.model)
    zscores: dict[tuple[TestKind, int], np.ndarray] = {}
    for p in cfg.p_list:
        cell = _run_cell(cfg, p, cfg.model, base)
        for kind, z in cell.items():
            zscores[(kind, p)] = z
    return MCSummary(config=cfg, zscores=zscores)


def run_power_experiment(cfg: MCConfig) -> MCSummary:
    """Monte Carlo rejection rates under the two-block alternative.

    The data-generating process keeps the null model's seasonal modulation
    ``r1`` but replaces the constant variance level by the two-block diagonal
    of ``cfg.alternative``; estimates are still normalized by the null level,
    so the tests are evaluated exactly as under the null.
    """
    if cfg.alternative is None:
        raise ConfigError("power experiment requires an alternative")
    if cfg.model.kind is not VolKind.DETERMINISTIC_SIN:
        raise ConfigError(
            "power experiment modulates a deterministic_sin null model, "
            f"got {cfg.model.kind.value}"
        )
    base = _null_scale(cfg.model)
    zscores: dict[tuple[TestKind, int], np.ndarray] = {}
    for p in cfg.p_list:
        data_model = VolModel.two_block(
            p, cfg.alternative.s, high=base, low=cfg.alternative.low, r1=cfg.model.r1
        )
        cell = _run_cell(cfg, p, data_model, base)
        for kind, z in cell.items():
            zscores[(kind, p)] = z
    return MCSummary(config=cfg, zscores=zscores)


@dataclass(frozen=True, eq=False)
class EsdArtifact:
    """One ESD-versus-MP comparison: output file and Kolmogorov distance."""

    p: int
    path: Path
    ks_distance: float


def run_esd_figure(cfg: MCConfig, out_dir: Union[str, Path]) -> list[EsdArtifact]:
    """Empirical spectral distribution of one normalized spot estimate per ``p``.

    Writes ``esd_p<p>.csv`` with columns ``x, esd, mp_cdf`` on a grid that
    contains every eigenvalue jump plus an even overlay up to just past the
    MP upper edge, and reports the Kolmogorov distance between the ESD and
    the MP distribution with index ``p / k_n``.
    """
    out_dir = make_dir(out_dir)
    base = _null_scale(cfg.model)
    start = window_start(cfg.t, cfg.n)
    artifacts = []
    for p in cfg.p_list:
        grid = GridConfig(n=cfg.n, p=p, seed=cfg.seed)
        window = simulate_window_increments(grid, cfg.model, start, cfg.k_n, replication=0)
        est = _scaled_spot_estimate(window, cfg.n, cfg.t, cfg.k_n, 1.0 / base)
        sample = eigenvalues_sym(est.matrix)
        law = MPLaw(y=p / cfg.k_n)
        ks = kolmogorov_distance(sample, lambda x: mp_cdf(x, law))
        xs = np.union1d(sample.eigenvalues, np.linspace(0.0, law.b + 0.5, 401))
        path = out_dir / f"esd_p{p}.csv"
        rows = zip(xs.tolist(), esd_eval(sample, xs).tolist(), mp_cdf(xs, law).tolist())
        write_csv(path, ["x", "esd", "mp_cdf"], rows)
        artifacts.append(EsdArtifact(p=p, path=path, ks_distance=ks))
    return artifacts


@dataclass(frozen=True, eq=False)
class QQArtifact:
    """One Q-Q comparison of null z-scores against standard normal quantiles."""

    kind: TestKind
    p: int
    path: Path
    theoretical: np.ndarray
    empirical: np.ndarray
    correlation: float


def run_qq_figure(cfg: MCConfig, out_dir: Union[str, Path]) -> list[QQArtifact]:
    """Null z-score quantiles against normal quantiles, one file per (test, p).

    Runs a size experiment under ``cfg`` and writes
    ``qq_<test>_<pbar>.csv`` (``pbar = p / k_n``) with columns
    ``theoretical, empirical``: the ``(i - 1/2) / reps`` normal quantiles
    against the sorted z-scores.
    """
    out_dir = make_dir(out_dir)
    summary = run_size_experiment(cfg)
    dist = NormalDist()
    reps = cfg.reps
    theoretical = np.array(
        [dist.inv_cdf((i - 0.5) / reps) for i in range(1, reps + 1)]
    )
    artifacts = []
    for (kind, p) in sorted(summary.zscores, key=lambda key: (key[0].value, key[1])):
        empirical = np.sort(summary.zscores[(kind, p)])
        if reps > 1:
            correlation = float(np.corrcoef(theoretical, empirical)[0, 1])
        else:
            correlation = math.nan
        pbar = p / cfg.k_n
        path = out_dir / f"qq_{kind.value}_{pbar:g}.csv"
        write_csv(path, ["theoretical", "empirical"], zip(theoretical.tolist(), empirical.tolist()))
        artifacts.append(
            QQArtifact(
                kind=kind,
                p=p,
                path=path,
                theoretical=theoretical,
                empirical=empirical,
                correlation=correlation,
            )
        )
    return artifacts


def write_size_table(
    summaries: Sequence[MCSummary], stream: Union[str, TextIO]
) -> None:
    """Write null rejection percentages as CSV: ``test,level,r1,pbar,rejection_pct``."""
    _write_rate_table(summaries, stream, with_s=False)


def write_power_table(
    summaries: Sequence[MCSummary], stream: Union[str, TextIO]
) -> None:
    """Write alternative rejection percentages as CSV:
    ``test,level,r1,pbar,s,rejection_pct``."""
    _write_rate_table(summaries, stream, with_s=True)


def _write_rate_table(
    summaries: Sequence[MCSummary], stream: Union[str, TextIO], with_s: bool
) -> None:
    header = ["test", "level", "r1", "pbar"] + (["s"] if with_s else []) + ["rejection_pct"]
    for summary in summaries:
        if with_s and summary.config.alternative is None:
            raise ConfigError("power table rows need summaries with an alternative")
    write_csv(stream, header, _rate_rows(summaries, with_s))


def _rate_rows(summaries: Sequence[MCSummary], with_s: bool) -> Iterator[list[str]]:
    for summary in summaries:
        cfg = summary.config
        for kind in TestKind:
            for level in cfg.levels:
                for p in cfg.p_list:
                    if (kind, p) not in summary.zscores:
                        continue
                    row = [kind.value, repr(level), repr(cfg.model.r1), repr(p / cfg.k_n)]
                    if with_s:
                        row.append(repr(cfg.alternative.s))
                    row.append(repr(100.0 * summary.rejection_rate(kind, level, p)))
                    yield row

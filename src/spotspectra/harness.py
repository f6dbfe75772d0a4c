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
bit-for-bit identical no matter how many workers share the sweep.  Every
window comes from a :mod:`~spotspectra.simkit` window source, which draws a
replication's noise rows once for all ``p`` of an experiment call or an ESD
figure; the figure's estimates take the same products and are validated once.
``workers`` counts worker processes, the calling process included: a call
cuts its replications into one chunk per process (at most ``workers``, the
replications and the usable CPUs), runs chunk 0 itself and each other
chunk, over all of its cells, in one child process.  The call runs its
kernels on one OpenBLAS thread in every process and restores the caller's
thread count when it ends.

The log-spectral test is skipped (left out of the result dictionaries, the
way singular columns are left blank in a report) whenever ``p / k_n >= 1``.
"""

from __future__ import annotations

import math
import operator
import os
import traceback
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from pathlib import Path
from statistics import NormalDist
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from ._blas import one_thread
from ._csvio import make_dir, write_csv
from .errors import ConfigError, NumericalError, WorkerError
from .estimators import _symmetrized_outer, window_start
from .hdtests import TestKind, _default_kinds, _statistics
from .rmt import MPLaw, mp_cdf, mp_lss_constants
from .simkit import VolKind, VolModel, _window_source
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
    worker processes per experiment call, the calling process included;
    ``1`` runs the sweep in the calling process alone.
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
        try:
            object.__setattr__(self, "p_list", tuple(operator.index(p) for p in self.p_list))
        except TypeError:
            raise ConfigError(f"p_list entries must be integers, got {self.p_list!r}") from None
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


def _null_unit(window: np.ndarray, n: int, k_n: int, inv_scale: float) -> np.ndarray:
    """The matrix of ``rescale(spot_vol_from_window(window, n, ...), inv_scale)``."""
    with np.errstate(over="ignore"):  # its consumer reports an inf
        matrix = (n / k_n) * _symmetrized_outer(window)
        matrix *= inv_scale
    return matrix


def _run_rep_range(
    seed: int, n: int, t: float, k_n: int, cells: tuple[tuple[int, VolModel], ...],
    null_scale: float, rep_lo: int, rep_hi: int,
) -> list[dict[TestKind, np.ndarray]]:
    """Z-scores for replications ``rep_lo .. rep_hi - 1`` of each ``(p, data_model)`` cell."""
    draw = _window_source(seed, n, window_start(t, n), k_n, cells)
    plans = []
    for p, _ in cells:
        kinds = _default_kinds(p / k_n)
        constants = mp_lss_constants(p / k_n) if TestKind.BJYZ in kinds else None
        plans.append((kinds, np.empty((rep_hi - rep_lo, len(kinds))), constants, np.eye(p)))
    top = max(p for p, _ in cells)
    inv_scale = 1.0 / null_scale
    try:
        with one_thread():
            for rep in range(rep_lo, rep_hi):
                p = top  # a failed draw is keyed to the rows it draws
                for window, (kinds, z, constants, eye) in zip(draw(rep), plans):
                    p = window.shape[0]
                    matrix = _null_unit(window, n, k_n, inv_scale)
                    stats = _statistics(matrix, k_n, kinds, constants, eye)
                    z[rep - rep_lo] = [zscore for _, zscore in stats]
    except NumericalError as exc:
        raise type(exc)(f"seed {seed}, p {p}, replication {rep}: {exc}") from exc
    return [{kind: z[:, i] for i, kind in enumerate(kinds)} for kinds, z, *_ in plans]


def _run_child(sender, *args: object) -> None:
    """Child process entry: send ``(_run_rep_range(*args), None)`` or ``(exception, traceback)``."""
    try:
        result = _run_rep_range(*args), None
    except Exception as exc:
        result = exc, traceback.format_exc()
    sender.send(result)


def _summary(cfg: MCConfig, cells: tuple[tuple[int, VolModel], ...], base: float) -> MCSummary:
    """All replications of ``cells``, one chunk per process: this one runs chunk 0."""
    args = (cfg.seed, cfg.n, cfg.t, cfg.k_n, cells, base)
    # workers comes from the user: never run more processes, this one included,
    # than there are replications or CPUs this process may run on (a taskset or
    # cgroup cpuset can leave fewer than the machine has).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    size = math.ceil(cfg.reps / min(cfg.workers, cpus))
    bounds = [(lo, min(lo + size, cfg.reps)) for lo in range(0, cfg.reps, size)]
    children = []
    try:
        with one_thread():
            for lo, hi in bounds[1:]:
                receiver, sender = Pipe(duplex=False)
                child = Process(target=_run_child, args=(sender, *args, lo, hi))
                child.start()
                children.append((child, receiver))
                sender.close()  # the child's copy is the last: its exit ends the pipe
            pieces = [_run_rep_range(*args, *bounds[0])]
            for (child, receiver), (lo, hi) in zip(children, bounds[1:]):
                try:
                    piece, trace = receiver.recv()
                except EOFError:
                    child.join()
                    raise WorkerError(
                        f"seed {cfg.seed}, p {list(cfg.p_list)}, replications {lo}..{hi - 1}: "
                        f"worker process exited with code {child.exitcode} before reporting"
                    ) from None
                child.join()
                if trace is not None:
                    raise piece from WorkerError(f"worker process traceback:\n{trace}")
                pieces.append(piece)
    finally:
        for child, receiver in children:
            receiver.close()
            child.kill()  # does nothing once it has exited
            child.join()
    return MCSummary(config=cfg, zscores={
        (kind, p): np.concatenate([piece[i][kind] for piece in pieces])
        for i, (p, _) in enumerate(cells) for kind in pieces[0][i]
    })


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
    return _summary(cfg, tuple((p, cfg.model) for p in cfg.p_list), _null_scale(cfg.model))


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
    alt = cfg.alternative
    cells = tuple(
        (p, VolModel.two_block(p, alt.s, high=base, low=alt.low, r1=cfg.model.r1))
        for p in cfg.p_list
    )
    return _summary(cfg, cells, base)


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
    inv_scale = 1.0 / _null_scale(cfg.model)
    cells = tuple((p, cfg.model) for p in cfg.p_list)
    windows = _window_source(cfg.seed, cfg.n, window_start(cfg.t, cfg.n), cfg.k_n, cells)(0)
    artifacts = []
    for p, window in zip(cfg.p_list, windows):
        sample = eigenvalues_sym(_null_unit(window, cfg.n, cfg.k_n, inv_scale))
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
    """Write null rejection percentages as CSV: ``test,level,r1,pbar,rejection_pct``,
    with ``r2`` in place of ``r1`` when every summary is ``stochastic_bm``."""
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
    stochastic = {s.config.model.kind is VolKind.STOCHASTIC_BM for s in summaries}
    if len(stochastic) > 1:
        raise ConfigError("a rate table cannot mix stochastic_bm summaries with others")
    amplitude = "r2" if stochastic == {True} else "r1"
    header = ["test", "level", amplitude, "pbar"] + (["s"] if with_s else []) + ["rejection_pct"]
    for summary in summaries:
        if with_s and summary.config.alternative is None:
            raise ConfigError("power table rows need summaries with an alternative")
    write_csv(stream, header, _rate_rows(summaries, with_s, amplitude))


def _rate_rows(summaries: Sequence[MCSummary], with_s: bool, amplitude: str) -> Iterator[list[str]]:
    for summary in summaries:
        cfg = summary.config
        swept = repr(getattr(cfg.model, amplitude))
        for kind in TestKind:
            for level in cfg.levels:
                for p in cfg.p_list:
                    if (kind, p) not in summary.zscores:
                        continue
                    row = [kind.value, repr(level), swept, repr(p / cfg.k_n)]
                    if with_s:
                        row.append(repr(cfg.alternative.s))
                    row.append(repr(100.0 * summary.rejection_rate(kind, level, p)))
                    yield row

"""Monte Carlo experiments: size and power tables, ESD figures, Q-Q figures.

One experiment sweeps a list of cross-section dimensions ``p`` at a fixed
window length ``k_n``; each replication simulates only the increment window
the spot estimator consumes, normalizes the estimate by the null variance
level so the null population is the identity, and records the z-scores of
every applicable test.  The estimate comes from the one function that forms
every estimate matrix in :mod:`~spotspectra.estimators`, with the factor
``1 / base``; it is exactly symmetric and is not validated again:
the :mod:`~spotspectra.hdtests` kernel it goes to checks that
``||A - I||_F**2`` is finite, so an overflow is a keyed numerical error.
Replications are keyed to counter-based substreams, so results are
bit-for-bit identical no matter how many workers share the sweep.  Every
window comes from a :mod:`~spotspectra.simkit` window source, which draws a
replication's noise rows once for all ``(model, p)`` cells of a run or for
all ``p`` of an ESD figure, whose estimates take the same products and one
finiteness check each.  An experiment call runs its model's cells, and the
``mc-size`` and ``mc-power`` commands run every model of their table as one.
A config is checked once, when it is built; a run adds only the checks across
its configs and that its z-scores fit in usable memory, so a config error comes
before any directory, draw or file.
``workers`` counts worker processes, the calling process included.  One
function decides a run's cells, process count and chunks from its configs
and usable CPUs before anything runs: at most ``workers`` processes, no more
than the replications or CPUs, and no child whose chunk is too small to pay
for its fork (``_CHILD_MIN_ROWS``).  The run takes chunk 0 itself and forks
one child per other chunk (on Linux whatever the default start method; other
platforms keep theirs), all in one :mod:`~spotspectra._blas` kernel scope.

The log-spectral test is skipped (left out of the result dictionaries, the
way singular columns are left blank in a report) whenever ``p / k_n >= 1``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import NormalDist
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from ._blas import kernel_scope
from ._csvio import make_dir, write_csv
from .errors import ConfigError, NumericalError, WorkerError, _integer, _real, _sequence
from .estimators import _finite, _scaled_gram, _window_length, window_start
from .hdtests import TestKind, _default_kinds, _statistics
from .rmt import MPLaw, mp_cdf, mp_lss_constants
from .simkit import GridConfig, VolKind, VolModel, _window_source
from .spectra import _count_at_most, _ks_scan, _spectrum

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

# The fewest replication rows (one cell's noise row of one replication) that
# a chunk must hold for a child process to run it.  On 2 cores of an AVX-512
# Xeon (numpy 2.4, OpenBLAS 0.3.31) a forked child costs ~10 ms (~1.5 ms each
# to start and join, ~830 copy-on-write page faults at ~7 us) and a row 4-6 us,
# so a fork breaks even near 2,000 rows; twice that is safe.  Forkserver or
# spawn children cost far more (two workers over 40,800 rows: 0.16-0.22 or
# 0.27-0.30 s, forked 0.04-0.06 s), so Linux forks whatever the default.
_CHILD_MIN_ROWS = 4096
_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else multiprocessing
Process, Pipe = _CONTEXT.Process, _CONTEXT.Pipe

# One cell of a run: (p, data model, label), where the label names the model's
# amplitude in a failure's key.
_Cell = tuple[int, VolModel, str]
# A run's plan: its cells and its replication chunks, chunk 0 the calling process's.
_Plan = tuple[tuple[_Cell, ...], list[tuple[int, int]]]


@dataclass(frozen=True)
class Alternative:
    """Two-block alternative: ``m = floor(s*p)`` variances stay at the null
    level and the remaining ``p - m`` drop to ``low``.  A product ``s*p``
    within a relative ``1e-9`` of an integer counts as that integer.  Both
    are stored as ``float`` by the real rule of :mod:`spotspectra.errors`."""

    s: float
    low: float = 0.0004

    def __post_init__(self) -> None:
        s = _real(self.s, "s must lie in (0, 1)", positive=True, below=1.0)
        low = _real(self.low, "low must be finite and positive", positive=True)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "low", low)


@dataclass(frozen=True)
class MCConfig:
    """Settings of one Monte Carlo sweep.

    ``k_n`` defaults to ``floor(sqrt(n))`` when omitted.  ``model`` is the
    null data-generating process, ``deterministic_sin`` or ``stochastic_bm``,
    whose null variance level ``base`` has a finite reciprocal; power
    experiments derive the two-block alternative from it and ``alternative``,
    which needs ``deterministic_sin``.  Every ``p`` must fit the substream
    layout (``p < 2**20``), and an alternative's ``low`` must be at least
    ``r1``.  These checks run here; a run checks only that configs run
    together agree.  ``workers`` is the most worker processes a run may use,
    the calling process included; ``1`` runs the sweep in the calling process
    alone.  A run uses fewer when it has fewer replications or usable CPUs,
    or too little work to pay for a child.  Numbers are stored as ``int`` or
    ``float`` and lists as tuples, by the rules of :mod:`spotspectra.errors`.
    """

    seed: int
    reps: int = 1000
    n: int = 4680
    k_n: Optional[int] = None
    p_list: tuple[int, ...] = (34, 68, 102)
    model: VolModel = VolModel.deterministic_sin(0.0009, 0.0)
    t: float = 0.0
    levels: tuple[float, ...] = (0.10, 0.05, 0.01)
    alternative: Optional[Alternative] = None
    workers: int = 1

    def __post_init__(self) -> None:
        fix = partial(object.__setattr__, self)
        fix("reps", _integer(self.reps, "reps must be a positive integer"))
        entry = "p_list entries must be integers >= 1"
        fix("p_list", _sequence(self.p_list, "p_list", lambda p: _integer(p, entry)))
        if len(set(self.p_list)) != len(self.p_list):
            raise ConfigError(f"p_list entries must be distinct, got {self.p_list!r}")
        grid = GridConfig(n=self.n, p=max(self.p_list), seed=self.seed)  # the largest grid
        fix("n", grid.n)
        fix("seed", grid.seed)
        fix("k_n", _integer(_window_length(self.n, self.k_n), "k_n must be a positive integer"))
        window_start(self.t, self.n, self.k_n)
        fix("t", float(self.t))  # a real number, as window_start checked
        entry = "levels entries must be numbers"
        fix("levels", _sequence(self.levels, "levels", lambda x: _real(x, entry, bounded=False)))
        if any(not 0.0 < lv < 1.0 for lv in self.levels):
            raise ConfigError(f"levels must lie in (0, 1), got {self.levels!r}")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError(f"levels must be distinct, got {self.levels!r}")
        fix("workers", _integer(self.workers, "workers must be a positive integer"))
        if not isinstance(self.model, VolModel):
            raise ConfigError(f"model must be a VolModel, got {self.model!r}")
        alt = self.alternative
        if not isinstance(alt, (Alternative, type(None))):
            raise ConfigError(f"alternative must be an Alternative or None, got {alt!r}")
        kind, base = self.model.kind, self.model.base
        if kind not in (VolKind.DETERMINISTIC_SIN, VolKind.STOCHASTIC_BM):
            raise ConfigError(
                "experiments need a scalar-volatility null model "
                f"(deterministic_sin or stochastic_bm), got {kind.value}"
            )
        level = "null variance level needs a finite reciprocal"
        if not math.isfinite(1.0 / _real(base, level, positive=True)):
            raise ConfigError(f"{level}, got {base!r}")
        if alt is not None and kind is not VolKind.DETERMINISTIC_SIN:
            raise ConfigError(
                f"power experiment modulates a deterministic_sin null model, got {kind.value}"
            )
        if alt is not None and alt.low < self.model.r1:
            raise ConfigError(f"low must be at least r1, got low={alt.low!r}, r1={self.model.r1!r}")


@dataclass(frozen=True, eq=False)
class MCSummary:
    """Z-score samples per (test, dimension) and their rejection rates."""

    config: MCConfig
    zscores: dict[tuple[TestKind, int], np.ndarray]

    def rejection_rate(self, kind: TestKind, level: float, p: int) -> float:
        """Fraction of replications with ``|z| > Phi^{-1}(1 - level/2)``."""
        z = self.zscores[(kind, p)]
        threshold = NormalDist().inv_cdf(1.0 - level / 2.0)
        return float(np.mean(np.abs(z) > threshold))


def _run_rep_range(
    seed: int, n: int, t: float, k_n: int, cells: tuple[_Cell, ...],
    null_scale: float, rep_lo: int, rep_hi: int,
) -> list[dict[TestKind, np.ndarray]]:
    """Z-scores for replications ``rep_lo .. rep_hi - 1`` of each cell."""
    draw = _window_source(seed, n, window_start(t, n, k_n), k_n, [cell[:2] for cell in cells])
    plans = []
    for p, _, _ in cells:
        kinds = _default_kinds(p / k_n)
        constants = mp_lss_constants(p / k_n) if TestKind.BJYZ in kinds else None
        plans.append((kinds, np.empty((rep_hi - rep_lo, len(kinds))), constants))
    top = max(p for p, _, _ in cells)
    inv_scale = 1.0 / null_scale
    try:
        with kernel_scope():
            for rep in range(rep_lo, rep_hi):
                cell = None  # a failed draw is keyed to the rows it draws, which all cells share
                for cell, window, (kinds, z, constants) in zip(cells, draw(rep), plans):
                    matrix = _scaled_gram(window, n, k_n, inv_scale)
                    stats = _statistics(matrix, k_n, kinds, constants)
                    z[rep - rep_lo] = [zscore for _, zscore in stats]
    except NumericalError as exc:
        where = f"p {top}" if cell is None else f"{cell[2]}, p {cell[0]}"
        raise type(exc)(f"seed {seed}, {where}, replication {rep}: {exc}") from exc
    return [{kind: z[:, i] for i, kind in enumerate(kinds)} for kinds, z, *_ in plans]


def _run_child(sender, *args: object) -> None:
    """Child process entry: send ``(_run_rep_range(*args), None)`` or ``(exception, traceback)``."""
    try:
        result = _run_rep_range(*args), None
    except Exception as exc:
        result = exc, traceback.format_exc()
    sender.send(result)


def _cells(cfg: MCConfig) -> tuple[_Cell, ...]:
    """The cells of a size experiment, or of a power experiment when
    ``cfg.alternative`` is set."""
    if cfg.alternative is None:
        amplitude = "r2" if cfg.model.kind is VolKind.STOCHASTIC_BM else "r1"
        label = f"{amplitude} {getattr(cfg.model, amplitude)!r}"
        return tuple((p, cfg.model, label) for p in cfg.p_list)
    alt, base, r1 = cfg.alternative, cfg.model.base, cfg.model.r1
    return tuple(
        (p, VolModel.two_block(p, alt.s, high=base, low=alt.low, r1=r1), f"s {alt.s!r}, r1 {r1!r}")
        for p in cfg.p_list
    )


def _plan(cfgs: Sequence[MCConfig], cpus: int) -> _Plan:
    """The plan of one run over ``cfgs``; it starts, draws and writes nothing.
    The configs may differ only in the model's kind and amplitude and in the
    alternative, no two may be equal, and the run's z-scores must fit in usable
    memory: the only checks a run makes, all across its configs.  ``workers``
    comes from the user: the run uses no more processes than replications or
    ``cpus`` usable CPUs, and no child whose chunk costs less than its fork."""
    cfg = cfgs[0]
    if len(set(cfgs)) != len(cfgs):
        raise ConfigError("experiments run together must be distinct; a table would repeat rows")
    shared = {(c.seed, c.reps, c.n, c.k_n, c.p_list, c.t, c.levels, c.workers, c.model.base)
              for c in cfgs}
    if len(shared) > 1:
        raise ConfigError(
            "experiments run together may differ only in the model's kind and "
            "amplitude and in the alternative"
        )
    cells = tuple(cell for c in cfgs for cell in _cells(c))
    rows = cfg.reps * sum(p for p, _, _ in cells)
    processes = max(1, min(cfg.workers, cpus, cfg.reps, rows // _CHILD_MIN_ROWS))
    size = math.ceil(cfg.reps / processes)
    bounds = [(lo, min(lo + size, cfg.reps)) for lo in range(0, cfg.reps, size)]
    # 8 bytes a z-score, one per kind of each cell: this process holds every
    # replication's and each child its chunk's.
    kinds = sum(len(_default_kinds(p / cfg.k_n)) for p, _, _ in cells)
    needed = 8 * kinds * (cfg.reps + sum(hi - lo for lo, hi in bounds[1:]))
    usable = _usable_memory()
    if needed > usable:
        raise ConfigError(f"{cfg.reps} replications need {needed} bytes of z-scores, "
                          f"more than the {usable} bytes of usable memory")
    return cells, bounds


def _usable_cpus() -> int:
    # A taskset or cgroup cpuset can leave fewer usable CPUs than the machine has.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _usable_memory() -> float:
    """Bytes a process may hold: its address-space limit when one is set, else
    the machine's physical memory; unbounded where neither can be read."""
    try:
        import resource  # Unix only

        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        if limit != resource.RLIM_INFINITY:
            return limit
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ImportError, AttributeError, ValueError, OSError):
        return math.inf


def _run_experiments(cfgs: Sequence[MCConfig], plan: Optional[_Plan] = None) -> list[MCSummary]:
    """One summary per config, as its own size or power experiment returns it,
    from one run of :func:`_plan`'s cells and chunks, chunk 0 in this process;
    ``plan`` is that plan, made here for the usable CPUs when not given."""
    cells, bounds = _plan(cfgs, _usable_cpus()) if plan is None else plan
    cfg = cfgs[0]
    args = (cfg.seed, cfg.n, cfg.t, cfg.k_n, cells, cfg.model.base)
    children = []
    try:
        with kernel_scope():
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
    joined = (
        {kind: np.concatenate([piece[i][kind] for piece in pieces]) for kind in pieces[0][i]}
        for i in range(len(cells))
    )
    return [
        MCSummary(config=c, zscores={
            (kind, p): z for p in c.p_list for kind, z in next(joined).items()
        })
        for c in cfgs
    ]


def run_size_experiment(cfg: MCConfig) -> MCSummary:
    """Monte Carlo null rejection rates of every applicable test.

    Each replication simulates the spot window under ``cfg.model``, divides
    the estimate by the null level ``cfg.model.base``, and evaluates the
    tests; the summary holds the full z-score samples.
    """
    _check_null(cfg, "size experiment", "; use run_power_experiment")
    return _run_experiments([cfg])[0]


def _check_null(cfg: MCConfig, route: str, hint: str = "") -> None:
    if cfg.alternative is not None:
        raise ConfigError(f"{route} takes no alternative{hint}")


def run_power_experiment(cfg: MCConfig) -> MCSummary:
    """Monte Carlo rejection rates under the two-block alternative.

    The data-generating process keeps the null model's seasonal modulation
    ``r1`` but replaces the constant variance level by the two-block diagonal
    of ``cfg.alternative``; estimates are still normalized by the null level,
    so the tests are evaluated exactly as under the null.
    """
    if cfg.alternative is None:
        raise ConfigError("power experiment requires an alternative")
    return _run_experiments([cfg])[0]


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
    the MP distribution with index ``p / k_n``.  The ``esd`` column is the
    count of eigenvalues at or below ``x`` over ``p``, each of its ``p + 1``
    levels ``k / p`` formatted once.  The MP cdf is evaluated once on the
    grid, and the Kolmogorov scan of
    :func:`~spotspectra.spectra.kolmogorov_distance` reads its values at the
    eigenvalues from there, so a figure calls the cdf twice: on the grid and
    on the eigenvalues' left neighbours.  The draw and every ``p`` run in one
    :mod:`~spotspectra._blas` scope, and each exactly symmetric Gram takes one
    check, of finiteness, before the kernel behind ``eigenvalues_sym``.  A
    failure is a :class:`NumericalError` keyed ``seed S, p P, replication 0``,
    a draw's by the largest ``p``.  An ``alternative`` is rejected, and every
    figure is computed before ``out_dir`` is made, so a failure writes nothing.
    """
    _check_null(cfg, "ESD figure")
    cells = tuple((p, cfg.model) for p in cfg.p_list)
    draw = _window_source(cfg.seed, cfg.n, window_start(cfg.t, cfg.n, cfg.k_n), cfg.k_n, cells)
    p, figures = max(cfg.p_list), []  # a failed draw is keyed to the rows it draws
    try:
        with kernel_scope():
            for p, window in zip(cfg.p_list, draw(0)):
                matrix = _scaled_gram(window, cfg.n, cfg.k_n, 1.0 / cfg.model.base)
                sample = _spectrum(_finite(matrix))
                law = MPLaw(y=p / cfg.k_n)
                xs = np.union1d(sample.eigenvalues, np.linspace(0.0, law.b + 0.5, 401))
                cdf = mp_cdf(xs, law)
                ks = _ks_scan(sample, lambda x: mp_cdf(x, law), xs, cdf)
                levels = [repr(k / p) for k in range(p + 1)]
                esd = map(levels.__getitem__, _count_at_most(sample, xs).tolist())
                rows = zip(map(repr, xs.tolist()), esd, map(repr, cdf.tolist()))
                figures.append((p, ks, rows))
    except NumericalError as exc:
        raise type(exc)(f"seed {cfg.seed}, p {p}, replication 0: {exc}") from exc
    out_dir = make_dir(out_dir)
    artifacts = []
    for p, ks, rows in figures:
        path = out_dir / f"esd_p{p}.csv"
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
    against the sorted z-scores.  A config with an ``alternative``, or a run
    whose z-scores do not fit in usable memory, is rejected before ``out_dir``
    is made.
    """
    _check_null(cfg, "Q-Q figure")
    plan = _plan([cfg], _usable_cpus())
    out_dir = make_dir(out_dir)
    summary = _run_experiments([cfg], plan)[0]
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
        rows = zip(map(repr, theoretical.tolist()), map(repr, empirical.tolist()))
        write_csv(path, ["theoretical", "empirical"], rows)
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
        if (summary.config.alternative is not None) != with_s:
            table = "power table rows need" if with_s else "size table rows cannot take"
            raise ConfigError(f"{table} summaries with an alternative")
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

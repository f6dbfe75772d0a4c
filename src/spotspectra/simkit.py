"""Simulation of multivariate log-price paths on an equidistant time grid.

The data-generating process is a driftless Brownian semimartingale: between
consecutive grid points the log-price increment of each coordinate is a
centered Gaussian with a per-cell variance.  For the deterministic kinds that
variance is the instantaneous variance integrated over the cell in closed
form, so those increments are sampled exactly.  ``STOCHASTIC_BM`` uses the
left-endpoint variance ``sigma(t_{i-1})**2 / n`` of the simulated driver
path instead: an Euler step in the volatility, not the cell integral.

Three volatility kinds are supported (all diagonal, see :class:`VolModel`):

* ``DETERMINISTIC_SIN`` -- scalar variance ``base + r1*sin(2*pi*t)`` on every
  coordinate; seasonal intraday pattern.
* ``STOCHASTIC_BM`` -- scalar volatility ``sqrt(base) + r2*W_t`` driven by an
  auxiliary Brownian motion shared by all coordinates.
* ``PIECEWISE_DIAG`` -- constant diagonal plus the ``r1*sin(2*pi*t)``
  modulation on every coordinate; used for two-block alternatives, and with
  ``r1 = 0`` for a time-constant diagonal.

Randomness is organised as counter-based Philox substreams keyed by
``(replication, coordinate)`` under a single master seed, so Monte Carlo
results are reproducible bit-for-bit regardless of scheduling or worker
count.  Coordinate index ``p`` (one past the last price coordinate) is
reserved for the volatility driver of ``STOCHASTIC_BM``.  Every draw, public
or Monte Carlo, goes through one window source: one ``Philox`` generator,
re-keyed with a zero counter to each key in turn, so it draws what a
``Philox`` freshly keyed ``(seed, replication << 20 | coordinate)`` would.
The public :func:`simulate_window_increments` is a validated one-cell source.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence, TextIO, Union

import numpy as np
# Imported eagerly (numpy loads it lazily) so that forked worker processes
# inherit it instead of each importing it again.
from numpy.random import Generator, Philox

from ._blas import kernel_scope
from ._csvio import float_rows, read_float_csv, write_csv
from .errors import ConfigError, NumericalError

__all__ = [
    "VolKind",
    "GridConfig",
    "VolModel",
    "PricePath",
    "simulate_path",
    "simulate_window_increments",
    "increments",
    "write_path_csv",
    "read_path_csv",
]

# Substream key layout: one 128-bit Philox key = (master seed, packed index)
# with packed index = replication * 2**20 + coordinate.  Distinct keys give
# statistically independent streams by construction of the Philox cipher.
_COORD_BITS = 20
_MAX_COORD = (1 << _COORD_BITS) - 1
_MAX_REPLICATION = (1 << 44) - 1


def _snapped_floor(x: float) -> int:
    """``floor(x)`` for ``x >= 0``, where ``x`` within a relative ``1e-9`` of an
    integer counts as that integer: ``0.29 * 100 == 28.999999999999996``."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return math.floor(x)


class VolKind(Enum):
    """Volatility specification selector."""

    DETERMINISTIC_SIN = "deterministic_sin"
    STOCHASTIC_BM = "stochastic_bm"
    PIECEWISE_DIAG = "piecewise_diag"


@dataclass(frozen=True)
class GridConfig:
    """Observation grid: ``n`` cells of width ``1/n`` on [0, 1], ``p`` coordinates.

    ``seed`` is the master seed all substreams are derived from.
    """

    n: int
    p: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.p, int) or self.p < 1:
            raise ConfigError(f"p must be a positive integer, got {self.p!r}")
        if self.p > _MAX_COORD:  # the driver of STOCHASTIC_BM takes coordinate p
            raise ConfigError(f"p must be < 2**20 to fit the substream layout, got {self.p}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class VolModel:
    """Diagonal volatility specification.

    Fields not used by ``kind`` must keep their neutral defaults; the
    constructor enforces this so a model never carries silently ignored
    parameters.  ``diag`` holds per-coordinate variance levels for
    ``PIECEWISE_DIAG`` and must have one entry per simulated coordinate.
    """

    kind: VolKind
    base: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    diag: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        for name in ("base", "r1", "r2"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.kind is not VolKind.PIECEWISE_DIAG and self.diag is not None:
            raise ConfigError(f"{self.kind.value} does not take a diag vector")
        if self.kind is VolKind.DETERMINISTIC_SIN:
            if self.r2 != 0.0:
                raise ConfigError("deterministic_sin does not use r2")
            if self.base - self.r1 < 0.0:
                raise ConfigError(
                    f"variance base + r1*sin can go negative: base={self.base}, r1={self.r1}"
                )
        elif self.kind is VolKind.STOCHASTIC_BM:
            if self.r1 != 0.0:
                raise ConfigError("stochastic_bm does not use r1")
        else:
            if self.diag is None or len(self.diag) == 0:
                raise ConfigError("piecewise_diag requires a nonempty diag vector")
            if self.base != 0.0:
                raise ConfigError("piecewise_diag does not use base; leave it at 0")
            if any(not math.isfinite(d) or d < 0.0 for d in self.diag):
                raise ConfigError("diag entries must be finite and nonnegative")
            if self.r2 != 0.0:
                raise ConfigError("piecewise_diag does not use r2")
            if min(self.diag) - self.r1 < 0.0:
                raise ConfigError(
                    f"variance min(diag) + r1*sin can go negative: "
                    f"min(diag)={min(self.diag)}, r1={self.r1}"
                )

    # -- factories -----------------------------------------------------------

    @classmethod
    def deterministic_sin(cls, base: float, r1: float = 0.0) -> "VolModel":
        """Scalar variance ``base + r1*sin(2*pi*t)`` on every coordinate."""
        return cls(kind=VolKind.DETERMINISTIC_SIN, base=base, r1=r1)

    @classmethod
    def stochastic_bm(cls, base: float, r2: float = 0.0) -> "VolModel":
        """Scalar volatility ``sqrt(base) + r2*W_t`` on every coordinate."""
        return cls(kind=VolKind.STOCHASTIC_BM, base=base, r2=r2)

    @classmethod
    def piecewise_diag(cls, diag: Sequence[float], r1: float = 0.0) -> "VolModel":
        """Diagonal variances ``diag`` plus ``r1*sin(2*pi*t)`` on each entry."""
        return cls(
            kind=VolKind.PIECEWISE_DIAG,
            r1=r1,
            diag=tuple(float(d) for d in diag),
        )

    @classmethod
    def two_block(
        cls, p: int, split: float, high: float, low: float, r1: float = 0.0
    ) -> "VolModel":
        """Two-block diagonal: ``floor(split*p)`` entries at ``high``, rest at
        ``low``; a product within a relative ``1e-9`` of an integer counts as
        that integer."""
        if not 0.0 < split < 1.0:
            raise ConfigError(f"split must lie in (0, 1), got {split!r}")
        n_high = _snapped_floor(split * p)
        return cls.piecewise_diag((high,) * n_high + (low,) * (p - n_high), r1=r1)


@dataclass(frozen=True)
class PricePath:
    """A simulated path: ``values[j, i]`` is coordinate ``j`` at time ``grid[i]``.

    ``grid`` has ``n + 1`` entries ``i/n``; column 0 of ``values`` holds the
    initial value (zero).
    """

    grid: np.ndarray
    values: np.ndarray
    config: GridConfig


def _sin_cell_integrals(r1: float, n: int, start: int, count: int) -> np.ndarray:
    """Integral of ``r1*sin(2*pi*s)`` over cells ``start+1 .. start+count``.

    Closed form per cell i: ``(r1/(2*pi)) * (cos(2*pi*(i-1)/n) - cos(2*pi*i/n))``;
    exactly zero (not merely small) when ``r1 == 0``.
    """
    edges = np.cos(2.0 * np.pi * (np.arange(start, start + count + 1) / n))
    return (r1 / (2.0 * np.pi)) * (edges[:-1] - edges[1:])


def _variance_profile(
    model: VolModel,
    n: int,
    start: int,
    count: int,
    p: int,
    driver: Optional[Generator],
) -> np.ndarray:
    """Per-cell variances for cells ``start+1 .. start+count``.

    Exact cell integrals for the deterministic kinds; the left-endpoint
    (Euler) value ``sigma(t_{i-1})**2 / n``, checked finite, for ``STOCHASTIC_BM``.

    Returns shape ``(count,)`` for scalar kinds and ``(p, count)`` for
    ``PIECEWISE_DIAG``; both broadcast against a ``(p, count)`` noise array.
    ``driver`` is the volatility driver's keyed substream; only
    ``STOCHASTIC_BM`` with ``r2 > 0`` draws from it, the others take ``None``.
    """
    if model.kind is VolKind.DETERMINISTIC_SIN:
        return model.base / n + _sin_cell_integrals(model.r1, n, start, count)
    if model.kind is VolKind.STOCHASTIC_BM:
        if model.r2 == 0.0:
            # Short-circuit keeps the r2 == 0 path bit-identical to the
            # deterministic model with r1 == 0 (sqrt round trips are inexact).
            return np.full(count, model.base / n)
        m = start + count - 1  # driver increments up to the last left endpoint
        dw = driver.standard_normal(m) * math.sqrt(1.0 / n)
        w_grid = np.concatenate(([0.0], np.cumsum(dw)))
        sigma = math.sqrt(model.base) + model.r2 * w_grid[start : start + count]
        var = sigma**2 / n
        if not np.isfinite(var).all():
            raise NumericalError(f"volatility path at r2 {model.r2!r} overflows")
        return var
    diag = np.asarray(model.diag, dtype=float)
    if diag.shape != (p,):
        raise ConfigError(f"diag has length {diag.size}, expected p = {p}")
    return diag[:, None] / n + _sin_cell_integrals(model.r1, n, start, count)[None, :]


def simulate_window_increments(
    config: GridConfig,
    model: VolModel,
    start: int,
    count: int,
    replication: int = 0,
) -> np.ndarray:
    """Sample the ``p x count`` increment block for cells ``start+1 .. start+count``.

    Each coordinate's noise comes from its ``(replication, coordinate)``
    substream, the ``STOCHASTIC_BM`` driver's from coordinate ``p``.  The
    window draw consumes the first ``count`` variates of each stream, so it
    coincides bit-for-bit with the leading columns of a full path only when
    ``start == 0``.  The distribution is correct for any ``start`` because
    the cell variances are evaluated at their true positions.  It checks its
    arguments and draws from a one-cell :func:`_window_source` in the kernel
    scope; a volatility path that overflows is a :class:`NumericalError`.
    """
    if not isinstance(start, int) or start < 0:
        raise ConfigError(f"start must be a nonnegative integer, got {start!r}")
    if not isinstance(count, int) or count < 1:
        raise ConfigError(f"count must be a positive integer, got {count!r}")
    if start + count > config.n:
        raise ConfigError(
            f"window [{start + 1}, {start + count}] overruns the sample: "
            f"start + count = {start + count} > n = {config.n}"
        )
    try:
        replication = operator.index(replication)
    except TypeError:
        raise ConfigError(f"replication index must be an integer, got {replication!r}") from None
    if not 0 <= replication <= _MAX_REPLICATION:
        raise ConfigError(f"replication index {replication} outside [0, 2**44)")
    draw = _window_source(config.seed, config.n, start, count, [(config.p, model)])
    with kernel_scope():
        return draw(replication)[0]


def _window_source(
    seed: int, n: int, start: int, count: int, cells: Sequence[tuple[int, VolModel]],
) -> Callable[[int], list[np.ndarray]]:
    """Return ``draw(replication)``: the ``p x count`` windows of cells
    ``start+1 .. start+count``, one per ``(p, model)`` of ``cells`` and each
    what a source of that cell alone draws.  Callers check the arguments.

    A draw fills the largest ``p``'s noise rows once, in a reused buffer, and
    each cell scales its leading ``p`` rows (a row's substream does not depend
    on ``p``), the last cell in place, so a draw's windows are valid until the
    next draw.  The source's one ``Philox`` is re-keyed in place: assigning
    ``state`` with ``key[1] = replication << 20 | coordinate`` gives it that
    key, a zero counter and an empty buffer, so it draws what a freshly keyed
    ``Philox`` would.  Row ``j`` takes coordinate ``j``; only a
    ``STOCHASTIC_BM`` profile with ``r2 > 0`` is random, and it is drawn per
    replication from coordinate ``p``; the others are hoisted.
    """
    top = max(p for p, _ in cells)
    key = [seed, 0]  # plain ints: the state setter reads them faster than numpy scalars
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    philox = Philox(key=0)  # re-keyed before every draw
    generator = Generator(philox)
    normal = generator.standard_normal
    noise = np.empty((top, count))
    rows = list(noise)
    sds = [
        None if model.kind is VolKind.STOCHASTIC_BM and model.r2 != 0.0
        else np.sqrt(_variance_profile(model, n, start, count, p, None))
        for p, model in cells
    ]

    def draw(replication: int) -> list[np.ndarray]:
        high = replication << _COORD_BITS
        for j, row in enumerate(rows):
            key[1] = high | j
            philox.state = state
            normal(out=row)  # no size: it costs a shape check
        windows = []
        for (p, model), sd in zip(cells, sds):
            if sd is None:
                key[1] = high | p
                philox.state = state
                sd = np.sqrt(_variance_profile(model, n, start, count, p, generator))
            last = len(windows) == len(cells) - 1
            windows.append(np.multiply(noise[:p], sd, out=noise[:p] if last else None))
        return windows

    return draw


def simulate_path(config: GridConfig, model: VolModel, replication: int = 0) -> PricePath:
    """Simulate one driftless full path of ``n`` increments started at zero.

    ``replication`` is the Monte Carlo replication index selecting the
    substream family.
    """
    incr = simulate_window_increments(config, model, 0, config.n, replication)
    values = np.empty((config.p, config.n + 1))
    values[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=values[:, 1:])
    grid = np.arange(config.n + 1) / config.n
    return PricePath(grid=grid, values=values, config=config)


def increments(path: PricePath) -> np.ndarray:
    """Return the ``p x n`` increment matrix; column ``i`` is ``X_{(i+1)/n} - X_{i/n}``."""
    with kernel_scope():  # spot_vol rejects a non-finite increment
        return np.diff(path.values, axis=1)


def write_path_csv(path: PricePath, stream: Union[str, TextIO]) -> None:
    """Write a path as CSV with header ``t,x1,...,xp`` and one row per grid point."""
    header = ["t"] + [f"x{j + 1}" for j in range(path.config.p)]
    table = np.column_stack([path.grid, path.values.T])
    write_csv(stream, header, float_rows(table))


def read_path_csv(stream: Union[str, TextIO]) -> tuple[np.ndarray, np.ndarray]:
    """Read a path CSV back into ``(grid, values)`` with ``values`` of shape ``p x (n+1)``.

    The file must carry the ``t,x1,...,xp`` header produced by
    :func:`write_path_csv`.
    """
    header, rows = read_float_csv(stream, "path CSV", ("t", "x1"))
    if rows.shape[0] < 2 or rows.shape[1] != len(header):
        raise ConfigError("path CSV must contain at least two complete rows")
    return rows[:, 0], rows[:, 1:].T

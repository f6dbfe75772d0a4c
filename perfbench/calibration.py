"""A reference kernel that measures the host's speed, and time adjustment by it.

The host's speed swings by up to 2x within seconds and drifts by +-25 % over
minutes, and every op of a workload swings with it.  A median over one run
removes the swings but not the drift, so raw times of the same code spread
past any useful bound from run to run.  Each workload therefore runs a fixed
computation that does not use spotspectra before every timed step, and
reports each step's time scaled to the speed at which that kernel takes
``REFERENCE_KERNEL_S``::

    adjusted = raw * REFERENCE_KERNEL_S / median(kernel times nearest the step)

The kernel mixes what the workloads do (Philox draws, small numpy ops, an
interpreter loop and float formatting).  It uses no BLAS or LAPACK, so the
program's own thread settings cannot change it.  It imports only numpy, so
the parent process can time it around the set-up probes too.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference machine: a 2-vCPU x86-64 VM at a
# nominal 2.0 GHz, Python 3.11.7 and numpy 2.4.6.
REFERENCE_KERNEL_S = 2.6e-3
# Kernel runs on each side of a step that scale it.
KERNEL_HALF_WINDOW = 2


def _kernel_body() -> int:
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.standard_normal(8192)
    y = np.sort(np.exp(0.1 * x) + np.cumsum(x))
    text = ",".join(f"{v:.17g}" for v in y[:768])
    acc = 0.0
    for i in range(12000):
        acc += i * 0.5
    return len(text) + int(acc)


def reference_kernel() -> float:
    """Seconds taken by one run of the reference kernel, after a warm-up run.

    The first run after the process has waited, on a worker pool or on a
    sleep, took up to 20 % longer than the next, so only the second is timed.
    """
    _kernel_body()
    t0 = perf_counter()
    _kernel_body()
    return perf_counter() - t0


def speed_factor(kernel_s: list[float]) -> float:
    """The factor that scales raw times of a whole run to the reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_s)


def at_reference_speed(times: list[float], kernel_s: list[float]) -> list[float]:
    """Scale each step by the median of the five kernel runs nearest to it.

    ``kernel_s[i]`` ran just before step ``i``, so the window holds two runs
    before it, its own, the one just after it and the next.  The host's speed
    changes within seconds, so a window this narrow follows it more closely
    than the run's median does.
    """
    h = KERNEL_HALF_WINDOW
    return [
        t * REFERENCE_KERNEL_S / statistics.median(kernel_s[max(0, i - h) : i + h + 1])
        for i, t in enumerate(times)
    ]

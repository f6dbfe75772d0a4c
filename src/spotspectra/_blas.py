"""The one scope every kernel runs in: one OpenBLAS thread, overflow ignored.

A replication multiplies and factors matrices of at most a few hundred rows.
At that size OpenBLAS splits a Gram product, a dot product or a Cholesky
factorization across its helper threads, which changes the rounding (the
z-scores then depend on the host's thread count) and, with several worker
processes, makes each worker's spinning helpers starve the others.

:func:`kernel_scope` sets one OpenBLAS thread and numpy's ``over`` and
``invalid`` handling to ``ignore`` (a kernel reports an overflow itself, as a
``NumericalError``), and restores the caller's count and handling when the
block ends or raises.  A command enters it once, in ``cli.main``, and each
public route its own; a nested entry calls no setter.  A process forked in a
scope inherits its count of 1 and handling; after a fork a setter call restarts
OpenBLAS's spinning helpers, so a command restores once, at its end.  The
controls are looked up once per process, in the library numpy's linear algebra
is linked against; without them (another BLAS) the thread count is left alone.
:func:`core_name` reads which kernel the library picked: the last bits of a
product or a decomposition follow the kernel as they follow the thread count.
The count is process-wide: a scope is not for several Python threads at once.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Optional

import numpy as np

# (getter, setter, core name) symbols, newest numpy wheels first: numpy 2
# links scipy-openblas, numpy 1.x wheels an ILP64 OpenBLAS, system builds a
# plain one.
_CONTROL_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_corename64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_", "openblas_get_corename64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_corename"),
)


@functools.cache
def _symbols() -> Optional[tuple[Callable[[], int], Callable[[int], None], Callable[[], bytes]]]:
    """The OpenBLAS get/set-num-threads and core-name functions, or ``None``."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for names in _CONTROL_NAMES:
        try:
            get, set_, core = (getattr(lib, name) for name in names)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        core.argtypes, core.restype = (), ctypes.c_char_p
        return get, set_, core
    return None


def core_name() -> Optional[str]:
    """The OpenBLAS kernel numpy's linear algebra runs on (say, ``SkylakeX``; ``OPENBLAS_CORETYPE``
    can force one), or ``None`` on a build without OpenBLAS."""
    return None if _symbols() is None else _symbols()[2]().decode()


@functools.cache
def _controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The OpenBLAS get/set-num-threads pair, or ``None`` if there is none."""
    return None if _symbols() is None else _symbols()[:2]


class kernel_scope:
    """Run the block on one OpenBLAS thread with numpy's ``over`` and
    ``invalid`` handling at ``ignore``, then restore the caller's count and handling.

    Calls no setter when the count is already 1, so nested scopes (a kernel
    inside a sweep) leave the threads alone.  A sweep enters it once per chunk
    of replications, but the public routes (``spot_vol_from_window``,
    ``evaluate_tests``, ``eigenvalues_sym``) enter it once per call, and a
    caller may make one call per replication.  So it is a class: per nested
    entry it costs about 3.2 µs, a generator context manager 4.8 µs (Python
    3.11, numpy 2.4 on an AVX-512 Xeon).
    """

    __slots__ = ("_old", "_fp")

    def __enter__(self) -> None:
        self._fp = np.errstate(over="ignore", invalid="ignore")
        self._fp.__enter__()
        controls = _controls()
        self._old = controls[0]() if controls is not None else 1
        if self._old != 1:
            controls[1](1)

    def __exit__(self, *exc: object) -> None:
        if self._old != 1:
            _controls()[1](self._old)
        self._fp.__exit__(*exc)

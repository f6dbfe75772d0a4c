"""One OpenBLAS thread around the per-replication kernels.

A replication multiplies and factors matrices of at most a few hundred rows.
At that size OpenBLAS splits a Gram product, a dot product or a Cholesky
factorization across its helper threads, which changes the rounding (the
z-scores then depend on the host's thread count) and, with several worker
processes, makes each worker's spinning helpers starve the others.

:func:`one_thread` runs a block on one OpenBLAS thread and restores the
caller's count afterwards.  A worker process forked inside a scope inherits
its count of 1; after a fork any setter call would restart OpenBLAS's
spinning helper threads.  The controls are looked up once per process in
the library numpy's linear algebra is linked against; on a build without
them (another BLAS) every call here does nothing and the library default
stands.  :func:`core_name` reads which kernel the library picked: the last
bits of a product or a decomposition follow the kernel as they follow the
thread count.  The thread count is process-wide, so a scope is not meant to be
entered from several Python threads at once.
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
def _library() -> Optional[ctypes.CDLL]:
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


@functools.cache
def core_name() -> Optional[str]:
    """The name of the OpenBLAS kernel numpy's linear algebra runs on (say,
    ``SkylakeX`` or ``Haswell``; ``OPENBLAS_CORETYPE`` can force one), or
    ``None`` on a build without OpenBLAS."""
    for *_, name in _CONTROL_NAMES:
        get = getattr(_library(), name, None)
        if get is not None:
            get.argtypes, get.restype = (), ctypes.c_char_p
            return get().decode()
    return None


@functools.cache
def _controls() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """The OpenBLAS get/set-num-threads pair, or ``None`` if there is none."""
    lib = _library()
    if lib is None:
        return None
    for get_name, set_name, _ in _CONTROL_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


class one_thread:
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    Does nothing when the count is already 1, so nested scopes (a kernel
    inside a sweep) never call the setter.  A sweep enters it once per chunk
    of replications, but the public routes (``spot_vol_from_window``,
    ``evaluate_tests``, ``eigenvalues_sym``) enter it once per call, and a
    caller may make one call per replication.  So it is a class: per nested
    entry it costs about 0.6 µs, a generator context manager 1.5 µs (Python
    3.11 on an AVX-512 Xeon).
    """

    __slots__ = ("_old",)

    def __enter__(self) -> None:
        controls = _controls()
        self._old = controls[0]() if controls is not None else 1
        if self._old != 1:
            controls[1](1)

    def __exit__(self, *exc: object) -> None:
        if self._old != 1:
            _controls()[1](self._old)


"""Shared fixtures."""

import pytest

from spotspectra import _blas, harness


@pytest.fixture
def blas_threads():
    """OpenBLAS ``(get, set)`` thread-count controls; the count the test
    found is restored after it.  Skips on a BLAS without the controls."""
    controls = _blas._controls()
    if controls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = controls
    old = get()
    yield controls
    set_(old)


@pytest.fixture
def no_child_floor(monkeypatch):
    """Let a run fork a child for a chunk of any size, so that a small test
    design exercises worker processes as a large one would."""
    monkeypatch.setattr(harness, "_CHILD_MIN_ROWS", 1)

"""One-thread OpenBLAS scope around the per-replication kernels."""

import numpy as np
import pytest

from spotspectra import _blas


def test_one_thread_restores_the_callers_count(blas_threads):
    get, set_ = blas_threads
    set_(2)
    with _blas.one_thread():
        assert get() == 1
        with _blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with _blas.one_thread():
            raise RuntimeError("inside")
    assert get() == 2


def test_openblas_builds_expose_thread_controls():
    # A numpy linked against OpenBLAS must not fall back to the silent no-op.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report its BLAS build")
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy is linked against {blas.get('name')!r}, not OpenBLAS")
    assert _blas._controls() is not None


def test_setter_runs_only_when_the_count_is_not_1(monkeypatch):
    # After a fork any setter call restarts OpenBLAS's helper threads, so a
    # count that is already 1 (nested scopes, forked pool workers) is left alone.
    for count, expected in ((1, []), (3, [1, 3])):
        calls = []
        monkeypatch.setattr(_blas, "_controls", lambda: (lambda: count, calls.append))
        with _blas.one_thread():
            pass
        assert calls == expected
        calls.clear()
        _blas.set_one_thread()
        assert calls == expected[:1]


def test_without_thread_controls_the_scopes_do_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: None)
    with _blas.one_thread():
        pass
    _blas.set_one_thread()

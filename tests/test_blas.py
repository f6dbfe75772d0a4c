"""The kernel scope: one OpenBLAS thread, numpy's overflow handling at ignore;
and the source guards that keep it, and file input and output, each in one
module."""

import re
from pathlib import Path

import numpy as np
import pytest

from spotspectra import _blas


def test_one_thread_restores_the_callers_count(blas_threads):
    get, set_ = blas_threads
    set_(2)
    with _blas.kernel_scope():
        assert get() == 1
        with _blas.kernel_scope():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(RuntimeError, match="inside"):
        with _blas.kernel_scope():
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
    # count that is already 1 (nested scopes, forked workers) is left alone.
    for count, expected in ((1, []), (3, [1, 3])):
        calls = []
        monkeypatch.setattr(_blas, "_controls", lambda: (lambda: count, calls.append))
        with _blas.kernel_scope():
            pass
        assert calls == expected


def test_without_thread_controls_the_scopes_do_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_controls", lambda: None)
    with _blas.kernel_scope():
        pass


def test_scope_ignores_overflow_and_restores_the_callers_handling(blas_threads):
    get, set_ = blas_threads
    set_(2)
    with np.errstate(all="warn", under="raise"):
        caller = np.geterr()
        with _blas.kernel_scope():
            inside = np.geterr()
            assert np.isinf(np.float64(1e308) * 10.0)  # no warning, no error
        assert inside == dict(caller, over="ignore", invalid="ignore")
        assert np.geterr() == caller
        assert get() == 2
        with pytest.raises(FloatingPointError):
            with _blas.kernel_scope():
                np.float64(1e-308) * 1e-308  # the caller's "raise" still holds for underflow
        assert np.geterr() == caller
        assert get() == 2


def test_a_nested_scope_calls_no_setter(monkeypatch):
    count, calls = [3], []

    def set_(n):
        calls.append(n)
        count[0] = n

    monkeypatch.setattr(_blas, "_controls", lambda: (lambda: count[0], set_))
    with _blas.kernel_scope():
        with _blas.kernel_scope():
            assert calls == [1]
        assert calls == [1]
    assert calls == [1, 3]


def _lines_outside(module: str, pattern: str) -> list[str]:
    # Every line of a package module other than ``module`` that matches.
    sources = Path(_blas.__file__).parent.glob("*.py")
    return [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(sources) if path.name != module
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(pattern, line)
    ]


def test_only_the_kernel_scope_sets_numpys_error_handling():
    # Any other module that set it would hide or raise what a kernel reports.
    assert _lines_outside("_blas.py", r"np\.(errstate|seterr)") == []


def test_only_csvio_opens_files():
    # Any other reader or writer would need failure branches of its own and
    # print its faults in another shape.  os.open is descriptor plumbing.
    calls = r"(?<!\w)(?<!os\.)open\(|\.(read|write)_(text|bytes)\(|np\.(genfromtxt|load\w*|save\w*)\("
    assert _lines_outside("_csvio.py", calls) == []

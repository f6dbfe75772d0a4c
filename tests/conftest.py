"""Shared fixtures."""

import cmath
import hashlib
import json
from pathlib import Path

import numpy as np
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


@pytest.fixture(scope="session")
def closed_form_m():
    """``m(z, y)``: the Stieltjes transform of the unit-scale MP law with index
    ``y`` at ``z``, the Herglotz root of ``y*z*m**2 - (1 - y - z)*m + 1 = 0``."""

    def m(z, y):
        b = -(1.0 - y - z)
        disc = cmath.sqrt(b * b - 4.0 * y * z)
        for sign in (1.0, -1.0):
            root = (-b + sign * disc) / (2.0 * y * z)
            if root.imag > 0.0:
                return root
        raise AssertionError(f"no upper-half-plane root at z={z}, y={y}")

    return m


@pytest.fixture
def no_child_floor(monkeypatch):
    """Let a run fork a child for a chunk of any size, so that a small test
    design exercises worker processes as a large one would."""
    monkeypatch.setattr(harness, "_CHILD_MIN_ROWS", 1)


@pytest.fixture(scope="session")
def pin_store():
    """``tests/pins.json``: an ``any`` section and one per OpenBLAS kernel, each with
    the stack it was taken on and its pins, a sha256 hex digest or a float per key."""
    return json.loads(Path(__file__).with_name("pins.json").read_text())


@pytest.fixture(scope="session")
def pinned(pin_store):
    """``pinned(key, got)`` fails the test unless ``got`` (bytes, compared by
    sha256, or a float) is the pin ``key`` of the ``any`` section or else of
    the running kernel's: a figure prints eigenvalues and z-scores at full
    precision, and their last bits follow the kernel.  A failure names the
    key, what was got and the running stack, so pins for a new kernel are
    copied from a run on it; a mismatch also names the pin and its stack."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy that only prints its build config
        blas = {"name": "BLAS"}
    core = _blas.core_name()
    running = f"numpy {np.__version__}, {blas['name']} {blas.get('version')}, kernel {core}"

    def check(key, got):
        if isinstance(got, bytes):
            got = hashlib.sha256(got).hexdigest()
        for name in ("any", core):
            section = pin_store.get(name, {"pins": {}})
            if key in section["pins"]:
                break
        else:
            pytest.fail(f"no pin {key!r} for the OpenBLAS kernel {core!r}: got {got!r} on {running}")
        if section["pins"][key] != got:
            pytest.fail(f"pin {key!r}: expected {section['pins'][key]!r}, got {got!r}\n"
                        f"taken on {section['taken_on']}, kernel {name}\nrunning  {running}")

    return check

"""The pin store ``tests/pins.json`` and the ``pinned`` check that reads it."""

import numpy as np
import pytest

from spotspectra import _blas


def test_every_kernel_section_holds_the_same_keys_and_shares_none_with_any(pin_store):
    # A pin taken on one kernel only would fail only on the others.
    kernels = {name: set(section["pins"]) for name, section in pin_store.items() if name != "any"}
    assert sorted(kernels) == ["Haswell", "Sandybridge", "SkylakeX"]
    assert all(keys == kernels["SkylakeX"] for keys in kernels.values())
    assert not kernels["SkylakeX"] & set(pin_store["any"]["pins"])


def test_a_failed_pin_names_the_key_what_was_got_and_the_stacks(pin_store, pinned):
    key, section, core = "simulate diag seed 8: path.csv", pin_store["any"], _blas.core_name()
    with pytest.raises(pytest.fail.Exception) as failed:
        pinned(key, b"")
    expected, taken, running = str(failed.value).splitlines()
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""
    assert expected == f"pin {key!r}: expected {section['pins'][key]!r}, got {empty!r}"
    assert taken == f"taken on {section['taken_on']}, kernel any"
    assert running.startswith(f"running  numpy {np.__version__}, ") and running.endswith(f", kernel {core}")
    missing = f"^no pin 'x' for the OpenBLAS kernel {core!r}: got 0.5 on numpy {np.__version__}, "
    with pytest.raises(pytest.fail.Exception, match=missing):
        pinned("x", 0.5)
